"""Flow-rule registry and driver, mirroring the per-file walker's API.

Flow rules (R007+) need the whole program at once — a call graph, a
reference index, helper-return summaries — so they cannot run inside the
per-file ``lint_file`` loop. They share everything else with the linter:
the :class:`~repro.analysis.walker.Finding` type, the text/JSON report
renderers, and ``# noqa`` suppression semantics (any line of the flagged
statement can carry the comment).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.flow.program import ModuleInfo, Program, build_program
from repro.analysis.walker import SEVERITIES, Finding, suppressed_in_range


class FlowRule:
    """Base class for whole-program rules.

    Subclasses set ``rule_id``/``title``/``severity``/``hint`` and
    implement :meth:`check` over a :class:`Program`, yielding findings
    against *target* modules only.
    """

    rule_id: str = ""
    title: str = ""
    severity: str = "error"
    hint: str = ""

    def check(self, program: Program) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: ModuleInfo,
        node: ast.AST,
        message: str,
        hint: str | None = None,
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            message=message,
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            severity=self.severity,
            hint=hint if hint is not None else (self.hint or None),
            end_line=getattr(node, "end_lineno", None),
        )


_FLOW_REGISTRY: dict[str, type[FlowRule]] = {}


def register_flow(cls: type[FlowRule]) -> type[FlowRule]:
    """Class decorator adding a flow rule to the registry."""
    if not re.fullmatch(r"R\d{3}", cls.rule_id):
        raise ValueError(f"rule id must look like R007, got {cls.rule_id!r}")
    if cls.severity not in SEVERITIES:
        raise ValueError(f"severity must be one of {SEVERITIES}, got {cls.severity!r}")
    if cls.rule_id in _FLOW_REGISTRY and _FLOW_REGISTRY[cls.rule_id] is not cls:
        raise ValueError(f"duplicate flow rule id {cls.rule_id}")
    _FLOW_REGISTRY[cls.rule_id] = cls
    return cls


def flow_rule_ids() -> list[str]:
    """Sorted ids of every registered whole-program rule."""
    from repro.analysis.flow import rules as _rules  # noqa — import registers the rules

    del _rules
    return sorted(_FLOW_REGISTRY)


def all_flow_rules(select: Iterable[str] | None = None) -> list[FlowRule]:
    """Instantiate registered flow rules, optionally restricted to ids."""
    known = flow_rule_ids()
    wanted = None if select is None else {s.strip().upper() for s in select}
    if wanted is not None:
        unknown = wanted - set(known)
        if unknown:
            raise KeyError(
                f"unknown flow rule ids: {', '.join(sorted(unknown))} "
                f"(known flow rules: {', '.join(known)})"
            )
    return [
        _FLOW_REGISTRY[rule_id]()
        for rule_id in known
        if wanted is None or rule_id in wanted
    ]


def run_flow(
    paths: Iterable[Path | str],
    reference_paths: Iterable[Path | str] = (),
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Run the whole-program rules over ``paths``.

    ``reference_paths`` (tests, benchmarks, examples) widen the universe
    the analyses see — a helper called only from a test is *not* dead —
    without themselves being flagged.

    Concurrency findings (R013–R016) and compile-site coverage (R020)
    honor the structured ``# safe:`` suppression in addition to
    ``# noqa``; malformed and non-load-bearing ``# safe:`` annotations
    are themselves reported (E998/E997) against the rules that ran.
    """
    from repro.analysis.concurrency.safe import (
        STRUCTURED_RULE_IDS,
        safe_suppressions,
    )

    rules = all_flow_rules(select=select)
    program = build_program(paths, reference_paths=reference_paths)
    safe = safe_suppressions(program)
    by_display = {m.display_path: m for m in program.modules.values()}
    findings = []
    for rule in rules:
        for finding in rule.check(program):
            module = by_display.get(finding.path)
            if module is not None:
                if suppressed_in_range(
                    module.suppressions, finding.rule_id, finding.line, finding.end_line
                ):
                    continue
                if finding.rule_id in STRUCTURED_RULE_IDS and safe.suppresses(
                    module, finding.rule_id, finding.line, finding.end_line
                ):
                    continue
            findings.append(finding)
    # Audit the structured suppressions against the rules that actually
    # ran: a note is "unused" only if every rule it names ran and none
    # fired, so a partial --select never produces false E997 findings.
    for finding in safe.findings(ran_ids={rule.rule_id for rule in rules}):
        module = by_display.get(finding.path)
        if module is not None and suppressed_in_range(
            module.suppressions, finding.rule_id, finding.line, finding.end_line
        ):
            continue
        findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings
