"""Static analysis and correctness audits for the reproduction.

Four tools live here, all wired into the CLI:

- ``pace-repro lint`` — an AST-based linter with repo-specific per-file
  rules (R001-R006) enforcing the determinism invariant (all randomness
  flows through ``repro.utils.rng``), logging discipline, and
  defensive-coding hygiene. See :mod:`repro.analysis.rules`.
- ``pace-repro analyze`` — the whole-program layer on top: data-flow and
  call-graph rules (R007-R012, :mod:`repro.analysis.flow`), the
  concurrency-safety rules (R013-R016,
  :mod:`repro.analysis.concurrency`), the gradient audit, sanitized
  end-to-end smoke passes over the autograd engine and the serving layer
  (:mod:`repro.analysis.smoke`), a dynamic 2-worker write-trace
  cross-check of the process-context labels
  (:mod:`repro.analysis.concurrency.smoke`), and the compiled-vs-
  interpreted equivalence sweep over every estimator family
  (:mod:`repro.analysis.equivalence`).
- ``pace-repro gradcheck`` — a finite-difference audit of every layer and
  loss in the hand-rolled ``repro.nn`` autograd engine.
- ``pace-repro verify-ir`` — the static IR verifier and translation
  validator for compiled plans (R017-R019, :mod:`repro.analysis.ir`),
  plus the compile-site coverage flow rule (R020); also folded into
  ``analyze``.

Findings render as text, JSON, or SARIF 2.1.0
(:mod:`repro.analysis.sarif`).
"""

from repro.analysis.equivalence import (
    EquivalenceCase,
    EquivalenceResult,
    run_equivalence,
)
from repro.analysis.flow import all_flow_rules, flow_rule_ids, run_flow
from repro.analysis.ir import (
    IRVerificationResult,
    PlanReport,
    fixture_plans,
    ir_rule_ids,
    run_ir_verification,
    verify_plan,
    verify_plans,
)
from repro.analysis.gradcheck import (
    DEFAULT_TOLERANCE,
    GradCheckResult,
    case_names,
    max_relative_error,
    run_compiled_gradcheck,
    run_gradcheck,
)
from repro.analysis.report import (
    findings_payload,
    gradcheck_payload,
    render_gradcheck_json,
    render_json,
    render_text,
    summary_line,
)
from repro.analysis.concurrency.smoke import TraceSmokeResult, run_trace_smoke
from repro.analysis.sarif import render_sarif, sarif_payload
from repro.analysis.smoke import (
    ServeSmokeResult,
    SmokeResult,
    run_serve_smoke,
    run_smoke,
)
from repro.analysis.walker import (
    Finding,
    LintContext,
    Rule,
    all_rules,
    lint_file,
    register,
    rule_ids,
    run_lint,
)

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "all_rules",
    "lint_file",
    "register",
    "rule_ids",
    "run_lint",
    "run_flow",
    "all_flow_rules",
    "flow_rule_ids",
    "render_text",
    "render_json",
    "summary_line",
    "findings_payload",
    "gradcheck_payload",
    "render_gradcheck_json",
    "GradCheckResult",
    "run_gradcheck",
    "run_compiled_gradcheck",
    "max_relative_error",
    "case_names",
    "DEFAULT_TOLERANCE",
    "SmokeResult",
    "run_smoke",
    "ServeSmokeResult",
    "run_serve_smoke",
    "TraceSmokeResult",
    "run_trace_smoke",
    "EquivalenceCase",
    "EquivalenceResult",
    "run_equivalence",
    "IRVerificationResult",
    "PlanReport",
    "fixture_plans",
    "ir_rule_ids",
    "run_ir_verification",
    "verify_plan",
    "verify_plans",
    "render_sarif",
    "sarif_payload",
]
