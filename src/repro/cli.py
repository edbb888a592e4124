"""Command-line interface: run attacks and experiments without code.

Examples::

    python -m repro attack --dataset dmv --model fcn --method pace
    python -m repro attack --dataset tpch --model mscn --method lbg --count 48
    python -m repro speculate --dataset dmv --model lstm
    python -m repro serve-sim --dataset dmv --model mscn --rounds 3
    python -m repro cluster-sim --drill --output CLUSTER_DRILL.json
    python -m repro ops-sim --chaos --output OPS_SIM.json
    python -m repro lint --format json
    python -m repro analyze
    python -m repro analyze --changed
    python -m repro verify-ir --format sarif --output ir-verify.sarif
    python -m repro gradcheck --format json
    python -m repro info
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.ce.registry import MODEL_TYPES
from repro.datasets.registry import DATASET_NAMES
from repro.harness import METHODS, get_scenario, run_attack
from repro.metrics import QErrorSummary, render_table
from repro.utils.config import available_scales, get_scale


#: Default on-disk location of the durable artifact/run store.
DEFAULT_STORE = "runs-store"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=DATASET_NAMES, default="dmv")
    parser.add_argument("--model", choices=MODEL_TYPES, default="fcn")
    parser.add_argument("--scale", choices=available_scales(), default=None)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PACE: poisoning attacks on learned cardinality estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    attack = sub.add_parser("attack", help="run one poisoning attack end to end")
    _add_common(attack)
    attack.add_argument("--method", choices=METHODS, default="pace")
    attack.add_argument("--count", type=int, default=None,
                        help="number of poisoning queries (default: scale's)")
    attack.add_argument("--algorithm", choices=("accelerated", "basic"),
                        default="accelerated")
    attack.add_argument("--no-detector", action="store_true",
                        help="train the generator without the VAE adversary")

    speculate = sub.add_parser(
        "speculate", help="probe a deployed model and speculate its type"
    )
    _add_common(speculate)

    profile = sub.add_parser(
        "profile", help="per-phase wall-clock breakdown of one scenario"
    )
    _add_common(profile)
    profile.add_argument("--method", choices=METHODS, default="pace")
    profile.add_argument("--real-timing", action="store_true",
                         help="use the real clock for speculation latency "
                              "probes (default: deterministic fake clock)")
    profile.add_argument("--compile", action="store_true",
                         help="force compiled execution on for the run "
                              "(default: honor REPRO_COMPILE)")

    lint = sub.add_parser(
        "lint", help="run the repo-specific per-file static-analysis rules (R001-R006)"
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint (default: the repro package)")
    lint.add_argument("--format", choices=("text", "json", "sarif"), default="text")
    lint.add_argument("--fix-hints", action="store_true",
                      help="show an autofix hint under each finding")
    lint.add_argument("--select", default=None, metavar="IDS",
                      help="comma-separated rule ids to run (e.g. R001,R004)")
    lint.add_argument("--ignore", default=None, metavar="IDS",
                      help="comma-separated rule ids to skip")

    analyze = sub.add_parser(
        "analyze",
        help="full audit: lint + whole-program flow rules (R007-R012) "
             "+ concurrency rules (R013-R016) + compile-site coverage (R020) "
             "+ gradient audit + sanitized autograd/serve smoke passes "
             "+ dynamic context-label trace smoke "
             "+ compiled-vs-interpreted equivalence sweep "
             "+ IR verification of the compiled plans (R017-R019)",
    )
    analyze.add_argument("paths", nargs="*", metavar="PATH",
                         help="files/directories to analyze (default: the repro package)")
    analyze.add_argument("--format", choices=("text", "json", "sarif"), default="text")
    analyze.add_argument("--fix-hints", action="store_true",
                         help="show an autofix hint under each finding")
    analyze.add_argument("--fast", action="store_true",
                         help="static rules only: skip the gradient audit and "
                              "every dynamic smoke pass")
    analyze.add_argument("--select", default=None, metavar="IDS",
                         help="comma-separated flow rule ids to run "
                              "(e.g. R013,R015); per-file lint rules always run")
    analyze.add_argument("--no-cache", action="store_true",
                         help="bypass the per-file parse cache "
                              "(.pace-analyze-cache)")
    analyze.add_argument("--skip-gradcheck", action="store_true",
                         help="skip the finite-difference gradient audit")
    analyze.add_argument("--skip-smoke", action="store_true",
                         help="skip the sanitized autograd, serve, and "
                              "context-trace smoke passes and the "
                              "compiled-vs-interpreted equivalence sweep")
    analyze.add_argument("--seed", type=int, default=0,
                         help="seed for the sanitized smoke pass")
    analyze.add_argument("--changed", action="store_true",
                         help="scope the static pass to files modified in the "
                              "git working tree (diff vs HEAD + untracked); "
                              "runs lint + flow rules only — the concurrency "
                              "layer, IR verification, and dynamic passes are "
                              "skipped (they need the whole program)")

    verify_ir = sub.add_parser(
        "verify-ir",
        help="static IR verifier + translation validator for compiled plans "
             "(R017 shape/dtype, R018 buffer safety, R019 translation); "
             "verifies every plan the equivalence sweep builds, plus the "
             "deterministic fixture plans — no kernel is executed",
    )
    verify_ir.add_argument("--fast", action="store_true",
                           help="verify only the fixture plans (skip the "
                                "equivalence sweep that builds the real ones)")
    verify_ir.add_argument("--seed", type=int, default=0,
                           help="seed for the plan-building sweep")
    verify_ir.add_argument("--format", choices=("text", "json", "sarif"),
                           default="text")
    verify_ir.add_argument("--output", default=None, metavar="PATH",
                           help="also write the report to this path "
                                "(atomic write)")

    serve_sim = sub.add_parser(
        "serve-sim",
        help="online serving simulation: benign + PACE attacker traffic over "
             "N retrain rounds, guarded vs unguarded promotion",
    )
    _add_common(serve_sim)
    serve_sim.add_argument("--rounds", type=int, default=3,
                           help="retrain rounds per arm (default: 3)")
    serve_sim.add_argument("--requests", type=int, default=64,
                           help="arrivals per round (default: 64)")
    serve_sim.add_argument("--qps", type=float, default=256.0,
                           help="mean arrival rate (default: 256)")
    serve_sim.add_argument("--poison-fraction", type=float, default=0.5,
                           help="probability an arrival is the attacker's "
                                "(default: 0.5)")
    serve_sim.add_argument("--method", choices=METHODS, default="pace",
                           help="attack crafting the poison pool (default: pace)")
    serve_sim.add_argument("--guard-factor", type=float, default=1.5,
                           help="promotion envelope: candidate mean q-error may "
                                "be at most factor x clean baseline (default: 1.5)")
    serve_sim.add_argument("--compile", action="store_true",
                           help="force compiled execution on for both arms "
                                "(default: inherit the process-wide toggle)")
    serve_sim.add_argument("--output", default=None,
                           help="also write the JSON report to this path")

    cluster_sim = sub.add_parser(
        "cluster-sim",
        help="sharded multi-worker serving simulation: consistent-hash "
             "router, replicated promotion, deterministic failure drills",
    )
    _add_common(cluster_sim)
    cluster_sim.add_argument("--workers", type=int, default=2,
                             help="shard workers (default: 2)")
    cluster_sim.add_argument("--tenants", type=int, default=4,
                             help="tenant estimator families (default: 4)")
    cluster_sim.add_argument("--rounds", type=int, default=2,
                             help="retrain rounds per arm (default: 2)")
    cluster_sim.add_argument("--requests", type=int, default=48,
                             help="arrivals per round (default: 48)")
    cluster_sim.add_argument("--qps", type=float, default=512.0,
                             help="mean arrival rate (default: 512)")
    cluster_sim.add_argument("--poison-fraction", type=float, default=0.5,
                             help="probability an arrival is the attacker's "
                                  "(default: 0.5)")
    cluster_sim.add_argument("--method", choices=METHODS, default="pace",
                             help="attack crafting the poison pool "
                                  "(default: pace)")
    cluster_sim.add_argument("--guard-factor", type=float, default=1.5,
                             help="promotion envelope for the guarded arm "
                                  "(default: 1.5)")
    cluster_sim.add_argument("--transport", choices=("inline", "process"),
                             default="inline",
                             help="worker transport: deterministic in-process "
                                  "or real spawned processes (default: inline)")
    cluster_sim.add_argument("--store", default="cluster-store",
                             help="shared promotion store root "
                                  "(default: cluster-store)")
    cluster_sim.add_argument("--drill", action="store_true",
                             help="failure drills: kill a worker mid-traffic "
                                  "and compare scenario digests against the "
                                  "undisturbed run, then kill it again with "
                                  "respawn off and check the survivors serve "
                                  "every request; exits 1 if either fails "
                                  "(needs --workers >= 2)")
    cluster_sim.add_argument("--drill-worker", type=int, default=0,
                             help="worker the drill kills (default: 0)")
    cluster_sim.add_argument("--output", default=None,
                             help="also write the JSON report to this path")

    ops_sim = sub.add_parser(
        "ops-sim",
        help="autonomous-ops simulation: unannounced mid-session poisoning, "
             "detect -> diagnose -> rollback/guard, with and without the "
             "ops controller; digests byte-identical per seed",
    )
    _add_common(ops_sim)
    ops_sim.add_argument("--rounds", type=int, default=5,
                         help="retrain rounds per arm (default: 5)")
    ops_sim.add_argument("--requests", type=int, default=192,
                         help="arrivals per round (default: 192)")
    ops_sim.add_argument("--qps", type=float, default=256.0,
                         help="mean arrival rate (default: 256)")
    ops_sim.add_argument("--poison-fraction", type=float, default=0.5,
                         help="attacker share of arrivals once chaos starts "
                              "(default: 0.5)")
    ops_sim.add_argument("--method", choices=METHODS, default="pace",
                         help="attack crafting the poison pool (default: pace)")
    ops_sim.add_argument("--chaos-round", type=int, default=2,
                         help="first round whose arrivals include the attacker "
                              "(default: 2)")
    ops_sim.add_argument("--guard-factor", type=float, default=1.1,
                         help="envelope of the guard the controller installs "
                              "on recovery (default: 1.1)")
    ops_sim.add_argument("--store", default="ops-store",
                         help="lineage store root (default: ops-store)")
    ops_sim.add_argument("--chaos", action="store_true",
                         help="gate mode: exit 1 unless the controller "
                              "detected the attack, recovered within the "
                              "envelope, recorded lineage, and the repeated "
                              "run's scenario digest matched byte-for-byte")
    ops_sim.add_argument("--no-stability", action="store_true",
                         help="skip the repeated ops arm (faster; digest "
                              "stability is then not checked)")
    ops_sim.add_argument("--output", default=None,
                         help="also write the JSON report to this path")

    gradcheck = sub.add_parser(
        "gradcheck",
        help="audit repro.nn gradients against finite differences",
    )
    gradcheck.add_argument("--tolerance", type=float, default=None,
                           help="max relative error allowed (default: 1e-4)")
    gradcheck.add_argument("--format", choices=("text", "json"), default="text")

    grid = sub.add_parser(
        "grid",
        help="durable attack grid: every step checkpointed in a run store, "
             "resumable after a crash",
    )
    grid.add_argument("--datasets", nargs="+", choices=DATASET_NAMES,
                      default=["dmv"])
    grid.add_argument("--models", nargs="+", choices=MODEL_TYPES,
                      default=["fcn"])
    grid.add_argument("--methods", nargs="+", choices=METHODS,
                      default=["clean", "random"])
    grid.add_argument("--scale", choices=available_scales(), default=None)
    grid.add_argument("--seed", type=int, default=0)
    grid.add_argument("--count", type=int, default=None,
                      help="poisoning queries per cell (default: scale's)")
    grid.add_argument("--store", default=DEFAULT_STORE,
                      help=f"artifact store root (default: {DEFAULT_STORE})")
    grid.add_argument("--run-id", default=None,
                      help="run id (default: derived from pipeline+seed+params)")
    grid.add_argument("--resume", action="store_true",
                      help="resume this run if it already exists")
    grid.add_argument("--crash-at", default=None, metavar="SITE",
                      help="inject a deterministic crash at this fault site "
                           "(fnmatch glob, e.g. 'step:cell:*:pre-commit'); "
                           "exits 3 — used by the CI crash-resume smoke")

    runs = sub.add_parser("runs", help="inspect and resume durable runs")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="one summary row per run")
    runs_show = runs_sub.add_parser(
        "show", help="steps, artifacts, lineage, and events of one run"
    )
    runs_show.add_argument("run_id")
    runs_resume = runs_sub.add_parser(
        "resume", help="finish an interrupted run (completed steps replay "
                       "from their verified checkpoints)"
    )
    runs_resume.add_argument("run_id")
    runs_gc = runs_sub.add_parser(
        "gc", help="drop unreferenced blobs and stray temp files"
    )
    for sp in (runs_list, runs_show, runs_resume, runs_gc):
        sp.add_argument("--store", default=DEFAULT_STORE,
                        help=f"artifact store root (default: {DEFAULT_STORE})")

    sub.add_parser("info", help="list datasets, model types, methods, scales")
    return parser


def cmd_attack(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.dataset, args.model, scale=args.scale, seed=args.seed)
    outcome = run_attack(
        scenario,
        args.method,
        count=args.count,
        algorithm=args.algorithm,
        use_detector=not args.no_detector,
    )
    before = QErrorSummary.from_errors(outcome.before)
    after = QErrorSummary.from_errors(outcome.after)
    rows = [
        ["clean", before.mean, before.p90, before.p95, before.p99, before.max],
        [args.method, after.mean, after.p90, after.p95, after.p99, after.max],
    ]
    print(render_table(
        ["state", "mean", "90th", "95th", "99th", "max"],
        rows,
        title=f"{args.dataset}/{args.model}: Q-error before/after {args.method}",
    ))
    print(f"\ndegradation factor: {outcome.degradation:.2f}x")
    print(f"poisoning queries:  {len(outcome.poison_queries)}")
    print(f"JS divergence:      {outcome.divergence:.4f}")
    print(f"timings: train {outcome.train_seconds:.2f}s, "
          f"generate {outcome.generate_seconds:.3f}s, "
          f"attack {outcome.attack_seconds:.3f}s")
    return 0


def cmd_speculate(args: argparse.Namespace) -> int:
    from repro.attack import speculate_model_type, train_candidates
    from repro.ce import TrainConfig
    from repro.workload import WorkloadGenerator

    scale = get_scale(args.scale)
    scenario = get_scenario(args.dataset, args.model, scale=scale, seed=args.seed)
    candidates = train_candidates(
        scenario.encoder,
        scenario.train_workload,
        hidden_dim=scale.hidden_dim,
        train_config=TrainConfig(epochs=max(scale.train_epochs // 2, 10)),
        seed=args.seed,
    )
    probes = WorkloadGenerator(
        scenario.database, scenario.executor, seed=args.seed + 5
    ).probe_workloads(queries_per_group=scale.probe_queries_per_group)
    result = speculate_model_type(scenario.deployed, candidates, probes)
    rows = sorted(result.similarities.items(), key=lambda kv: -kv[1])
    print(render_table(
        ["candidate type", "cosine similarity"],
        [[name, sim] for name, sim in rows],
        title=f"deployed: {args.model} -> speculated: {result.speculated_type}",
    ))
    return 0 if result.speculated_type == args.model else 1


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.perf import format_profile, profile_scenario

    profile = profile_scenario(
        dataset=args.dataset,
        model_type=args.model,
        method=args.method,
        scale=args.scale,
        seed=args.seed,
        deterministic_timing=not args.real_timing,
        compile_enabled=True if args.compile else None,
    )
    print(format_profile(profile))
    return 0


def cmd_serve_sim(args: argparse.Namespace) -> int:
    from repro.serve import ServeSimConfig, format_serve_report, run_serve_sim
    from repro.store.io import atomic_write_json

    config = ServeSimConfig(
        dataset=args.dataset,
        model_type=args.model,
        scale=args.scale or "smoke",
        seed=args.seed,
        rounds=args.rounds,
        requests_per_round=args.requests,
        qps=args.qps,
        poison_fraction=args.poison_fraction,
        attack_method=args.method,
        guard_factor=args.guard_factor,
        compile_enabled=True if args.compile else None,
    )
    report = run_serve_sim(config)
    print(format_serve_report(report))
    if args.output:
        # sort_keys makes equal-seed runs byte-identical on disk.
        out = atomic_write_json(Path(args.output), report, sort_keys=True)
        print(f"\nreport written to {out}")
    return 0


def cmd_cluster_sim(args: argparse.Namespace) -> int:
    from repro.cluster.sim import (
        ClusterSimConfig,
        format_cluster_report,
        format_drill_report,
        run_cluster_drill,
        run_cluster_sim,
        run_reroute_drill,
    )
    from repro.store.io import atomic_write_json

    if args.drill and args.workers < 2:
        print("cluster-sim: error: --drill needs --workers >= 2 (the re-route "
              "drill must leave a survivor)", file=sys.stderr)
        return 2
    config = ClusterSimConfig(
        dataset=args.dataset,
        model_type=args.model,
        scale=args.scale or "smoke",
        seed=args.seed,
        workers=args.workers,
        tenants=args.tenants,
        rounds=args.rounds,
        requests_per_round=args.requests,
        qps=args.qps,
        poison_fraction=args.poison_fraction,
        attack_method=args.method,
        guard_factor=args.guard_factor,
        transport=args.transport,
        store_root=args.store,
        drill_worker=args.drill_worker,
    )
    if args.drill:
        report = run_cluster_drill(config)
        report["reroute_drill"] = run_reroute_drill(config)
        print(format_drill_report(report))
        ok = (report["identical"] and report["drill"]["fired"]
              and report["reroute_drill"]["drill"]["ok"])
    else:
        report = run_cluster_sim(config)
        print(format_cluster_report(report))
        ok = True
    if args.output:
        # sort_keys makes equal-seed runs byte-identical on disk.
        out = atomic_write_json(Path(args.output), report, sort_keys=True)
        print(f"\nreport written to {out}")
    return 0 if ok else 1


def cmd_ops_sim(args: argparse.Namespace) -> int:
    from repro.ops.sim import OpsSimConfig, format_ops_report, run_ops_sim
    from repro.store.io import atomic_write_json

    config = OpsSimConfig(
        dataset=args.dataset,
        model_type=args.model,
        scale=args.scale or "smoke",
        seed=args.seed,
        rounds=args.rounds,
        chaos_round=args.chaos_round,
        requests_per_round=args.requests,
        qps=args.qps,
        poison_fraction=args.poison_fraction,
        attack_method=args.method,
        guard_factor=args.guard_factor,
        store_root=args.store,
    )
    report = run_ops_sim(config, stability=not args.no_stability)
    print(format_ops_report(report))
    if args.output:
        # sort_keys makes equal-seed runs byte-identical on disk.
        out = atomic_write_json(Path(args.output), report, sort_keys=True)
        print(f"\nreport written to {out}")
    if args.chaos and not report["verdict"]["ok"]:
        return 1
    return 0


def _default_analysis_targets(paths: list[str]) -> list[Path]:
    if paths:
        return [Path(p) for p in paths]
    # Analyze the installed package source itself.
    return [Path(__file__).resolve().parent]


def _changed_python_files(targets: list[Path]) -> list[Path] | None:
    """Modified/untracked ``.py`` files under ``targets``, None off-git.

    "Modified" is the union of ``git diff --name-only HEAD`` (staged or
    not) and untracked non-ignored files; deleted files drop out because
    there is nothing left to analyze.
    """
    import subprocess

    def _git(*argv: str) -> list[str]:
        proc = subprocess.run(
            ["git", *argv], capture_output=True, text=True, check=True
        )
        return [line.strip() for line in proc.stdout.splitlines() if line.strip()]

    try:
        top = Path(_git("rev-parse", "--show-toplevel")[0])
        names = set(_git("diff", "--name-only", "HEAD"))
        names.update(_git("ls-files", "--others", "--exclude-standard"))
    except (OSError, IndexError, subprocess.CalledProcessError):
        return None
    roots = [t.resolve() for t in targets]
    changed: list[Path] = []
    for name in sorted(names):
        path = top / name
        if path.suffix != ".py" or not path.exists():
            continue
        resolved = path.resolve()
        if any(resolved == root or root in resolved.parents for root in roots):
            changed.append(path)
    return changed


def _analyze_changed(
    args: argparse.Namespace,
    targets: list[Path],
    reference_roots: list[Path],
    select: list[str] | None,
) -> int:
    """The diff-scoped static pass behind ``analyze --changed``."""
    import json

    from repro.analysis import (
        Finding,
        findings_payload,
        flow_rule_ids,
        render_text,
        run_flow,
        run_lint,
    )
    from repro.analysis.concurrency.safe import CONCURRENCY_RULE_IDS

    changed = _changed_python_files(targets)
    if changed is None:
        print("analyze: error: --changed requires a git work tree",
              file=sys.stderr)
        return 2
    if not changed:
        print("analyze --changed: no modified python files under the targets")
        return 0
    if select is None:
        # The concurrency rules (R013-R016) and compile-site coverage
        # (R020) judge a file against context that lives mostly in
        # *unchanged* files; a diff-scoped run of them would produce
        # verdicts the full pass might contradict, so they only run in
        # the whole-program mode.
        select = sorted(
            set(flow_rule_ids()) - set(CONCURRENCY_RULE_IDS) - {"R020"}
        )
    try:
        findings = run_lint(changed)
        # The unchanged source plus the usual test/benchmark roots stay
        # visible as references so e.g. dead-code verdicts don't flip.
        findings += run_flow(
            changed,
            reference_paths=[*targets, *reference_roots],
            select=select,
        )
    except (KeyError, FileNotFoundError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"analyze: error: {message}", file=sys.stderr)
        return 2
    findings.sort(key=Finding.sort_key)
    if args.format == "json":
        print(json.dumps({
            "ok": not findings,
            "changed": [str(path) for path in changed],
            "findings": findings_payload(findings),
        }, indent=2))
    elif args.format == "sarif":
        from repro.analysis import render_sarif

        print(render_sarif(findings))
    else:
        print(f"analyze --changed: {len(changed)} modified file(s)")
        print(render_text(findings, show_hints=args.fix_hints))
    return 1 if findings else 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import flow_rule_ids, render_json, render_text, run_lint

    targets = _default_analysis_targets(args.paths)
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    try:
        findings = run_lint(targets, select=select, ignore=ignore)
    except (KeyError, FileNotFoundError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        requested = [s.strip().upper() for s in (select or []) + (ignore or [])]
        flow_ids = set(flow_rule_ids())
        if any(r in flow_ids for r in requested):
            message += (
                "; R007-R011 are whole-program rules — run 'pace-repro analyze'"
            )
        print(f"lint: error: {message}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        from repro.analysis import render_sarif

        print(render_sarif(findings))
    else:
        print(render_text(findings, show_hints=args.fix_hints))
    return 1 if findings else 0


def cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import (
        Finding,
        findings_payload,
        gradcheck_payload,
        max_relative_error,
        render_text,
        run_equivalence,
        run_flow,
        run_gradcheck,
        run_lint,
        run_serve_smoke,
        run_smoke,
        run_trace_smoke,
    )
    from repro.analysis.flow.cache import ProgramCache
    from repro.analysis.flow.program import build_program

    targets = _default_analysis_targets(args.paths)
    # Tests/benchmarks/examples are parsed as callers (a helper used only
    # by a test is not dead code) but never flagged themselves.
    reference_roots = [
        candidate
        for name in ("tests", "benchmarks", "examples", "setup.py")
        if (candidate := Path.cwd() / name).exists()
    ]
    select = args.select.split(",") if args.select else None
    if args.changed:
        return _analyze_changed(args, targets, reference_roots, select)
    cache = None if args.no_cache else ProgramCache()
    try:
        findings = run_lint(targets)
        program = build_program(targets, reference_paths=reference_roots, cache=cache)
        findings += run_flow(
            targets, reference_paths=reference_roots, select=select, program=program
        )
    except (KeyError, FileNotFoundError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"analyze: error: {message}", file=sys.stderr)
        return 2
    findings.sort(key=Finding.sort_key)

    run_dynamic = not args.fast
    skip_smoke = args.skip_smoke or not run_dynamic
    gradcheck_results = (
        None if (args.skip_gradcheck or not run_dynamic) else run_gradcheck()
    )
    smoke = None if skip_smoke else run_smoke(seed=args.seed)
    serve_smoke = None if skip_smoke else run_serve_smoke(seed=args.seed)
    trace_smoke = None if skip_smoke else run_trace_smoke(seed=args.seed)
    equivalence = None if skip_smoke else run_equivalence(seed=args.seed)

    # IR verification always runs: over every plan the sweep just built
    # (plus the fixtures) normally, or over the fixture plans alone when
    # the sweep was skipped — the static layers stay exercised even under
    # --fast.
    from repro.analysis.ir import fixture_plans, verify_plans

    if equivalence is None:
        verify_ir = verify_plans(fixture_plans(), "fixtures")
    else:
        from repro.nn.compile import iter_plans

        declined = [c.name for c in equivalence.cases if "declined" in c.detail]
        verify_ir = verify_plans(
            [*iter_plans(), *fixture_plans()], "sweep+fixtures", declined
        )
    findings += verify_ir.findings
    findings.sort(key=Finding.sort_key)

    gradcheck_ok = gradcheck_results is None or all(r.passed for r in gradcheck_results)
    smoke_ok = smoke is None or smoke.passed
    serve_ok = serve_smoke is None or serve_smoke.passed
    trace_ok = trace_smoke is None or trace_smoke.passed
    equivalence_ok = equivalence is None or equivalence.passed
    ok = (not findings and gradcheck_ok and smoke_ok and serve_ok and trace_ok
          and equivalence_ok and verify_ir.passed)

    if args.format == "json":
        payload = {
            "ok": ok,
            "findings": findings_payload(findings),
            "gradcheck": None if gradcheck_results is None
            else gradcheck_payload(gradcheck_results),
            "smoke": None if smoke is None else smoke.as_dict(),
            "serve_smoke": None if serve_smoke is None else serve_smoke.as_dict(),
            "trace_smoke": None if trace_smoke is None else trace_smoke.as_dict(),
            "equivalence": None if equivalence is None else equivalence.as_dict(),
            "verify_ir": verify_ir.as_dict(),
        }
        print(json.dumps(payload, indent=2))
        return 0 if ok else 1

    if args.format == "sarif":
        from repro.analysis import render_sarif

        print(render_sarif(findings))
        return 0 if ok else 1

    print(render_text(findings, show_hints=args.fix_hints))
    if gradcheck_results is not None:
        worst = max_relative_error(gradcheck_results)
        status = "ok" if gradcheck_ok else "FAIL"
        print(f"gradcheck: {status} (max relative error {worst:.3e}, "
              f"{len(gradcheck_results)} cases)")
    if smoke is not None:
        if smoke.passed:
            print(f"smoke: ok ({smoke.checks} sanitizer checks over "
                  f"{smoke.modules} modules)")
        else:
            print(f"smoke: FAIL — {smoke.detail}")
    if serve_smoke is not None:
        if serve_smoke.passed:
            print(f"serve-smoke: ok ({serve_smoke.checks} invariants over "
                  f"{serve_smoke.requests} requests)")
        else:
            print(f"serve-smoke: FAIL — {serve_smoke.detail}")
    if trace_smoke is not None:
        if trace_smoke.passed:
            print(f"trace-smoke: ok ({trace_smoke.observed} write sites "
                  f"observed across {trace_smoke.workers} workers, all "
                  "statically labeled)")
        else:
            print(f"trace-smoke: FAIL — {trace_smoke.detail}")
    if equivalence is not None:
        if equivalence.passed:
            identical = "byte-identical" if equivalence.byte_identical else (
                f"max |diff| {equivalence.max_abs_diff:.3e}"
            )
            print(f"equivalence: ok ({len(equivalence.cases)} compiled-vs-"
                  f"interpreted cases, {identical})")
        else:
            failing = [c.name for c in equivalence.cases if not c.passed]
            print(f"equivalence: FAIL — {', '.join(failing)}")
    if verify_ir.passed:
        checks = sum(sum(r.checks.values()) for r in verify_ir.reports)
        print(f"verify-ir: ok ({len(verify_ir.reports)} plans, "
              f"{checks} static checks, source {verify_ir.source})")
    else:
        failing = [r.label for r in verify_ir.reports if not r.passed]
        failing += [f"{name} (declined)" for name in verify_ir.declined]
        print(f"verify-ir: FAIL — {', '.join(failing)}")
    print(f"analyze: {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_verify_ir(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.ir import run_ir_verification

    result = run_ir_verification(seed=args.seed, fast=args.fast)
    if args.format == "json":
        text = json.dumps(result.as_dict(), indent=2)
    elif args.format == "sarif":
        from repro.analysis import render_sarif

        text = render_sarif(result.findings)
    else:
        lines = []
        for report in result.reports:
            checks = sum(report.checks.values())
            status = "ok" if report.passed else "FAIL"
            lines.append(
                f"{report.label}: {status} ({report.nodes} nodes, "
                f"{report.kernels} kernels, {checks} checks)"
            )
            for finding in report.findings:
                lines.append(
                    f"  {finding.rule_id} [{finding.severity}] {finding.message}"
                )
        for name in result.declined:
            lines.append(
                f"declined: {name} — the site never compiled, so no plan "
                f"exists to verify"
            )
        verdict = "ok" if result.passed else "FAIL"
        lines.append(
            f"verify-ir: {verdict} ({len(result.reports)} plans, "
            f"source {result.source})"
        )
        text = "\n".join(lines)
    if args.output:
        from repro.store.io import atomic_write_bytes

        out = atomic_write_bytes(
            Path(args.output), (text + "\n").encode("utf-8")
        )
        print(f"report written to {out}", file=sys.stderr)
    else:
        print(text)
    return 0 if result.passed else 1


def cmd_gradcheck(args: argparse.Namespace) -> int:
    from repro.analysis import (
        DEFAULT_TOLERANCE,
        max_relative_error,
        render_gradcheck_json,
        run_gradcheck,
    )

    tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    results = run_gradcheck(tolerance=tolerance)
    if args.format == "json":
        print(render_gradcheck_json(results))
        return 0 if all(r.passed for r in results) else 1
    rows = [
        [r.name, f"{r.max_rel_error:.3e}", str(r.checked), "ok" if r.passed else "FAIL"]
        for r in results
    ]
    print(render_table(
        ["layer / loss", "max rel error", "grads", "status"],
        rows,
        title="repro.nn gradient audit (analytic vs central finite differences)",
    ))
    compiled = [r for r in results if r.kernels]
    if compiled:
        print("\nfused kernels audited:")
        for r in compiled:
            print(f"  {r.name}: {', '.join(r.kernels)}")
    worst = max_relative_error(results)
    print(f"\nmax relative error: {worst:.3e} (tolerance {tolerance:g})")
    return 0 if all(r.passed for r in results) else 1


def _print_grid_result(store, result) -> None:
    print(f"run:      {result.run_id}")
    print(f"executed: {len(result.executed)}  skipped: {len(result.skipped)}")
    report = result.final
    for cell in report.get("grid", []):
        print(f"  {cell['dataset']}/{cell['model']}/{cell['method']}: "
              f"degradation x{cell['degradation']:.2f} "
              f"divergence {cell['divergence']:.3f}")
    digest = store.open_run(result.run_id).step("report")["artifact"]
    print(f"report:   {digest}")


def cmd_grid(args: argparse.Namespace) -> int:
    from repro.harness.pipelines import run_grid_durable
    from repro.store import ArtifactStore, CrashPoint, FaultInjector, FaultSpec, inject

    store = ArtifactStore(args.store)
    injector = FaultInjector(
        [FaultSpec(site=args.crash_at, kind="crash")] if args.crash_at else []
    )
    try:
        with inject(injector):
            result = run_grid_durable(
                store,
                datasets=args.datasets,
                models=args.models,
                methods=args.methods,
                scale=args.scale or "smoke",
                seed=args.seed,
                count=args.count,
                run_id=args.run_id,
                resume=args.resume,
            )
    except CrashPoint as crash:
        run_id = next(iter(store.run_ids()), "<run-id>")
        print(f"crashed (injected) at {crash.site!r}")
        print(f"resume with: pace-repro runs resume {run_id} --store {args.store}")
        return 3
    _print_grid_result(store, result)
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    from repro.store import ArtifactStore, resume_run

    store = ArtifactStore(args.store)
    if args.runs_command == "list":
        rows = store.list_runs()
        if not rows:
            print(f"no runs in {args.store}")
            return 0
        for row in rows:
            print(f"{row['run_id']}: {row['status']} "
                  f"({row['steps_done']}/{row['steps_total']} steps, "
                  f"{row['events']} events, pipeline {row['pipeline']}, "
                  f"seed {row['seed']})")
        return 0
    if args.runs_command == "show":
        manifest = store.open_run(args.run_id).manifest
        print(f"run:      {manifest['run_id']}")
        print(f"pipeline: {manifest['pipeline']}  seed {manifest['seed']}  "
              f"status {manifest['status']}")
        for name in manifest["step_order"]:
            entry = manifest["steps"][name]
            artifact = entry.get("artifact") or "-"
            seconds = entry.get("seconds")
            timing = f" {seconds:.2f}s" if seconds is not None else ""
            print(f"  [{entry['status']}] {name}{timing} -> {artifact[:12]}")
            for parent in entry.get("parents", []):
                print(f"      parent {parent[:12]}")
        for event in manifest.get("events", []):
            digest = event.get("digest")
            suffix = f" -> {digest[:12]}" if digest else ""
            print(f"  event {event['index']}: {event['kind']}{suffix}")
        return 0
    if args.runs_command == "resume":
        import repro.harness.pipelines  # noqa: F401  (registers builders)

        result = resume_run(store, args.run_id)
        print(f"resumed {args.run_id}: executed {len(result.executed)}, "
              f"replayed {len(result.skipped)} from checkpoints")
        final = store.open_run(args.run_id).step(result.final_step)
        print(f"final artifact: {final['artifact']}")
        return 0
    from repro.utils.errors import StoreError

    try:
        report = store.gc()
    except StoreError as exc:
        # Live manifest locks: a concurrent writer is mid-commit and
        # sweeping now could free blobs its manifest still references.
        print(f"gc declined: {exc}")
        return 1
    print(f"gc: removed {report['removed_objects']} objects "
          f"({report['bytes_freed']} bytes), kept {report['kept_objects']}, "
          f"swept {report['stray_tmp_removed']} temp files "
          f"and {report['stale_locks_removed']} stale locks "
          f"across {report['runs']} runs")
    return 0


def cmd_info(_args: argparse.Namespace) -> int:
    print("datasets:   ", ", ".join(DATASET_NAMES))
    print("model types:", ", ".join(MODEL_TYPES))
    print("methods:    ", ", ".join(METHODS))
    print("scales:     ", ", ".join(available_scales()),
          f"(active: {get_scale().name})")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "attack": cmd_attack,
        "speculate": cmd_speculate,
        "profile": cmd_profile,
        "serve-sim": cmd_serve_sim,
        "cluster-sim": cmd_cluster_sim,
        "ops-sim": cmd_ops_sim,
        "lint": cmd_lint,
        "analyze": cmd_analyze,
        "verify-ir": cmd_verify_ir,
        "gradcheck": cmd_gradcheck,
        "grid": cmd_grid,
        "runs": cmd_runs,
        "info": cmd_info,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
