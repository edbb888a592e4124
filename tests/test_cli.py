"""CLI smoke and contract tests."""

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        assert "required: command" in capsys.readouterr().err

    def test_attack_defaults(self):
        args = build_parser().parse_args(["attack"])
        assert args.dataset == "dmv"
        assert args.method == "pace"
        assert not args.no_detector

    def test_rejects_unknown_dataset(self, capsys):
        # argparse writes the usage/error text to stderr before exiting;
        # capture it so it doesn't pollute the pytest output, and pin the
        # message while we're at it.
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["attack", "--dataset", "northwind"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'northwind'" in err


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "dmv" in out and "pace" in out and "smoke" in out

    def test_attack_random_end_to_end(self, capsys):
        code = main([
            "attack", "--dataset", "dmv", "--model", "fcn",
            "--method", "random", "--count", "8", "--scale", "smoke",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "degradation factor" in out
        assert "Q-error before/after random" in out

    def test_attack_pace_end_to_end(self, capsys):
        code = main([
            "attack", "--dataset", "dmv", "--model", "fcn",
            "--method", "pace", "--count", "12", "--scale", "smoke",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "poisoning queries:  12" in out


class TestAnalysisCommands:
    def test_lint_self_is_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_lint_reports_violations_with_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n"
            "rng = np.random.default_rng(3)\n"
            "print('done')\n"
        )
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out and "R004" in out
        assert f"{bad}:2:7:" in out

    def test_lint_json_format(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text("print('x')\n")
        assert main(["lint", "--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "R004"
        assert payload[0]["line"] == 1

    def test_lint_select_restricts_rules(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("print('x')\n")
        assert main(["lint", "--select", "R001", str(bad)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert "FAIL" not in out

    def test_lint_unknown_select_exits_2(self, capsys):
        assert main(["lint", "--select", "R999"]) == 2
        err = capsys.readouterr().err
        assert "lint: error:" in err
        assert "R999" in err

    def test_lint_flow_rule_select_points_at_analyze(self, capsys):
        assert main(["lint", "--select", "R007"]) == 2
        err = capsys.readouterr().err
        assert "pace-repro analyze" in err

    def test_lint_ignore_skips_rule(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("print('x')\n")
        assert main(["lint", "--ignore", "R004", str(bad)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_unknown_ignore_exits_2(self, capsys):
        assert main(["lint", "--ignore", "R999"]) == 2
        assert "R999" in capsys.readouterr().err

    def test_gradcheck_json_format(self, capsys):
        import json

        assert main(["gradcheck", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["cases"]
        assert {"name", "max_rel_error", "checked", "tolerance", "passed"} <= set(
            payload["cases"][0]
        )

    def test_analyze_repo_is_clean(self, capsys):
        # The acceptance gate: lint + whole-program flow + gradcheck + a
        # sanitized training smoke over the real package must all pass.
        import json

        assert main(["analyze", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert payload["gradcheck"]["passed"] is True
        assert payload["smoke"]["passed"] is True

    def test_analyze_flags_planted_violation(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text(
            "import numpy as np\n\n"
            "def sample():\n"
            "    return np.random.default_rng(0).normal(size=3)\n"
        )
        code = main([
            "analyze", str(tmp_path), "--skip-gradcheck", "--skip-smoke",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "R001" in out
        assert "analyze: FAIL" in out


class TestDurableRunCommands:
    @pytest.fixture()
    def store_dir(self, tmp_path):
        return str(tmp_path / "store")

    def grid(self, store_dir, *extra):
        return main([
            "grid", "--methods", "clean", "random", "--scale", "smoke",
            "--store", store_dir, *extra,
        ])

    def test_grid_runs_and_reports_cells(self, store_dir, capsys):
        assert self.grid(store_dir) == 0
        out = capsys.readouterr().out
        assert "dmv/fcn/clean" in out and "dmv/fcn/random" in out
        assert "report:" in out

    def test_existing_run_requires_resume_flag(self, store_dir, capsys):
        assert self.grid(store_dir) == 0
        from repro.utils.errors import StoreError

        with pytest.raises(StoreError, match="resume"):
            self.grid(store_dir)
        capsys.readouterr()
        assert self.grid(store_dir, "--resume") == 0
        assert "executed: 0" in capsys.readouterr().out

    def test_injected_crash_exits_3_then_runs_resume(self, store_dir, capsys):
        code = self.grid(store_dir, "--crash-at",
                         "step:cell:dmv/fcn/random:pre-commit")
        assert code == 3
        out = capsys.readouterr().out
        assert "crashed (injected)" in out
        assert "pace-repro runs resume" in out

        assert main(["runs", "list", "--store", store_dir]) == 0
        listing = capsys.readouterr().out
        assert "running" in listing
        run_id = listing.split(":")[0].strip()

        assert main(["runs", "resume", run_id, "--store", store_dir]) == 0
        resumed = capsys.readouterr().out
        assert "replayed" in resumed and "final artifact" in resumed

        assert main(["runs", "show", run_id, "--store", store_dir]) == 0
        shown = capsys.readouterr().out
        assert "[done] report" in shown
        assert "parent" in shown

        assert main(["runs", "gc", "--store", store_dir]) == 0
        assert "removed 0 objects" in capsys.readouterr().out


class TestClusterDrillCommand:
    """``cluster-sim --drill`` gates on both the kill and the re-route drill.

    The drill itself is covered in ``tests/cluster``; here it is stubbed
    so only the command's exit-code contract is exercised.
    """

    @staticmethod
    def _report(identical=True, fired=True, reroute_ok=True):
        return {
            "drill": {"worker": 0, "ordinal": 1, "round": 2, "fired": fired},
            "reference": {"respawns": 0, "digest": "0" * 64},
            "drilled": {"respawns": int(fired), "digest": "0" * 64},
            "identical": identical,
            "reroute_drill": {"drill": {
                "worker": 0, "fired": reroute_ok, "workers_after": 1,
                "all_finalized": reroute_ok, "ok": reroute_ok,
            }},
        }

    @pytest.fixture()
    def drills(self, monkeypatch):
        import repro.cluster.sim as sim

        verdicts = {"identical": True, "fired": True, "reroute_ok": True}
        monkeypatch.setattr(
            sim, "run_cluster_drill", lambda config: self._report(**verdicts)
        )
        return verdicts

    @pytest.mark.parametrize("failing, expected", [
        (None, 0), ("identical", 1), ("fired", 1), ("reroute_ok", 1),
    ])
    def test_exit_code_needs_every_drill_verdict(
        self, drills, failing, expected, tmp_path, capsys
    ):
        if failing:
            drills[failing] = False
        code = main(["cluster-sim", "--drill", "--store", str(tmp_path)])
        assert code == expected
        out = capsys.readouterr().out
        assert "scenario digest" in out and "reroute drill" in out

    def test_single_worker_drill_is_a_usage_error(self, drills, capsys):
        assert main(["cluster-sim", "--drill", "--workers", "1"]) == 2
        assert "--workers >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("worker", ["-1", "2", "5"])
    def test_drill_worker_outside_the_cluster_is_a_usage_error(
        self, drills, worker, capsys
    ):
        code = main(["cluster-sim", "--drill", "--drill-worker", worker])
        assert code == 2
        assert "--drill-worker must be in [0, 2)" in capsys.readouterr().err


def test_cli_import_leaves_networkx_out():
    # networkx is a dev-only test oracle; a fresh interpreter importing the
    # CLI must not load it.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, repro.cli; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "False"
