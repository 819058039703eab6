import json
import os

import numpy as np
import pytest

from advice_csp import fileio
from advice_csp.cli import main
from advice_csp.instances import KLinInstance


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


@pytest.fixture
def maxcut_files(tmp_path, capsys):
    prefix = str(tmp_path / "mc")
    code, report, _ = run_cli(
        capsys, "gen", "maxcut-planted", "--n", "128", "--d", "8", "--gamma", "0",
        "--seed", "7", "--out", prefix, "--advice", "label", "--epsilon", "0.6",
    )
    assert code == 0
    return prefix, report


class TestGen:
    def test_writes_files_and_report(self, maxcut_files):
        prefix, report = maxcut_files
        assert os.path.exists(f"{prefix}.instance")
        assert os.path.exists(f"{prefix}.assignment")
        assert os.path.exists(f"{prefix}.advice")
        assert report["planted_value"] == 128 * 8 / 2
        assert report["planted_fraction"] == 1.0

    def test_refuses_overwrite(self, maxcut_files, capsys):
        prefix, _ = maxcut_files
        code, _, err = run_cli(
            capsys, "gen", "maxcut-planted", "--n", "128", "--d", "8",
            "--seed", "7", "--out", prefix,
        )
        assert code == 1
        assert "force" in err

    def test_force_overwrites(self, maxcut_files, capsys):
        prefix, _ = maxcut_files
        code, _, _ = run_cli(
            capsys, "gen", "maxcut-planted", "--n", "64", "--d", "4",
            "--seed", "1", "--out", prefix, "--force",
        )
        assert code == 0

    def test_klin_gen(self, tmp_path, capsys):
        prefix = str(tmp_path / "kl")
        code, report, _ = run_cli(
            capsys, "gen", "klin-planted", "--n", "40", "--k", "3", "--m", "300",
            "--delta", "0.1", "--seed", "3", "--out", prefix, "--advice", "label",
            "--epsilon", "0.8",
        )
        assert code == 0
        inst = fileio.read_instance(f"{prefix}.instance")
        assert inst.n == 40 and inst.m == 300

    def test_infeasible_params_exit_one(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "gen", "maxcut-planted", "--n", "8", "--d", "4",
            "--seed", "0", "--out", str(tmp_path / "bad"),
        )
        assert code == 1 and "error" in err


class TestSolve:
    def test_maxcut_lp_report(self, maxcut_files, capsys):
        prefix, _ = maxcut_files
        code, report, _ = run_cli(
            capsys, "solve", "maxcut-lp", "--instance", f"{prefix}.instance",
            "--advice", f"{prefix}.advice", "--c1", "1", "--c2", "1.5", "--seed", "3",
        )
        assert code == 0
        assert report["routed_to"] is None
        assert report["output"]["fraction"] >= 0
        assert report["output"]["diagnostics"]["lp_status"] in (
            "optimal", "degenerate-uniform", "infeasible",
        )
        assert report["seeds"]["master"] == 3

    def test_report_reproducible_from_seed_ledger(self, maxcut_files, capsys):
        prefix, _ = maxcut_files
        args = ("solve", "maxcut-lp", "--instance", f"{prefix}.instance",
                "--advice", f"{prefix}.advice", "--c1", "1", "--c2", "1.5",
                "--seed", "11")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first["output"]["value"] == second["output"]["value"]
        assert first["output"]["fraction"] == second["output"]["fraction"]

    def test_irregular_routes_to_qp(self, tmp_path, capsys):
        inst = KLinInstance.from_constraints(
            k=2, n=3, constraints=(((0, 1), -1, 1.0), ((1, 2), -1, 1.0))
        )
        path = str(tmp_path / "irr.instance")
        fileio.write_instance(path, inst)
        adv_path = str(tmp_path / "irr.advice")
        from advice_csp.advice import LabelAdvice

        fileio.write_advice(adv_path, LabelAdvice(values=np.array([1, -1, 1], dtype=np.int8),
                                                  epsilon=0.5))
        code, report, _ = run_cli(
            capsys, "solve", "maxcut-lp", "--instance", path, "--advice", adv_path,
        )
        assert code == 0
        assert report["routed_to"] == "qp-advice"
        assert report["output"]["value"] == 2.0

    def test_qp_advice_weighted(self, tmp_path, capsys):
        inst = KLinInstance.from_constraints(
            k=2, n=4,
            constraints=(((0, 1), 1, 2.0), ((2, 3), -1, 1.5), ((0, 3), 1, 0.5)),
        )
        path = str(tmp_path / "w.instance")
        fileio.write_instance(path, inst)
        from advice_csp.advice import LabelAdvice

        adv_path = str(tmp_path / "w.advice")
        fileio.write_advice(adv_path, LabelAdvice(values=np.ones(4, dtype=np.int8),
                                                  epsilon=1.0))
        code, report, _ = run_cli(
            capsys, "solve", "qp-advice", "--instance", path, "--advice", adv_path,
        )
        assert code == 0
        assert report["output"]["value"] == 4.0

    def test_max3lin_requires_delta(self, maxcut_files, capsys):
        prefix, _ = maxcut_files
        code, _, err = run_cli(
            capsys, "solve", "max3lin", "--instance", f"{prefix}.instance",
            "--advice", f"{prefix}.advice",
        )
        assert code == 1 and "delta" in err

    def test_max3lin_end_to_end(self, tmp_path, capsys):
        prefix = str(tmp_path / "kl")
        run_cli(capsys, "gen", "klin-planted", "--n", "30", "--k", "3", "--m", "400",
                "--delta", "0.1", "--seed", "5", "--out", prefix, "--advice", "label",
                "--epsilon", "0.8")
        code, report, _ = run_cli(
            capsys, "solve", "max3lin", "--instance", f"{prefix}.instance",
            "--advice", f"{prefix}.advice", "--delta", "0.1", "--seed", "1",
        )
        assert code == 0
        assert report["output"]["fraction"] >= 0.7
        assert report["output"]["diagnostics"]["heavy_implication_violations"] == 0

    def test_solution_file_written(self, maxcut_files, tmp_path, capsys):
        prefix, _ = maxcut_files
        out = str(tmp_path / "sol.assignment")
        code, _, _ = run_cli(
            capsys, "solve", "twolin-sdp", "--instance", f"{prefix}.instance",
            "--seed", "2", "--out", out,
        )
        assert code == 0
        values = fileio.read_assignment(out)
        assert values.shape == (128,)

    def test_parse_error_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.instance"
        bad.write_text("p klin 2 3 1\n0 1 2 1.0\n")
        code, _, err = run_cli(
            capsys, "solve", "twolin-sdp", "--instance", str(bad),
        )
        assert code == 1 and "rhs" in err


class TestBench:
    def config(self, tmp_path, **overrides):
        cfg = {
            "name": str(tmp_path / "bench-test"),
            "generator": {"kind": "maxcut-planted", "n": 64, "d": 8, "gamma": 0.0},
            "advice": {"model": "label", "epsilon": 0.6},
            "algorithm": {"name": "maxcut-lp", "threshold_coeff": 1.0, "slack_coeff": 1.5},
            "seeds": [0, 1, 2, 3],
            "threshold": {"metric": "fraction", "min": 0.8},
            "pass_rate": 0.75,
        }
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_rows_and_summary(self, tmp_path, capsys):
        path = self.config(tmp_path)
        code, summary, _ = run_cli(capsys, "bench", path)
        assert code == 0
        assert summary["rows"] == 4
        with open(summary["csv"]) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "seed,value,fraction,planted_value,planted_fraction,passed"
        assert len(lines) == 5
        recount = sum(1 for line in lines[1:] if line.endswith("True"))
        assert recount == summary["pass_count"]

    def test_missing_key_named(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"name": "x"}))
        code, _, err = run_cli(capsys, "bench", str(path))
        assert code == 1 and "generator" in err

    def test_thread_cap_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ADVICE_CSP_THREADS", "2")
        path = self.config(tmp_path, name=str(tmp_path / "bench-threads"))
        code, summary, _ = run_cli(capsys, "bench", path)
        assert code == 0 and summary["rows"] == 4

    def test_deterministic_rows(self, tmp_path, capsys, monkeypatch):
        path = self.config(tmp_path, name=str(tmp_path / "bench-a"))
        _, a, _ = run_cli(capsys, "bench", path)
        monkeypatch.setenv("ADVICE_CSP_THREADS", "3")
        path_b = self.config(tmp_path, name=str(tmp_path / "bench-b"))
        _, b, _ = run_cli(capsys, "bench", path_b)
        rows_a = open(a["csv"]).read().splitlines()[1:]
        rows_b = open(b["csv"]).read().splitlines()[1:]
        assert rows_a == rows_b


class TestEnumerateReduceVerify:
    def test_enumerate_small(self, tmp_path, capsys):
        inst = KLinInstance.from_constraints(
            k=2, n=5, constraints=tuple(((i, i + 1), 1, 1.0) for i in range(4))
        )
        path = str(tmp_path / "chain.instance")
        fileio.write_instance(path, inst)
        code, report, _ = run_cli(
            capsys, "enumerate", "--instance", path, "--epsilon", "0.2", "--seed", "1",
        )
        assert code == 0
        from advice_csp.enumeration import projected_runs

        assert report["runs"] == projected_runs(5, 0.2)
        assert report["output"]["value"] == 4.0

    def test_enumerate_budget_refusal_exit_two(self, tmp_path, capsys):
        inst = KLinInstance.from_constraints(
            k=2, n=30, constraints=tuple(((i, i + 1), 1, 1.0) for i in range(29))
        )
        path = str(tmp_path / "big.instance")
        fileio.write_instance(path, inst)
        code, _, err = run_cli(
            capsys, "enumerate", "--instance", path, "--epsilon", "0.5",
            "--cap", "1000",
        )
        assert code == 2 and "budget" in err

    def test_reduce_round_trip_counts(self, tmp_path, capsys):
        from advice_csp.instances import plant_klin

        plant = plant_klin(9, 3, 15, 0.1, seed=0)
        path = str(tmp_path / "phi.instance")
        fileio.write_instance(path, plant.instance)
        out = str(tmp_path / "phi4.instance")
        code, report, _ = run_cli(
            capsys, "reduce", "--instance", path, "--t", "5", "--out", out,
        )
        assert code == 0
        assert report["lifted"]["n"] == 14 and report["lifted"]["m"] == 75
        lifted = fileio.read_instance(out)
        assert lifted.m == 75

    def test_verify_suite_pass(self, capsys):
        code, report, _ = run_cli(capsys, "verify", "--suite", "reduction", "--seeds", "20")
        assert code == 0
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])

    def test_verify_unknown_suite(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nope"])
        _ = capsys.readouterr()
