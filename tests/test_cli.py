import csv
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from advice_csp import cli, fileio, maxcut
from advice_csp.advice import LabelAdvice
from advice_csp.cli import main
from advice_csp.instances import KLinInstance, evaluate, plant_klin
from advice_csp.lp import LpOutcome
from advice_csp.max3lin import Max3LinDiagnostics
from advice_csp.maxcut import CutDiagnostics


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = (json.loads(captured.out, parse_constant=_reject_constant)
              if captured.out.strip() else None)
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

    def test_invalid_advice_leaves_no_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "p")
        argv = ["gen", "klin-planted", "--n", "20", "--m", "50", "--out", prefix,
                "--advice", "label"]
        code, _, err = run_cli(capsys, *argv, "--epsilon", "1.5")
        assert code == 1 and "epsilon" in err
        assert os.listdir(tmp_path) == []
        code, _, _ = run_cli(capsys, *argv, "--epsilon", "0.5")
        assert code == 0
        assert sorted(os.listdir(tmp_path)) == ["p.advice", "p.assignment", "p.instance"]

    def test_infeasible_params_exit_one(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "gen", "maxcut-planted", "--n", "8", "--d", "4",
            "--seed", "0", "--out", str(tmp_path / "bad"),
        )
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("kind, size_args, missing", [
        ("maxcut-planted", ("--n", "64"), "--d"),
        ("klin-planted", ("--n", "20"), "--m"),
    ])
    def test_missing_size_flag_exit_one(self, tmp_path, capsys, kind, size_args, missing):
        code, _, err = run_cli(capsys, "gen", kind, *size_args, "--out", str(tmp_path / "p"))
        assert code == 1 and f"error: {kind} requires {missing}" in err
        assert os.listdir(tmp_path) == []


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
        assert set(report["output"]["diagnostics"]) == (
            {"fallback"} | {f.name for f in fields(CutDiagnostics)})

    def test_maxcut_lp_fallback_report(self, maxcut_files, capsys, monkeypatch):
        monkeypatch.setattr(maxcut, "solve_lp", lambda lp: LpOutcome("infeasible"))
        prefix, _ = maxcut_files
        code, report, _ = run_cli(
            capsys, "solve", "maxcut-lp", "--instance", f"{prefix}.instance",
            "--advice", f"{prefix}.advice", "--c1", "1", "--c2", "1.5", "--seed", "3",
        )
        assert code == 0
        diag = report["output"]["diagnostics"]
        assert diag["lp_status"] == "infeasible"
        assert diag["lp_value"] is None and diag["fallback"] is True

    def test_report_reproducible_from_seed_ledger(self, maxcut_files, capsys):
        prefix, _ = maxcut_files
        args = ("solve", "maxcut-lp", "--instance", f"{prefix}.instance",
                "--advice", f"{prefix}.advice", "--c1", "1", "--c2", "1.5",
                "--seed", "11")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first["output"]["value"] == second["output"]["value"]
        assert first["output"]["fraction"] == second["output"]["fraction"]

    @staticmethod
    def solve_maxcut_lp(tmp_path, capsys, constraints, labels):
        inst = KLinInstance.from_constraints(k=2, n=3, constraints=constraints)
        path = str(tmp_path / "irr.instance")
        fileio.write_instance(path, inst)
        adv_path = str(tmp_path / "irr.advice")
        fileio.write_advice(adv_path, LabelAdvice(values=np.array(labels, dtype=np.int8),
                                                  epsilon=0.5))
        return run_cli(capsys, "solve", "maxcut-lp", "--instance", path, "--advice", adv_path)

    def test_irregular_routes_to_qp(self, tmp_path, capsys):
        # a path: a graph, but not a regular one
        code, report, _ = self.solve_maxcut_lp(
            tmp_path, capsys, (((0, 1), -1, 1.0), ((1, 2), -1, 1.0)), [1, -1, 1])
        assert code == 0
        assert report["routed_to"] == "qp-advice"
        assert report["output"]["value"] == 2.0

    def test_non_graph_routes_to_qp(self, tmp_path, capsys):
        # an rhs +1 constraint has no graph form at all
        code, report, _ = self.solve_maxcut_lp(
            tmp_path, capsys, (((0, 1), 1, 1.0), ((1, 2), -1, 1.0)), [1, 1, -1])
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
        assert set(report["output"]["diagnostics"]) == (
            {"fallback"} | {f.name for f in fields(Max3LinDiagnostics)})

    def test_max3lin_value_is_the_satisfied_weight(self, tmp_path, capsys):
        # 230 of 300 unit-weight constraints are satisfied; rebuilding the
        # weight as fraction * total gives 230.00000000000003.
        prefix = str(tmp_path / "kl")
        run_cli(capsys, "gen", "klin-planted", "--n", "30", "--k", "3", "--m", "300",
                "--delta", "0.1", "--seed", "27", "--out", prefix, "--advice", "label",
                "--epsilon", "0.8")
        code, report, _ = run_cli(
            capsys, "solve", "max3lin", "--instance", f"{prefix}.instance",
            "--advice", f"{prefix}.advice", "--delta", "0.1", "--seed", "27",
        )
        assert code == 0
        assert report["output"]["value"] == 230.0
        assert report["output"]["fraction"] == 230 / 300

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

    @pytest.mark.parametrize("algorithm", ["twolin-sdp", "qp-advice", "maxcut-lp", "max3lin"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--rank", "1", "relaxation rank must be >= 2"),
        ("--trials", "0", "at least one rounding trial is required"),
        ("--sweeps", "-1", "relaxation sweep count must be >= 0"),
    ])
    def test_bad_twolin_config_exits_one(self, maxcut_files, capsys, algorithm, flag, value,
                                         message):
        prefix, _ = maxcut_files
        code, _, err = run_cli(
            capsys, "solve", algorithm, "--instance", f"{prefix}.instance",
            "--advice", f"{prefix}.advice", "--delta", "0.1", flag, value,
        )
        assert code == 1 and message in err

    def test_parse_error_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.instance"
        bad.write_text("p klin 2 3 1\n0 1 2 1.0\n")
        code, _, err = run_cli(
            capsys, "solve", "twolin-sdp", "--instance", str(bad),
        )
        assert code == 1 and "rhs" in err

    def test_advice_length_mismatch_exits_one(self, maxcut_files, tmp_path, capsys):
        prefix, _ = maxcut_files
        short = str(tmp_path / "short.advice")
        fileio.write_advice(short, LabelAdvice(values=np.ones(64, dtype=np.int8), epsilon=0.5))
        code, report, err = run_cli(
            capsys, "solve", "maxcut-lp", "--instance", f"{prefix}.instance", "--advice", short,
        )
        assert code == 1 and report is None
        assert "advice length 64 does not match instance n=128" in err

    def test_qp_advice_requires_advice(self, maxcut_files, capsys):
        prefix, _ = maxcut_files
        code, report, err = run_cli(
            capsys, "solve", "qp-advice", "--instance", f"{prefix}.instance",
        )
        assert code == 1 and report is None
        assert "algorithm qp-advice requires --advice" in err

    def test_advice_fault_names_line_and_exits_one(self, maxcut_files, tmp_path, capsys):
        prefix, _ = maxcut_files
        bad = tmp_path / "bad.advice"
        bad.write_text("a subset 128 0.5\n3 +1\n200 -1\n")
        code, _, err = run_cli(
            capsys, "solve", "maxcut-lp", "--instance", f"{prefix}.instance",
            "--advice", str(bad),
        )
        assert code == 1 and f"{bad}:3: revealed index 200 out of range" in err

    @pytest.mark.parametrize("k, command", [
        (2, "solve twolin-sdp"), (2, "solve qp-advice --advice {advice}"),
        (2, "solve maxcut-lp --advice {advice}"), (2, "enumerate --epsilon 0.5"),
        (3, "solve max3lin --advice {advice} --delta 0.1"),
    ])
    def test_zero_weight_instance(self, tmp_path, capsys, k, command):
        # every weight is zero: nothing to satisfy, as with no constraints
        path, advice = str(tmp_path / "zero.instance"), str(tmp_path / "zero.advice")
        fileio.write_instance(path, KLinInstance.from_constraints(
            k, 4, (((0, 1, 2)[:k], 1, 0.0), ((1, 2, 3)[:k], -1, 0.0))))
        fileio.write_advice(advice, LabelAdvice(values=np.ones(4, dtype=np.int8), epsilon=0.5))
        code, report, err = run_cli(capsys, *command.format(advice=advice).split(),
                                    "--instance", path)
        assert code == 0, err
        assert (report["output"]["value"], report["output"]["fraction"]) == (0.0, 1.0)


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
        assert lines[0] == (
            "seed,value,fraction,planted_value,planted_fraction,passed,"
            "fallback,lp_status,lp_value,f_y,f_y_recount,balance_violations,"
            "q_cut_direct,q_cut_identity_twice,committed,undecided")
        assert len(lines) == 5
        with open(summary["csv"]) as fh:
            recount = sum(row["passed"] == "True" for row in csv.DictReader(fh))
        assert recount == summary["pass_count"]

    @pytest.mark.parametrize("override, message", [
        ({"algorithm": {"name": "max3lni"}}, "unknown algorithm 'max3lni'"),
        ({"algorithm": {}}, "unknown algorithm None"),
        ({"advice": {"model": "labels", "epsilon": 0.6}}, "unknown advice model 'labels'"),
    ])
    def test_unknown_name_fails_before_planting(self, tmp_path, capsys, monkeypatch,
                                                override, message):
        planted = []
        monkeypatch.setattr(cli, "_plant", lambda gen, seed: planted.append(seed))
        code, _, err = run_cli(capsys, "bench", self.config(tmp_path, **override))
        assert code == 1 and message in err
        assert planted == []

    def test_unmet_threshold_exits_one(self, tmp_path, capsys):
        path = self.config(tmp_path, threshold={"metric": "fraction", "min": 1.5})
        code, summary, _ = run_cli(capsys, "bench", path)
        assert code == 1
        assert summary["passed"] is False and summary["pass_count"] == 0

    def test_missing_key_named(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"name": "x"}))
        code, _, err = run_cli(capsys, "bench", str(path))
        assert code == 1 and "generator" in err

    def test_deterministic_rows(self, tmp_path, capsys):
        path = self.config(tmp_path, name=str(tmp_path / "bench-a"))
        _, a, _ = run_cli(capsys, "bench", path)
        path_b = self.config(tmp_path, name=str(tmp_path / "bench-b"))
        _, b, _ = run_cli(capsys, "bench", path_b)
        with open(a["csv"]) as fa, open(b["csv"]) as fb:
            assert fa.read().splitlines()[1:] == fb.read().splitlines()[1:]

    def test_existing_csv_refused_before_running(self, tmp_path, capsys):
        path = self.config(tmp_path, algorithm={"name": "nope"})
        taken = tmp_path / "bench-test.csv"
        taken.write_text("keep\n")
        code, _, err = run_cli(capsys, "bench", path)
        assert code == 1 and "refusing to overwrite" in err
        assert taken.read_text() == "keep\n"

    @pytest.mark.parametrize("override, named", [
        ({"seeds": {"start": 0}}, "seeds.count"),
        ({"advice": {"model": "label"}}, "advice.epsilon"),
        ({"algorithm": {"name": "max3lin"}}, "algorithm.delta"),
        ({"generator": {"kind": "klin-planted", "n": 30, "k": 3}}, "generator.m"),
        ({"threshold": {"metric": "ratio", "min": 0.5}}, "ratio"),
        ({"seeds": []}, "seeds"),
        ({"seeds": {"start": 0, "count": 0}}, "seeds.count"),
        ({"seeds": {"count": -3}}, "seeds.count"),
        ({"pass_rate": -1.0}, "pass_rate"),
        ({"pass_rate": 0.0}, "pass_rate"),
        ({"pass_rate": 1.5}, "pass_rate"),
        ({"seeds": 5}, "seeds"),
        ({"seeds": "ab"}, "seeds"),
        ({"seeds": {"count": 1.5}}, "seeds.count"),
        ({"seeds": {"start": "0", "count": 2}}, "seeds.start"),
        ({"pass_rate": "x"}, "pass_rate"),
        ({"threshold": {"metric": "value", "min": "high"}}, "threshold.min"),
        ({"advice": {"model": "label", "epsilon": "x"}}, "advice.epsilon"),
        ({"generator": {"kind": "maxcut-planted", "n": "64", "d": 8}}, "generator.n"),
        ({"algorithm": {"name": "maxcut-lp", "threshold_coeff": "a"}},
         "algorithm.threshold_coeff"),
        ({"advice": "label"}, "advice"),
        ({"name": 7}, "name"),
        ({"generator": {"kind": "maxcut-plant", "n": 64, "d": 8}}, "maxcut-plant"),
    ])
    def test_config_error_names_key(self, tmp_path, capsys, override, named):
        path = self.config(tmp_path, **override)
        code, _, err = run_cli(capsys, "bench", path)
        assert code == 1 and f"'{named}'" in err
        assert not os.path.exists(tmp_path / "bench-test.csv")

    def test_seed_range_runs_start_to_start_plus_count(self, tmp_path, capsys):
        path = self.config(tmp_path, seeds={"start": 3, "count": 2})
        code, summary, _ = run_cli(capsys, "bench", path)
        assert code == 0 and summary["rows"] == 2
        with open(summary["csv"]) as fh:
            assert [row["seed"] for row in csv.DictReader(fh)] == ["3", "4"]

    def test_qp_advice_on_a_graph(self, tmp_path, capsys):
        # the bench solves a planted graph as its Max-Cut 2-Lin instance
        path = self.config(tmp_path, algorithm={"name": "qp-advice"}, seeds=[0, 1])
        code, summary, _ = run_cli(capsys, "bench", path)
        assert code == 0 and summary["rows"] == 2
        with open(summary["csv"]) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["seed", "value", "fraction", "planted_value",
                                 "planted_fraction", "passed", "fallback"]
        # 64 vertices of degree 8 give 256 edges
        assert all(float(r["value"]) == float(r["fraction"]) * 256 for r in rows)

    @pytest.mark.parametrize("generator, algorithm, gen_args, solve_args", [
        ({"kind": "klin-planted", "n": 30, "k": 3, "m": 400, "delta": 0.1},
         {"name": "max3lin", "delta": 0.1},
         ("klin-planted", "--n", "30", "--k", "3", "--m", "400", "--delta", "0.1"),
         ("max3lin", "--delta", "0.1")),
        ({"kind": "maxcut-planted", "n": 128, "d": 8, "gamma": 0.0},
         {"name": "maxcut-lp", "threshold_coeff": 1.0, "slack_coeff": 1.5},
         ("maxcut-planted", "--n", "128", "--d", "8", "--gamma", "0"),
         ("maxcut-lp", "--c1", "1", "--c2", "1.5")),
    ])
    def test_solve_matches_bench_row(self, tmp_path, capsys, generator, algorithm,
                                     gen_args, solve_args):
        # both advice models; subset advice becomes labels on (seed, 1, 1) in
        # each, and the solve ledger names that stream
        seed = 5
        for model in ("label", "subset"):
            path = self.config(tmp_path, name=str(tmp_path / f"bench-{model}"),
                               generator=generator, algorithm=algorithm,
                               advice={"model": model, "epsilon": 0.8}, seeds=[4, seed])
            _, summary, _ = run_cli(capsys, "bench", path)
            with open(summary["csv"]) as fh:
                row = next(r for r in csv.DictReader(fh) if r["seed"] == str(seed))
            prefix = str(tmp_path / f"planted-{model}")
            code, _, _ = run_cli(capsys, "gen", *gen_args, "--seed", str(seed), "--out", prefix,
                                 "--advice", model, "--epsilon", "0.8")
            assert code == 0
            code, report, _ = run_cli(
                capsys, "solve", *solve_args, "--instance", f"{prefix}.instance",
                "--advice", f"{prefix}.advice", "--seed", str(seed),
            )
            assert code == 0
            assert (model, report["output"]["value"]) == (model, float(row["value"]))
            assert report["output"]["fraction"] == float(row["fraction"])
            ledger = {"master": seed, "advice_stream": [seed, 1], "algorithm_stream": [seed, 2]}
            if model == "subset":
                ledger["conversion_stream"] = [seed, 1, 1]
            assert report["seeds"] == ledger


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

    def test_enumerate_writes_best_assignment(self, tmp_path, capsys):
        plant = plant_klin(8, 2, 20, 0.2, seed=3)
        path, out = str(tmp_path / "p.instance"), str(tmp_path / "best.assignment")
        fileio.write_instance(path, plant.instance)
        code, report, _ = run_cli(
            capsys, "enumerate", "--instance", path, "--epsilon", "0.2", "--seed", "1",
            "--out", out,
        )
        assert code == 0
        value, fraction = evaluate(plant.instance, fileio.read_assignment(out))
        assert report["output"] == {"value": value, "fraction": fraction}

    def test_enumerate_twolin_sdp_inner(self, tmp_path, capsys):
        inst = KLinInstance.from_constraints(
            k=2, n=5, constraints=tuple(((i, i + 1), 1, 1.0) for i in range(4))
        )
        path = str(tmp_path / "chain.instance")
        fileio.write_instance(path, inst)
        code, report, _ = run_cli(
            capsys, "enumerate", "--instance", path, "--epsilon", "0.2", "--seed", "1",
            "--inner", "twolin-sdp",
        )
        from advice_csp.enumeration import projected_runs

        assert code == 0 and report["inner"] == "twolin-sdp"
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

    @pytest.mark.parametrize("command", [
        ("enumerate", "--epsilon", "0.5", "--cap", "1000"),
        ("solve", "qp-advice"),
    ])
    def test_existing_out_refused_before_solving(self, tmp_path, capsys, command):
        inst = KLinInstance.from_constraints(
            k=2, n=30, constraints=tuple(((i, i + 1), 1, 1.0) for i in range(29))
        )
        path = str(tmp_path / "big.instance")
        fileio.write_instance(path, inst)
        taken = tmp_path / "taken.assignment"
        taken.write_text("keep\n")
        code, _, err = run_cli(capsys, *command, "--instance", path, "--out", str(taken))
        assert code == 1 and "refusing to overwrite" in err
        assert taken.read_text() == "keep\n"

    def test_reduce_round_trip_counts(self, tmp_path, capsys):
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
