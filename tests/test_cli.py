"""Command line verbs, exit codes, and report/CSV output formats.

Most tests drive cli.main() in process for speed; one test goes through the
installed console script to cover the entry point itself.  That script
exists only once `pip install -e .` has put `pathode` on PATH, so the test
is skipped where it is absent.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import pathode
from pathode import MaxIterationsError, load_csv_dataset, load_moment_json, stepsize
from pathode.cli import ODE_METHODS, SWEEP_COLUMNS, build_parser, main, min_feasible_K

QUAD = ["--problem", "quadratic", "--synthetic", "n=30,p=20,seed=1"]


def call(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def report_schema():
    import pathlib

    root = pathlib.Path(pathode.__file__).parent
    return json.loads((root / "report_schema.json").read_text())


class TestRunVerb:
    def test_fixed_K_report(self, capsys):
        rc, out, _ = call(capsys, ["run", "--method", "euler", "--K", "40"] + QUAD)
        assert rc == 0
        rep = json.loads(out)
        jsonschema.validate(rep, report_schema())
        assert rep["method"] == "euler"
        assert rep["K"] == 40
        assert rep["status"] == "ok"
        assert rep["problem"] == "quadratic"
        assert rep["seed"] == 1
        assert rep["lambda_min"] == 0.01 and rep["lambda_max"] == 10.0
        # one direction per step; knot residuals K+1 plus the 2K+1 point
        # midpoint accuracy scan
        c = rep["counters"]
        assert c["grad_f"] == c["hess_builds"] == c["linear_solves"] == 40
        assert c["hessvec"] == c["cg_iters_total"] == 0
        assert c["metric_evals"] == 3 * 40 + 2
        assert 0.0 < rep["accuracy_midpoint"] < 0.1

    def test_all_methods_validate_against_schema(self, capsys):
        schema = report_schema()
        for method in ("trapezoid", "rk4", "euler-cg", "grid-newton"):
            argv = ["run", "--method", method, "--K", "16", "--eps", "1e-2"] + QUAD
            rc, out, _ = call(capsys, argv)
            assert rc == 0, method
            rep = json.loads(out)
            jsonschema.validate(rep, schema)
            assert rep["method"] == method

    def test_deterministic_modulo_wall_time(self, capsys):
        argv = ["run", "--method", "trapezoid", "--K", "24"] + QUAD
        reps = []
        for _ in range(2):
            rc, out, _ = call(capsys, argv)
            assert rc == 0
            rep = json.loads(out)
            rep.pop("wall_time_seconds")
            reps.append(rep)
        assert reps[0] == reps[1]

    def test_out_flag_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "rep.json"
        rc, out, _ = call(
            capsys, ["run", "--method", "euler", "--K", "8", "--out", str(out_file)] + QUAD
        )
        assert rc == 0
        assert "wrote report" in out
        rep = json.loads(out_file.read_text())
        assert rep["K"] == 8

    def test_path_out_csv(self, capsys, tmp_path):
        csv = tmp_path / "path.csv"
        rc, _, _ = call(
            capsys,
            ["run", "--method", "euler", "--K", "12", "--path-out", str(csv)] + QUAD,
        )
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "lambda," + ",".join(f"x_{j}" for j in range(1, 21))
        assert len(lines) == 1 + 13  # header + K+1 knots
        lams = [float(line.split(",")[0]) for line in lines[1:]]
        assert lams[0] == pytest.approx(10.0)
        assert lams[-1] == pytest.approx(0.01, rel=1e-9)

    def test_diag_out_jsonl(self, capsys, tmp_path):
        diag = tmp_path / "steps.jsonl"
        rep_file = tmp_path / "rep.json"
        rc, _, _ = call(
            capsys,
            [
                "run", "--method", "trapezoid", "--K", "12",
                "--diag-out", str(diag), "--out", str(rep_file),
            ] + QUAD,
        )
        assert rc == 0
        records = [json.loads(line) for line in diag.read_text().splitlines()]
        assert len(records) == 12
        assert all(r["k"] == i for i, r in enumerate(records))
        assert json.loads(rep_file.read_text())["diagnostics_path"] == str(diag)

    def test_eps_triggers_doubling(self, capsys):
        argv = ["run", "--method", "euler", "--eps", "1e-4", "--K0", "400"] + QUAD
        rc, out, _ = call(capsys, argv)
        assert rc == 0
        rep = json.loads(out)
        assert rep["K"] == 800  # 400 misses 1e-4 by ~23%, one doubling suffices
        assert rep["accuracy_midpoint"] <= 1e-4
        assert rep["eps_target"] == 1e-4

    def test_eps_exhaustion_exits_3(self, capsys):
        argv = [
            "run", "--method", "euler", "--eps", "1e-10",
            "--K0", "50", "--max-doublings", "0",
        ] + QUAD
        rc, out, err = call(capsys, argv)
        assert rc == 3
        assert "doubling" in err
        assert json.loads(out)["status"] == "accuracy-not-met"

    def test_delta_auto_is_quarter_eps(self, capsys):
        rc, out, _ = call(
            capsys, ["run", "--method", "euler-cg", "--K", "50", "--eps", "1e-3"] + QUAD
        )
        assert rc == 0
        rep = json.loads(out)
        assert rep["delta"] == pytest.approx(2.5e-4)
        assert rep["counters"]["hessvec"] > 0
        assert rep["counters"]["hess_builds"] == 0
        assert rep["counters"]["linear_solves"] == 0

    def test_cg_without_eps_or_delta_is_an_argument_error(self, capsys):
        rc, _, err = call(capsys, ["run", "--method", "euler-cg", "--K", "50"] + QUAD)
        assert rc == 2
        assert "--delta" in err

    def test_explicit_delta_without_eps(self, capsys):
        rc, out, _ = call(
            capsys,
            ["run", "--method", "euler-cg", "--K", "50", "--delta", "1e-6"] + QUAD,
        )
        assert rc == 0
        assert json.loads(out)["delta"] == 1e-6

    def test_moment_problem_from_json(self, capsys, tmp_path):
        mj = tmp_path / "m.json"
        rc, _, _ = call(
            capsys,
            ["gen-moment", "--p", "5", "--seed", "2", "--n-moments", "3", "--out", str(mj)],
        )
        assert rc == 0
        rc, out, _ = call(
            capsys,
            [
                "run", "--method", "euler", "--K", "60", "--problem", "moment",
                "--data", str(mj), "--lambda-min", "0.1", "--lambda-max", "10",
            ],
        )
        assert rc == 0
        rep = json.loads(out)
        assert rep["problem"] == "moment"
        assert rep["accuracy_midpoint"] < 1e-3

    def test_omega_init(self, capsys):
        rc, out, _ = call(
            capsys, ["run", "--method", "euler", "--K", "20", "--init", "omega"] + QUAD
        )
        assert rc == 0
        assert json.loads(out)["status"] == "ok"


class TestDoublingVerb:
    def test_two_run_summary(self, capsys):
        argv = ["doubling", "--method", "euler", "--eps", "1e-4", "--K0", "400"] + QUAD
        rc, out, _ = call(capsys, argv)
        assert rc == 0
        d = json.loads(out)
        assert d["K0"] == 400
        assert d["K_final"] == 800
        assert d["passed"] is True
        assert len(d["reports"]) == 2
        assert d["reports"][0]["K"] == 400
        assert d["reports"][0]["accuracy_midpoint"] > 1e-4
        assert d["reports"][1]["accuracy_midpoint"] <= 1e-4

    def test_single_run_when_K0_suffices(self, capsys):
        argv = ["doubling", "--method", "euler", "--eps", "1e-3", "--K0", "400"] + QUAD
        rc, out, _ = call(capsys, argv)
        assert rc == 0
        d = json.loads(out)
        assert d["K_final"] == 400
        assert len(d["reports"]) == 1

    def test_K_final_is_K0_times_power_of_two(self, capsys):
        argv = ["doubling", "--method", "trapezoid", "--eps", "1e-4", "--K0", "10"] + QUAD
        rc, out, _ = call(capsys, argv)
        assert rc == 0
        d = json.loads(out)
        ratio = d["K_final"] // d["K0"]
        assert d["K_final"] == d["K0"] * ratio
        assert ratio & (ratio - 1) == 0  # power of two

    def test_cap_exhaustion_exits_3(self, capsys):
        argv = [
            "doubling", "--method", "euler", "--eps", "1e-10",
            "--K0", "50", "--max-doublings", "1",
        ] + QUAD
        rc, out, err = call(capsys, argv)
        assert rc == 3
        d = json.loads(out)
        assert d["passed"] is False
        assert d["reports"][-1]["status"] == "accuracy-not-met"
        assert "cap" in err


class TestMinFeasibleK:
    """The doubling start is the first K whose schedule has a step size."""

    @pytest.mark.parametrize("method", ODE_METHODS)
    @pytest.mark.parametrize(
        "lambda_min, lambda_max, trapezoid_K", [(0.01, 10.0, 10), (0.01, 100.0, 14), (0.1, 1.0, 4)]
    )
    def test_first_K_with_a_step_size(self, method, lambda_min, lambda_max, trapezoid_K):
        K = min_feasible_K(method, lambda_min, lambda_max)
        scheme = method.removesuffix("-cg")
        assert stepsize(scheme, K, lambda_min, lambda_max) > 0.0
        if K > 1:
            with pytest.raises((ArithmeticError, ValueError, MaxIterationsError)):
                stepsize(scheme, K - 1, lambda_min, lambda_max)
        expected = {"euler": 1, "trapezoid": trapezoid_K}
        assert K == expected.get(scheme, K)

    def test_grid_needs_both_endpoints(self):
        assert min_feasible_K("grid-newton", 0.01, 10.0) == 2

    def test_rk4_doubling_starts_where_its_schedule_exists(self, capsys):
        rc, out, err = call(capsys, ["doubling", "--method", "rk4", "--eps", "1e-3"] + QUAD)
        assert rc == 0, err
        d = json.loads(out)
        assert d["K0"] == 6
        assert d["passed"] is True


class TestTheoryVerb:
    UNIT = [
        "--mu", "1", "--sigma", "1", "--L", "1", "--G", "1",
        "--lambda-min", "1", "--lambda-max", repr(math.e),
    ]

    def test_euler_unit_example(self, capsys):
        rc, out, _ = call(capsys, ["theory", "--method", "euler", "--eps", "1"] + self.UNIT)
        assert rc == 0
        rep = json.loads(out)
        assert rep["K_required"] == 4
        assert rep["binding_term"] == "interpolation"

    def test_grid_bound(self, capsys):
        rc, out, _ = call(capsys, ["theory", "--method", "grid", "--eps", "0.5"] + self.UNIT)
        assert rc == 0
        rep = json.loads(out)
        assert rep["K_required"] == 2
        assert rep["terms"]["grid_size"] == pytest.approx(2.0)

    def test_missing_constants_exit_2(self, capsys):
        rc, _, err = call(capsys, ["theory", "--method", "euler", "--eps", "1", "--mu", "1"])
        assert rc == 2
        assert "--sigma" in err and "--L" in err and "--G" in err

    def test_estimate_from_problem(self, capsys):
        argv = ["theory", "--method", "trapezoid", "--eps", "1e-2", "--estimate"] + QUAD
        rc, out, _ = call(capsys, argv)
        assert rc == 0
        rep = json.loads(out)
        assert rep["K_required"] >= 1
        assert rep["inputs_echo"]["constants"]["estimated"] is True

    def test_unknown_method_exit_2(self, capsys):
        rc, _, err = call(capsys, ["theory", "--method", "rk4", "--eps", "1"] + self.UNIT)
        assert rc == 2
        assert "no closed-form bound" in err


class TestSweepVerb:
    def test_rows_and_header(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PATHODE_THREADS", "2")
        out_csv = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--methods", "euler,trapezoid", "--eps-list", "1e-3,1e-4",
            "--out", str(out_csv),
        ] + QUAD
        rc, out, _ = call(capsys, argv)
        assert rc == 0
        assert "4 sweep rows" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == SWEEP_COLUMNS
        assert len(lines) == 5
        n_cols = len(SWEEP_COLUMNS.split(","))
        by_method = {}
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == n_cols
            method, eps, status, K = fields[0], float(fields[1]), fields[2], int(fields[3])
            assert status == "ok"
            assert float(fields[4]) <= eps  # accuracy_midpoint met the target
            by_method.setdefault(method, []).append(K)
        assert set(by_method) == {"euler", "trapezoid"}
        for ks in by_method.values():
            assert ks[1] >= ks[0]  # tighter eps never needs fewer steps

    def test_method_failure_becomes_failed_row(self, capsys, tmp_path):
        mj = tmp_path / "m.json"
        call(capsys, ["gen-moment", "--p", "4", "--seed", "1", "--n-moments", "3", "--out", str(mj)])
        out_csv = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--methods", "grid-agd", "--eps-list", "1e-2",
            "--problem", "moment", "--data", str(mj),
            "--lambda-min", "0.1", "--lambda-max", "10",
            "--out", str(out_csv),
        ]
        rc, _, _ = call(capsys, argv)
        assert rc == 0  # the sweep completes; the row records the failure
        row = out_csv.read_text().splitlines()[1]
        fields = row.split(",")
        assert fields[0] == "grid-agd"
        assert fields[2] == "failed"
        assert fields[-1] != ""  # note carries the reason, comma-free

    def test_bad_method_exit_2(self, capsys, tmp_path):
        argv = [
            "sweep", "--methods", "euler,fancy", "--eps-list", "1e-2",
            "--out", str(tmp_path / "s.csv"),
        ] + QUAD
        rc, _, err = call(capsys, argv)
        assert rc == 2
        assert "fancy" in err


class TestGenVerbs:
    def test_gen_logistic_round_trip(self, capsys, tmp_path):
        csv = tmp_path / "d.csv"
        rc, out, _ = call(
            capsys, ["gen-logistic", "--n", "40", "--p", "6", "--seed", "3", "--out", str(csv)]
        )
        assert rc == 0
        assert "40 x 6" in out
        X, y = load_csv_dataset(str(csv))
        assert X.shape == (40, 6)
        assert set(np.unique(y)) == {-1.0, 1.0}

    def test_gen_logistic_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            call(capsys, ["gen-logistic", "--n", "12", "--p", "3", "--seed", "7", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_gen_moment_deterministic_and_loadable(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            call(capsys, ["gen-moment", "--p", "6", "--seed", "5", "--n-moments", "4", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()
        w, x_true, m = load_moment_json(str(a))
        assert len(w) == 7 and len(x_true) == 7 and m == 4
        assert w[-1] == 0.0


class TestExitCodes:
    def test_unknown_method(self, capsys):
        rc, _, err = call(capsys, ["run", "--method", "fancy", "--K", "5"] + QUAD)
        assert rc == 2
        assert "fancy" in err

    def test_run_needs_K_or_eps(self, capsys):
        rc, _, err = call(capsys, ["run", "--method", "euler"] + QUAD)
        assert rc == 2
        assert "--K" in err

    def test_quadratic_rejects_data_flag(self, capsys, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2.0\n")
        rc, _, err = call(
            capsys,
            ["run", "--method", "euler", "--K", "5", "--problem", "quadratic", "--data", str(f)],
        )
        assert rc == 2
        assert "synthetic-only" in err

    def test_malformed_csv(self, capsys, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("label,f_1\n2,0.5\n")
        rc, _, err = call(
            capsys,
            ["run", "--method", "euler", "--K", "5", "--problem", "logistic", "--data", str(f)],
        )
        assert rc == 2
        assert "label must be" in err

    def test_agd_on_moment_lacks_certificate(self, capsys, tmp_path):
        mj = tmp_path / "m.json"
        call(capsys, ["gen-moment", "--p", "4", "--seed", "1", "--n-moments", "3", "--out", str(mj)])
        rc, _, err = call(
            capsys,
            [
                "run", "--method", "grid-agd", "--K", "5", "--eps", "1e-2",
                "--problem", "moment", "--data", str(mj),
                "--lambda-min", "0.1", "--lambda-max", "10",
            ],
        )
        assert rc == 2
        assert "lipschitz" in err.lower()


    @pytest.mark.parametrize(
        "verb",
        [
            ["run", "--method", "euler", "--eps", "1e-3"],
            ["doubling", "--method", "euler", "--eps", "1e-3"],
            ["sweep", "--methods", "euler", "--eps-list", "1e-3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_max_doublings(self, capsys, tmp_path, verb):
        # a negative cap used to end in an IndexError traceback
        out = ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(verb + ["--max-doublings", "-1"] + out + QUAD)
        assert exc.value.code == 2
        assert "--max-doublings" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "problem, good, bad",
        [
            ("quadratic", "n=30,seed=2", "pp=5"),
            ("logistic", "n=40,seed=2", "n_moments=3"),
            ("logistic-reweighted", "n=40,p=5", "q=1"),
            ("moment", "p=6,seed=2", "nmoments=3"),
            ("moment", "p=6,n_moments=3", "n=6"),
        ],
    )
    def test_unknown_synthetic_key(self, capsys, problem, good, bad):
        # the family's own keys run; one more key it does not take is an argument error
        base = ["run", "--method", "euler", "--K", "5", "--allow-degenerate", "--problem", problem]
        assert call(capsys, base + ["--synthetic", good])[0] == 0
        rc, out, err = call(capsys, base + ["--synthetic", f"{good},{bad}"])
        assert rc == 2
        assert out == ""
        assert repr(bad.partition("=")[0]) in err


def _verb_flags(verb):
    """{option string: (default, required)} of one subcommand of build_parser()."""
    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        opt: (action.default, action.required)
        for action in subs.choices[verb]._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    }


class TestVerbFlags:
    """Each verb's exact option strings, defaults and required flags."""

    PROBLEM = {
        "--problem": ("quadratic", False),
        "--data": (None, False),
        "--synthetic": (None, False),
        "--seed": (0, False),
        "--standardize": (False, False),
        "--allow-degenerate": (False, False),
        "--lambda-min": (0.01, False),
        "--lambda-max": (10.0, False),
    }
    SOLVER = {
        "--delta": (None, False),
        "--inner-tol": (None, False),
        "--init": ("newton", False),
        "--init-tol": (None, False),
        "--K0": (None, False),
        "--max-doublings": (20, False),
    }
    RUN = {
        "--method": (None, True),
        "--eps": (None, False),
        "--out": (None, False),
        "--path-out": (None, False),
    }
    EXPECTED = {
        "run": {**PROBLEM, **SOLVER, **RUN, "--K": (None, False), "--diag-out": (None, False)},
        "doubling": {**PROBLEM, **SOLVER, **RUN},
        "sweep": {
            **PROBLEM, **SOLVER,
            "--methods": (None, True), "--eps-list": (None, True), "--out": (None, True),
        },
        "theory": {
            **PROBLEM,
            "--method": (None, True), "--eps": (None, True),
            "--mu": (None, False), "--sigma": (None, False), "--L": (None, False),
            "--G": (None, False), "--f-gap": (None, False), "--estimate": (False, False),
            "--samples": (64, False), "--out": (None, False),
        },
    }  # fmt: skip

    @pytest.mark.parametrize("verb", sorted(EXPECTED))
    def test_flag_set(self, verb):
        assert _verb_flags(verb) == self.EXPECTED[verb]


class TestConsoleScript:
    @pytest.mark.skipif(
        shutil.which("pathode") is None,
        reason="console script `pathode` not on PATH; run `pip install -e .` first",
    )
    def test_installed_entry_point(self, tmp_path):
        out_file = tmp_path / "rep.json"
        proc = subprocess.run(
            [
                "pathode", "run", "--method", "euler", "--K", "8",
                "--problem", "quadratic", "--synthetic", "n=10,p=4,seed=0",
                "--out", str(out_file),
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        rep = json.loads(out_file.read_text())
        assert rep["K"] == 8

    def test_module_invocation_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pathode.cli", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        for verb in ("run", "doubling", "theory", "sweep", "gen-moment", "gen-logistic"):
            assert verb in proc.stdout
