"""Command line verbs, exit codes, and report/CSV output formats.

Most tests drive cli.main() in process for speed; one test goes through the
installed console script to cover the entry point itself.  That script
exists only once `pip install -e .` has put `pathode` on PATH, so the test
is skipped where it is absent.
"""

import argparse
import itertools
import json
import math
import os
import pathlib
import re
import shutil
import signal
import shlex
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest

import pathode
from pathode import K_BOUNDS, cli, load_csv_dataset, load_moment_json, stepsize
from pathode.cli import ODE_METHODS, SWEEP_COLUMNS, build_parser, main, min_feasible_K

QUAD = ["--problem", "quadratic", "--synthetic", "n=30,p=20,seed=1"]


def call(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def fail_run_one_on_call(monkeypatch, n, exc=MemoryError("Unable to allocate 8.00 PiB")):
    """cli.run_one raises exc on its n-th call and runs as before otherwise."""
    real, calls = cli.run_one, []

    def run_one(*args):
        calls.append(args)
        if len(calls) == n:
            raise exc
        return real(*args)

    monkeypatch.setattr(cli, "run_one", run_one)


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
        assert c["grad_f"] == c["hess_builds"] == 40
        assert c["hessvec"] == c["cg_iters_total"] == 0
        assert c["metric_evals"] == 3 * 40 + 2
        assert 0.0 < rep["accuracy_midpoint"] < 0.1

    def test_seed_is_read_from_one_flag(self, capsys, tmp_path):
        # --seed defaults to none, so that a given one shows; none given reads as 0
        csv = tmp_path / "d.csv"
        call(capsys, ["gen-logistic", "--n", "40", "--p", "4", "--out", str(csv)])
        run = ["run", "--method", "euler", "--K", "5"]
        for flags, seed in (
            (QUAD, 1),
            (["--seed", "4", "--synthetic", "n=30,p=20"], 4),
            ([], 0),
            (["--problem", "logistic", "--data", str(csv), "--seed", "5"], 5),  # the benchmark's use
        ):
            rc, out, _ = call(capsys, run + flags)
            assert rc == 0 and json.loads(out)["seed"] == seed
        # --seed builds the instance that the spec's seed key builds
        by_flag = json.loads(call(capsys, run + ["--seed", "4", "--synthetic", "n=30,p=20"])[1])
        by_spec = json.loads(call(capsys, run + ["--synthetic", "n=30,p=20,seed=4"])[1])
        assert by_flag["accuracy_midpoint"] == by_spec["accuracy_midpoint"]

    @pytest.mark.parametrize("verb", ["run", "doubling"])
    def test_nan_residual_report_is_standard_json(self, capsys, tmp_path, monkeypatch, verb):
        # a NaN accuracy was once written as the bare token NaN, which jq and JSON.parse reject
        real = cli.paths._row_norms

        def nan_last(G):
            out = real(G)
            out[-1] = np.nan
            return out

        monkeypatch.setattr(cli.paths, "_row_norms", nan_last)
        out = tmp_path / "r.json"
        flags = {"run": ["--K", "20"], "doubling": ["--K0", "20", "--max-doublings", "1"]}[verb]
        argv = [verb, "--method", "euler", "--eps", "1e-2", *flags, "--out", str(out)] + QUAD
        call(capsys, argv)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        reps = doc["reports"] if verb == "doubling" else [doc]
        assert len(reps) == {"run": 1, "doubling": 2}[verb]
        for rep in reps:
            jsonschema.validate(rep, report_schema())
            assert rep["accuracy_midpoint"] is None and rep["status"] == "accuracy-not-met"

    def test_schema_method_enum_is_all_methods(self):
        assert tuple(report_schema()["properties"]["method"]["enum"]) == cli.ALL_METHODS

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

    def test_delta_auto_is_quarter_eps(self, capsys):
        rc, out, _ = call(
            capsys, ["run", "--method", "euler-cg", "--K", "50", "--eps", "1e-3"] + QUAD
        )
        assert rc == 0
        rep = json.loads(out)
        assert rep["delta"] == pytest.approx(2.5e-4)
        assert rep["counters"]["hessvec"] > 0
        assert rep["counters"]["hess_builds"] == 0

    @pytest.mark.parametrize("method", ["euler", "rk4", "trapezoid-cg", "grid-newton"])
    def test_missed_target_reads_accuracy_not_met(self, capsys, method):
        # K = 40 reaches 1.1e-2 (0.55 for grid-newton); the report once read "ok"
        argv = ["run", "--method", method, "--K", "40", "--eps", "1e-3"] + QUAD
        rc, out, _ = call(capsys, argv)
        assert rc == 0
        rep = json.loads(out)
        jsonschema.validate(rep, report_schema())
        assert rep["accuracy_midpoint"] > 1e-2
        assert rep["status"] == "accuracy-not-met"

    @pytest.mark.parametrize("K", [1, 2, 5])
    def test_rk4_below_its_smallest_K_is_an_argument_error(self, capsys, K):
        # ln(100 / 0.01) / 1.3079 = 7.04: no rk4 step contracts lambda that far
        argv = ["run", "--method", "rk4", "--K", str(K), "--lambda-max", "100"] + QUAD
        rc, out, err = call(capsys, argv)
        assert rc == 2 and out == ""
        assert "rk4 schedule needs K > ln(lambda_max/lambda_min)/1.3079 = 7.042" in err

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

    def test_K0_is_the_first_attempted_K(self, capsys):
        # trapezoid on [0.01, 10] has no schedule below K = 10, so K0 = 3 starts there
        argv = ["doubling", "--method", "trapezoid", "--eps", "1e-3", "--K0", "3"] + QUAD
        rc, out, _ = call(capsys, argv)
        assert rc == 0
        d = json.loads(out)
        assert d["K0"] == d["reports"][0]["K"] == 10

    def test_each_attempt_reads_its_own_status(self, capsys):
        # K = 100, 200 and 400 miss 1e-4 (1.9e-3, 4.9e-4, 1.2e-4) and once read "ok"
        argv = ["doubling", "--method", "euler", "--eps", "1e-4", "--K0", "100"] + QUAD
        rc, out, _ = call(capsys, argv)
        assert rc == 0
        d = json.loads(out)
        for rep in d["reports"]:
            jsonschema.validate(rep, report_schema())
        assert d["passed"] is True
        assert [(r["K"], r["status"]) for r in d["reports"]] == [
            (100, "accuracy-not-met"), (200, "accuracy-not-met"), (400, "accuracy-not-met"),
            (800, "ok"),
        ]  # fmt: skip

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

    def test_later_attempt_out_of_memory_keeps_the_finished_attempts(
        self, capsys, tmp_path, monkeypatch
    ):
        # K = 400 misses 1e-4 and K = 800 runs out of memory
        fail_run_one_on_call(monkeypatch, 2)
        summary = tmp_path / "d.json"
        argv = ["doubling", "--method", "euler", "--eps", "1e-4", "--K0", "400"]
        rc, _, err = call(capsys, argv + QUAD + ["--out", str(summary)])
        assert rc == 3
        assert "out of memory: Unable to allocate 8.00 PiB" in err
        assert "Traceback" not in err
        d = json.loads(summary.read_text())
        assert d["passed"] is False
        assert d["K0"] == d["K_final"] == 400
        assert [r["K"] for r in d["reports"]] == [400]
        assert d["reports"][0]["status"] == "accuracy-not-met"
        assert d["reports"][0]["accuracy_midpoint"] > 1e-4

    @pytest.mark.parametrize(
        "exc",
        [
            pathode.PathRunError("step 3 failed: injected", [], [], [], 3),
            pathode.MaxIterationsError("injected cap"),
            pathode.NotPositiveDefiniteError("injected: not positive definite"),
        ],
        ids=lambda exc: type(exc).__name__,
    )
    def test_later_attempt_failure_keeps_the_finished_attempts(
        self, capsys, tmp_path, monkeypatch, exc
    ):
        # every exit-3 failure ends the loop as running out of memory does
        fail_run_one_on_call(monkeypatch, 2, exc)
        summary = tmp_path / "d.json"
        argv = ["doubling", "--method", "euler", "--eps", "1e-4", "--K0", "400"]
        rc, _, err = call(capsys, argv + QUAD + ["--out", str(summary)])
        assert rc == 3
        assert f"solver failure: {exc}" in err and "Traceback" not in err
        d = json.loads(summary.read_text())
        assert d["passed"] is False and d["K_final"] == 400
        assert [(r["K"], r["status"]) for r in d["reports"]] == [(400, "accuracy-not-met")]


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
            with pytest.raises(ValueError):
                stepsize(scheme, K - 1, lambda_min, lambda_max)
        expected = {"euler": 1, "trapezoid": trapezoid_K}
        assert K == expected.get(scheme, K)

    def test_grid_needs_both_endpoints(self):
        assert min_feasible_K("grid-newton", 0.01, 10.0) == 2

    @pytest.mark.parametrize("method", ["fancy", "gridfoo", "euler-cg-cg", ""])
    def test_unknown_method_rejected_before_the_search(self, method):
        # the search reads each ValueError as "K too small", so an unknown scheme
        # must be caught before it; the alarm turns a search that never ends into a failure
        def give_up(signum, frame):
            raise TimeoutError(f"min_feasible_K({method!r}, ...) did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(5)
        try:
            with pytest.raises(ValueError, match="unknown method"):
                min_feasible_K(method, 0.01, 10.0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

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
        # argparse names the methods that have a closed-form bound
        with pytest.raises(SystemExit) as exc:
            main(["theory", "--method", "rk4", "--eps", "1"] + self.UNIT)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'rk4'" in err and "'trapezoid-cg'" in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--mu", "--sigma", "--L", "--G", "--f-gap"])
    def test_nonfinite_constant_exits_2(self, capsys, tmp_path, flag, bad):
        # --L nan once gave K_required 14 and --G inf an OverflowError traceback;
        # --f-gap nan once passed every method but the two Euler ones
        out = tmp_path / "out"
        for method in K_BOUNDS:
            argv = ["theory", "--method", method, "--eps", "1e-3", "--out", str(out)]
            rc, _, err = call(capsys, argv + self.UNIT + [flag, bad])
            assert rc == 2, method
            assert "must be finite" in err, method
            assert not out.exists(), method


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
        assert lines[0] == ",".join(SWEEP_COLUMNS) == (
            "method,eps,status,K,accuracy_midpoint,grad_f,grad_omega,hess_builds,"
            "hessvec,cg_iters_total,metric_evals,wall_time_seconds,note"
        )
        assert len(lines) == 5
        n_cols = len(SWEEP_COLUMNS)
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
        # no CG solve reaches delta = 1e-300: euler-cg's first direction stops at
        # its 20 p cap, a solver failure; the euler row still runs
        out_csv = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--methods", "euler-cg,euler", "--eps-list", "1e-2", "--delta", "1e-300",
            "--out", str(out_csv),
        ] + QUAD
        rc, _, _ = call(capsys, argv)
        assert rc == 0  # the sweep completes; the row records the failure
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        assert [(r[0], r[2]) for r in rows] == [("euler-cg", "failed"), ("euler", "ok")]
        assert rows[0][-1].startswith("step 0 failed: CG stopped at 400 iterations")

    def test_row_out_of_memory_becomes_failed_row(self, capsys, tmp_path, monkeypatch):
        # eps = 1e-3 passes at K0 = 400; the 1e-4 attempt runs out of memory,
        # and 1e-2 still runs from the carried K
        fail_run_one_on_call(monkeypatch, 2)
        out_csv = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--methods", "euler", "--eps-list", "1e-3,1e-4,1e-2", "--K0", "400",
            "--out", str(out_csv),
        ] + QUAD
        rc, out, _ = call(capsys, argv)
        assert rc == 0
        assert "3 sweep rows" in out
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        assert [(r[1], r[2], r[3]) for r in rows] == [
            ("0.001", "ok", "400"), ("0.0001", "failed", ""), ("0.01", "ok", "400"),
        ]
        assert rows[1][-1] == "out of memory: Unable to allocate 8.00 PiB"

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

    def test_gen_moment_out_keeps_a_symlink(self, capsys, tmp_path):
        target, link = tmp_path / "m.json", tmp_path / "link.json"
        target.write_text("old")
        link.symlink_to(target)
        rc, _, _ = call(capsys, ["gen-moment", "--p", "4", "--n-moments", "3", "--out", str(link)])
        assert rc == 0
        assert link.is_symlink() and link.readlink() == target
        assert load_moment_json(str(target))[2] == 3
        assert sorted(tmp_path.iterdir()) == [link, target]

    @pytest.mark.parametrize("n_moments", ["0", "31"])
    def test_gen_moment_rejects_what_run_would(self, capsys, tmp_path, n_moments):
        path = tmp_path / "m.json"
        rc, _, err = call(capsys, ["gen-moment", "--p", "4", "--n-moments", n_moments, "--out", str(path)])
        assert rc == 2
        assert "n_moments must be in [1, 30]" in err
        assert not path.exists()


# runs main() with the file-size limit set, so a write past it fails with EFBIG (Python ignores SIGXFSZ)
_SIZE_LIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))
from pathode.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestFailedWrites:
    LIMIT = 40_960

    @pytest.mark.parametrize("verb", ["run-path-out", "gen-logistic"])
    def test_file_size_limit_keeps_the_previous_file(self, capsys, tmp_path, verb):
        # np.savetxt onto the target once truncated a good file to the limit's 40,960 bytes
        target = tmp_path / "out.csv"
        argv = {
            "run-path-out": ["run", "--method", "euler", "--K", "200", "--path-out", str(target)] + QUAD,
            "gen-logistic": ["gen-logistic", "--out", str(target)],
        }[verb]
        assert call(capsys, argv)[0] == 0
        previous = target.read_bytes()
        assert len(previous) > self.LIMIT
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pathode.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", _SIZE_LIMITED_MAIN.format(limit=self.LIMIT), *argv],
            capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("io error: ") and "Traceback" not in proc.stderr
        assert str(target) in proc.stderr
        assert target.read_bytes() == previous
        assert list(tmp_path.iterdir()) == [target]


class TestExitCodes:
    UNREAD = {
        "run-delta": (["run", "--method", "euler", "--K", "40", "--delta", "1e-6"], "--delta"),
        "run-delta-auto": (["run", "--method", "euler", "--K", "40", "--delta", "auto"], "--delta"),
        "grid-delta": (
            ["run", "--method", "grid-newton", "--K", "5", "--eps", "1e-3", "--delta", "1e-6"],
            "--delta is not read by grid-newton",
        ),
        "cg-inner-tol": (
            ["run", "--method", "euler-cg", "--K", "40", "--inner-tol", "1e-3"],
            "--inner-tol is not read by euler-cg",
        ),
        "doubling-inner-tol": (
            ["doubling", "--method", "rk4", "--eps", "1e-3", "--inner-tol", "1e-3"],
            "--inner-tol is not read by rk4",
        ),
        "omega-init-tol": (
            ["run", "--method", "euler", "--K", "40", "--init", "omega", "--init-tol", "1e-9"],
            "--init-tol is read by --init newton, not by --init omega",
        ),
        "sweep-delta": (
            ["sweep", "--methods", "euler,grid-agd", "--eps-list", "1e-3", "--delta", "1e-6"],
            "--delta is not read by euler or grid-agd",
        ),
        "run-data-synthetic": (
            ["run", "--method", "euler", "--K", "20", "--problem", "logistic", "--data", "l.csv"]
            + ["--synthetic", "n=999,p=7,seed=9"],
            "--synthetic is not read with --data",
        ),
        "run-data-synthetic-bogus": (
            ["run", "--method", "euler", "--K", "20", "--problem", "logistic", "--data", "l.csv"]
            + ["--synthetic", "bogus"],
            "--synthetic is not read with --data",
        ),
        "run-seed-synthetic-seed": (
            ["run", "--method", "euler", "--K", "20", "--seed", "5", "--synthetic", "n=30,p=20,seed=1"],
            "--seed is not read when --synthetic names a seed",
        ),
        "sweep-seed-synthetic-seed": (
            ["sweep", "--methods", "euler", "--eps-list", "1e-3", "--seed", "5"]
            + ["--problem", "moment", "--synthetic", "p=6,seed=1"],
            "--seed is not read when --synthetic names a seed",
        ),
        "theory-data": (
            ["theory", "--method", "euler", "--eps", "1e-3", "--data", "/nonexistent.csv"],
            "theory reads --data only with --estimate",
        ),
        "theory-synthetic-standardize": (
            ["theory", "--method", "grid", "--eps", "1e-3", "--synthetic", "n=3", "--standardize"],
            "theory reads --synthetic --standardize only with --estimate",
        ),
        "grid-diag-out": (
            ["run", "--method", "grid-newton", "--K", "8", "--eps", "1e-2", "--diag-out", "d.jsonl"],
            "--diag-out is not read by grid-newton",
        ),
        "grid-agd-diag-out": (
            ["run", "--method", "grid-agd", "--K", "8", "--eps", "1e-2", "--diag-out", "d.jsonl"],
            "--diag-out is not read by grid-agd",
        ),
        "theory-estimate-constants": (
            ["theory", "--method", "euler", "--eps", "1e-3", "--estimate", "--mu", "1"]
            + ["--sigma", "1", "--L", "1", "--G", "1"],
            "theory reads --mu --sigma --L --G only without --estimate",
        ),
        "theory-estimate-zero-mu": (
            ["theory", "--method", "euler", "--eps", "1e-3", "--estimate", "--mu", "0"],
            "theory reads --mu only without --estimate",
        ),
        "theory-samples-problem-seed": (
            ["theory", "--method", "euler", "--eps", "1e-3", "--mu", "1", "--sigma", "1"]
            + ["--L", "1", "--G", "1", "--samples", "4", "--problem", "quadratic", "--seed", "0"],
            "theory reads --problem --seed --samples only with --estimate",
        ),
    }  # fmt: skip

    @pytest.mark.parametrize("case", list(UNREAD))
    def test_unread_flag_exits_2_before_any_work(self, capsys, tmp_path, monkeypatch, case):
        # run --method euler --delta 1e-6 once exited 0 with "delta": null
        def no_work(*args):
            pytest.fail("work started despite a flag the run does not read")

        monkeypatch.setattr(cli, "build_problem", no_work)
        argv, message = self.UNREAD[case]
        out = tmp_path / "out"
        rc, _, err = call(capsys, argv + ["--out", str(out)])
        assert rc == 2
        assert f"error: {message}" in err
        assert not out.exists()

    def test_overflowing_moment_atoms_exit_2_before_the_start(self, capsys, tmp_path, monkeypatch):
        # once three RuntimeWarnings, then the start's Newton solve, then exit 2
        def no_start(*args):
            pytest.fail("the start point was computed for an overflowing design")

        monkeypatch.setattr(cli.steppers, "initialize_by_newton", no_start)
        data = tmp_path / "m.json"
        data.write_text(json.dumps({"w": [1e200, 0.5, 0.0], "x_true": [0.3, 0.3, 0.4], "n_moments": 3}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, _, err = call(
                capsys, ["run", "--method", "euler", "--K", "20", "--problem", "moment", "--data", str(data)]
            )
        assert rc == 2
        assert "error: the atom powers w ** k, k <= 3, overflow" in err
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_sweep_flag_read_by_one_listed_method(self, capsys, tmp_path):
        argv = [
            "sweep", "--methods", "euler,grid-newton", "--eps-list", "1e-2",
            "--inner-tol", "1e-6", "--out", str(tmp_path / "s.csv"),
        ] + QUAD
        assert call(capsys, argv)[0] == 0

    def test_unknown_method(self, capsys):
        # argparse checks the names of --method and --problem before any work
        for argv in (
            ["run", "--method", "fancy", "--K", "5"],
            ["doubling", "--method", "fancy", "--eps", "1e-3"],
            ["run", "--method", "euler", "--K", "5", "--problem", "fancy"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--synthetic", "n=30,p=20,seed=1"])
            assert exc.value.code == 2
            assert "invalid choice: 'fancy'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("bad", ["0", "-5"])
    @pytest.mark.parametrize(
        "verb",
        [
            ["doubling", "--method", "euler", "--eps", "1e-3"],
            ["sweep", "--methods", "euler", "--eps-list", "1e-3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_nonpositive_K0(self, capsys, tmp_path, verb, bad):
        # a K0 below 1 used to start silently at the smallest feasible K
        out = ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(verb + ["--K0", bad] + out + QUAD)
        assert exc.value.code == 2
        assert "--K0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--method", "euler-cg", "--K", "20", "--delta", "{}"],
            ["run", "--method", "euler", "--K", "20", "--eps", "{}"],
            ["run", "--method", "euler", "--K", "20", "--init-tol", "{}"],
            ["run", "--method", "grid-newton", "--K", "5", "--inner-tol", "{}"],
            ["doubling", "--method", "euler", "--eps", "{}"],
            ["sweep", "--methods", "euler", "--eps-list", "1e-3,{}"],
            ["theory", "--method", "euler", "--eps", "{}"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_tolerance_must_be_finite_and_positive(self, capsys, tmp_path, argv, bad):
        # nan once ran CG to its cap (exit 3) and inf ran a path that never moved (exit 0)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([a.format(bad) for a in argv] + ["--out", str(out)] + QUAD)
        assert exc.value.code == 2
        assert "must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    RANGE_VERBS = {
        "run-euler": ["run", "--method", "euler", "--K", "20"],
        "run-grid-newton": ["run", "--method", "grid-newton", "--K", "5", "--eps", "1e-3"],
        "doubling": ["doubling", "--method", "euler", "--eps", "1e-3"],
        "sweep": ["sweep", "--methods", "euler", "--eps-list", "1e-3"],
        "theory": ["theory", "--method", "trapezoid", "--eps", "1e-3"]
        + ["--mu", "1", "--sigma", "1", "--L", "1", "--G", "5"],
        "theory-estimate": ["theory", "--method", "euler", "--eps", "1e-3", "--estimate"],
    }
    BAD_RANGES = {
        "": (["--lambda-max", "inf"], "need 0 < lambda_min < lambda_max < inf, got [0.01, inf]"),
        "-ratio": (
            ["--lambda-min", "1e-300", "--lambda-max", "1e300"],
            "lambda_max / lambda_min overflows, got [1e-300, 1e+300]",
        ),
    }
    RANGE_CASES = list(itertools.product(RANGE_VERBS, BAD_RANGES))

    @pytest.mark.parametrize("verb, bound", RANGE_CASES, ids=[v + b for v, b in RANGE_CASES])
    def test_infinite_lambda_max_exits_2_before_any_solve(
        self, capsys, tmp_path, monkeypatch, verb, bound
    ):
        # run once died mid-path (euler) or in the start point's Newton solve
        # (grid-newton) with "non-finite entries in linear system"; on the
        # finite [1e-300, 1e300], whose ratio overflows, trapezoid died with a
        # ZeroDivisionError traceback, rk4 in math.log and euler at its last step
        def no_work(*args):
            pytest.fail("work started on an invalid lambda range")

        monkeypatch.setattr(cli, "build_problem", no_work)
        out = tmp_path / "out"
        flags, message = self.BAD_RANGES[bound]
        rc, _, err = call(capsys, self.RANGE_VERBS[verb] + flags + ["--out", str(out)] + QUAD)
        assert rc == 2
        assert message in err
        assert not out.exists()

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


RUN5 = ["run", "--method", "euler", "--K", "5"] + QUAD  # a later flag overrides QUAD's


class TestExitPaths:
    """Argument and IO paths of main(): each ends in its exit code, never in a traceback."""

    CASES = {
        "synthetic-no-equals": (RUN5 + ["--synthetic", "n30"], 2, "expected key=value"),
        "synthetic-bad-value": (RUN5 + ["--synthetic", "n=abc"], 2, "bad --synthetic value"),
        "synthetic-empty-items": (RUN5 + ["--synthetic", "n=30,,p=5,"], 0, '"K": 5'),
        "synthetic-standardize": (
            RUN5 + ["--problem", "logistic", "--synthetic", "n=40,p=3", "--standardize"],
            0,
            '"problem": "logistic"',
        ),
        "explicit-init-tol": (RUN5 + ["--init-tol", "1e-9"], 0, '"K": 5'),
        "grid-without-tolerance": (
            ["run", "--method", "grid-newton", "--K", "5"] + QUAD, 2, "need --eps or --inner-tol"
        ),
        "cg-without-tolerance": (
            ["run", "--method", "euler-cg", "--K", "40"] + QUAD,
            2,
            "error: CG methods need --eps or --delta (delta defaults to eps/4)",
        ),
        # no CG solve reaches 1e-300: the first direction stops at its 20 p cap
        "cg-cap": (
            ["run", "--method", "euler-cg", "--K", "40", "--delta", "1e-300"] + QUAD,
            3,
            "solver failure: step 0 failed: CG stopped at 400 iterations",
        ),
        "sweep-empty-methods": (
            ["sweep", "--methods", ",", "--eps-list", "1e-3", "--out", "{tmp}/s.csv"] + QUAD,
            2,
            "nonempty --methods",
        ),
        "non-numeric-tolerance": (RUN5 + ["--eps", "abc"], 2, "not a number: 'abc'"),
        "non-integer-K": (RUN5 + ["--K", "1.5"], 2, "not an integer: '1.5'"),
        "zero-K": (RUN5 + ["--method", "grid-newton", "--K", "0", "--eps", "1e-3"], 2, ">= 1"),
        "theory-estimate-f-gap": (
            ["theory", "--method", "euler", "--eps", "1e-3", "--estimate"]
            + ["--f-gap", "0.25", "--samples", "4"] + QUAD,
            0,
            '"f_gap": 0.25',
        ),
        "doubling-path-out": (
            ["doubling", "--method", "euler", "--eps", "1e-2", "--path-out", "{tmp}/p.csv"] + QUAD,
            0,
            '"passed": true',
        ),
        "out-into-missing-directory": (
            RUN5 + ["--out", "{tmp}/missing/r.json"], 2, "missing/r.json'"
        ),
        "nonfinite-csv-feature": (
            ["run", "--method", "euler", "--K", "5", "--problem", "logistic", "--data", "{tmp}/d.csv"],
            2,
            "d.csv: line 3: features must be finite",
        ),
        # a schedule of 10**15 knots is 8 PB, more than any address space maps
        "run-K-out-of-memory": (RUN5 + ["--K", str(10**15)], 3, "out of memory: Unable to allocate"),
        "doubling-K0-out-of-memory": (
            ["doubling", "--method", "grid-newton", "--eps", "1e-2", "--K0", str(10**15)] + QUAD,
            3,
            "out of memory: Unable to allocate",
        ),
        "standardize-quadratic": (RUN5 + ["--standardize"], 2, "--standardize rescales logistic"),
        "standardize-moment": (
            RUN5 + ["--problem", "moment", "--synthetic", "p=6,seed=1", "--standardize"],
            2,
            "moment has none",
        ),
        # each row once caught the degenerate-problem error and wrote a failed row
        "sweep-degenerate": (
            ["sweep", "--methods", "euler,grid-newton", "--eps-list", "1e-2", "--out", "{tmp}/rw.csv"]
            + ["--problem", "logistic-reweighted", "--synthetic", "n=60,p=5"],
            2,
            "error: Omega is not strongly convex (sigma = 0); pass allow_degenerate=True",
        ),
        # a sweep row once caught each of these two argument errors as a failed row
        "sweep-knots-coincide": (
            ["sweep", "--methods", "euler", "--eps-list", "1e-2", "--K0", "1000"]
            + ["--lambda-min", "1", "--lambda-max", "1.000000000000001", "--out", "{tmp}/rw.csv"]
            + QUAD,
            2,
            "error: 1000 intervals on [1.0, 1.000000000000001] make two knots coincide",
        ),
        "sweep-agd-without-lipschitz": (
            ["sweep", "--methods", "grid-agd", "--eps-list", "1e-2", "--out", "{tmp}/rw.csv"]
            + ["--problem", "moment", "--synthetic", "p=6,seed=1"],
            2,
            "error: agd needs a Lipschitz certificate for its step size",
        ),
        # 1000 knots on a range of 4.5 ulps: all 1000 steps ran before the path rejected them
        "knots-coincide": (
            ["run", "--method", "euler", "--K", "1000"]
            + ["--lambda-min", "1", "--lambda-max", "1.000000000000001"] + QUAD,
            2,
            "error: 1000 intervals on [1.0, 1.000000000000001] make two knots coincide",
        ),
        # sqrt(L G) overflows: int(inf) once ended in an OverflowError traceback
        "theory-term-overflows": (
            ["theory", "--method", "euler", "--eps", "1e-3"]
            + ["--mu", "1", "--sigma", "1", "--L", "1e308", "--G", "1e308"],
            2,
            "error: euler bound term curvature = inf: the inputs overflow it",
        ),
    }  # fmt: skip

    @pytest.mark.parametrize("case", list(CASES))
    def test_exit_code_without_traceback(self, capsys, tmp_path, case):
        argv, code, message = self.CASES[case]
        (tmp_path / "d.csv").write_text("label,f_1\n1,0.5\n-1,nan\n")
        argv = [a.format(tmp=tmp_path) for a in argv]
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's own errors
            rc = exc.code
        out, err = capsys.readouterr()
        assert rc == code
        assert "Traceback" not in err
        assert message in (out if code == 0 else err)
        assert not (tmp_path / "missing").exists()
        assert not (tmp_path / "rw.csv").exists()
        if case == "doubling-path-out":
            assert (tmp_path / "p.csv").read_text().startswith("lambda,x_1,")


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
        "--seed": (None, False),
        "--standardize": (False, False),
        "--lambda-min": (0.01, False),
        "--lambda-max": (10.0, False),
    }
    SOLVER = {
        "--allow-degenerate": (False, False),
        "--delta": (None, False),
        "--inner-tol": (None, False),
        "--init": ("newton", False),
        "--init-tol": (None, False),
    }
    DOUBLING = {"--K0": (None, False), "--max-doublings": (20, False)}
    RUN = {
        "--method": (None, True),
        "--eps": (None, False),
        "--out": (None, False),
        "--path-out": (None, False),
    }
    EXPECTED = {
        "run": {**PROBLEM, **SOLVER, **RUN, "--K": (None, True), "--diag-out": (None, False)},
        "doubling": {**PROBLEM, **SOLVER, **DOUBLING, **RUN, "--eps": (None, True)},
        "sweep": {
            **PROBLEM, **SOLVER, **DOUBLING,
            "--methods": (None, True), "--eps-list": (None, True), "--out": (None, True),
        },
        "theory": {
            **PROBLEM,
            # read only with --estimate, so a given one shows
            "--problem": (None, False), "--standardize": (None, False),
            "--method": (None, True), "--eps": (None, True),
            "--mu": (None, False), "--sigma": (None, False), "--L": (None, False),
            "--G": (None, False), "--f-gap": (None, False), "--estimate": (False, False),
            "--samples": (None, False), "--out": (None, False),
        },
    }  # fmt: skip

    @pytest.mark.parametrize("verb", sorted(EXPECTED))
    def test_flag_set(self, verb):
        assert _verb_flags(verb) == self.EXPECTED[verb]


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """Each `pathode ...` line of README's fenced blocks, backslash continuations joined."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("pathode ")]


class TestReadmeExamples:
    """A renamed or newly required flag fails here before a reader meets it."""

    def test_every_verb_has_an_example(self):
        verbs = {shlex.split(command)[1] for command in readme_commands()}
        assert verbs == {"run", "doubling", "theory", "sweep", "gen-logistic", "gen-moment"}

    @pytest.mark.parametrize(
        "command", readme_commands(), ids=lambda command: shlex.split(command)[1]
    )
    def test_example_parses(self, capsys, command):
        try:
            build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"{command}\n{capsys.readouterr().err}")


_BLAS_THREADS_SCRIPT = """
import ctypes, json, sys
from pathode import cli

getters = []  # found before any patch below
try:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {{ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}}
except OSError:
    libs = set()
for path in sorted(libs):
    lib = ctypes.CDLL(path)
    for name in cli._OPENBLAS_SETTERS:
        getter = getattr(lib, name.replace("_set_", "_get_"), None)
        if getter is not None:
            getters.append(getter)
            break

def threads():
    return [getter() for getter in getters]

before = threads()
{patch}
rc = cli.main(["gen-logistic", "--n", "10", "--p", "2", "--out", sys.argv[1]])
print(json.dumps({{"rc": rc, "before": before, "after": threads()}}))
"""


def _blas_threads(tmp_path, patch="", **env):
    """Run cli.main in a fresh interpreter; the OpenBLAS pools' threads before and after."""
    environ = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        environ.pop(var, None)
    src = str(pathlib.Path(pathode.__file__).resolve().parents[1])
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    environ.update(env)
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS_SCRIPT.format(patch=patch), str(tmp_path / "d.csv")],
        capture_output=True, text=True, timeout=120, env=environ,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["rc"] == 0
    if not out["before"]:
        pytest.skip("no OpenBLAS with a known thread setter is loaded")
    return out["before"], out["after"]


class TestBlasThreads:
    def test_main_pins_every_pool_to_one_thread(self, tmp_path):
        _, after = _blas_threads(tmp_path)
        assert after == [1] * len(after)

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_explicit_thread_count_is_honoured(self, tmp_path, var):
        before, after = _blas_threads(tmp_path, **{var: "2"})
        assert after == before
        if len(os.sched_getaffinity(0)) >= 2:  # OpenBLAS caps its pool at the usable CPUs
            assert before == [2] * len(before)

    @pytest.mark.parametrize(
        "patch",
        [
            'cli._OPENBLAS_SETTERS = ("no_such_symbol",)',
            "def no_library(path):\n    raise OSError(path)\n"
            "cli.ctypes = type(sys)('ctypes')\ncli.ctypes.CDLL = no_library",
        ],
        ids=["no-symbol", "no-library"],
    )
    def test_missing_setter_is_skipped(self, tmp_path, patch):
        before, after = _blas_threads(tmp_path, patch=patch)
        assert after == before


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
