"""Self-test of the benchmark at reduced size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at the smoke scale in both modes and checks that the
printed metric names and units are the ones BENCHMARK.json declares, that
the correctness gate passes honest cells and fires on a deliberately wrong
eps, and that the benchmark refuses to run without the package sources.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )  # fmt: skip


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_matches_spec(workload, trace, section):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: mv["unit"] for name, mv in out["metrics"].items()}
    assert printed == declared
    for name, mv in out["metrics"].items():
        assert isinstance(mv["value"], (int, float)), name
    if trace:
        frac = out["metrics"]["trace.layer_self_frac"]["value"]
        assert 0.95 <= frac <= 1.0 + 1e-9


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH_DIR))
    import run

    run.import_package()
    import workloads

    return workloads


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_fires_on_wrong_eps(bench_modules, workload, tmp_path):
    wl = bench_modules.WORKLOADS[workload]("smoke")
    setup = wl.setup(5, str(tmp_path))
    cells = wl.run_cells(setup, lambda: None)
    assert cells
    for cell in cells:
        assert bench_modules.check_cell(cell, setup.problem) == [], cell.name
        reasons = bench_modules.check_cell(cell, setup.problem, eps=cell.eps * 1e-6)
        assert any("accuracy" in r for r in reasons), cell.name


def test_gate_counts_a_raising_cell(bench_modules):
    try:
        raise RuntimeError("solver blew up")
    except RuntimeError:
        cell = bench_modules._failed("euler@eps=0.1", 0.1)
    assert bench_modules.check_cell(cell, problem=None) == ["RuntimeError: solver blew up"]


def test_missing_attributes_are_reported_absent(bench_modules):
    import types

    from tracing import PATCH_POINTS, Patches, Tracer

    empty = {name: types.SimpleNamespace() for name in {m for m, _, _ in PATCH_POINTS}}
    with Patches(empty, Tracer()) as patches:
        pass
    assert "steppers.solve_spd" in patches.absent
    assert "problems.make_logistic_ridge" in patches.absent


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
