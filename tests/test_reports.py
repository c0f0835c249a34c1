"""Counter bookkeeping and run-report serialization."""

import json
import math
import os
import stat
from dataclasses import asdict, fields

import numpy as np
import pytest

from pathode import (
    GridSearchConfig,
    OracleCounters,
    RunReport,
    StepperConfig,
    make_quadratic_ridge,
    run_path,
    solve_grid,
)
from pathode.reports import SCHEMA_VERSION, write_json_atomic


def test_counters_default_to_zero():
    c = OracleCounters()
    assert all(v == 0 for v in asdict(c).values())


def test_report_round_trip_carries_everything():
    rep = RunReport(
        method="trapezoid",
        K=40,
        h=0.05,
        counters=OracleCounters(grad_f=80, hess_builds=80, metric_evals=41),
        wall_time_seconds=0.125,
        eps_target=1e-3,
        delta=2.5e-4,
        accuracy_midpoint=7.7e-4,
        lambda_min=0.01,
        lambda_max=10.0,
        problem="quadratic",
        seed=1,
        inner_iterations=[2, 3],
    )
    payload = json.loads(rep.to_json())
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["method"] == "trapezoid"
    assert payload["K"] == 40
    assert payload["counters"] == {
        "grad_f": 80, "grad_omega": 0, "hess_builds": 80, "hessvec": 0,
        "cg_iters_total": 0, "metric_evals": 41,
    }  # fmt: skip
    assert payload["accuracy_midpoint"] == 7.7e-4
    assert payload["inner_iterations"] == [2, 3]
    assert payload["status"] == "ok"


def test_report_optional_fields_serialize_as_null():
    rep = RunReport(
        method="euler", K=1, h=None, counters=OracleCounters(), wall_time_seconds=0.0
    )
    payload = json.loads(rep.to_json())
    for key in ("h", "eps_target", "delta", "accuracy_midpoint", "seed", "inner_iterations"):
        assert payload[key] is None


def test_as_dict_serializes_every_field():
    rep = RunReport(method="euler", K=1, h=0.1, counters=OracleCounters(), wall_time_seconds=0.0)
    assert set(rep.as_dict()) == {f.name for f in fields(RunReport)} | {"schema_version", "status"}


@pytest.mark.parametrize(
    "eps_target, accuracy, status",
    [
        (1e-3, 5e-4, "ok"),
        (1e-3, 1e-3, "ok"),
        (1e-3, 2e-3, "accuracy-not-met"),
        (1e-3, math.nan, "accuracy-not-met"),
        (None, 2e-3, "ok"),
        (1e-3, None, "accuracy-not-met"),
        (None, None, "ok"),
    ],
    ids=["below", "equal", "above", "nan", "no-target", "no-accuracy", "neither"],
)
def test_status_is_derived_from_accuracy_and_target(eps_target, accuracy, status):
    rep = RunReport(
        method="euler", K=1, h=0.1, counters=OracleCounters(), wall_time_seconds=0.0,
        eps_target=eps_target, accuracy_midpoint=accuracy,
    )  # fmt: skip
    assert rep.status == status
    assert json.loads(rep.to_json())["status"] == status
    with pytest.raises(AttributeError):
        rep.status = "ok"


def test_json_is_stable_under_key_sort():
    rep = RunReport(method="rk4", K=2, h=0.3, counters=OracleCounters(), wall_time_seconds=0.0)
    text = rep.to_json()
    assert text == rep.to_json()
    assert text.endswith("\n")
    keys = list(json.loads(text).keys())
    assert keys == sorted(keys)


def test_write_json_atomic_leaves_no_tmp(tmp_path):
    target = tmp_path / "r.json"
    write_json_atomic('{"a": 1}\n', str(target))
    assert target.read_text() == '{"a": 1}\n'
    assert list(tmp_path.iterdir()) == [target]


def test_write_json_atomic_overwrites(tmp_path):
    target = tmp_path / "r.json"
    target.write_text("old")
    write_json_atomic("new", str(target))
    assert target.read_text() == "new"


def test_write_json_atomic_keeps_a_symlink(tmp_path):
    target = tmp_path / "r.json"
    target.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    write_json_atomic("new", str(link))
    assert link.is_symlink() and link.readlink() == target
    assert target.read_text() == "new"
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_write_json_atomic_keeps_a_fifo(tmp_path):
    # a reader opened first lets the writer open the FIFO without blocking
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_json_atomic('{"a": 1}\n', str(fifo))
        assert os.read(reader, 64) == b'{"a": 1}\n'
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_write_json_atomic_removes_tmp_when_rename_fails(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        write_json_atomic("new", str(tmp_path / "r.json"))
    assert list(tmp_path.iterdir()) == []


def test_write_json_atomic_error_names_the_target(tmp_path):
    # the message once named the temporary r.json.tmp, a path nobody typed
    target = str(tmp_path / "missing" / "r.json")
    with pytest.raises(FileNotFoundError) as exc:
        write_json_atomic("x", target)
    assert exc.value.filename == target
    assert ".tmp" not in str(exc.value)


def test_runs_measure_positive_wall_time():
    problem = make_quadratic_ridge(np.eye(2), np.ones(2))
    _, ode = run_path(problem, np.full(2, 1 / 11), StepperConfig("euler", 5, 0.1, 10.0))
    _, grid = solve_grid(problem, np.zeros(2), GridSearchConfig(5, "newton", 1e-10, 0.1, 10.0))
    assert ode.wall_time_seconds > 0.0 and grid.wall_time_seconds > 0.0
