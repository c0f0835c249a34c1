"""The output classification of tools/compare_outputs.py, the parent-vs-change comparator."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

REPORT = '{\n  "K": 40,\n  "accuracy_midpoint": %s,\n  "status": "ok",\n  "wall_time_seconds": %s\n}\n'
SWEEP = "method,eps,K,wall_time_seconds,note\neuler,0.01,%s,%s,\n"
# a --diag-out line: direction_norms, direction_residuals[0], residual_r_k; rounding
# for a certificate is RTOL x the largest cg_initial_residuals, 0.25e-12 here
DIAG = ('{"cg_initial_residuals": [0.25, 0.125], "direction_norms": [%s], '
        '"direction_residuals": [%s, 3e-17], "k": 0, "residual_r_k": %s}\n')


@pytest.mark.parametrize(
    "base, head, kind",
    [
        (REPORT % ("0.001", "0.5"), REPORT % ("0.001", "0.25"), "identical"),
        (SWEEP % ("64", "0.5"), SWEEP % ("64", "0.7"), "identical"),
        (REPORT % ("0.001", "0.5"), REPORT % ("0.0010000000000000002", "0.5"), "rounding"),
        ("x = -0.0\n", "x = 0.0\n", "rounding"),
        (REPORT % ("0.001", "0.5"), REPORT % ("0.0010000001", "0.5"), "different"),
        (SWEEP % ("64", "0.5"), SWEEP % ("128", "0.5"), "different"),  # integers (K, counters) are exact
        (REPORT % ("0.001", "0.5"), REPORT.replace("ok", "accuracy-not-met") % ("0.001", "0.5"), "different"),
        ("2", "3", "different"),  # exit codes
        ("wrote 3 rows\n", None, "different"),  # a file one tree did not write
        (DIAG % ("0.5", "1.1e-16", "1.8e-14"), DIAG % ("0.5", "2e-16", "1.8e-14"), "rounding"),
        (DIAG % ("0.5", "1e-16", "1.8e-14"), DIAG % ("0.5", "1e-16", "1.80000720e-14"), "rounding"),
        (DIAG % ("0.5", "1e-16", "1.8e-14"), DIAG % ("0.5", "3e-13", "1.8e-14"), "different"),
        (DIAG % ("0.5", "1e-16", "1.8e-14"), DIAG % ("0.5", "1e-16", "3e-13"), "different"),
        (DIAG % ("0.5", "1e-16", "1.8e-14"), DIAG % ("0.50000000001", "1e-16", "1.8e-14"), "different"),
        (REPORT % ("1e-16", "0.5"), REPORT % ("2e-16", "0.5"), "different"),  # no cg_initial_residuals
    ],
    ids=["wall-time-json", "wall-time-csv", "rounding", "signed-zero", "beyond-rtol", "integer", "status",
         "exit-code", "missing", "direction-certificate", "knot-certificate", "direction-beyond-floor",
         "knot-beyond-floor", "direction-norm-not-a-certificate", "report-not-a-diag-line"],
)
def test_classify(base, head, kind):
    assert compare_outputs.classify(base, head)[0] == kind
    assert compare_outputs.classify(head, base)[0] == kind
