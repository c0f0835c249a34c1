"""Compare the CLI outputs of two source trees on one fixed command matrix.

Usage: python tools/compare_outputs.py BASE HEAD

BASE and HEAD are checkouts of this repository.  Each tree runs the whole
matrix in its own Python process, importing pathode from its own src/ and
calling cli.main in a scratch directory of its own, so both trees see the same
relative file names.  Every output of a command (each file it writes, its exit
code, stdout and stderr) is classified as

  identical  equal once the value of wall_time_seconds (a JSON key or a CSV column)
             is blanked;
  rounding   the same text and integers (exit codes, counters, K) and strings
             (status, messages) between the numbers, and every other number
             within RTOL of the other tree's, relative; a certificate of a
             --diag-out line (residual_r_k, direction_residuals) may instead
             differ by RTOL times that line's largest cg_initial_residuals, the
             ||g|| of an exact solve, since a certificate near zero is rounding
             of the products that make it, not of itself;
  different  anything else, a missing file included.

It prints one row per output, then a count per class and each tree's wall
time.  The exit status is 1 when any output is different, else 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import traceback

RTOL = 1e-12
QUAD = ["--problem", "quadratic", "--synthetic", "n=30,p=20,seed=1"]
PROBLEMS = {
    "quad30": QUAD,
    "logistic": ["--problem", "logistic", "--data", "logistic.csv"],
    "moment": ["--problem", "moment", "--data", "moment.json", "--lambda-min", "1e-3", "--lambda-max", "1"],
}
# the one family whose handle is made of two handles; its Omega has sigma = 0, so the path
# commands run it with --allow-degenerate, a flag theory does not take: theory keeps PROBLEMS
PATH_PROBLEMS = {
    **PROBLEMS,
    "logistic-reweighted": ["--problem", "logistic-reweighted", "--data", "logistic.csv", "--allow-degenerate"],
}
METHODS = ("euler", "trapezoid-cg", "rk4", "grid-newton")
# a design above problems.SPLIT_GRAM_MIN, whose f'' and batched gradients run as two halves
LARGE = ["--problem", "logistic", "--data", "large.csv"]
# {generator case: (the file it writes, the name the later cases read it by)}
DATA_FILES = {
    "gen-logistic": ("d.csv", "logistic.csv"),
    "gen-moment": ("m.json", "moment.json"),
    "gen-logistic-large": ("d.csv", "large.csv"),
}
RUN5 = ["run", "--method", "euler", "--K", "5"] + QUAD
# CSV-contract files written beside the generated data, {case: (file name, text)}; each case
# runs euler at K = 5 on its file: bom-crlf-header-blank and underscore-field (through the
# line checker) load, the others exit 2 naming the file and line
CSV_CASES = {
    "exit/nonfinite-csv-feature": ("nonfinite.csv", "label,f_1\n1,0.5\n-1,nan\n"),
    "csv/bom-crlf-header-blank": (
        "bom-crlf.csv", "\ufefflabel,f_1,f_2\r\n1,0.5,0.25\r\n-1,1.5,-0.5\r\n \t\r\n1,-0.75,2\r\n-1,0.125,1\r\n",
    ),
    "csv/underscore-field": ("underscore.csv", "1,1_0,0.5\n-1,0.25,2\n1,-1,0.5\n-1,3,1\n"),
    "csv/bad-label": ("bad-label.csv", "label,f_1\n1,0.5\n0,1.5\n"),
    "csv/width-mismatch": ("width.csv", "1,0.5,1.0\n-1,1.5\n"),
    "csv/unparseable-later-row": ("unparseable.csv", "1,0.5\n-1,0.25\nouch,0.5\n"),
    "csv/header-only": ("header-only.csv", "label,f_1\n"),
}
STATED = ["--mu", "0.5", "--sigma", "1", "--L", "2", "--G", "3", "--f-gap", "0.1"]


def matrix() -> dict[str, list[str]]:
    """{case: argv}; a case writes its files under out/<case>/ (the {out} in its argv)."""
    cases = {
        "gen-logistic": ["gen-logistic", "--n", "60", "--p", "8", "--seed", "3", "--out", "{out}/d.csv"],
        "gen-moment": ["gen-moment", "--p", "12", "--seed", "2", "--out", "{out}/m.json"],
        "gen-logistic-large": ["gen-logistic", "--n", "600", "--p", "160", "--seed", "4", "--out", "{out}/d.csv"],
    }
    for method in ("euler", "trapezoid-cg"):
        cases[f"run/logistic-large/{method}"] = (
            ["run", "--method", method, "--K", "16", "--eps", "1e-3", "--out", "{out}/run.json"]
            + ["--path-out", "{out}/path.csv", "--diag-out", "{out}/diag.jsonl"] + LARGE
        )
    for prob, flags in PATH_PROBLEMS.items():
        flags = flags + (["--init-tol", "1e-10"] if prob == "moment" else [])
        for method in METHODS:
            diag = [] if method.startswith("grid-") else ["--diag-out", "{out}/diag.jsonl"]
            cases[f"run/{prob}/{method}"] = (
                ["run", "--method", method, "--K", "40", "--eps", "1e-3", "--out", "{out}/run.json"]
                + ["--path-out", "{out}/path.csv"] + diag + flags
            )
            cases[f"doubling/{prob}/{method}"] = (
                ["doubling", "--method", method, "--eps", "1e-3", "--K0", "16", "--out", "{out}/d.json"]
                + ["--path-out", "{out}/path.csv"] + flags
            )
            cases[f"sweep/{prob}/{method}"] = (
                ["sweep", "--methods", method, "--eps-list", "1e-2,1e-3", "--K0", "8"]
                + ["--out", "{out}/sweep.csv"] + flags
            )
    for bound in ("euler", "trapezoid", "euler-cg", "trapezoid-cg", "grid"):
        theory = ["theory", "--method", bound, "--eps", "1e-3"]
        cases[f"theory/stated/{bound}"] = theory + STATED
        for prob, flags in PROBLEMS.items():
            cases[f"theory/{prob}/{bound}"] = theory + ["--estimate", "--samples", "8"] + flags
    # the exit-2 and exit-3 paths of main(), as in tests/test_cli.py::TestExitPaths
    cases.update({
        "exit/synthetic-no-equals": RUN5 + ["--synthetic", "n30"],
        "exit/grid-without-tolerance": ["run", "--method", "grid-newton", "--K", "5"] + QUAD,
        "exit/cg-without-tolerance": ["run", "--method", "euler-cg", "--K", "40"] + QUAD,
        "exit/cg-cap": ["run", "--method", "euler-cg", "--K", "40", "--delta", "1e-300"] + QUAD,
        "exit/non-numeric-tolerance": RUN5 + ["--eps", "abc"],
        "exit/zero-K": RUN5 + ["--method", "grid-newton", "--K", "0", "--eps", "1e-3"],
        "exit/out-into-missing-directory": RUN5 + ["--out", "{out}/missing/r.json"],
        "exit/run-K-out-of-memory": RUN5 + ["--K", str(10**15)],
        "exit/standardize-quadratic": RUN5 + ["--standardize"],
        "exit/sweep-degenerate": ["sweep", "--methods", "euler,grid-newton", "--eps-list", "1e-2",
                                  "--out", "{out}/rw.csv", "--problem", "logistic-reweighted",
                                  "--synthetic", "n=60,p=5"],
        "exit/knots-coincide": ["run", "--method", "euler", "--K", "1000", "--lambda-min", "1",
                                "--lambda-max", "1.000000000000001"] + QUAD,
        "exit/theory-term-overflows": ["theory", "--method", "euler", "--eps", "1e-3", "--mu", "1",
                                       "--sigma", "1", "--L", "1e308", "--G", "1e308"],
    })  # fmt: skip
    for case, (name, _) in CSV_CASES.items():
        cases[case] = ["run", "--method", "euler", "--K", "5", "--problem", "logistic", "--data", name]
    return cases


def run_tree(tree: str, workdir: str) -> None:
    """Worker: run the matrix against tree's src/ in workdir and write workdir/outputs.json."""
    src = os.path.realpath(os.path.join(tree, "src"))
    sys.path.insert(0, src)
    from pathode import cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"pathode imported from {cli.__file__}, not from {src}")
    os.chdir(workdir)
    for name, text in CSV_CASES.values():
        with open(name, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    results = {}
    for case, argv in matrix().items():
        out_dir = os.path.join("out", case)
        os.makedirs(out_dir)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main([a.replace("{out}", out_dir) for a in argv])
            except SystemExit as exc:  # argparse's own errors
                code = exc.code
            except Exception:  # a traceback is an output like any other
                traceback.print_exc()
                code = 1
        files = {}
        for root, _, names in os.walk(out_dir):
            for name in names:
                path = os.path.join(root, name)
                with open(path, encoding="utf-8", errors="replace") as fh:
                    files[os.path.relpath(path, out_dir)] = fh.read()
        results[case] = {"exit": str(code), "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), **files}
        if case in DATA_FILES:
            written, read = DATA_FILES[case]
            os.replace(os.path.join(out_dir, written), read)
    with open("outputs.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh)


WALL_TIME = re.compile(r'("wall_time_seconds": )[-+.\deE]+')


def normalize(text: str) -> str:
    """text with the value of each wall_time_seconds JSON key, and a CSV column of that name, blanked."""
    text = WALL_TIME.sub(r"\1_", text)
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",") if lines else []
    if "wall_time_seconds" not in header:
        return text
    col = header.index("wall_time_seconds")
    return "".join(",".join("_" if i == col else c for i, c in enumerate(ln.split(","))) for ln in lines)


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
CERTIFICATE = re.compile(r'"(?:residual_r_k|direction_residuals)": (?:\[[^]]*\]|[^,}]*)')


def floors(text: str) -> list[float]:
    """Per number of text, the absolute difference that counts as rounding beside RTOL.

    RTOL times its line's largest cg_initial_residuals for a certificate of a --diag-out
    line, else 0.
    """
    out = []
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        spans, floor = [], 0.0
        if isinstance(record, dict) and record.get("cg_initial_residuals"):
            floor = RTOL * max(map(abs, record["cg_initial_residuals"]))
            spans = [m.span() for m in CERTIFICATE.finditer(line)]
        out += [floor if any(a <= m.start() < b for a, b in spans) else 0.0 for m in NUMBER.finditer(line)]
    return out


def classify(base: str | None, head: str | None) -> tuple[str, str]:
    """(class, detail) of one output present in base, head or both."""
    if base is None or head is None:
        return "different", "missing in " + ("base" if base is None else "head")
    base, head = normalize(base), normalize(head)
    if base == head:
        return "identical", ""
    b_nums, h_nums = NUMBER.findall(base), NUMBER.findall(head)
    if NUMBER.split(base) != NUMBER.split(head) or len(b_nums) != len(h_nums):
        return "different", "text or number count differs"
    worst, certificates = 0.0, 0
    for b, h, floor in zip(b_nums, h_nums, map(max, floors(base), floors(head))):
        if b == h:
            continue
        if re.fullmatch(r"[-+]?\d+", b) and re.fullmatch(r"[-+]?\d+", h):
            return "different", f"integer {b} != {h}"
        x, y = float(b), float(h)
        rel = 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))  # "-0.0" and "0.0" are equal
        if rel <= RTOL:
            worst = max(worst, rel)
        elif abs(x - y) <= floor:
            certificates += 1
        else:
            return "different", f"{b} vs {h} (relative {rel:.1e})"
    detail = f", {certificates} certificates within RTOL ||g||" if certificates else ""
    return "rounding", f"max relative {worst:.1e}{detail}"


def compare(base: dict, head: dict) -> list[tuple[str, str, str, str]]:
    rows = []
    for case in sorted(set(base) | set(head)):
        b, h = base.get(case, {}), head.get(case, {})
        for output in sorted(set(b) | set(h)):
            rows.append((case, output, *classify(b.get(output), h.get(output))))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--worker":
        run_tree(argv[1], argv[2])
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    outputs, seconds = [], []
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as scratch:
        for side, tree in zip(("base", "head"), argv):
            workdir = os.path.join(scratch, side)
            os.makedirs(workdir)
            t0 = time.perf_counter()
            subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", tree, workdir], check=True)
            seconds.append(time.perf_counter() - t0)
            with open(os.path.join(workdir, "outputs.json"), encoding="utf-8") as fh:
                outputs.append(json.load(fh))
    rows = compare(*outputs)
    width = max(len(f"{case}  {output}") for case, output, _, _ in rows)
    for case, output, kind, detail in rows:
        print(f"{f'{case}  {output}':<{width}}  {kind:<9}  {detail}".rstrip())
    counts = {kind: sum(row[2] == kind for row in rows) for kind in ("identical", "rounding", "different")}
    print(", ".join(f"{n} {kind}" for kind, n in counts.items()) + f" of {len(rows)} outputs")
    print(f"wall time: base {seconds[0]:.1f} s, head {seconds[1]:.1f} s")
    return 1 if counts["different"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
