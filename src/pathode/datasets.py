"""Dataset loading and seeded synthetic generators.

CSV contract: optional header row; column 1 is the label (+1/-1), columns
2..p+1 are features; comma-separated, '.' decimal point, UTF-8.  Moment
problems travel as JSON objects {"w": [...], "x_true": [...], "n_moments": k}.
All generators use counter-based streams (Philox) keyed by a single seed.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.special import expit

from .reports import json_text, write_json_atomic


class DatasetFormatError(ValueError):
    """A data file violates the documented format; message names the line."""


def _try_parse_row(fields: list[str]) -> list[float] | None:
    try:
        return [float(f) for f in fields]
    except ValueError:
        return None


def load_csv_dataset(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a labelled CSV into (features, labels).

    An unparseable first row is treated as a header.  Labels must be exactly
    +1 or -1 and features finite; any malformed later row raises with its
    1-based line number.
    """
    rows: list[list[float]] = []
    linenos: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    width = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        parsed = _try_parse_row(fields)
        if parsed is None:
            if lineno == 1:
                continue  # header
            raise DatasetFormatError(f"{path}: line {lineno}: unparseable numeric row")
        if len(parsed) < 2:
            raise DatasetFormatError(f"{path}: line {lineno}: need a label and at least one feature")
        if parsed[0] not in (-1.0, 1.0):
            raise DatasetFormatError(f"{path}: line {lineno}: label must be +1 or -1, got {parsed[0]:g}")
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise DatasetFormatError(
                f"{path}: line {lineno}: expected {width} columns, got {len(parsed)}"
            )
        rows.append(parsed)
        linenos.append(lineno)
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    data = np.array(rows, dtype=float)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise DatasetFormatError(f"{path}: line {lineno}: features must be finite")
    return data[:, 1:], data[:, 0]


def standardize_features(features: np.ndarray) -> np.ndarray:
    """Center each column and scale nonconstant ones to unit variance."""
    features = np.asarray(features, dtype=float)
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return (features - mean) / std


def save_csv_dataset(features: np.ndarray, labels: np.ndarray, path: str) -> None:
    """Write a labelled dataset in the CSV contract (with a header row)."""
    features = np.asarray(features, dtype=float)
    p = features.shape[1]
    header = "label," + ",".join(f"f_{j}" for j in range(1, p + 1))
    data = np.column_stack([np.asarray(labels, dtype=float), features])
    np.savetxt(path, data, fmt=["%d"] + ["%.17g"] * p, delimiter=",", header=header, comments="")


def generate_synthetic_logistic(
    n: int = 569, p: int = 30, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded logistic-model sample at clinical-dataset scale (defaults 569 x 30).

    Features are standard normal; labels are drawn from a logistic model with
    a random unit-scale weight vector.  Stream order: n*p feature normals,
    p weight normals, n label uniforms.
    """
    if n < 2 or p < 1:
        raise ValueError("need n >= 2 and p >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    features = rng.normal(size=(n, p))
    w_true = rng.normal(size=p) / np.sqrt(p)
    probs = expit(features @ w_true)
    labels = np.where(rng.uniform(size=n) < probs, 1.0, -1.0)
    if np.all(labels == labels[0]):  # forcing both classes keeps splits valid
        labels[0] = -labels[0]
    return features, labels


def generate_synthetic_quadratic(
    n: int = 30, p: int = 20, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Gaussian design and response for least-squares instances.

    Stream order: n*p design normals, p weight normals, n noise normals;
    b = A w_true + 0.1 * noise.
    """
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    A = rng.normal(size=(n, p))
    w_true = rng.normal(size=p) / np.sqrt(p)
    b = A @ w_true + 0.1 * rng.normal(size=n)
    return A, b


def save_moment_json(w: np.ndarray, x_true: np.ndarray, n_moments: int, path: str) -> None:
    payload = {
        "w": [float(v) for v in w],
        "x_true": [float(v) for v in x_true],
        "n_moments": int(n_moments),
    }
    write_json_atomic(json_text(payload), path)


def load_moment_json(path: str) -> tuple[np.ndarray, np.ndarray, int]:
    """(w, x_true, n_moments) of a moment JSON: two equal-length lists and an integer."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
            w = np.asarray(payload["w"], dtype=float)
            x_true = np.asarray(payload["x_true"], dtype=float)
            n_moments = payload["n_moments"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetFormatError(f"{path}: missing or malformed moment fields: {exc}") from exc
    if isinstance(n_moments, bool) or not isinstance(n_moments, int):
        raise DatasetFormatError(f"{path}: n_moments must be an integer, got {n_moments!r}")
    if w.ndim != 1 or w.shape != x_true.shape:
        raise DatasetFormatError(f"{path}: w and x_true must be 1-d arrays of equal length")
    return w, x_true, n_moments
