"""CSV and JSON dataset IO plus the synthetic generators."""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pathode import (
    DatasetFormatError,
    generate_synthetic_logistic,
    generate_synthetic_moment_data,
    generate_synthetic_quadratic,
    load_csv_dataset,
    load_moment_json,
    save_csv_dataset,
    save_moment_json,
    standardize_features,
)
from pathode import datasets
from pathode.datasets import _check_lines
from pathode.paths import PiecewiseLinearPath, export_path_csv

PROPERTY_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


class TestLoadCsv:
    def test_headerless_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,0.5,2.0\n-1,1.5,-3.0\n")
        X, y = load_csv_dataset(str(f))
        assert X.shape == (2, 2)
        np.testing.assert_array_equal(y, [1.0, -1.0])
        np.testing.assert_allclose(X, [[0.5, 2.0], [1.5, -3.0]])

    def test_header_row_skipped(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("label,f_1,f_2\n1,0.5,2.0\n-1,1.5,-3.0\n")
        X, y = load_csv_dataset(str(f))
        assert X.shape == (2, 2)
        assert y[0] == 1.0

    @pytest.mark.parametrize("header", ["", "label,f_1,f_2\n"], ids=["headerless", "header"])
    def test_byte_order_mark_is_skipped(self, tmp_path, header):
        # a BOM once made a headerless first row unparseable, and it was dropped as a header
        text = header + "1,0.5,0.2\n-1,1.5,-3.0\n1,2.5,4.0\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text)
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        X, y = load_csv_dataset(str(bom))
        np.testing.assert_array_equal(y, [1.0, -1.0, 1.0])
        np.testing.assert_array_equal(X, [[0.5, 0.2], [1.5, -3.0], [2.5, 4.0]])
        X2, y2 = load_csv_dataset(str(plain))
        assert np.array_equal(X2, X) and np.array_equal(y2, y)

    def test_blank_lines_ignored(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,0.5\n\n-1,1.5\n\n")
        X, y = load_csv_dataset(str(f))
        assert len(y) == 2

    def test_bad_label_names_line(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("label,f_1\n1,0.5\n0,1.5\n")
        with pytest.raises(DatasetFormatError, match="line 3.*label must be"):
            load_csv_dataset(str(f))

    def test_unparseable_second_row_is_an_error(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,0.5\nouch,0.5\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_csv_dataset(str(f))

    def test_width_mismatch(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,0.5,1.0\n-1,1.5\n")
        with pytest.raises(DatasetFormatError, match="line 2: expected 3 columns, got 2"):
            load_csv_dataset(str(f))

    def test_label_only_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1\n")
        with pytest.raises(DatasetFormatError, match="at least one feature"):
            load_csv_dataset(str(f))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_nonfinite_feature_names_its_line(self, tmp_path, bad):
        # the CLI once failed later with "SVD did not converge" (nan) or
        # "non-finite entries in linear system" (inf), naming neither file nor line
        f = tmp_path / "d.csv"
        f.write_text(f"label,f_1,f_2\n1,0.5,2.0\n\n-1,{bad},1.0\n1,{bad},{bad}\n")
        with pytest.raises(DatasetFormatError, match=r"d\.csv: line 4: features must be finite"):
            load_csv_dataset(str(f))

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("")
        with pytest.raises(DatasetFormatError, match="empty file"):
            load_csv_dataset(str(f))

    def test_header_only(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("label,f_1\n")
        with pytest.raises(DatasetFormatError, match="no data rows"):
            load_csv_dataset(str(f))

    @pytest.mark.parametrize("text", ["", "\n", "label,f_1\n", "label,f_1\n \n\n"])
    def test_no_warning_without_data_rows(self, tmp_path, text):
        # numpy's loadtxt warns on an input with no data
        f = tmp_path / "d.csv"
        f.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetFormatError, match="empty file|no data rows"):
                load_csv_dataset(str(f))

    def test_standardize_flag(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,1.0,5.0\n-1,3.0,5.0\n1,5.0,5.0\n")
        X = standardize_features(load_csv_dataset(str(f))[0])
        np.testing.assert_allclose(X.mean(axis=0), [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(X.std(axis=0), [1.0, 0.0], atol=1e-12)


# A small grammar of CSV texts around the contract: the loader must agree on every one with
# the line checker _check_lines, the per-line parser it used before the C reader, kept as
# its fallback.
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda v: f"  {v!r} \t"),
)
_NUMBERS = _FINITE | st.sampled_from(
    ["nan", "inf", "-inf", "NaN", " Infinity", "1e400", "1_0", "-2_5.5", "\xa02"]
)
# characters at which numpy's float parser and float() or str.splitlines part ways
_ODD = st.sampled_from(["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u0661"])
_FEATURES = st.one_of(
    _NUMBERS,
    _NUMBERS,
    st.sampled_from(["", "abc", "1.5e", "0x10", "1,"]),
    st.tuples(_ODD, _NUMBERS, st.booleans()).map(lambda t: t[0] + t[1] if t[2] else t[1] + t[0]),
)
_LABELS = st.sampled_from(["1", "-1", "+1", " 1 ", "1.0", "-1e0", "0", "2", "-0", "nan", "1_0", "x", ""])
_BLANKS = st.sampled_from(["", " ", "\t", " \t ", "\u3000"])


@st.composite
def csv_texts(draw) -> bytes:
    """A CSV text: a clean one (finite features, labels +1 or -1, one width) or one with defects."""
    clean = draw(st.booleans())
    features = _FINITE if clean else _FEATURES
    labels = st.sampled_from(["1", "-1"]) if clean else _LABELS
    width = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["label,f_1,f_2", "y,x", "1,2", "label", " ", "label,\u00e9"])))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(_BLANKS))
            continue
        w = width if clean or draw(st.integers(0, 7)) else draw(st.integers(0, 5))  # ragged now and then
        label = draw(labels) if draw(st.integers(0, 3)) == 0 else draw(st.sampled_from(["1", "-1"]))
        lines.append(",".join([label] + [draw(features) for _ in range(w)]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode("utf-8")


def _outcome(load, path):
    try:
        return load(path)
    except ValueError as exc:
        return type(exc), str(exc)


def _line_checker(path):
    data = _check_lines(path)
    return data[:, 1:], data[:, 0]


class TestLoaderMatchesLineChecker:
    @PROPERTY_SETTINGS
    @given(data=csv_texts())
    @example(data=b"\xef\xbb\xbflabel,f_1\r\n1,0.5\r\n \t\r\n-1,2\r\n")
    @example(data=b"1,1_0\n-1,2\n")
    @example(data=b"label\x0c1,2\n-1,3\n")
    @example(data=b"1,5\x1c,3\n-1,2,3\n")
    @example(data=b"1,2,3\n1,5\x1c,3\n")
    @example(data=b"1,2\n-1,5\x1f\n")
    @example(data=b"1,2,3\n-1,5\xc2\x85,3\n")
    @example(data=b"1,0.5\n-1,\xff\n")
    def test_same_arrays_or_same_error(self, tmp_path, data):
        self.check(tmp_path, data)

    @pytest.mark.parametrize("odd", list("\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029"))
    @pytest.mark.parametrize("row", ["-1,{}5,3", "-1,5{},3"], ids=["before", "after"])
    def test_odd_character_in_a_later_row(self, tmp_path, odd, row):
        self.check(tmp_path, ("1,2,3\n" + row.format(odd) + "\n").encode("utf-8"))

    @staticmethod
    def check(tmp_path, data):
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        got = _outcome(load_csv_dataset, str(path))
        want = _outcome(_line_checker, str(path))
        if isinstance(want[0], type):
            assert got == want
        else:
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


class TestReaderChoice:
    """Which files numpy's C reader takes; the line checker decides the rest."""

    @pytest.mark.parametrize(
        "data",
        [
            b"\xef\xbb\xbflabel,f_1\r\n1,0.5\r\n \t\r\n-1,2\r\n",
            b"1,0.5\r-1,2",
            b"label,\xc3\xa9\n1,0.5\n\n",
        ],
        ids=["bom-crlf-header-blank", "cr-no-final-newline", "non-ascii-header"],
    )
    def test_c_reader_takes(self, tmp_path, data):
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        assert datasets._read_rows(str(path)) is not None

    @pytest.mark.parametrize(
        "data",
        [b"1,1_0\n", b"1,0.5\n-1,5\x0c\n", b"1,\xc2\xa00.5\n", b"1,0.5\n2,1\n", b"1,nan\n", b"1\n", b"x\n"],
        ids=["underscore", "form-feed", "non-ascii", "bad-label", "nan", "one-column", "header-only"],
    )
    def test_line_checker_decides(self, tmp_path, data):
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        assert datasets._read_rows(str(path)) is None


class TestStandardize:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3)) * [2.0, 0.5, 9.0] + [1.0, -7.0, 0.3]
        Z = standardize_features(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_centered_not_scaled(self):
        X = np.array([[2.0, 1.0], [2.0, 3.0]])
        Z = standardize_features(X)
        np.testing.assert_allclose(Z[:, 0], [0.0, 0.0], atol=0.0)
        np.testing.assert_allclose(Z[:, 1], [-1.0, 1.0], atol=1e-15)


class TestCsvRoundTrip:
    def test_exact_floats_survive(self, tmp_path):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(7, 4))
        y = np.where(rng.uniform(size=7) < 0.5, -1.0, 1.0)
        path = tmp_path / "rt.csv"
        save_csv_dataset(X, y, str(path))
        X2, y2 = load_csv_dataset(str(path))
        np.testing.assert_array_equal(X2, X)  # .17g preserves doubles exactly
        np.testing.assert_array_equal(y2, y)

    def test_header_written(self, tmp_path):
        path = tmp_path / "rt.csv"
        save_csv_dataset(np.zeros((1, 3)), np.ones(1), str(path))
        first = path.read_text().splitlines()[0]
        assert first == "label,f_1,f_2,f_3"

    @settings(PROPERTY_SETTINGS, max_examples=100)
    @given(
        features=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
        ),
        signs=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_save_then_load_is_bit_exact(self, tmp_path, features, signs):
        labels = np.where(signs[: len(features)], 1.0, -1.0)
        path = tmp_path / "rt.csv"
        save_csv_dataset(features, labels, str(path))
        X, y = load_csv_dataset(str(path))
        assert X.tobytes() == features.tobytes() and y.tobytes() == labels.tobytes()

    @pytest.mark.parametrize(
        "features, labels, match",
        [
            (np.zeros((2, 1)), [1.7, -0.2], r"labels\[0\] must be \+1 or -1, got 1.7"),
            (np.zeros((2, 1)), [1.0, 0.0], r"labels\[1\] must be \+1 or -1, got 0"),
            (np.zeros((2, 1)), [1.0, np.nan], r"labels\[1\] must be \+1 or -1, got nan"),
            ([[0.5], [np.inf]], [1.0, -1.0], r"features row 1 is not finite"),
            ([[np.nan], [0.5]], [1.0, -1.0], r"features row 0 is not finite"),
            (np.zeros((2, 1)), [1.0], r"one label per row"),
        ],
        ids=["fractional-labels", "zero-label", "nan-label", "inf-feature", "nan-feature", "short-labels"],
    )
    def test_refuses_what_the_loader_refuses(self, tmp_path, features, labels, match):
        # "%d" once wrote the labels 1.7 and -0.2 as 1 and 0, a file the loader refuses at line 3
        path = tmp_path / "rt.csv"
        path.write_text("old\n")
        with pytest.raises(ValueError, match=match):
            save_csv_dataset(np.asarray(features), np.asarray(labels), str(path))
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rt.csv"]


class TestBlockWriter:
    """The block writer's bytes are np.savetxt's, as both CSV writers once called it."""

    @settings(PROPERTY_SETTINGS, max_examples=100)
    @given(
        features=hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 140), st.integers(1, 3)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dataset_bytes(self, tmp_path, features, seed):
        labels = np.where(np.random.default_rng(seed).uniform(size=len(features)) < 0.5, 1.0, -1.0)
        p = features.shape[1]
        ours, numpys = tmp_path / "ours.csv", tmp_path / "savetxt.csv"
        save_csv_dataset(features, labels, str(ours))
        np.savetxt(
            str(numpys), np.column_stack([labels, features]), fmt=["%d"] + ["%.17g"] * p, delimiter=",",
            header="label," + ",".join(f"f_{j}" for j in range(1, p + 1)), comments="",
        )  # fmt: skip
        assert ours.read_bytes() == numpys.read_bytes()

    @settings(PROPERTY_SETTINGS, max_examples=100)
    @given(
        X=hnp.arrays(
            np.float64, st.tuples(st.integers(2, 140), st.integers(1, 3)), elements=st.floats(width=64)
        )
    )
    def test_path_bytes(self, tmp_path, X):
        path = PiecewiseLinearPath(np.geomspace(10.0, 0.01, len(X)), X, np.zeros(len(X)))
        p = X.shape[1]
        ours, numpys = tmp_path / "ours.csv", tmp_path / "savetxt.csv"
        export_path_csv(path, str(ours))
        np.savetxt(
            str(numpys), np.column_stack([path.lams, X]), fmt="%.17g", delimiter=",",
            header="lambda," + ",".join(f"x_{j}" for j in range(1, p + 1)), comments="",
        )  # fmt: skip
        assert ours.read_bytes() == numpys.read_bytes()


class TestSyntheticLogistic:
    def test_shapes_and_labels(self):
        X, y = generate_synthetic_logistic(30, 4, seed=0)
        assert X.shape == (30, 4) and y.shape == (30,)
        assert set(np.unique(y)) == {-1.0, 1.0}

    def test_deterministic(self):
        a = generate_synthetic_logistic(25, 3, seed=42)
        b = generate_synthetic_logistic(25, 3, seed=42)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_seed_changes_data(self):
        a, _ = generate_synthetic_logistic(25, 3, seed=1)
        b, _ = generate_synthetic_logistic(25, 3, seed=2)
        assert not np.array_equal(a, b)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            generate_synthetic_logistic(1, 3, seed=0)

    # The benchmark's logistic instances, on which criteria 8 and 9 also rest.
    # Each label compares a uniform draw with an expit probability, so a sigmoid
    # one ulp off (a faster kernel in place of expit) can flip a label; this
    # fails when one does, or when the stream or its order changes.
    @pytest.mark.parametrize(
        "n, p, digest",
        [
            (200, 30, "09ac46a3d069745f9e8ed719a203a017a0e76d187fcf40442a0582153e214898"),
            (1000, 250, "4a5a627f8ac41836263bbf01f12255f4105a178b4cdfaa80aeef4c1cd78ab4f6"),
        ],
    )
    def test_seed_11_stream_is_pinned(self, n, p, digest):
        sha = hashlib.sha256()
        for a in generate_synthetic_logistic(n, p, seed=11):
            sha.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        assert sha.hexdigest() == digest


class TestSyntheticQuadratic:
    def test_shapes_and_determinism(self):
        A1, b1 = generate_synthetic_quadratic(9, 5, seed=7)
        A2, b2 = generate_synthetic_quadratic(9, 5, seed=7)
        assert A1.shape == (9, 5) and b1.shape == (9,)
        np.testing.assert_array_equal(A1, A2)
        np.testing.assert_array_equal(b1, b2)

    def test_b_is_near_range_of_A(self):
        A, b = generate_synthetic_quadratic(40, 5, seed=7)
        r = b - A @ np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.linalg.norm(r) < 0.5 * np.linalg.norm(b)  # noise scale 0.1


class TestMomentJson:
    def test_round_trip(self, tmp_path):
        w, x_true = generate_synthetic_moment_data(5, seed=3)
        path = tmp_path / "m.json"
        save_moment_json(w, x_true, 4, str(path))
        w2, x2, m2 = load_moment_json(str(path))
        np.testing.assert_array_equal(w2, w)
        np.testing.assert_array_equal(x2, x_true)
        assert m2 == 4

    def test_byte_order_mark_is_skipped(self, tmp_path):
        w, x_true = generate_synthetic_moment_data(5, seed=3)
        plain, bom = tmp_path / "m.json", tmp_path / "bom.json"
        save_moment_json(w, x_true, 4, str(plain))
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for got, want in zip(load_moment_json(str(bom)), load_moment_json(str(plain))):
            np.testing.assert_array_equal(got, want)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"w": [0.5, 0.0], "n_moments": 2}')
        with pytest.raises(DatasetFormatError, match="malformed moment"):
            load_moment_json(str(path))

    @pytest.mark.parametrize("value", ["1.7", "5.0", "true", "false", '"5"', "null", "[5]"])
    def test_n_moments_must_be_an_integer(self, tmp_path, value):
        # 1.7 and true once ran as 1 moment
        path = tmp_path / "m.json"
        path.write_text(f'{{"w": [0.5, 0.0], "x_true": [0.5, 0.5], "n_moments": {value}}}')
        with pytest.raises(DatasetFormatError, match=r"m\.json: n_moments must be an integer"):
            load_moment_json(str(path))

    @pytest.mark.parametrize(
        "text",
        [
            '{"w": "abc", "x_true": [1.0], "n_moments": 1}',
            '{"w": [0.5, 0.0], "x_true": [0.5, "half"], "n_moments": 1}',
            '{"w": [0.5, 0.0], "x_true": {"a": 1}, "n_moments": 1}',
            "[0.5, 0.0]",
            "{not json",
        ],
        ids=["w-string", "x-entry", "x-object", "not-an-object", "not-json"],
    )
    def test_unconvertible_fields_name_the_file(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(DatasetFormatError, match=r"m\.json: missing or malformed"):
            load_moment_json(str(path))

    @pytest.mark.parametrize(
        "w, x_true",
        [("null", "[0.5, 0.5]"), ("[[0.1], [0.0]]", "[0.5, 0.5]"), ("[0.5, 0.0]", "[1.0]")],
        ids=["null", "2-d", "unequal-length"],
    )
    def test_shape_errors_name_the_file(self, tmp_path, w, x_true):
        # these once reached build_moment_problem, whose message names no file
        path = tmp_path / "m.json"
        path.write_text(f'{{"w": {w}, "x_true": {x_true}, "n_moments": 1}}')
        with pytest.raises(DatasetFormatError, match=r"m\.json: w and x_true must be 1-d"):
            load_moment_json(str(path))
