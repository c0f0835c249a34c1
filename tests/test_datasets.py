"""CSV and JSON dataset IO plus the synthetic generators."""

import numpy as np
import pytest

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

    def test_standardize_flag(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,1.0,5.0\n-1,3.0,5.0\n1,5.0,5.0\n")
        X = standardize_features(load_csv_dataset(str(f))[0])
        np.testing.assert_allclose(X.mean(axis=0), [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(X.std(axis=0), [1.0, 0.0], atol=1e-12)


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
