"""Generators, the CSTR plant, metrics and file round-trips."""

import numpy as np
import pytest

from streamgp import (
    ContractViolationError,
    DataError,
    Dataset,
    coverage,
    generate_gp_data,
    load_dataset,
    rmse,
    save_dataset,
    simulate_cstr,
)
from streamgp.data import default_hyperparameters, integrate_cstr, read_table

from conftest import train_test_split


class TestGenerateGpData:
    def test_deterministic_per_seed(self):
        a = generate_gp_data(42, 50, d=2)
        b = generate_gp_data(42, 50, d=2)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.provenance == b.provenance

    def test_different_seeds_differ(self):
        a = generate_gp_data(1, 30)
        b = generate_gp_data(2, 30)
        assert not np.array_equal(a.y, b.y)

    def test_default_generation_values(self):
        ds = generate_gp_data(0, 20)
        assert "sigma0=1" in ds.provenance
        assert "noise_std=0.1" in ds.provenance
        assert "0.1" in ds.provenance  # default lengthscale for D=1
        assert ds.input_dim == 1
        assert np.all((ds.X >= 0.0) & (ds.X <= 1.0))

    def test_marginal_variance_of_large_sparse_draw(self):
        # Stationary prior: Var(y_i) = sigma0^2 + sigma_n^2 at every input.
        # In D=5 the domain holds ~1/l^5 decorrelated patches, so the
        # empirical variance of one N=1e4 draw concentrates within 10%.
        # (In D=1 a single draw has ~1/(2l) ~ 5 patches and its empirical
        # variance is dominated by draw-level randomness, so the marginal
        # property is not testable there from one realization.)
        ds = generate_gp_data(3, 10_000, d=5)
        assert ds.provenance.endswith("mode=sparse)")
        target = 1.0 ** 2 + 0.1 ** 2
        assert abs(np.var(ds.y) - target) / target < 0.10

    def test_dense_guard(self):
        with pytest.raises(ContractViolationError):
            generate_gp_data(0, 6000, mode="dense")
        generate_gp_data(0, 50, mode="dense")

    def test_auto_switches_to_sparse(self):
        ds = generate_gp_data(0, 5001)
        assert "mode=sparse" in ds.provenance


class TestCstr:
    def test_constant_input_fixed_point(self):
        # w1 = 0, w2 = 0.1: level settles at (0.1 / 0.2)^2 = 0.25.
        _, level, _, _ = integrate_cstr(lambda t: 0.0, duration=120.0)
        assert abs(level[-1] - 0.25) < 1e-3

    def test_lag_two_gives_five_features(self):
        ds = simulate_cstr(0, duration=30.0, lag=2)
        assert ds.input_dim == 5
        assert ds.column_names == ["y_lag1", "y_lag2", "w_lag0", "w_lag1", "w_lag2", "y"]

    def test_deterministic_per_seed(self):
        a = simulate_cstr(5, duration=20.0)
        b = simulate_cstr(5, duration=20.0)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_sample_count(self):
        # duration / 0.2 samples plus the initial point, minus lag rows.
        ds = simulate_cstr(1, duration=20.0, lag=2)
        assert ds.n == 101 - 2

    def test_features_align_with_targets(self):
        # The first lag feature of row t is the target of row t-1.
        ds = simulate_cstr(2, duration=20.0, lag=2)
        np.testing.assert_allclose(ds.X[1:, 0], ds.y[:-1], rtol=0, atol=0)

    def test_positive_duration_required(self):
        with pytest.raises(ContractViolationError):
            integrate_cstr(lambda t: 0.0, duration=0.0)

    def test_draining_tank_is_a_data_error(self):
        # w1 < 0 empties the tank within a second; the level's square root
        # then turns the state to NaN.
        with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(DataError):
            integrate_cstr(lambda t: -1.0, 10.0)


class TestMetrics:
    def test_perfect_predictions(self):
        y = np.array([1.0, 2.0, 3.0])
        assert rmse(y, y) == 0.0
        assert coverage(y, y, np.full(3, 0.1)) == 1.0

    def test_rmse_value(self):
        assert rmse(np.array([0.0, 0.0]), np.array([1.0, -1.0])) == pytest.approx(1.0)

    def test_coverage_counts_interval_hits(self):
        y = np.array([0.0, 10.0])
        mean = np.zeros(2)
        var = np.ones(2)
        assert coverage(y, mean, var) == 0.5

    def test_coverage_calibrated_on_gaussian_sample(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(20_000)
        cov = coverage(y, np.zeros(y.size), np.ones(y.size))
        assert abs(cov - 0.95) < 0.01


class TestDatasetIO:
    def test_round_trip_exact(self, tmp_path):
        ds = generate_gp_data(7, 25, d=2)
        path = tmp_path / "data.csv"
        save_dataset(ds, str(path))
        back = load_dataset(str(path))
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)
        assert back.column_names == ds.column_names

    def test_target_column_by_name(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n")
        ds = load_dataset(str(path), target_col="b")
        np.testing.assert_array_equal(ds.y, [2.0, 5.0])
        np.testing.assert_array_equal(ds.X, [[1.0, 3.0], [4.0, 6.0]])
        assert ds.column_names == ["a", "c", "b"]

    def test_non_numeric_cell_diagnostics(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,y\n0.1,0.2\n0.3,oops\n")
        with pytest.raises(DataError) as err:
            load_dataset(str(path))
        assert str(err.value) == f"{path}: non-numeric value 'oops' at row 3, column 'y'"

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("x0,y\n0.1,inf\n")
        with pytest.raises(DataError) as err:
            load_dataset(str(path))
        assert str(err.value) == f"{path}: non-finite value 'inf' at row 2, column 'y'"

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x0,y\n0.1,0.2,0.3\n")
        with pytest.raises(DataError) as err:
            load_dataset(str(path))
        assert str(err.value) == f"{path}: row 2 has 3 cells, header has 2"

    @pytest.mark.parametrize("body", ["", "\n\n"], ids=["header-only", "blank-lines-only"])
    def test_file_without_data_rows_rejected(self, tmp_path, body):
        path = tmp_path / "header.csv"
        path.write_text("x0,y\n" + body)
        with pytest.raises(DataError) as err:
            load_dataset(str(path))
        assert str(err.value) == f"{path}: no data rows"

    def test_blank_looking_row_rejected(self, tmp_path):
        # np.loadtxt refuses a line of blanks as a row of one cell; the pass
        # that words its refusals sees the same.
        path = tmp_path / "blank.csv"
        path.write_text("x0,y\n0.1,0.2\n   \n0.3,0.4\n")
        with pytest.raises(DataError, match="row 3 has 1 cells"):
            load_dataset(str(path))

    def test_quoted_cells_load(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('x0,y\n"0.1",0.2\n0.3,"0.4"\n')
        ds = load_dataset(str(path))
        np.testing.assert_array_equal(ds.X, [[0.1], [0.3]])
        np.testing.assert_array_equal(ds.y, [0.2, 0.4])

    @pytest.mark.parametrize(
        "text",
        ['x0,y\r\n"0.1",0.2\r\n0.3,"0.4"\r\n', 'x0,y\n 0.1 ,\t0.2\n"0.3" , 0.4 \n'],
        ids=["crlf", "padded"],
    )
    def test_crlf_and_padded_cells_load(self, tmp_path, text):
        path = tmp_path / "cells.csv"
        path.write_bytes(text.encode())
        ds = load_dataset(str(path))
        np.testing.assert_array_equal(ds.X, [[0.1], [0.3]])
        np.testing.assert_array_equal(ds.y, [0.2, 0.4])
        assert ds.column_names == ["x0", "y"]

    @pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662"], ids=["underscore", "arabic-indic-digits"])
    def test_python_only_number_spellings_are_rejected(self, tmp_path, cell):
        # float() reads these; np.loadtxt, the one parser, does not, and the
        # error pass words them like any other non-numeric cell.
        path = tmp_path / "spelling.csv"
        path.write_text(f"x0,y\n0.1,{cell}\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            load_dataset(str(path))
        assert str(err.value) == f"{path}: non-numeric value {cell!r} at row 2, column 'y'"

    def test_reading_peaks_below_twice_the_file(self, tmp_path):
        # A train-cstr-sized file (9,999 rows, 6 columns of repr floats, about
        # 1.1 MB) is parsed from the open file: no copy of its text is held
        # beside the arrays.
        import tracemalloc

        rng = np.random.default_rng(0)
        ds = Dataset(X=rng.standard_normal((9999, 5)), y=rng.standard_normal(9999))
        path = tmp_path / "large.csv"
        save_dataset(ds, str(path))
        size = path.stat().st_size
        assert size > 1_000_000
        tracemalloc.start()
        try:
            back = load_dataset(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * size, f"peak {peak} B for a {size} B file"
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)

    @pytest.mark.parametrize(
        "header, message",
        [("a,y,y", "'y' (columns 2 and 3)"), ("a,a,y", "'a' (columns 1 and 2)")],
        ids=["repeated-target", "repeated-feature"],
    )
    def test_repeated_header_name_rejected(self, tmp_path, header, message):
        # A repeated name would make the target lookup pick the first of its
        # columns, or load two features of one name.
        path = tmp_path / "repeated.csv"
        path.write_text(header + "\n1,2,3\n")
        with pytest.raises(DataError) as err:
            load_dataset(str(path))
        assert str(err.value) == f"{path}: header repeats column name {message}"

    def test_missing_target_rejected(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("x0,y\n0.1,0.2\n")
        with pytest.raises(DataError, match="target column"):
            load_dataset(str(path), target_col="z")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_dataset(str(path))

    def test_read_table_plain_matrix(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        header, m = read_table(str(path))
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])
        assert header == ["a", "b"]


class TestDatasetType:
    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            Dataset(X=np.array([[np.nan]]), y=np.array([1.0]))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Dataset(X=np.zeros((0, 1)), y=np.zeros(0))

    def test_default_column_names(self):
        ds = Dataset(X=np.zeros((2, 3)), y=np.zeros(2))
        assert ds.column_names == ["x0", "x1", "x2", "y"]

    def test_chronological_split(self):
        ds = Dataset(X=np.arange(10.0)[:, None], y=np.arange(10.0))
        tr, te = train_test_split(ds, 0.3)
        assert tr.n == 7 and te.n == 3
        np.testing.assert_array_equal(te.y, [7.0, 8.0, 9.0])


def test_default_hyperparameters_helper():
    h = default_hyperparameters(d=3, sigma0=2.0, lengthscale=0.4, noise_std=0.05)
    assert h.sigma0 == pytest.approx(2.0)
    np.testing.assert_allclose(h.lengthscales, 0.4)
    assert h.sigma_n == pytest.approx(0.05)
    assert h.input_dim == 3
