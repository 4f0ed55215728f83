"""Batch reference path: full GP, one-shot sparse posterior, bounds, FD."""

import numpy as np
import pytest

from streamgp import (
    ContractViolationError,
    Hyperparameters,
    ModelSpec,
    NumericalError,
    batch_bound,
)
from streamgp import linalg as linalg_module
from streamgp.batch import fd_gradient
from streamgp.linalg import CholFactor
from streamgp.model import prior

from conftest import (
    batch_sparse_posterior,
    dense_bound,
    full_gp_lml,
    full_gp_predict,
    make_instance,
)


class TestFullGP:
    def test_interpolates_in_low_noise_limit(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(15, 1))
        h = Hyperparameters(0.0, np.log([0.3]), np.log(1e-4), X[:3].copy())
        y = np.sin(4 * X[:, 0])
        pred = full_gp_predict(X, y, X, h)
        np.testing.assert_allclose(pred.mean, y, atol=1e-3)

    def test_single_point_closed_form(self):
        # N=1: mean = k(x*,x) y / (k(x,x) + sigma_n^2), scalar algebra.
        h = Hyperparameters(np.log(1.3), np.log([0.5]), np.log(0.4), np.array([[0.0]]))
        X = np.array([[0.2]])
        y = np.array([0.7])
        X_star = np.array([[0.5]])
        from conftest import se_ard

        k_star = se_ard(X_star[0], X[0], h)
        k_xx = h.sigma0 ** 2
        denom = k_xx + h.noise_variance
        pred = full_gp_predict(X, y, X_star, h)
        assert pred.mean[0] == pytest.approx(k_star * y[0] / denom, rel=1e-12)
        assert pred.variance[0] == pytest.approx(h.sigma0 ** 2 - k_star ** 2 / denom, rel=1e-12)

    def test_lml_single_zero_observation(self):
        # k(x,x)=1, sigma_n^2=1, y=0: log N(0 | 0, 2) = -log(4 pi)/2
        h = Hyperparameters(0.0, np.log([1.0]), 0.0, np.array([[0.0]]))
        val = full_gp_lml(np.array([[0.3]]), np.array([0.0]), h)
        assert val == pytest.approx(-0.5 * np.log(4.0 * np.pi), rel=1e-14)

    def test_lml_invariant_to_joint_permutation(self):
        X, y, h = make_instance(1, n=40, m=5)
        perm = np.random.default_rng(2).permutation(40)
        assert full_gp_lml(X, y, h) == pytest.approx(full_gp_lml(X[perm], y[perm], h), rel=1e-12)

    def test_size_guard_refuses(self):
        X, y, h = make_instance(2, n=30, m=3)
        with pytest.raises(ContractViolationError):
            full_gp_lml(X, y, h, max_n=10)
        with pytest.raises(ContractViolationError):
            full_gp_predict(X, y, X, h, max_n=10)


class TestBatchSparsePosterior:
    def test_zero_targets_give_zero_mean(self):
        X, _, h = make_instance(3, n=25, m=5)
        mu, _ = batch_sparse_posterior(X, np.zeros(25), h, ModelSpec("vfe"))
        np.testing.assert_array_equal(mu, np.zeros(5))

    def test_covariance_shrinks_from_prior(self):
        from streamgp.kernel import kernel_matrix

        X, y, h = make_instance(4, n=40, m=6)
        _, Sigma = batch_sparse_posterior(X, y, h, ModelSpec("pep", alpha=0.5))
        prior = kernel_matrix(h.inducing_inputs, h.inducing_inputs, h)
        assert np.linalg.eigvalsh(prior - Sigma).min() >= -1e-10


class TestBatchBound:
    @pytest.mark.parametrize(
        "spec",
        [ModelSpec("vfe"), ModelSpec("fitc"), ModelSpec("pep", alpha=0.5), ModelSpec("dtc")],
        ids=lambda s: s.variant,
    )
    def test_matches_dense_oracle(self, spec):
        X, y, h = make_instance(5, n=35, m=6, d=2)
        rep = batch_bound(X, y, h, spec, with_gradient=False)
        assert rep.value == pytest.approx(dense_bound(X, y, h, spec), rel=1e-10)
        assert rep.value == pytest.approx(rep.gaussian_term - rep.regularizer_term, rel=1e-15)

    def test_vfe_below_full_lml(self):
        # Variational bound: holds on every instance, tiny slack for round-off.
        for seed in range(30):
            X, y, h = make_instance(100 + seed, n=25, m=4)
            bound = batch_bound(X, y, h, ModelSpec("vfe"), with_gradient=False).value
            assert bound <= full_gp_lml(X, y, h) + 1e-10

    def test_full_inducing_set_recovers_lml(self):
        X, y, h = make_instance(6, n=30, m=5, lengthscale=0.05)
        h_full = Hyperparameters(h.log_sigma0, h.log_lengthscales, h.log_sigma_n, X.copy())
        rep = batch_bound(X, y, h_full, ModelSpec("vfe"), with_gradient=False)
        assert rep.regularizer_term == pytest.approx(0.0, abs=1e-7)
        assert rep.value == pytest.approx(full_gp_lml(X, y, h_full), abs=1e-6)

    def test_pep_small_alpha_approaches_vfe(self):
        X, y, h = make_instance(7, n=30, m=5)
        pep = batch_bound(X, y, h, ModelSpec("pep", alpha=1e-6), with_gradient=False).value
        vfe = batch_bound(X, y, h, ModelSpec("vfe"), with_gradient=False).value
        assert abs(pep - vfe) / abs(vfe) < 1e-4

    def test_gradient_field_present_when_requested(self):
        X, y, h = make_instance(8, n=20, m=3)
        rep = batch_bound(X, y, h, ModelSpec("vfe"), with_gradient=True)
        assert rep.gradient is not None and rep.gradient.shape == (h.n_params,)
        assert batch_bound(X, y, h, ModelSpec("vfe"), with_gradient=False).gradient is None

    def test_reference_stays_off_the_inverse_factor_path(self, monkeypatch):
        """The recursion takes every product with K_RR^-1 through the
        factor's L^-1 (``dtrtri``, applied by ``dtrmm``).  With that path
        broken the reference gives the same value and gradient, so a fault
        in it cannot cancel out of a comparison of the two."""
        X, y, h = make_instance(9, n=30, m=4, d=2)
        spec = ModelSpec("pep", alpha=0.5)
        want = batch_bound(X, y, h, spec)

        def broken(*args):
            raise AssertionError("the batch reference used the inverse factor path")

        monkeypatch.setattr(linalg_module, "dtrmm", broken)
        monkeypatch.setattr(CholFactor, "L_inv", property(broken))
        with pytest.raises(AssertionError, match="inverse factor path"):
            prior(h.with_vector(h.to_vector())).whiten(np.eye(4))
        got = batch_bound(X, y, h.with_vector(h.to_vector()), spec)
        assert got.value == want.value
        assert got.gradient.tobytes() == want.gradient.tobytes()

    def test_one_dimensional_inputs_are_a_column_at_d_1(self):
        """At D = 1 a 1-D X is N rows, as ``Dataset`` and ``srgp_fit`` read
        it; at D > 1 it is one row."""
        X, y, h = make_instance(10, n=25, m=4)
        spec = ModelSpec("fitc")
        column, flat = batch_bound(X, y, h, spec), batch_bound(X[:, 0], y, h, spec)
        assert flat.value == column.value
        assert flat.gradient.tobytes() == column.gradient.tobytes()
        X, y, h = make_instance(11, n=5, m=3, d=2)
        row = batch_bound(X[:1], y[:1], h, spec, with_gradient=False)
        assert batch_bound(X[0], y[:1], h, spec, with_gradient=False).value == row.value


class TestFdGradient:
    def test_quadratic_is_exact(self):
        A = np.diag([1.0, 3.0, 0.5])
        b = np.array([0.2, -0.4, 1.0])
        f = lambda t: 0.5 * float(t @ A @ t) + float(b @ t)
        theta = np.array([0.3, -0.2, 0.8])
        np.testing.assert_allclose(fd_gradient(f, theta, 1e-5), A @ theta + b, atol=1e-9)

    def test_step_sensitivity_richardson(self):
        X, y, h = make_instance(9, n=25, m=4)
        f = lambda th: batch_bound(X, y, h.with_vector(th), ModelSpec("vfe"), with_gradient=False).value
        g5 = fd_gradient(f, h.to_vector(), 1e-5)
        g6 = fd_gradient(f, h.to_vector(), 1e-6)
        assert np.max(np.abs(g5 - g6)) / max(np.max(np.abs(g6)), 1.0) < 1e-3

    def test_non_finite_objective_names_coordinate(self):
        f = lambda t: float("nan") if t[1] != 0.25 else 1.0
        with pytest.raises(NumericalError, match="coordinate 1"):
            fd_gradient(f, np.array([0.25, 0.25]), 1e-3)
