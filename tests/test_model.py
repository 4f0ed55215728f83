"""Variant-specific quantities of the weight-space sparse model."""

import sys

import numpy as np
import pytest

from streamgp import (
    ContractViolationError,
    Hyperparameters,
    MiniBatch,
    ModelSpec,
    TrainConfig,
    fixed_theta_pass,
    init_state,
    predict,
    srgp_fit,
    update,
)
from streamgp import batch, data, inference
from streamgp import kernel as kernel_module
from streamgp import linalg as linalg_module
from streamgp.gradients import _inducing_directions, _kernel_grads, init_gradient_state
from streamgp.kernel import kernel_matrix
from streamgp.linalg import JITTER_START
from streamgp.model import batch_geometry, prior, regularizer
from streamgp.optimizer import step

from conftest import basis, dense_Q, make_instance, record_adam_thetas

ALL_SPECS = [
    ModelSpec("sor"),
    ModelSpec("dtc"),
    ModelSpec("fitc"),
    ModelSpec("vfe"),
    ModelSpec("pep", alpha=0.5),
]


class TestModelSpec:
    def test_pep_alpha_range_enforced(self):
        ModelSpec("pep", alpha=1.0)
        ModelSpec("pep", alpha=1e-6)
        with pytest.raises(ContractViolationError):
            ModelSpec("pep", alpha=0.0)
        with pytest.raises(ContractViolationError):
            ModelSpec("pep", alpha=1.5)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ContractViolationError):
            ModelSpec("fic")

    def test_alpha_ignored_outside_pep(self):
        assert ModelSpec("vfe", alpha=0.3).noise_scale == 0.0
        assert ModelSpec("fitc", alpha=0.3).noise_scale == 1.0


class TestBasis:
    def test_on_inducing_inputs_untransformed_is_identity(self):
        _, _, h = make_instance(0, n=20, m=5)
        H = basis(h.inducing_inputs, h, transformed=False)
        np.testing.assert_allclose(H, np.eye(5), atol=1e-8)

    def test_on_inducing_inputs_transformed_is_gram(self):
        _, _, h = make_instance(1, n=20, m=5)
        H = basis(h.inducing_inputs, h, transformed=True)
        np.testing.assert_allclose(
            H, kernel_matrix(h.inducing_inputs, h.inducing_inputs, h), rtol=1e-14
        )

    def test_parametrizations_related_by_gram(self):
        X, _, h = make_instance(2, n=4, m=2)
        K_RR = kernel_matrix(h.inducing_inputs, h.inducing_inputs, h)
        H = basis(X, h, transformed=False)
        H_tilde = basis(X, h, transformed=True)
        np.testing.assert_allclose(H @ K_RR, H_tilde, atol=1e-10)


class TestNoiseCorrection:
    # diag(Vbar) = noise_scale * d, and diag(V) = diag(Vbar) + sigma_n^2.

    def test_vfe_sor_dtc_have_no_correction(self):
        X, _, h = make_instance(3, n=5, m=2)
        for name in ("vfe", "sor", "dtc"):
            assert ModelSpec(name).noise_scale == 0.0
            geom = batch_geometry(X, h, ModelSpec(name))
            np.testing.assert_array_equal(geom.v, np.full(5, h.noise_variance))

    def test_pep_alpha_one_equals_fitc(self):
        X, _, h = make_instance(4, n=6, m=2)
        assert ModelSpec("pep", alpha=1.0).noise_scale == ModelSpec("fitc").noise_scale == 1.0
        np.testing.assert_array_equal(
            batch_geometry(X, h, ModelSpec("pep", alpha=1.0)).v,
            batch_geometry(X, h, ModelSpec("fitc")).v,
        )

    def test_pep_scales_by_alpha(self):
        assert ModelSpec("pep", alpha=0.5).noise_scale == 0.5
        X, _, h = make_instance(5, n=5, m=2)
        geom = batch_geometry(X, h, ModelSpec("pep", alpha=0.5))
        np.testing.assert_allclose(geom.v - h.noise_variance, 0.5 * geom.d, rtol=1e-12, atol=1e-15)

    def test_total_noise_floor_is_noise_variance(self):
        X, _, h = make_instance(6, n=30, m=4)
        for spec in ALL_SPECS:
            geom = batch_geometry(X, h, spec)
            assert np.all(geom.v >= h.noise_variance - 1e-15)
            np.testing.assert_allclose(
                geom.v, spec.noise_scale * geom.d + h.noise_variance, rtol=1e-15
            )


class TestRegularizer:
    def test_zero_schur_diagonal_gives_zero(self):
        h = make_instance(7, n=5, m=2)[2]
        for spec in ALL_SPECS:
            assert regularizer(np.zeros(4), spec, h) == 0.0

    def test_vfe_value(self):
        # sum d_i / sigma_n^2 = 0.02 / 0.01
        h = make_instance(8, n=5, m=2, noise_std=0.1)[2]
        assert regularizer(np.array([0.02]), ModelSpec("vfe"), h) == pytest.approx(2.0, rel=1e-12)

    def test_fitc_sor_dtc_zero(self):
        d = np.random.default_rng(1).uniform(size=5)
        h = make_instance(9, n=5, m=2)[2]
        for name in ("fitc", "sor", "dtc"):
            assert regularizer(d, ModelSpec(name), h) == 0.0

    def test_pep_small_alpha_approaches_vfe(self):
        rng = np.random.default_rng(2)
        d = rng.uniform(0.01, 0.5, size=8)
        h = make_instance(10, n=5, m=2)[2]
        a_pep = regularizer(d, ModelSpec("pep", alpha=1e-6), h)
        a_vfe = regularizer(d, ModelSpec("vfe"), h)
        assert abs(a_pep - a_vfe) / abs(a_vfe) < 1e-4

    def test_pep_alpha_one_is_zero(self):
        d = np.array([0.1, 0.2])
        h = make_instance(11, n=5, m=2)[2]
        assert regularizer(d, ModelSpec("pep", alpha=1.0), h) == 0.0


def correction(state, X_star, h, spec) -> np.ndarray:
    """diag(V_*) as ``predict`` adds it: the latent variance minus diag(H_* Sigma H_*^T)."""
    H = basis(X_star, h)
    return predict(state, X_star, h, spec).variance - np.diag(H @ state.Sigma @ H.T)


class TestPredictionCorrection:
    # diag(V_*) is the clamped Schur diagonal d of batch_geometry, which
    # predict adds for every variant but SoR.
    def test_zero_at_inducing_inputs(self):
        X, y, h = make_instance(12, n=20, m=5)
        for spec in ALL_SPECS:
            np.testing.assert_allclose(batch_geometry(h.inducing_inputs, h, spec).d, 0.0, atol=1e-9)
            state = fixed_theta_pass(X, y, h, spec, 5)
            np.testing.assert_allclose(correction(state, h.inducing_inputs, h, spec), 0.0, atol=1e-9)

    def test_sor_always_zero(self):
        X, y, h = make_instance(13, n=10, m=3)
        spec = ModelSpec("sor")
        assert batch_geometry(X, h, spec).d.max() > 1e-3  # a diagonal SoR leaves out
        state = fixed_theta_pass(X, y, h, spec, 5)
        H = basis(X, h)
        sor = predict(state, X, h, spec).variance
        np.testing.assert_allclose(sor, np.sum((H @ state.Sigma) * H, axis=1), rtol=1e-12, atol=0)
        # DTC shares SoR's Vbar = 0, hence its posterior; it adds d and SoR does not.
        dtc_spec = ModelSpec("dtc")
        dtc = predict(fixed_theta_pass(X, y, h, dtc_spec, 5), X, h, dtc_spec).variance
        np.testing.assert_allclose(dtc - sor, batch_geometry(X, h, dtc_spec).d, rtol=0, atol=1e-12)

    def test_far_from_inducing_recovers_prior_variance(self):
        X, y, h = make_instance(14, n=10, d=1, m=3, lengthscale=0.1)
        X_far = np.array([[50.0], [60.0]])
        spec = ModelSpec("vfe")
        np.testing.assert_allclose(batch_geometry(X_far, h, spec).d, h.sigma0 ** 2, rtol=0.01)
        state = fixed_theta_pass(X, y, h, spec, 5)
        np.testing.assert_allclose(predict(state, X_far, h, spec).variance, h.sigma0 ** 2, rtol=0.01)

    def test_matches_dense_schur_complement(self):
        X, y, h = make_instance(15, n=6, m=4, d=2)
        expected = np.diag(kernel_matrix(X, X, h) - dense_Q(X, X, h))
        for name in ("dtc", "fitc", "vfe"):
            spec = ModelSpec(name)
            np.testing.assert_allclose(batch_geometry(X, h, spec).d, expected, atol=1e-9)
            state = fixed_theta_pass(X, y, h, spec, 3)
            np.testing.assert_allclose(correction(state, X, h, spec), expected, atol=1e-9)

    def test_psd_up_to_jitter(self):
        X, y, h = make_instance(16, n=12, m=4)
        spec = ModelSpec("pep", alpha=0.5)
        assert batch_geometry(X, h, spec).d.min() >= 0.0
        state = fixed_theta_pass(X, y, h, spec, 4)
        assert correction(state, X, h, spec).min() >= -1e-10


class TestBatchGeometry:
    def test_schur_diag_matches_dense_and_is_nonnegative(self):
        X, _, h = make_instance(17, n=25, m=6, d=2)
        geom = batch_geometry(X, h, ModelSpec("vfe"))
        dense = np.diag(kernel_matrix(X, X, h) - dense_Q(X, X, h))
        np.testing.assert_allclose(geom.d, np.maximum(dense, 0.0), atol=1e-9)
        assert np.all(geom.d >= 0.0)

    def test_transformed_flag_selects_basis(self):
        X, _, h = make_instance(18, n=8, m=3)
        spec = ModelSpec("vfe")
        g_std = batch_geometry(X, h, spec, transformed=False)
        g_t = batch_geometry(X, h, spec, transformed=True)
        np.testing.assert_array_equal(g_t.H, g_t.K_XR)
        np.testing.assert_array_equal(g_std.H, basis(X, h, transformed=False))
        # d and v are parametrization independent
        np.testing.assert_array_equal(g_std.d, g_t.d)
        np.testing.assert_array_equal(g_std.v, g_t.v)

    def test_basis_residual_at_a_badly_conditioned_prior(self):
        # K_RR^-1 goes through the inverse Cholesky factor, which keeps the
        # basis about as accurate as a solve: ||H K_RR - K_XR|| / ||K_XR||
        # stays at round-off where cond(K_RR) is about 1e9.  A product with
        # the dense inverse misses the bound by orders of magnitude there.
        X, _, h = make_instance(3, n=300, m=30, d=2, lengthscale=0.65)
        p = prior(h)
        assert p.jitter == 0.0
        assert 1e8 <= np.linalg.cond(p.matrix) <= 1e10
        g = batch_geometry(X, h, ModelSpec("vfe"))
        scale = np.linalg.norm(g.K_XR)
        assert np.linalg.norm(g.H @ p.matrix - g.K_XR) <= 1e-13 * scale
        assert np.linalg.norm(g.K_XR @ p.inv @ p.matrix - g.K_XR) > 1e-13 * scale
        # So does the inducing coordinates' kb = K_RR^-1 beta, beta = dK_RR/dR.
        KG = _kernel_grads(h.inducing_inputs, p.matrix, h)
        beta = KG[0].reshape(-1, h.num_inducing)
        _, neg_kb = _inducing_directions(p, KG, h.input_dim)
        assert np.linalg.norm(neg_kb @ p.matrix + beta) <= 1e-13 * np.linalg.norm(beta)


    def test_dense_inverse_at_a_badly_conditioned_prior(self):
        # K_RR^-1 = L^-T L^-1 comes from the factor's one L^-1.  Where
        # cond(K_RR) is about 1e9 it is exactly symmetric, and its residual
        # ||K_RR^-1 K_RR - I||_F stays within 10x of the 7.7e-8 that LAPACK
        # dpotri, which formed it before, left on this instance.
        _, _, h = make_instance(3, n=300, m=30, d=2, lengthscale=0.65)
        p = prior(h)
        assert 1e8 <= np.linalg.cond(p.matrix) <= 1e10
        np.testing.assert_array_equal(p.inv, p.inv.T)
        assert np.linalg.norm(p.inv @ p.matrix - np.eye(30)) <= 7.7e-7

def record_kernel_calls(monkeypatch, record) -> None:
    """Call ``record(A, B, h)`` for every kernel_matrix call that library code
    outside ``streamgp.kernel`` makes from now on."""
    original = kernel_module.kernel_matrix

    def counting(A, B, h):
        record(A, B, h)
        return original(A, B, h)

    for name, mod in list(sys.modules.items()):
        if name.startswith("streamgp.") and name != "streamgp.kernel":
            if getattr(mod, "kernel_matrix", None) is original:
                monkeypatch.setattr(mod, "kernel_matrix", counting)


def record_prior_builds(monkeypatch) -> list[bytes]:
    """Record, as parameter-vector bytes, every k(R, R) build that library
    code outside ``streamgp.kernel`` makes from now on."""
    builds: list[bytes] = []

    def record(A, B, h):
        R = h.inducing_inputs
        if np.shape(A) == np.shape(B) == R.shape and np.array_equal(A, R) and np.array_equal(B, R):
            builds.append(h.to_vector().tobytes())

    record_kernel_calls(monkeypatch, record)
    return builds


class TestPrior:
    def test_one_build_per_parameter_value_in_fit_and_predict(self, monkeypatch):
        X, y, h0 = make_instance(20, n=40, m=5)
        spec = ModelSpec("pep", alpha=0.5)
        builds = record_prior_builds(monkeypatch)
        steps = record_adam_thetas(monkeypatch)
        fit = srgp_fit(X, y, h0, spec, TrainConfig(epochs=2, batch_size=10, learning_rate=1e-3))
        predict(fit.posterior, X[:7], fit.hyper, spec, with_noise=True)
        assert len(steps) == len(fit.trace)
        thetas = {h0.to_vector().tobytes()} | {theta.tobytes() for theta in steps}
        assert len(thetas) == 9  # the start and one per gradient step
        assert len(builds) == len(thetas)
        assert set(builds) == thetas

    def test_fixed_theta_pass_and_predict_build_once(self, monkeypatch):
        X, y, h = make_instance(21, n=30, m=4)
        spec = ModelSpec("fitc")
        builds = record_prior_builds(monkeypatch)
        state = fixed_theta_pass(X, y, h, spec, 7)
        assert len(builds) == 1
        fresh = h.with_vector(h.to_vector())  # same values, new object
        predict(state, X[:5], fresh, spec)
        assert len(builds) == 2

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.variant)
    def test_predict_builds_each_kernel_matrix_once(self, monkeypatch, spec):
        # One k(X_*, R) per block of rows feeds both H_* and diag(V_*); no
        # k(X_*, X_*) is built for any variant.
        X, y, h = make_instance(23, n=30, m=4)
        state = fixed_theta_pass(X, y, h, spec, 10)  # the prior is built and kept
        calls = []
        record_kernel_calls(monkeypatch, lambda A, B, h: calls.append((len(A), len(B))))
        predict(state, X[:6], h, spec, with_noise=True)
        assert calls == [(6, 4)]
        calls.clear()
        monkeypatch.setattr(inference, "BLOCK", 4)
        predict(state, X[:6], h, spec, with_noise=True)
        assert calls == [(4, 4), (2, 4)]

    def test_prior_is_kept_on_the_hyperparameters(self):
        _, _, h = make_instance(22, n=10, m=4)
        p = prior(h)
        assert prior(h) is p
        assert batch_geometry(h.inducing_inputs, h, ModelSpec("vfe")).prior is p
        assert h.with_vector(h.to_vector())._prior is None
        np.testing.assert_array_equal(p.matrix, kernel_matrix(h.inducing_inputs, h.inducing_inputs, h))
        for a in (p.matrix, p.L, p.inv, h.log_lengthscales, h.inducing_inputs):
            assert not a.flags.writeable

    def test_inverse_factor_is_built_once_and_read_only(self, monkeypatch):
        # One L^-1 per parameter value, shared by every product with K_RR^-1
        # (basis, adjoints, gradients, prediction) and by the dense K_RR^-1;
        # read-only because the prior is shared, and Fortran-ordered for
        # BLAS.  Lambda's factor, for Sigma, takes one triangular inversion.
        X, y, h = make_instance(24, n=40, m=6, d=2)
        spec = ModelSpec("pep", alpha=0.5)
        inverted = []
        dtrtri = linalg_module.dtrtri
        monkeypatch.setattr(linalg_module, "dtrtri", lambda c: inverted.append(c) or dtrtri(c))
        st2, _ = step(init_state(h, spec), init_gradient_state(h, spec), MiniBatch(X, y), h, spec)
        predict(st2, X[:7], h, spec)
        p = prior(h)
        assert len(inverted) == 2 and inverted[0] is p.L and inverted[1] is not p.L
        assert p.L_inv is p.L_inv and p.inv is p.inv
        for a in (p.L_inv, p.inv, st2.Sigma):
            assert not a.flags.writeable
        assert p.L_inv.flags.f_contiguous
        np.testing.assert_allclose(p.L_inv @ p.L, np.eye(6), atol=1e-12)
        h_same = h.with_vector(h.to_vector())  # same values, new object
        for _ in range(2):
            batch_geometry(X, h_same, spec)
        assert len(inverted) == 3 and inverted[2] is prior(h_same).L

    def test_hyperparameters_copy_their_arrays(self):
        R = np.array([[0.1], [0.6]])
        ll = np.log([0.3])
        h = Hyperparameters(0.0, ll, np.log(0.1), R)
        R[0, 0] = 0.9
        ll[0] = 5.0
        assert h.inducing_inputs[0, 0] == 0.1 and h.log_lengthscales[0] == np.log(0.3)

    def test_jittered_prior_state_is_an_inverse_pair(self):
        # A near-duplicate inducing row makes K_RR numerically singular, so
        # the factorization adds jitter.  Sigma_0 and Lambda_0 must then be
        # inverses of the same (jittered) matrix.  The residual is bounded
        # relative to ||Sigma_0|| ||Lambda_0|| (about cond * eps for an
        # exact pair); an unjittered Sigma_0 misses the bound by 10x and more.
        R = np.array([[0.0], [1e-9], [0.5], [0.9]])
        h = Hyperparameters(0.0, np.log([0.3]), np.log(0.1), R)
        p = prior(h)
        assert p.jitter > 0.0
        K = kernel_matrix(R, R, h)
        np.testing.assert_array_equal(p.matrix, K + p.jitter * np.eye(4))
        for parametrization in ("standard", "transformed"):
            st = init_state(h, ModelSpec("vfe"), parametrization)
            scale = np.linalg.norm(st.Sigma, 2) * np.linalg.norm(st.Lambda, 2)
            residual = np.max(np.abs(st.Sigma @ st.Lambda - np.eye(4)))
            assert residual <= 1e-10 * scale, (residual, scale)


def _factor_at_the_pivot_floor(case: str, monkeypatch) -> tuple[np.ndarray, object]:
    """The matrix one library factorization receives, and the factor it
    returns, where that matrix factors without jitter but its smallest
    squared pivot is below the floor: a prior with two inducing inputs 5e-8
    apart, Lambda and the batch bound's Woodbury core after one row at
    sigma_n = 1e-8 with M = 3 (SoR), and a dense GP draw of 30 points."""
    if case == "K_RR":
        R = np.array([[0.0], [5e-8], [0.5]])
        h = Hyperparameters(0.0, np.log([0.3]), np.log(0.1), R)
        return kernel_matrix(R, R, h), prior(h)
    module = {"Lambda": inference, "Woodbury core": batch, "K_XX": data}[case]
    seen = []
    chol = module.chol_with_jitter
    monkeypatch.setattr(
        module, "chol_with_jitter", lambda a, name: seen.append((a, chol(a, name))) or seen[-1][1]
    )
    h = Hyperparameters(0.0, np.log([0.3]), np.log(1e-8), np.array([[0.1], [0.5], [0.9]]))
    spec, X, y = ModelSpec("sor"), np.array([[0.3]]), np.array([0.2])
    if case == "Lambda":
        update(init_state(h, spec), MiniBatch(X, y), h, spec)
    elif case == "Woodbury core":
        batch.batch_bound(X, y, h, spec, with_gradient=False)
    else:
        data.generate_gp_data(1, 30)
    return seen[-1]


@pytest.mark.parametrize("case", ["K_RR", "Lambda", "Woodbury core", "K_XX"])
def test_factor_below_the_pivot_floor_gets_the_first_rung(case, monkeypatch):
    # A factor whose smallest squared pivot is within 100x of the backward
    # error n * eps * mean(diag) is singular to all but two digits: every
    # factorization moves on to the jitter ladder's first rung, as for a
    # matrix that does not factor at all.
    a, factor = _factor_at_the_pivot_floor(case, monkeypatch)
    n, scale = a.shape[0], np.mean(np.diag(a))
    assert np.min(np.diag(np.linalg.cholesky(a))) ** 2 < 100.0 * n * np.finfo(float).eps * scale
    assert factor.jitter == JITTER_START * scale
    np.testing.assert_array_equal(factor.L, np.linalg.cholesky(a + factor.jitter * np.eye(n)))
