"""Recursive posterior updates, prediction, and the streaming bound."""

import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from streamgp import (
    DataError,
    Dataset,
    Hyperparameters,
    MiniBatch,
    ModelSpec,
    TrainConfig,
    batch_bound,
    fixed_theta_pass,
    init_state,
    load_dataset,
    predict,
    save_dataset,
    split_into_batches,
    srgp_fit,
    update,
)
from streamgp import inference
from streamgp import kernel as kernel_module
from streamgp import linalg as linalg_module
from streamgp.gradients import init_gradient_state
from streamgp.inference import PARAM_STANDARD, PARAM_TRANSFORMED
from streamgp.kernel import kernel_matrix
from streamgp.linalg import CholFactor, chol_with_jitter
from streamgp.model import batch_geometry, prior
from streamgp.optimizer import step

from conftest import (
    basis,
    batch_sparse_posterior,
    dense_predictive,
    full_gp_lml,
    full_gp_predict,
    innovation_cov,
    kalman_gain,
    kf_update_moments,
    make_instance,
    rel_diff,
)

VARIANTS = [ModelSpec("vfe"), ModelSpec("fitc"), ModelSpec("pep", alpha=0.5)]


def run_stream(X, y, h, spec, batch_size, parametrization=PARAM_STANDARD):
    state = init_state(h, parametrization)
    for idx in split_into_batches(y.size, batch_size):
        state, _ = update(state, MiniBatch(X[idx], y[idx]), h, spec)
    return state


def to_standard_moments(state, h):
    """Posterior moments in the standard parametrization regardless of state."""
    mu, Sigma = state.mu, state.Sigma
    if state.parametrization == PARAM_TRANSFORMED:
        K = kernel_matrix(h.inducing_inputs, h.inducing_inputs, h)
        return K @ mu, K @ Sigma @ K
    return mu, Sigma


class TestInitState:
    def test_single_unit_inducing_point(self):
        h = Hyperparameters(0.0, np.log([1.0]), np.log(0.1), np.array([[0.4]]))
        st = init_state(h)
        np.testing.assert_allclose(st.Lambda, [[1.0]], rtol=1e-12)
        np.testing.assert_array_equal(st.eta, [0.0])
        assert st.k == 0 and st.psi == 0.0

    def test_sigma_lambda_inverse_pair(self):
        _, _, h = make_instance(0, n=20, m=6)
        for p in (PARAM_STANDARD, PARAM_TRANSFORMED):
            st = init_state(h, p)
            np.testing.assert_allclose(st.Sigma @ st.Lambda, np.eye(6), atol=1e-10)

    def test_logdet_matches_eigenvalue_oracle(self):
        _, _, h = make_instance(1, n=20, m=6)
        K = kernel_matrix(h.inducing_inputs, h.inducing_inputs, h)
        eig_logdet = float(np.sum(np.log(np.linalg.eigvalsh(K))))
        st = init_state(h, PARAM_STANDARD)
        assert st.logdet_Lambda == pytest.approx(-eig_logdet, abs=1e-9)
        st_t = init_state(h, PARAM_TRANSFORMED)
        assert st_t.logdet_Lambda == pytest.approx(eig_logdet, abs=1e-9)


class TestUpdate:
    def test_point_on_inducing_input_closed_form(self):
        # One observation exactly on an inducing input: the predictive mean
        # there is the 1-point Bayes linear regression value
        # sigma0^2 y / (sigma0^2 + sigma_n^2), independent of the other
        # inducing points.
        _, _, h = make_instance(2, n=20, m=5)
        spec = ModelSpec("vfe")
        y_obs = 0.9
        x_j = h.inducing_inputs[2:3]
        st = init_state(h)
        st, _ = update(st, MiniBatch(x_j, np.array([y_obs])), h, spec)
        mean = predict(st, x_j, h, spec).mean[0]
        expected = h.sigma0 ** 2 * y_obs / (h.sigma0 ** 2 + h.noise_variance)
        assert mean == pytest.approx(expected, abs=1e-8)
        assert 0.0 < mean < y_obs  # moved toward the observation

    def test_singleton_updates_equal_one_batch(self):
        X, y, h = make_instance(3, n=30, m=5)
        spec = ModelSpec("vfe")
        one_shot = run_stream(X, y, h, spec, batch_size=30)
        streamed = run_stream(X, y, h, spec, batch_size=1)
        assert rel_diff(streamed.mu, one_shot.mu) < 1e-8
        assert rel_diff(streamed.Sigma, one_shot.Sigma) < 1e-8
        assert streamed.psi == pytest.approx(one_shot.psi, rel=1e-8)

    def test_zero_targets_keep_zero_mean(self):
        X, _, h = make_instance(4, n=25, m=4)
        st = run_stream(X, np.zeros(25), h, ModelSpec("pep", alpha=0.5), batch_size=5)
        np.testing.assert_array_equal(st.mu, np.zeros(4))

    def test_rejects_non_finite_data(self):
        X, y, h = make_instance(5, n=10, m=3)
        y = y.copy()
        y[3] = np.nan
        with pytest.raises(DataError):
            MiniBatch(X, y)

    def test_posterior_state_invariants(self):
        X, y, h = make_instance(6, n=40, m=6, d=2)
        for spec in VARIANTS:
            st = init_state(h)
            for idx in split_into_batches(40, 8):
                st_prev = st
                st, km = update(st, MiniBatch(X[idx], y[idx]), h, spec)
                np.testing.assert_allclose(st.Lambda, st.Lambda.T, atol=1e-10)
                np.testing.assert_allclose(st.Sigma @ st.Lambda, np.eye(6), atol=1e-8)
                assert np.isfinite(st.psi - st_prev.psi)
                assert np.all(np.diag(innovation_cov(km, st_prev)) >= h.noise_variance - 1e-12)

    def test_jittered_precision_is_stored_with_its_jitter(self, monkeypatch):
        # A zero prior precision plus 3 rows at M = 6 is singular, so its
        # factor takes the jitter ladder.  The stored Lambda is the matrix
        # that was factored, jitter included, so Lambda and Sigma stay an
        # inverse pair (without the jitter, max |Lambda Sigma - I| is 0.99).
        X, y, h = make_instance(3, n=20, m=6, d=2)
        spec = ModelSpec("pep", alpha=0.5)
        factors = []

        def recording(a, name):
            factors.append(chol_with_jitter(a, name))
            return factors[-1]

        monkeypatch.setattr(inference, "chol_with_jitter", recording)
        zero = replace(init_state(h), Lambda=np.zeros((6, 6)))
        st, _ = update(zero, MiniBatch(X[:3], y[:3]), h, spec)
        assert len(factors) == 1 and factors[0].jitter > 0.0
        assert st.Lambda is factors[0].matrix
        assert np.max(np.abs(st.Lambda @ st.Sigma - np.eye(6))) <= 1e-6

    def test_counts_batches(self):
        X, y, h = make_instance(7, n=12, m=3)
        st = run_stream(X, y, h, ModelSpec("dtc"), batch_size=5)
        assert st.k == 3  # 5 + 5 + 2


class TestRecursiveEqualsBatch:
    @pytest.mark.parametrize("spec", VARIANTS, ids=lambda s: s.variant)
    @pytest.mark.parametrize("parametrization", [PARAM_STANDARD, PARAM_TRANSFORMED])
    def test_posterior_and_bound(self, spec, parametrization):
        X, y, h = make_instance(8, n=60, m=7, d=2)
        st = run_stream(X, y, h, spec, batch_size=13, parametrization=parametrization)
        mu_r, Sigma_r = to_standard_moments(st, h)
        mu_b, Sigma_b = batch_sparse_posterior(X, y, h, spec)
        assert rel_diff(mu_r, mu_b) < 1e-8
        assert rel_diff(Sigma_r, Sigma_b) < 1e-8
        rep = batch_bound(X, y, h, spec, with_gradient=False)
        assert st.psi == pytest.approx(rep.value, rel=1e-8)

    def test_order_invariance(self):
        X, y, h = make_instance(9, n=48, m=6)
        spec = ModelSpec("pep", alpha=0.5)
        batches = split_into_batches(48, 8)
        ref = None
        rng = np.random.default_rng(0)
        for trial in range(5):
            order = rng.permutation(len(batches))
            st = init_state(h)
            for bi in order:
                idx = batches[bi]
                st, _ = update(st, MiniBatch(X[idx], y[idx]), h, spec)
            if ref is None:
                ref = st
            else:
                assert rel_diff(st.eta, ref.eta) < 1e-10
                assert rel_diff(st.Lambda, ref.Lambda) < 1e-10
                assert st.psi == pytest.approx(ref.psi, rel=1e-8)


class TestMomentFormCrossCheck:
    def test_moment_and_natural_forms_agree(self):
        X, y, h = make_instance(10, n=30, m=5)
        for spec in VARIANTS:
            st = init_state(h)
            mu, Sigma = st.mu, st.Sigma
            psi_moment = 0.0
            for idx in split_into_batches(30, 6):
                b = MiniBatch(X[idx], y[idx])
                mu, Sigma, inc = kf_update_moments(mu, Sigma, b, h, spec)
                psi_moment += inc
                st, _ = update(st, b, h, spec)
            assert rel_diff(mu, st.mu) < 1e-8
            assert rel_diff(Sigma, st.Sigma) < 1e-8
            assert psi_moment == pytest.approx(st.psi, abs=1e-8)


class TestPredict:
    def test_prior_prediction_at_inducing_inputs_sor(self):
        _, _, h = make_instance(11, n=20, m=5)
        spec = ModelSpec("sor")
        st = init_state(h)
        pred = predict(st, h.inducing_inputs, h, spec)
        np.testing.assert_allclose(pred.mean, 0.0, atol=1e-15)
        np.testing.assert_allclose(
            pred.variance, np.diag(kernel_matrix(h.inducing_inputs, h.inducing_inputs, h)), atol=1e-8
        )

    def test_prior_prediction_recovers_kernel_vfe(self):
        X, _, h = make_instance(12, n=20, m=5)
        spec = ModelSpec("vfe")
        st = init_state(h)
        X_star = X[:8]
        pred = predict(st, X_star, h, spec)
        np.testing.assert_allclose(pred.variance, np.diag(kernel_matrix(X_star, X_star, h)), atol=1e-10)

    def test_noise_flag_adds_variance_floor(self):
        X, y, h = make_instance(13, n=25, m=4)
        spec = ModelSpec("vfe")
        st = run_stream(X, y, h, spec, 25)
        noisy = predict(st, X[:6], h, spec, with_noise=True)
        latent = predict(st, X[:6], h, spec, with_noise=False)
        np.testing.assert_array_equal(noisy.mean, latent.mean)
        np.testing.assert_array_equal(noisy.variance, latent.variance + h.noise_variance)
        assert np.all(noisy.variance >= h.noise_variance - 1e-12)

    @pytest.mark.parametrize(
        "spec",
        [ModelSpec("sor"), ModelSpec("dtc"), ModelSpec("fitc"), ModelSpec("vfe"), ModelSpec("pep", alpha=0.5)],
        ids=lambda s: s.variant,
    )
    def test_streamed_prediction_matches_published_batch_form(self, spec):
        # After a full pass the streaming predictive equals the variant's
        # dense textbook expression.
        X, y, h = make_instance(14, n=100, m=15, lengthscale=0.2)
        rng = np.random.default_rng(99)
        X_star = rng.uniform(0, 1, (12, 1))
        st = run_stream(X, y, h, spec, batch_size=10)
        pred = predict(st, X_star, h, spec)
        mean_o, cov_o = dense_predictive(X, y, X_star, h, spec)
        assert rel_diff(pred.mean, mean_o) < 1e-8
        assert rel_diff(pred.variance, np.diag(cov_o)) < 1e-8

    def test_transformation_invariant_prediction(self):
        X, y, h = make_instance(15, n=50, m=8)
        spec = ModelSpec("pep", alpha=0.5)
        X_star = np.random.default_rng(1).uniform(0, 1, (9, 1))
        p_std = predict(run_stream(X, y, h, spec, 10, PARAM_STANDARD), X_star, h, spec)
        p_t = predict(run_stream(X, y, h, spec, 10, PARAM_TRANSFORMED), X_star, h, spec)
        assert rel_diff(p_std.mean, p_t.mean) < 1e-8
        assert rel_diff(p_std.variance, p_t.variance) < 1e-8

    @pytest.mark.parametrize(
        "spec", [ModelSpec("sor"), ModelSpec("dtc")] + VARIANTS, ids=lambda s: s.variant
    )
    def test_blocks_match_one_block_and_dense_oracle(self, monkeypatch, spec):
        X, y, h = make_instance(14, n=100, m=15, lengthscale=0.2)
        X_star = np.random.default_rng(5).uniform(0, 1, (3 * 64 + 5, 1))
        st = run_stream(X, y, h, spec, batch_size=10)
        with monkeypatch.context() as m:
            m.setattr(inference, "BLOCK", 64)
            blocked = predict(st, X_star, h, spec)
        whole = predict(st, X_star, h, spec)  # one block
        np.testing.assert_array_equal(blocked.mean, whole.mean)
        np.testing.assert_array_equal(blocked.variance, whole.variance)
        mean_o, cov_o = dense_predictive(X, y, X_star, h, spec)
        assert rel_diff(blocked.mean, mean_o) < 1e-8
        assert rel_diff(blocked.variance, np.diag(cov_o)) < 1e-8

    @pytest.mark.parametrize("parametrization", [PARAM_STANDARD, PARAM_TRANSFORMED])
    def test_whitened_form_matches_basis_form_at_a_badly_conditioned_prior(self, parametrization):
        # predict never forms H_*; at cond(K_RR) of about 1e9 its mean and
        # variance still agree with mean = H_* mu and variance =
        # rowsum((H_* Sigma) * H_*) + d, H_* built through CholFactor.solve.
        X, y, h = make_instance(3, n=300, m=30, d=2, lengthscale=0.65)
        p = prior(h)
        assert 1e8 <= np.linalg.cond(p.matrix) <= 1e10
        spec = ModelSpec("pep", alpha=0.5)
        st = run_stream(X, y, h, spec, batch_size=50, parametrization=parametrization)
        X_star = np.random.default_rng(4).uniform(0, 1, (150, 2))
        K_XR = kernel_matrix(X_star, h.inducing_inputs, h)
        H = K_XR if parametrization == PARAM_TRANSFORMED else p.solve(K_XR.T).T
        quad = np.sum((H @ st.Sigma) * H, axis=1)
        pred = predict(st, X_star, h, spec)
        assert rel_diff(pred.mean, H @ st.mu, floor=0.0) <= 1e-10
        latent = pred.variance - batch_geometry(X_star, h, spec).d
        if parametrization == PARAM_STANDARD:
            np.testing.assert_allclose(latent, quad, rtol=1e-10, atol=0)
        else:
            # The transformed Sigma holds entries of about 1e7 here, so the
            # basis form is itself only as exact as the round-off bound of a
            # quadratic form, M eps (|H| |Sigma| |H|^T)_ii, which reaches 1e-2
            # of the variance; the whitened form differs from it by less.
            bound = 30 * np.finfo(float).eps * np.sum((abs(H) @ abs(st.Sigma)) * abs(H), axis=1)
            assert np.all(np.abs(latent - quad) <= bound)

    def test_never_solves_with_the_prior(self, monkeypatch):
        # Each block of rows costs two triangular products, both in place in
        # the kernel block's buffer: L^-1 on K_R* and then G^T, with G the
        # Cholesky factor of the whitened posterior covariance C.  There is
        # no product with K_RR^-1 (no solve, no L^-T), no basis H_*, and no
        # M x M matrix product against the block: numpy operations on the
        # block are recorded through an ndarray subclass, and the library's
        # BLAS bindings refuse that subclass outright.
        X, y, h = make_instance(6, n=60, m=8, d=2)
        spec = ModelSpec("vfe")
        p, M = prior(h), h.num_inducing
        monkeypatch.setattr(inference, "BLOCK", 10)  # 25 rows: blocks of 10, 10 and 5
        calls, blocks = [], []

        class Block(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                calls.append((ufunc.__name__, [getattr(x, "shape", None) for x in inputs]))
                inputs = [x.view(np.ndarray) if isinstance(x, Block) else x for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

            def __array_function__(self, func, types, args, kwargs):
                calls.append((func.__name__, [getattr(x, "shape", None) for x in args]))
                args = [x.view(np.ndarray) if isinstance(x, Block) else x for x in args]
                return func(*args, **kwargs)

        kernel = inference.kernel_matrix

        def recorded_kernel(A, B, h):
            blocks.append(kernel(A, B, h))
            return blocks[-1].view(Block)

        def recorded_dtrmm(trmm):
            def call(alpha, a, b, overwrite_b=0, trans_a=0):
                plain = b.view(np.ndarray) if isinstance(b, Block) else b
                on = [k for k, blk in enumerate(blocks) if np.shares_memory(plain, blk)]
                calls.append(("dtrmm", a, trans_a, on, overwrite_b))
                out = trmm(alpha, a, plain, overwrite_b, trans_a)
                return b if isinstance(b, Block) else out

            return call

        solve = CholFactor.solve
        monkeypatch.setattr(CholFactor, "solve", lambda self, b: calls.append(("solve",)) or solve(self, b))
        monkeypatch.setattr(inference, "kernel_matrix", recorded_kernel)
        monkeypatch.setattr(inference, "dtrmm", recorded_dtrmm(inference.dtrmm))
        monkeypatch.setattr(linalg_module, "dtrmm", recorded_dtrmm(linalg_module.dtrmm))
        for par in (PARAM_STANDARD, PARAM_TRANSFORMED):
            st = run_stream(X, y, h, spec, 20, par)
            W = p.L.T if par == PARAM_TRANSFORMED else p.L_inv
            C = W @ st.Sigma @ W.T
            calls.clear()
            blocks.clear()
            pred = predict(st, X[:25], h, spec, with_noise=True)
            assert len(blocks) == 3
            trmm = [c for c in calls if c[0] == "dtrmm"]
            assert [(c[2], c[3], c[4]) for c in trmm] == [(t, [k], 1) for k in range(3) for t in (0, 1)]
            for k in range(3):
                whiten, quad = trmm[2 * k][1], trmm[2 * k + 1][1]
                assert whiten is p.L_inv
                assert np.array_equal(quad, np.tril(quad)) and quad.shape == (M, M)
                np.testing.assert_allclose(quad @ quad.T, C, rtol=0, atol=1e-12 * np.abs(C).max())
            products = [c for c in calls if c[0] in ("matmul", "dot", "einsum", "tensordot", "inner")]
            assert all((M, M) not in shapes for _, shapes in products), products
            assert [shapes for name, shapes in products if name == "matmul"] == [
                [(10, M), (M,)], [(10, M), (M,)], [(5, M), (M,)]
            ]
            assert ("solve",) not in calls
            assert np.all(pred.variance > h.noise_variance)
        calls.clear()
        basis(X[:25], h)  # the patches are live
        assert [c[0] for c in calls] == ["solve", "dtrmm", "dtrmm"]
        assert [(c[1] is p.L_inv, c[2]) for c in calls[1:]] == [(True, 0), (True, 1)]  # L^-1, L^-T

    @pytest.mark.parametrize(
        "spec",
        [ModelSpec("sor"), ModelSpec("dtc"), ModelSpec("fitc"), ModelSpec("vfe"), ModelSpec("pep", alpha=0.5)],
        ids=lambda s: s.variant,
    )
    def test_tight_posterior_gives_nonnegative_variances(self, spec):
        # Small noise and many rows leave the whitened posterior covariance
        # C = W Sigma W^T with an eigenvalue far below 1e-6.  The quadratic
        # form is a sum of squares through C's factor, so the latent (SoR)
        # variance is never negative, also at training inputs where it is
        # smallest, and every variant still matches its dense form.
        X, y, h = make_instance(14, n=400, m=15, lengthscale=0.2, noise_std=1e-3)
        st = run_stream(X, y, h, spec, batch_size=100)
        W = prior(h).L_inv
        C = W @ st.Sigma @ W.T
        assert np.linalg.eigvalsh(C).min() <= 1e-6
        assert chol_with_jitter(C).jitter == 0.0
        X_star = np.vstack([X[:20], np.random.default_rng(5).uniform(0, 1, (40, 1))])
        pred = predict(st, X_star, h, spec)
        assert np.all(pred.variance >= 0.0)
        mean_o, cov_o = dense_predictive(X, y, X_star, h, spec)
        assert rel_diff(pred.mean, mean_o) < 1e-8
        assert rel_diff(pred.variance, np.diag(cov_o)) < 1e-8

    def test_memory_is_linear_in_the_rows(self, monkeypatch):
        # 197 rows in blocks of 64: the working set is a few (64, M) arrays
        # plus the two (197,) outputs, well below one (197, 197) matrix.
        X, y, h = make_instance(6, n=100, m=15)
        spec = ModelSpec("pep", alpha=0.5)
        st = run_stream(X, y, h, spec, batch_size=50)
        X_star = np.random.default_rng(0).uniform(0, 1, (3 * 64 + 5, 1))
        monkeypatch.setattr(inference, "BLOCK", 64)
        predict(st, X_star, h, spec)  # the prior and the posterior mean are kept
        tracemalloc.start()
        try:
            predict(st, X_star, h, spec, with_noise=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 10 * 64 * 15 * 8 + 2 * X_star.shape[0] * 8
        assert bound < X_star.shape[0] ** 2 * 8
        assert peak < bound, peak

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts faults under glibc's allocator")
    def test_block_memory_is_reused_in_a_fresh_process(self):
        # predict's one (M, 1024) block array comes from the heap, so a
        # repeated evaluation faults in no new pages.  With two alive at
        # once and glibc's default thresholds, both were mapped and
        # unmapped on every call (661 faults per call here).
        child = """
import resource
import numpy as np
import streamgp as sg
rng = np.random.default_rng(0)
h = sg.Hyperparameters(0.0, np.zeros(5), np.log(0.1), rng.uniform(0.0, 1.0, (50, 5)))
spec = sg.ModelSpec("pep", alpha=0.5)
state, X = sg.init_state(h), rng.uniform(0.0, 1.0, (3999, 5))
for _ in range(3):
    sg.predict(state, X, h, spec, with_noise=True)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    sg.predict(state, X, h, spec, with_noise=True)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert float(out.stdout) < 20.0

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts faults under glibc's allocator")
    def test_training_memory_is_reused_in_a_fresh_process(self):
        # After one warm fit, a train-cstr-shaped fit (PEP, D = 5, M = 50,
        # B = 256) takes most of its temporaries from the heap under glibc's
        # default allocator settings, and builds each epoch's derivative
        # state in the last epoch's arrays.  How many pages it maps anew
        # depends on the heap's layout, which the length of PYTHONPATH alone
        # moves: 24 fresh children, each with a PYTHONPATH of another length,
        # read 56-61 faults per step.  Freeing and mapping the 2.6 MB state
        # again each epoch read 1-204 on the same lengths.  The bound, three
        # times the 68 of an earlier layout, catches a fit whose every step
        # maps its temporaries anew, as a process's first fit does (558 per
        # step).
        child = """
import resource
import numpy as np
import streamgp as sg
rng = np.random.default_rng(0)
X = rng.uniform(0.0, 1.0, (2560, 5))
y = np.sin(X.sum(axis=1)) + 0.1 * rng.standard_normal(2560)
h = sg.Hyperparameters(0.0, np.zeros(5), 0.0, X[:50].copy())
spec, cfg = sg.ModelSpec("pep", alpha=0.5), sg.TrainConfig(epochs=3, batch_size=256)
sg.srgp_fit(X, y, h, spec, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
steps = len(sg.srgp_fit(X, y, h, spec, cfg).trace)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps)
"""
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert float(out.stdout) < 203.0

    def test_inputs_as_loaded_from_a_file_predict_as_c_ordered_ones(self, monkeypatch, tmp_path):
        # The serve path scores load_dataset's inputs, a column selection
        # that is not C-ordered; predict must give them bit for bit what it
        # gives their C-ordered copy.
        X, y, h = make_instance(8, n=120, d=3, m=10)
        spec = ModelSpec("pep", alpha=0.5)
        st = run_stream(X, y, h, spec, batch_size=40)
        path = tmp_path / "heldout.csv"
        save_dataset(Dataset(X=X[:70], y=y[:70]), str(path))
        X_file = load_dataset(str(path)).X
        assert not X_file.flags.c_contiguous
        monkeypatch.setattr(inference, "BLOCK", 32)  # several blocks, the last one short
        a = predict(st, X_file, h, spec, with_noise=True)
        b = predict(st, np.ascontiguousarray(X_file), h, spec, with_noise=True)
        assert a.mean.tobytes() == b.mean.tobytes()
        assert a.variance.tobytes() == b.variance.tobytes()

    def test_one_dimensional_inputs_are_a_column_at_d_1(self):
        """At D = 1 a 1-D X_star is A rows, as training reads a 1-D X; at
        D > 1 it is one row."""
        X, y, h = make_instance(12, n=40, m=5)
        spec = ModelSpec("vfe")
        st = run_stream(X[:, 0], y, h, spec, batch_size=10)
        x_star = np.linspace(0.0, 1.0, 7)
        flat, column = predict(st, x_star, h, spec), predict(st, x_star[:, None], h, spec)
        assert flat.mean.shape == (7,)
        assert flat.mean.tobytes() == column.mean.tobytes()
        assert flat.variance.tobytes() == column.variance.tobytes()
        X, y, h = make_instance(13, n=20, d=3, m=4)
        st = run_stream(X, y, h, spec, batch_size=10)
        flat, row = predict(st, X[0], h, spec), predict(st, X[:1], h, spec)
        assert flat.mean.tobytes() == row.mean.tobytes()
        assert flat.variance.tobytes() == row.variance.tobytes()


class TestKeptPredictiveFactor:
    """predict's whitened mean m and covariance factor G are built once per
    (posterior, Hyperparameters object) pair and kept on the posterior."""

    def test_one_factorization_per_state_and_parameter_object(self, monkeypatch):
        X, y, h = make_instance(24, n=60, m=6, d=2)
        spec = ModelSpec("pep", alpha=0.5)
        st = run_stream(X, y, h, spec, batch_size=20)
        names = []
        chol = inference.chol_with_jitter
        monkeypatch.setattr(inference, "chol_with_jitter", lambda a, name: names.append(name) or chol(a, name))
        first = predict(st, X[:9], h, spec, with_noise=True)
        second = predict(st, X[:9], h, spec, with_noise=True)
        assert names == ["whitened posterior covariance"]
        assert st._predictive[0] is h
        fresh = h.with_vector(h.to_vector())  # the same values in a new object
        third = predict(st, X[:9], fresh, spec, with_noise=True)
        assert names == ["whitened posterior covariance"] * 2
        assert st._predictive[0] is fresh
        for other in (second, third):
            assert other.mean.tobytes() == first.mean.tobytes()
            assert other.variance.tobytes() == first.variance.tobytes()

    def test_kept_arrays_are_read_only_and_not_part_of_the_state(self):
        X, y, h = make_instance(25, n=40, m=5, d=2)
        spec = ModelSpec("vfe")
        st = run_stream(X, y, h, spec, batch_size=20)
        assert st._predictive is None
        predict(st, X[:3], h, spec)
        _, m, G = st._predictive
        assert m.shape == (5,) and G.shape == (5, 5) and G.flags.f_contiguous
        assert not m.flags.writeable and not G.flags.writeable
        assert replace(st)._predictive is None
        assert "_predictive" not in repr(st)

    def test_threads_sharing_a_state_get_the_bits_of_their_parameters(self):
        # Four threads predict from one state at two parameter values in
        # turn, with a short switch interval, so the kept pair is replaced
        # under every reader; each prediction still has the bits of a state
        # that keeps nothing.
        X, y, h = make_instance(27, n=60, m=6, d=2)
        other = h.with_vector(h.to_vector() + np.r_[0.0, 0.3, 0.3, 0.0, np.zeros(12)])
        spec = ModelSpec("pep", alpha=0.5)
        st = run_stream(X, y, h, spec, batch_size=20)
        X_star = X[:25]
        want = {}
        for hh in (h, other):
            pred = predict(replace(st), X_star, hh, spec)
            want[id(hh)] = pred.mean.tobytes() + pred.variance.tobytes()
        assert len(set(want.values())) == 2
        wrong = []

        def reader(k):
            for i in range(40):
                hh = (h, other)[(i + k) % 2]
                pred = predict(st, X_star, hh, spec)
                if pred.mean.tobytes() + pred.variance.tobytes() != want[id(hh)]:
                    wrong.append((k, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize("parametrization", [PARAM_STANDARD, PARAM_TRANSFORMED])
    def test_first_and_second_call_give_the_same_bits(self, parametrization):
        # The kept pair gives the bits a state without it gives, in both
        # parametrizations, with and without noise, over several blocks.
        X, y, h = make_instance(26, n=80, m=7, d=3)
        spec = ModelSpec("pep", alpha=0.5)
        st = run_stream(X, y, h, spec, batch_size=30, parametrization=parametrization)
        X_star = np.random.default_rng(5).uniform(0, 1, (2 * inference.BLOCK + 3, 3))
        for with_noise in (False, True):
            cold = predict(replace(st), X_star, h, spec, with_noise=with_noise)
            first = predict(st, X_star, h, spec, with_noise=with_noise)
            second = predict(st, X_star, h, spec, with_noise=with_noise)
            for other in (first, second):
                assert other.mean.tobytes() == cold.mean.tobytes()
                assert other.variance.tobytes() == cold.variance.tobytes()


class TestKeptInducingSide:
    """kernel_matrix's inducing side (1 / l, the scaled inducing inputs and
    the operand holding their halved squared norms) is built once per
    Hyperparameters object and kept on it, beside the prior."""

    def test_one_build_per_parameter_object(self, monkeypatch):
        X, y, h = make_instance(30, n=60, m=6, d=2)
        spec = ModelSpec("pep", alpha=0.5)
        built = []
        side = kernel_module._inducing_side
        monkeypatch.setattr(kernel_module, "_inducing_side", lambda hh: built.append(hh) or side(hh))
        # One training step: K_RR of the prior and K_XR of the batch geometry.
        st, _ = step(init_state(h), init_gradient_state(h), MiniBatch(X, y), h, spec)
        assert len(built) == 1 and built[0] is h
        kept = h._inducing
        first = predict(st, X[:9], h, spec, with_noise=True)
        second = predict(st, X[:9], h, spec, with_noise=True)
        assert len(built) == 1 and h._inducing is kept
        fresh = h.with_vector(h.to_vector())  # the same values in a new object
        assert fresh._inducing is None
        third = predict(st, X[:9], fresh, spec, with_noise=True)
        assert len(built) == 2 and built[1] is fresh
        for a, b in zip(kept, fresh._inducing):
            assert a.tobytes() == b.tobytes()
        for other in (second, third):
            assert other.mean.tobytes() == first.mean.tobytes()
            assert other.variance.tobytes() == first.variance.tobytes()

    def test_kept_arrays_are_read_only_and_not_part_of_the_parameters(self):
        _, _, h = make_instance(31, n=20, m=5, d=3)
        assert h._inducing is None
        prior(h)
        inv_l, b, r_b = h._inducing
        assert inv_l.shape == (3,) and b.shape == (5, 3) and r_b.shape == (2, 5)
        assert b.flags.c_contiguous and r_b.flags.f_contiguous
        assert not any(a.flags.writeable for a in h._inducing)
        assert replace(h)._inducing is None
        assert "_inducing" not in repr(h)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_kept_side_gives_the_bits_of_a_per_call_one(self, order):
        # B = R itself takes the kept side and a copy of R builds its own;
        # K is the same bits on the call that builds the side and on later
        # ones, for every row count and for K_RR.
        rng = np.random.default_rng(32)
        h = Hyperparameters(0.3, rng.normal(scale=0.3, size=5), np.log(0.1), rng.uniform(size=(50, 5)))
        R, R_copy = h.inducing_inputs, h.inducing_inputs.copy()
        inputs = [np.asarray(rng.uniform(-0.5, 1.5, (n, 5)), order=order) for n in (1024, 7, 1, 0)]
        inputs.append(np.asarray(R, order=order))
        for A in inputs:
            want = kernel_matrix(A, R_copy, h).tobytes()
            if A is inputs[0]:
                assert h._inducing is None  # the next call builds the side
            for _ in range(2):
                assert kernel_matrix(A, R, h).tobytes() == want
        assert kernel_matrix(R, R, h).tobytes() == kernel_matrix(R_copy, R_copy, h).tobytes()

    def test_threads_sharing_a_parameter_object_get_its_bits(self):
        # Four threads predict with each of 40 new parameter objects of the
        # same values in turn, with a short switch interval, so they race to
        # build and keep each object's inducing side and prior; every
        # prediction still has the bits of one object predicting alone.
        X, y, h = make_instance(33, n=60, m=6, d=2)
        spec = ModelSpec("pep", alpha=0.5)
        st = run_stream(X, y, h, spec, batch_size=20)
        X_star = X[:25]
        objects = [h.with_vector(h.to_vector()) for _ in range(40)]
        pred = predict(replace(st), X_star, h.with_vector(h.to_vector()), spec)
        want = pred.mean.tobytes() + pred.variance.tobytes()
        wrong = []

        def reader(k):
            for i, hh in enumerate(objects):
                pred = predict(replace(st), X_star, hh, spec)
                if pred.mean.tobytes() + pred.variance.tobytes() != want:
                    wrong.append((k, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert all(hh._inducing is not None for hh in objects)


def state_bytes(state) -> bytes:
    return b"".join(
        np.asarray(a).tobytes() for a in (state.eta, state.Lambda, state.Sigma, state.logdet_Lambda, state.psi)
    )


def test_one_row_as_a_1d_array_reads_as_that_row():
    """At D = 3, X[0] with its one target is the row X[:1] to every entry
    point: prediction, a mini-batch, a dataset, a fixed-parameter pass and
    a fit."""
    X, y, h = make_instance(13, n=20, d=3, m=4)
    spec = ModelSpec("vfe")
    st = run_stream(X, y, h, spec, batch_size=10)
    flat, row = predict(st, X[0], h, spec), predict(st, X[:1], h, spec)
    assert flat.mean.tobytes() == row.mean.tobytes()
    assert flat.variance.tobytes() == row.variance.tobytes()
    assert MiniBatch(X[0], y[:1]).X.shape == Dataset(X=X[0], y=y[:1]).X.shape == (1, 3)
    flat, _ = update(st, MiniBatch(X[0], y[:1]), h, spec)
    row, _ = update(st, MiniBatch(X[:1], y[:1]), h, spec)
    assert state_bytes(flat) == state_bytes(row)
    flat, row = fixed_theta_pass(X[0], y[:1], h, spec, 1), fixed_theta_pass(X[:1], y[:1], h, spec, 1)
    assert state_bytes(flat) == state_bytes(row)
    cfg = TrainConfig(epochs=2, batch_size=1)
    flat, row = srgp_fit(X[0], y[:1], h, spec, cfg), srgp_fit(X[:1], y[:1], h, spec, cfg)
    assert flat.hyper.to_vector().tobytes() == row.hyper.to_vector().tobytes()
    assert state_bytes(flat.posterior) == state_bytes(row.posterior)


def _with_nan(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flat[-1] = np.nan
    return a


XY_PASSES = {
    "Dataset": lambda X, y, h: Dataset(X=X, y=y),
    "MiniBatch": lambda X, y, h: MiniBatch(X, y),
    "srgp_fit": lambda X, y, h: srgp_fit(X, y, h, ModelSpec("vfe"), TrainConfig(epochs=1, batch_size=1)),
    "fixed_theta_pass": lambda X, y, h: fixed_theta_pass(X, y, h, ModelSpec("vfe"), 10),
    "batch_bound": lambda X, y, h: batch_bound(X, y, h, ModelSpec("vfe")),
}
BAD_XY = {
    "short-y": (lambda X, y: (X, y[:90]), "X has 100 rows but y has 90"),
    "short-X": (lambda X, y: (X[:90], y), "X has 90 rows but y has 100"),
    "3-D-X": (lambda X, y: (X[:, :, None], y), "X has shape (100, 2, 1), expected (rows, D)"),
    "empty": (lambda X, y: (X[:0], y[:0]), "X and y have no rows"),
    "non-finite-X": (lambda X, y: (_with_nan(X), y), "X or y holds a non-finite value"),
    "non-finite-y": (lambda X, y: (X, _with_nan(y)), "X or y holds a non-finite value"),
}


@pytest.mark.parametrize("case", BAD_XY)
@pytest.mark.parametrize("entry", XY_PASSES)
def test_every_pass_over_data_refuses_bad_xy(entry, case):
    """Each entry point that takes (X, y) refuses X that is not 2-D, rows
    that disagree in number, no rows and non-finite values alike, with one
    DataError."""
    X, y, h = make_instance(14, n=100, d=2, m=4)
    spoil, message = BAD_XY[case]
    with pytest.raises(DataError) as err:
        XY_PASSES[entry](*spoil(X, y), h)
    assert str(err.value) == message


class TestFullGPRecovery:
    def test_vfe_with_all_inputs_as_inducing(self):
        # M = N, R = X: bound -> exact LML, predictive -> exact GP.
        rng = np.random.default_rng(7)
        n = 60
        X = ((np.arange(n) + 0.3 * rng.uniform(-1, 1, n)) / n).reshape(-1, 1)
        h = Hyperparameters(0.0, np.log([0.02]), np.log(0.1), X.copy())
        K = kernel_matrix(X, X, h)
        y = np.linalg.cholesky(K + 1e-12 * np.eye(n)) @ rng.standard_normal(n)
        y += 0.1 * rng.standard_normal(n)
        spec = ModelSpec("vfe")
        st = run_stream(X, y, h, spec, batch_size=15)
        assert st.psi == pytest.approx(full_gp_lml(X, y, h), abs=1e-6)
        X_star = rng.uniform(0, 1, (10, 1))
        pred = predict(st, X_star, h, spec)
        exact = full_gp_predict(X, y, X_star, h)
        np.testing.assert_allclose(pred.mean, exact.mean, atol=1e-6)
        np.testing.assert_allclose(pred.variance, exact.variance, atol=1e-6)


class TestCumulativeBound:
    def test_empty_state_has_only_convention_constant(self):
        # With per-batch constants the k=0 bound is exactly the constant
        # for zero observations: -(0/2) log 2pi = 0.
        _, _, h = make_instance(16, n=10, m=3)
        assert init_state(h).psi == 0.0

    def test_kalman_intermediates_expose_gain(self):
        X, y, h = make_instance(17, n=12, m=4)
        spec = ModelSpec("vfe")
        st = init_state(h)
        st2, km = update(st, MiniBatch(X, y), h, spec)
        # G = Sigma_{k-1} H^T S^-1 must reproduce the mean update.
        r = y - km.geometry.H @ st.mu  # the innovation
        np.testing.assert_allclose(st.mu + kalman_gain(km, st2) @ r, st2.mu, atol=1e-8)
