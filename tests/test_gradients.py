"""Gradient recursion: adjoints, propagation, ablation, finite differences."""

import re
import tracemalloc

import numpy as np
import pytest

from streamgp import (
    ContractViolationError,
    Hyperparameters,
    MiniBatch,
    ModelSpec,
    NumericalError,
    batch_bound,
    init_state,
    split_into_batches,
    update,
)
from streamgp.gradients import (
    ROWS,
    GradientState,
    _add_noise_terms,
    compute_adjoints,
    init_gradient_state,
    propagate,
)
from streamgp.batch import fd_gradient
from streamgp.inference import PARAM_TRANSFORMED
from streamgp.optimizer import step

from conftest import (
    make_instance,
    oracle_init_gradient_state,
    oracle_propagate,
    rel_diff,
    unpack_d_Lambda,
)
from timing import pinned

ALL_SPECS = [
    ModelSpec("sor"),
    ModelSpec("dtc"),
    ModelSpec("fitc"),
    ModelSpec("vfe"),
    ModelSpec("pep", alpha=0.5),
]


def stream_with_gradients(X, y, h, spec, batch_size, mode="full"):
    """Final gradient state and a copy of every state along the way
    (``propagate`` advances d_eta and d_Lambda in place)."""
    state = init_state(h, spec)
    g = init_gradient_state(h, spec)
    history = [copy_state(g)]
    for idx in split_into_batches(y.size, batch_size):
        state, g = step(state, g, MiniBatch(X[idx], y[idx]), h, spec, ignore_history=mode != "full")
        history.append(copy_state(g))
    return g, history


def copy_state(g):
    return GradientState(d_eta=g.d_eta.copy(), d_Lambda=g.d_Lambda.copy(), d_psi=g.d_psi, k=g.k)


def fd_of_batch_bound(X, y, h, spec, step=1e-5):
    f = lambda th: batch_bound(X, y, h.with_vector(th), spec, with_gradient=False).value
    return fd_gradient(f, h.to_vector(), step)


def assert_gradient_matches(got, want, h, rel_tol=1e-4, abs_floor=1e-7):
    for i in range(h.n_params):
        err = abs(got[i] - want[i])
        assert err <= max(rel_tol * abs(want[i]), abs_floor), (
            f"{h.param_label(i)}: got {got[i]:.8e}, want {want[i]:.8e}"
        )


class TestInitGradientState:
    def test_prior_precision_derivative_zero_for_noise(self):
        _, _, h = make_instance(0, n=10, m=4)
        g = init_gradient_state(h, ModelSpec("vfe"))
        noise_idx = h.input_dim + 1
        np.testing.assert_array_equal(g.d_Lambda[noise_idx], 0.0)
        np.testing.assert_array_equal(g.d_eta, 0.0)
        np.testing.assert_array_equal(g.d_psi, 0.0)

    def test_prior_precision_derivative_nonzero_for_kernel_params(self):
        _, _, h = make_instance(1, n=10, m=4)
        g = init_gradient_state(h, ModelSpec("vfe"))
        for i in range(h.n_params):
            if h.param_class(i)[0] != "log_sigma_n":
                assert np.any(g.d_Lambda[i] != 0.0), h.param_label(i)

    def test_reuse_builds_the_fresh_bits_in_the_spent_arrays(self):
        X, y, h = make_instance(3, n=20, m=4, d=2)
        spec = ModelSpec("pep", alpha=0.5)
        _, spent = step(init_state(h, spec), init_gradient_state(h, spec), MiniBatch(X, y), h, spec)
        assert np.any(spent.d_eta != 0.0)
        other = h.with_vector(h.to_vector() + 0.01)
        got, want = init_gradient_state(other, spec, reuse=spent), init_gradient_state(other, spec)
        assert got.d_eta is spent.d_eta and got.d_Lambda is spent.d_Lambda
        for a, b in [(got.d_eta, want.d_eta), (got.d_Lambda, want.d_Lambda), (got.d_psi, want.d_psi)]:
            assert a.tobytes() == b.tobytes()
        assert got.k == want.k == 0
        _, _, wider = make_instance(3, n=20, m=5, d=2)
        with pytest.raises(ContractViolationError, match="cannot reuse a derivative state"):
            init_gradient_state(wider, spec, reuse=spent)

    def test_matches_finite_difference_of_prior_precision(self):
        _, _, h = make_instance(2, n=10, m=4, d=2)
        g = init_gradient_state(h, ModelSpec("vfe"))
        theta = h.to_vector()
        step = 1e-6
        from streamgp.kernel import kernel_matrix

        for i in [0, 1, h.input_dim + 2, h.n_params - 1]:
            up, dn = theta.copy(), theta.copy()
            up[i] += step
            dn[i] -= step
            hu, hd = h.with_vector(up), h.with_vector(dn)
            Lu = np.linalg.inv(kernel_matrix(hu.inducing_inputs, hu.inducing_inputs, hu))
            Ld = np.linalg.inv(kernel_matrix(hd.inducing_inputs, hd.inducing_inputs, hd))
            fd = (Lu - Ld) / (2 * step)
            assert rel_diff(unpack_d_Lambda(g.d_Lambda)[i], fd, floor=1e-3) < 1e-5, h.param_label(i)


class TestAdjoints:
    def test_carried_mean_term_vanishes_on_first_batch(self):
        # eta_0 = 0 makes the rank-one mean-history term of L_dLambda zero:
        # the adjoint reduces to the symmetric parts.
        X, y, h = make_instance(4, n=12, m=4)
        spec = ModelSpec("pep", alpha=0.5)
        st = init_state(h, spec)
        st2, km = update(st, MiniBatch(X, y), h, spec)
        adj = compute_adjoints(st, st2, km, h, spec)
        np.testing.assert_allclose(adj.L_dLambda, adj.L_dLambda.T, atol=1e-12)
        np.testing.assert_allclose(
            adj.L_deta, -2.0 * (st.Sigma @ (km.geometry.H.T @ km.s_inv_r)), rtol=1e-12
        )

    def test_fitc_is_pep_alpha_one(self):
        X, y, h = make_instance(5, n=15, m=4)
        st = init_state(h, ModelSpec("fitc"))
        st2, km = update(st, MiniBatch(X, y), h, ModelSpec("fitc"))
        a_fitc = compute_adjoints(st, st2, km, h, ModelSpec("fitc"))
        a_pep = compute_adjoints(st, st2, km, h, ModelSpec("pep", alpha=1.0))
        np.testing.assert_allclose(a_fitc.L_dk_XX, a_pep.L_dk_XX, rtol=1e-12)  # c L_dv, c = 1
        np.testing.assert_allclose(a_fitc.L_dK_XR, a_pep.L_dK_XR, rtol=1e-12)
        assert a_fitc.L_dsigman == pytest.approx(a_pep.L_dsigman, rel=1e-12)

    def test_rejects_transformed_states(self):
        X, y, h = make_instance(6, n=10, m=3)
        spec = ModelSpec("vfe")
        st = init_state(h, spec, PARAM_TRANSFORMED)
        st2, km = update(st, MiniBatch(X, y), h, spec)
        with pytest.raises(ContractViolationError):
            compute_adjoints(st, st2, km, h, spec)


class TestPropagateMatchesFiniteDifferences:
    @pytest.mark.parametrize(
        "spec",
        [ModelSpec("vfe"), ModelSpec("fitc"), ModelSpec("pep", alpha=0.5)],
        ids=lambda s: s.variant,
    )
    def test_cumulative_gradient_equals_batch_gradient(self, spec):
        X, y, h = make_instance(8, n=60, m=7, d=2, lengthscale=[0.3, 0.45])
        g, _ = stream_with_gradients(X, y, h, spec, batch_size=20)
        want = fd_of_batch_bound(X, y, h, spec)
        assert_gradient_matches(g.d_psi, want, h)

    def test_single_point_batches(self):
        X, y, h = make_instance(9, n=12, m=3)
        spec = ModelSpec("pep", alpha=0.7)
        g, _ = stream_with_gradients(X, y, h, spec, batch_size=1)
        want = fd_of_batch_bound(X, y, h, spec)
        assert_gradient_matches(g.d_psi, want, h)

    def test_noise_gradient_first_batch_minimal_case(self):
        # B=1, M=1, VFE: the log sigma_n derivative of the first bound term
        # against a central finite difference.
        rng = np.random.default_rng(10)
        h = Hyperparameters(np.log(1.1), np.log([0.4]), np.log(0.3), np.array([[0.45]]))
        spec = ModelSpec("vfe")
        X1, y1 = np.array([[0.3]]), np.array([0.8])
        g, _ = stream_with_gradients(X1, y1, h, spec, batch_size=1)
        noise_idx = h.input_dim + 1
        step = 1e-5
        theta = h.to_vector()

        def psi_1(th):
            st = init_state(h.with_vector(th), spec)
            st, _ = update(st, MiniBatch(X1, y1), h.with_vector(th), spec)
            return st.psi

        up, dn = theta.copy(), theta.copy()
        up[noise_idx] += step
        dn[noise_idx] -= step
        fd = (psi_1(up) - psi_1(dn)) / (2 * step)
        assert g.d_psi[noise_idx] == pytest.approx(fd, rel=1e-5)

    def test_sor_and_dtc_gradients(self):
        X, y, h = make_instance(11, n=40, m=5)
        for spec in (ModelSpec("sor"), ModelSpec("dtc")):
            g, _ = stream_with_gradients(X, y, h, spec, batch_size=10)
            want = fd_of_batch_bound(X, y, h, spec)
            assert_gradient_matches(g.d_psi, want, h)

    def test_jittered_prior_kernel_gradients(self):
        # A near-duplicate inducing row forces jitter onto K_RR.  The bound
        # and its kernel-parameter gradients then refer to the jittered
        # prior throughout, so they still agree with finite differences.
        X, y, h = make_instance(40, n=60, m=6, lengthscale=0.3)
        R = h.inducing_inputs.copy()
        R[1] = R[0] + 1e-9
        h = Hyperparameters(h.log_sigma0, h.log_lengthscales, h.log_sigma_n, R)
        for spec in (ModelSpec("vfe"), ModelSpec("pep", alpha=0.5)):
            g, _ = stream_with_gradients(X, y, h, spec, batch_size=20)
            want = fd_of_batch_bound(X, y, h, spec)
            kernel_params = slice(0, h.input_dim + 2)  # sigma0, lengthscales, sigma_n
            np.testing.assert_allclose(g.d_psi[kernel_params], want[kernel_params], rtol=1e-6)

    def test_far_away_inducing_point_has_no_gradient(self):
        # An inducing input thousands of lengthscales from the data (and
        # from the other inducing points) cannot influence the bound.
        X, y, h = make_instance(12, n=20, m=4, lengthscale=0.2)
        R = np.vstack([h.inducing_inputs, [[250.0]]])  # ~1e3 lengthscales away
        h_far = Hyperparameters(h.log_sigma0, h.log_lengthscales, h.log_sigma_n, R)
        spec = ModelSpec("vfe")
        g, _ = stream_with_gradients(X, y, h_far, spec, batch_size=5)
        far_coord = h_far.n_params - 1
        assert h_far.param_class(far_coord) == ("inducing", 4, 0)
        assert abs(g.d_psi[far_coord]) < 1e-8

    def test_lambda_derivative_slices_stay_symmetric(self):
        X, y, h = make_instance(14, n=30, m=5)
        _, history = stream_with_gradients(X, y, h, ModelSpec("pep", alpha=0.5), batch_size=6)
        for g in history:
            for p, full in enumerate(unpack_d_Lambda(g.d_Lambda)):
                np.testing.assert_array_equal(full, full.T, err_msg=h.param_label(p))

    def test_non_finite_gradient_names_the_first_bad_parameter(self):
        X, y, h = make_instance(19, n=10, m=3, d=2)
        spec = ModelSpec("pep", alpha=0.5)
        b = MiniBatch(X, y)
        st = init_state(h, spec)
        st2, km = update(st, b, h, spec)
        g = init_gradient_state(h, spec)
        bad = [h.input_dim + 4, h.n_params - 1]
        g.d_eta[bad] = np.nan
        d_Lambda = g.d_Lambda.copy()
        message = re.escape(f"{h.param_label(bad[0])} at mini-batch 1")
        with pytest.raises(NumericalError, match=message):
            propagate(g, compute_adjoints(st, st2, km, h, spec), km.geometry, h, spec, b)
        np.testing.assert_array_equal(g.d_Lambda, d_Lambda)  # raised before advancing

    def test_gradient_state_counts_steps(self):
        X, y, h = make_instance(15, n=20, m=3)
        g, _ = stream_with_gradients(X, y, h, ModelSpec("vfe"), batch_size=5)
        assert g.k == 4


def assert_agrees_with_oracle(X, y, h, spec, batch_size, ignore_history=False):
    """The class-vectorized recursion against the per-parameter dense one of
    tests/conftest.py, state by state."""
    state = init_state(h, spec)
    g, want = init_gradient_state(h, spec), oracle_init_gradient_state(h)
    np.testing.assert_allclose(unpack_d_Lambda(g.d_Lambda), want.d_Lambda, rtol=1e-9, atol=1e-12)
    for idx in split_into_batches(y.size, batch_size):
        b = MiniBatch(X[idx], y[idx])
        state_new, km = update(state, b, h, spec)
        adj = compute_adjoints(state, state_new, km, h, spec)
        want = oracle_propagate(want, adj, km.geometry, h, spec, b, ignore_history=ignore_history)
        g = propagate(g, adj, km.geometry, h, spec, b, ignore_history=ignore_history)
        got = {"d_psi": g.d_psi, "d_eta": g.d_eta, "d_Lambda": unpack_d_Lambda(g.d_Lambda)}
        for name in ("d_psi", "d_eta", "d_Lambda"):
            np.testing.assert_allclose(
                got[name], getattr(want, name), rtol=1e-9, atol=1e-12, err_msg=name
            )
        state = state_new


class TestPerParameterOracle:
    @pytest.mark.parametrize("mode", ["full", "ignore_history"])
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.variant)
    def test_agrees(self, spec, mode):
        X, y, h = make_instance(13, n=30, m=5, d=2)
        assert_agrees_with_oracle(X, y, h, spec, 10, ignore_history=mode == "ignore_history")

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.variant)
    def test_agrees_across_row_blocks(self, spec):
        # Batches of 2 ROWS + 3 rows, so propagate walks three row blocks,
        # the last one partial.
        n = 2 * ROWS + 3
        X, y, h = make_instance(42, n=2 * n, m=5, d=2)
        assert_agrees_with_oracle(X, y, h, spec, n)


class TestIgnoreHistoryAblation:
    def test_coincides_with_propagate_on_first_batch(self):
        X, y, h = make_instance(16, n=30, m=5)
        spec = ModelSpec("vfe")
        _, hist_full = stream_with_gradients(X, y, h, spec, batch_size=10)
        _, hist_abl = stream_with_gradients(X, y, h, spec, batch_size=10, mode="ablation")
        np.testing.assert_allclose(hist_abl[1].d_psi, hist_full[1].d_psi, rtol=1e-12)

    def test_differs_from_propagate_afterwards(self):
        X, y, h = make_instance(17, n=30, m=5)
        spec = ModelSpec("vfe")
        g_full, _ = stream_with_gradients(X, y, h, spec, batch_size=10)
        g_abl, _ = stream_with_gradients(X, y, h, spec, batch_size=10, mode="ablation")
        diff = rel_diff(g_abl.d_psi, g_full.d_psi)
        assert diff > 1e-3

    def test_keeps_derivative_state_frozen(self):
        X, y, h = make_instance(18, n=20, m=4)
        spec = ModelSpec("vfe")
        _, hist = stream_with_gradients(X, y, h, spec, batch_size=5, mode="ablation")
        np.testing.assert_array_equal(hist[0].d_Lambda, hist[-1].d_Lambda)
        np.testing.assert_array_equal(hist[0].d_eta, hist[-1].d_eta)


class TestComplexityScaling:
    def test_cost_linear_in_tracked_parameters(self):
        # propagate() time at D = 2 / 4 / 8 (P = 84 / 166 / 330) at fixed B, M:
        # fitted log-log slope within [0.5, 2] of linear.  Timed in a child
        # process pinned to one BLAS thread (see tests/timing.py).
        t = pinned("propagate_parameter_count")
        slope = np.polyfit(np.log(t["sizes_p"]), np.log(t["times_p"]), 1)[0]
        assert 0.5 <= slope <= 2.0, f"slope {slope:.2f}, times {t['times_p']}"

    def test_memory_within_the_state_size(self):
        # Peak allocation of one init_gradient_state and one propagate at
        # P = 104, for B = 100 and B = 400: each at most 1.5 times the packed
        # derivative state, so neither keeps a second state beside it
        # (propagate advances it in place) and propagate's working set does
        # not grow with the batch.
        for n in (100, 400):
            X, y, h = make_instance(31, n=n, m=50, d=2, lengthscale=0.4)
            spec = ModelSpec("pep", alpha=0.5)
            assert h.n_params >= 100
            state = init_state(h, spec)  # builds the shared prior outside the measurement
            tracemalloc.start()
            try:
                g = init_gradient_state(h, spec)
                state_bytes = g.d_Lambda.nbytes + g.d_eta.nbytes
                _, init_peak = tracemalloc.get_traced_memory()
                b = MiniBatch(X, y)
                state_new, km = update(state, b, h, spec)
                adj = compute_adjoints(state, state_new, km, h, spec)
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                g_new = propagate(g, adj, km.geometry, h, spec, b)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert g.d_Lambda.shape == (h.n_params, 50 * 51 // 2)
            assert g_new.d_Lambda is g.d_Lambda and g_new.d_psi is not g.d_psi
            assert init_peak <= 1.5 * state_bytes, (n, init_peak / state_bytes)
            assert peak - before <= 1.5 * state_bytes, (n, (peak - before) / state_bytes)


class TestNoiseTerms:
    """``_add_noise_terms`` adds packed H^T diag(s_p) H into the state, ROWS
    batch rows at a time, through an in-place gemm."""

    @pytest.mark.parametrize("B", [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 3])
    @pytest.mark.parametrize("noisy_rows", ["all", "vfe"])
    def test_matches_dense_products(self, B, noisy_rows):
        rng = np.random.default_rng(B)
        P, M = 7, 6
        H = rng.standard_normal((B, M))
        s = rng.standard_normal((P, B))
        start = rng.standard_normal((P, M, M))
        start = start + start.transpose(0, 2, 1)
        iu, ju = np.triu_indices(M)
        d_Lambda = np.ascontiguousarray(start[:, iu, ju])
        # VFE's noise term moves log sigma_n alone: one row of the state.
        rows = slice(0, P) if noisy_rows == "all" else slice(3, 4)
        _add_noise_terms(d_Lambda[rows], s[rows], H)
        want = start.copy()
        for p in range(P)[rows]:
            want[p] += (H.T * s[p]) @ H
        np.testing.assert_allclose(unpack_d_Lambda(d_Lambda), want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("layout", ["fortran", "strided", "float32"])
    def test_other_state_layouts_are_refused(self, layout):
        # gemm writes into the state in place, which BLAS can do only for a
        # C-contiguous float64 dst; any other is refused, and left as it was.
        rng = np.random.default_rng(5)
        P, M, B = 5, 6, ROWS + 9
        H = rng.standard_normal((B, M))
        s = rng.standard_normal((P, B))
        iu, _ = np.triu_indices(M)
        before = rng.standard_normal((P, iu.size))
        if layout == "fortran":
            d_Lambda = np.asfortranarray(before)
        elif layout == "strided":
            d_Lambda = np.zeros((P, 2 * iu.size))[:, ::2]
            d_Lambda[...] = before
        else:
            d_Lambda = before.astype(np.float32)
        with pytest.raises(ValueError, match="Fortran-contiguous float64"):
            _add_noise_terms(d_Lambda, s, H)
        np.testing.assert_array_equal(d_Lambda, before.astype(d_Lambda.dtype))

    def test_gemm_accumulates_into_the_state_without_a_copy(self):
        _, _, h = make_instance(41, n=2 * ROWS + 3, m=30, d=10)  # P = 312
        g = init_gradient_state(h, ModelSpec("pep", alpha=0.5))
        H = np.random.default_rng(0).standard_normal((2 * ROWS + 3, 30))
        s = np.random.default_rng(1).standard_normal((h.n_params, H.shape[0]))
        buffer, before = g.d_Lambda, g.d_Lambda.copy()
        tracemalloc.start()
        try:
            _add_noise_terms(g.d_Lambda, s, H)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.d_Lambda is buffer and g.d_Lambda.flags.c_contiguous
        iu, ju = np.triu_indices(30)
        want = before + np.einsum("pb,bt->pt", s, H[:, iu] * H[:, ju])
        np.testing.assert_allclose(g.d_Lambda, want, rtol=1e-12, atol=1e-12)
        # One block's Khatri-Rao product and s columns (about 0.4 of the
        # state here), never a state-sized copy for gemm to write into.
        assert peak < g.d_Lambda.nbytes, peak / g.d_Lambda.nbytes
