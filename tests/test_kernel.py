"""Kernel values, matrices and analytic derivatives."""

import numpy as np
import pytest

from streamgp import ContractViolationError, DataError, Hyperparameters
from streamgp.kernel import kernel_diag, kernel_matrix
from streamgp.linalg import chol_with_jitter

from conftest import kernel_matrix_grad, kernel_matrix_outer_sum, make_instance, se_ard


def hyper_1d(sigma0=1.0, lengthscale=1.0, noise_std=0.1, R=None):
    R = np.array([[0.5]]) if R is None else np.asarray(R, float)
    return Hyperparameters(
        log_sigma0=float(np.log(sigma0)),
        log_lengthscales=np.log([lengthscale]),
        log_sigma_n=float(np.log(noise_std)),
        inducing_inputs=R,
    )


class TestSeArd:
    def test_zero_distance_gives_amplitude_squared(self):
        h = hyper_1d(sigma0=2.0)
        assert se_ard(np.array([0.3]), np.array([0.3]), h) == pytest.approx(4.0, abs=1e-15)

    def test_unit_case(self):
        # D=1, sigma0=1, l=1, |x - x'| = 1 -> exp(-1/2)
        h = hyper_1d()
        val = se_ard(np.array([0.0]), np.array([1.0]), h)
        assert val == pytest.approx(0.6065306597126334, rel=1e-12)

    def test_two_dimensional_case(self):
        # l = (1, 2), x - x' = (2, 2) -> exp(-0.5 * (4/1 + 4/4)) = exp(-2.5)
        h = Hyperparameters(
            log_sigma0=0.0,
            log_lengthscales=np.log([1.0, 2.0]),
            log_sigma_n=np.log(0.1),
            inducing_inputs=np.array([[0.0, 0.0]]),
        )
        val = se_ard(np.array([0.0, 0.0]), np.array([2.0, 2.0]), h)
        assert val == pytest.approx(np.exp(-2.5), rel=1e-12)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(3)
        h = hyper_1d(sigma0=1.7, lengthscale=0.4)
        for _ in range(20):
            a, b = rng.normal(size=1), rng.normal(size=1)
            k_ab = se_ard(a, b, h)
            assert k_ab == pytest.approx(se_ard(b, a, h), rel=1e-14)
            assert 0.0 < k_ab <= h.sigma0 ** 2 + 1e-15

    def test_dimension_mismatch_rejected(self):
        h = hyper_1d()
        with pytest.raises(ContractViolationError):
            se_ard(np.array([0.0, 1.0]), np.array([0.0, 1.0]), h)


class TestKernelMatrix:
    def test_single_point(self):
        h = hyper_1d(sigma0=1.5)
        K = kernel_matrix(np.array([[0.2]]), np.array([[0.2]]), h)
        np.testing.assert_allclose(K, [[1.5 ** 2]], rtol=1e-14)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(0)
        h = hyper_1d(lengthscale=0.3)
        A, B = rng.uniform(size=(4, 1)), rng.uniform(size=(6, 1))
        np.testing.assert_allclose(
            kernel_matrix(A, B, h).T, kernel_matrix(B, A, h), rtol=0, atol=1e-15
        )

    def test_gram_is_psd_after_jitter(self):
        rng = np.random.default_rng(11)
        h = hyper_1d(lengthscale=0.5)
        A = rng.uniform(size=(3, 1))
        K = kernel_matrix(A, A, h)
        jitter = 1e-8 * np.mean(np.diag(K))
        eigs = np.linalg.eigvalsh(K + jitter * np.eye(3))
        assert eigs.min() >= -1e-12

    def test_gram_cholesky_with_standard_jitter(self):
        # K_AA + 1e-8 * mean(diag) * I factors for random configurations.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(1, 4))
            h = Hyperparameters(
                log_sigma0=rng.normal(scale=0.3),
                log_lengthscales=rng.normal(scale=0.3, size=d) - 1.0,
                log_sigma_n=np.log(0.1),
                inducing_inputs=rng.uniform(size=(5, d)),
            )
            A = rng.uniform(size=(12, d))
            K = kernel_matrix(A, A, h)
            np.linalg.cholesky(K + 1e-8 * np.mean(np.diag(K)) * np.eye(12))

    @pytest.mark.parametrize("d", [5, 8, 12])
    def test_same_bits_for_either_input_layout(self, d):
        # numpy sums the rows of a C-ordered (n, D) array pairwise once
        # D >= 8, but those of an F-ordered one column by column; K must not
        # depend on which layout the caller holds.
        rng = np.random.default_rng(14)
        X = rng.uniform(size=(300, d))
        h = Hyperparameters(0.2, np.log(np.full(d, 0.5)), np.log(0.1), rng.uniform(size=(20, d)))
        K = kernel_matrix(X, h.inducing_inputs, h)
        X_F = np.asfortranarray(X)
        for rows in (slice(None), slice(10, 250)):  # the whole array and a block of its rows
            assert kernel_matrix(X_F[rows], h.inducing_inputs, h).tobytes() == K[rows].tobytes()
        R_F = np.asfortranarray(h.inducing_inputs)
        assert kernel_matrix(X, R_F, h).tobytes() == K.tobytes()

    @pytest.mark.parametrize("rows", [1024, 1, 0])
    def test_bits_of_the_outer_sum_and_cross_term(self, rows):
        # The outer sum is formed by a rank-2 GEMM; each entry is one exact
        # addition, so K has the bits of numpy's outer sum followed by the
        # same cross-term GEMM.
        rng = np.random.default_rng(21)
        h = Hyperparameters(0.3, rng.normal(scale=0.3, size=5), np.log(0.1), rng.uniform(size=(50, 5)))
        X = np.asfortranarray(rng.uniform(-0.5, 1.5, (rows, 5)))
        K = kernel_matrix(X, h.inducing_inputs, h)
        assert K.shape == (rows, 50) and K.flags.c_contiguous
        assert K.tobytes() == kernel_matrix_outer_sum(X, h.inducing_inputs, h).tobytes()

    def test_gram_is_exactly_symmetric(self):
        rng = np.random.default_rng(22)
        h = Hyperparameters(0.3, rng.normal(scale=0.3, size=5), np.log(0.1), rng.uniform(size=(50, 5)))
        K = kernel_matrix(h.inducing_inputs, h.inducing_inputs, h)
        assert np.array_equal(K, K.T)
        assert K.tobytes() == kernel_matrix_outer_sum(h.inducing_inputs, h.inducing_inputs, h).tobytes()

    def test_diag_helper(self):
        h = hyper_1d(sigma0=1.3)
        A = np.random.default_rng(1).uniform(size=(5, 1))
        np.testing.assert_allclose(kernel_diag(A, h), np.diag(kernel_matrix(A, A, h)), rtol=1e-14)


class TestKernelGradients:
    def test_log_sigma0_gradient_is_twice_kernel(self):
        rng = np.random.default_rng(5)
        h = hyper_1d(sigma0=1.4, lengthscale=0.6)
        A, B = rng.uniform(size=(4, 1)), rng.uniform(size=(3, 1))
        np.testing.assert_allclose(
            kernel_matrix_grad(A, B, h, wrt=0), 2.0 * kernel_matrix(A, B, h), rtol=1e-14
        )

    def test_noise_gradient_is_zero(self):
        rng = np.random.default_rng(6)
        h = hyper_1d()
        A, B = rng.uniform(size=(4, 1)), rng.uniform(size=(3, 1))
        wrt_noise = 1 + h.input_dim  # log_sigma_n position
        assert h.param_class(wrt_noise) == ("log_sigma_n",)
        np.testing.assert_array_equal(kernel_matrix_grad(A, B, h, wrt_noise), np.zeros((4, 3)))

    def test_lengthscale_gradient_single_pair_finite_difference(self):
        h = hyper_1d(lengthscale=0.7)
        a, b = np.array([[0.1]]), np.array([[0.9]])
        step = 1e-6
        analytic = kernel_matrix_grad(a, b, h, wrt=1)[0, 0]
        up = hyper_1d(lengthscale=np.exp(np.log(0.7) + step))
        dn = hyper_1d(lengthscale=np.exp(np.log(0.7) - step))
        fd = (kernel_matrix(a, b, up)[0, 0] - kernel_matrix(a, b, dn)[0, 0]) / (2 * step)
        assert analytic == pytest.approx(fd, rel=1e-6)

    def test_all_classes_match_finite_differences(self):
        # 50 random configurations, every parameter, relative error < 1e-5.
        step = 1e-6
        for seed in range(50):
            rng = np.random.default_rng(100 + seed)
            d = int(rng.integers(1, 4))
            m = int(rng.integers(2, 5))
            h = Hyperparameters(
                log_sigma0=rng.normal(scale=0.4),
                log_lengthscales=rng.normal(scale=0.4, size=d) - 0.5,
                log_sigma_n=np.log(0.1),
                inducing_inputs=rng.uniform(size=(m, d)),
            )
            A = rng.uniform(size=(3, d))
            theta = h.to_vector()
            for i in range(h.n_params):
                analytic = kernel_matrix_grad(A, h.inducing_inputs, h, i, b_is_inducing=True)
                up, dn = theta.copy(), theta.copy()
                up[i] += step
                dn[i] -= step
                hu, hd = h.with_vector(up), h.with_vector(dn)
                fd = (
                    kernel_matrix(A, hu.inducing_inputs, hu)
                    - kernel_matrix(A, hd.inducing_inputs, hd)
                ) / (2 * step)
                scale = max(np.max(np.abs(fd)), 1e-6)
                assert np.max(np.abs(analytic - fd)) / scale < 1e-5, h.param_label(i)

    def test_inducing_gradient_sparsity_is_one_column(self):
        X, _, h = make_instance(2, n=6, m=4)
        base = h.input_dim + 2
        for m in range(h.num_inducing):
            g = kernel_matrix_grad(X, h.inducing_inputs, h, base + m * h.input_dim, b_is_inducing=True)
            mask = np.ones(h.num_inducing, dtype=bool)
            mask[m] = False
            assert np.all(g[:, mask] == 0.0)
            assert np.any(g[:, m] != 0.0)

    def test_inducing_gradient_requires_identity_flag(self):
        X, _, h = make_instance(3, n=4, m=3)
        with pytest.raises(ContractViolationError):
            kernel_matrix_grad(X, h.inducing_inputs, h, h.input_dim + 2)

    def test_inducing_gram_gradient_symmetric_with_zero_diagonal_entry(self):
        _, _, h = make_instance(4, n=10, m=4)
        R = h.inducing_inputs
        g = kernel_matrix_grad(R, R, h, h.input_dim + 2, a_is_inducing=True, b_is_inducing=True)
        np.testing.assert_allclose(g, g.T, atol=1e-15)
        assert g[0, 0] == 0.0

    def test_out_of_range_parameter_rejected(self):
        _, _, h = make_instance(5, n=4, m=2)
        with pytest.raises(ContractViolationError):
            kernel_matrix_grad(h.inducing_inputs, h.inducing_inputs, h, h.n_params)


class TestHyperparameters:
    def test_vector_round_trip(self):
        _, _, h = make_instance(6, n=10, d=2, m=3)
        h2 = h.with_vector(h.to_vector())
        np.testing.assert_array_equal(h.to_vector(), h2.to_vector())
        assert h.n_params == 2 + 2 + 3 * 2

    def test_param_classes_cover_layout(self):
        _, _, h = make_instance(7, n=10, d=2, m=3)
        classes = [h.param_class(i)[0] for i in range(h.n_params)]
        assert classes[0] == "log_sigma0"
        assert classes[1:3] == ["log_lengthscale"] * 2
        assert classes[3] == "log_sigma_n"
        assert classes[4:] == ["inducing"] * 6
        assert h.param_class(h.n_params - 1) == ("inducing", 2, 1)

    def test_rejects_duplicate_inducing_rows(self):
        message = "inducing inputs too close: min pairwise distance 0 <= required separation 0"
        with pytest.raises(ContractViolationError, match=message):
            Hyperparameters(
                log_sigma0=0.0,
                log_lengthscales=np.zeros(1),
                log_sigma_n=0.0,
                inducing_inputs=np.array([[0.3], [0.3]]),
            )

    def test_any_positive_separation_is_accepted(self):
        """Inducing rows need only be a strictly positive distance apart,
        however close; the separation is not a parameter."""
        R = np.array([[0.0], [1e-12]])
        assert Hyperparameters(0.0, np.zeros(1), 0.0, R).num_inducing == 2
        with pytest.raises(TypeError, match="min_separation"):
            Hyperparameters(0.0, np.zeros(1), 0.0, R, min_separation=0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            Hyperparameters(np.inf, np.zeros(1), 0.0, np.array([[0.0]]))

    def test_positive_quantities(self):
        _, _, h = make_instance(8, n=5, m=2)
        assert h.sigma0 > 0 and h.sigma_n > 0 and np.all(h.lengthscales > 0)


def test_chol_with_jitter_reports_matrix_name():
    from streamgp import IllConditionedError

    bad = -np.eye(3)
    with pytest.raises(IllConditionedError, match="prior"):
        chol_with_jitter(bad, "prior")
