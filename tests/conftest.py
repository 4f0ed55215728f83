"""Shared helpers: instance builders and dense brute-force oracles.

The oracles here deliberately use plain numpy (dense N x N algebra,
np.linalg.solve / slogdet) rather than the package's Woodbury or
recursive code paths, so they stay independent of what they check.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve as _cho_solve
from scipy.linalg import solve_triangular

from streamgp import (
    ContractViolationError,
    Dataset,
    Hyperparameters,
    MiniBatch,
    ModelSpec,
    PredictiveDistribution,
)
from streamgp._lapack import dgemm
from streamgp.batch import _sparse_pieces
from streamgp.gradients import GradientState
from streamgp.kernel import (
    CLASS_INDUCING,
    CLASS_LOG_SIGMA0,
    CLASS_LOG_SIGMA_N,
    _check_inputs,
    as_xy,
    kernel_diag,
    kernel_matrix,
)
from streamgp.linalg import CholFactor, chol_with_jitter, symmetrize
from streamgp.model import batch_geometry, prior, regularizer

LOG_2PI = float(np.log(2.0 * np.pi))
DENSE_SIZE_GUARD = 5000


def max_abs(a: np.ndarray) -> float:
    """max |a_ij|, 0.0 for empty arrays."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def rel_diff(a: np.ndarray, b: np.ndarray, floor: float = 1.0) -> float:
    """Max absolute difference scaled by max(|b|, floor): the "relative
    difference" between a computed quantity ``a`` and its reference ``b``."""
    denom = max(max_abs(np.asarray(b)), floor)
    return max_abs(np.asarray(a) - np.asarray(b)) / denom


def cho_solve(factor: CholFactor, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for the matrix A that ``factor`` factors (LAPACK solve)."""
    return _cho_solve((factor.L, True), b, check_finite=False)


def train_test_split(ds: Dataset, test_fraction: float) -> tuple[Dataset, Dataset]:
    """Chronological split: the last ``test_fraction`` of rows is the test set."""
    if not 0.0 < test_fraction < 1.0:
        raise ContractViolationError("test_fraction must be in (0, 1)")
    n_test = max(1, int(round(ds.n * test_fraction)))
    n_train = ds.n - n_test
    if n_train < 1:
        raise ContractViolationError("split leaves no training rows")
    mk = lambda sl, tag: Dataset(
        X=ds.X[sl],
        y=ds.y[sl],
        column_names=list(ds.column_names),
        provenance=f"{ds.provenance}[{tag}]",
    )
    return mk(slice(0, n_train), "train"), mk(slice(n_train, None), "test")


def basis(X: np.ndarray, h: Hyperparameters, transformed: bool = False) -> np.ndarray:
    """Basis functions of the inducing outputs for inputs ``X``.

    Untransformed: H = K_XR K_RR^-1, applied through the shared prior's
    inverse factor exactly as :func:`streamgp.model.batch_geometry` does, so
    the two agree bit for bit.  Transformed: simply K_XR.
    """
    X = _check_inputs(X, h, "X")
    K_XR = kernel_matrix(X, h.inducing_inputs, h)
    if transformed:
        return K_XR
    return prior(h).solve(K_XR.T).T


# -- batch oracles: full GP and the one-shot sparse posterior -------------------


def _guard(n: int, max_n: int, what: str) -> None:
    if n > max_n:
        raise ContractViolationError(
            f"{what} refused for N={n} > guard {max_n}; dense O(N^3) path only"
        )


def full_gp_predict(
    X: np.ndarray,
    y: np.ndarray,
    X_star: np.ndarray,
    h: Hyperparameters,
    with_noise: bool = False,
    max_n: int = DENSE_SIZE_GUARD,
) -> PredictiveDistribution:
    """Exact GP predictive marginals via Cholesky of K_XX + sigma_n^2 I."""
    X, y = as_xy(X, y)
    X_star = _check_inputs(X_star, h, "X_star")
    _guard(X.shape[0], max_n, "full_gp_predict")
    Kyy = kernel_matrix(X, X, h) + h.noise_variance * np.eye(X.shape[0])
    factor = chol_with_jitter(Kyy, "K_XX + sigma_n^2 I")
    K_sX = kernel_matrix(X_star, X, h)
    mean = K_sX @ cho_solve(factor, y)
    half = solve_triangular(factor.L, K_sX.T, lower=True, check_finite=False)
    variance = kernel_diag(X_star, h) - np.sum(half * half, axis=0)
    if with_noise:
        variance += h.noise_variance
    return PredictiveDistribution(mean=mean, variance=variance, includes_observation_noise=with_noise)


def full_gp_lml(
    X: np.ndarray, y: np.ndarray, h: Hyperparameters, max_n: int = DENSE_SIZE_GUARD
) -> float:
    """Exact log marginal likelihood log N(y | 0, K_XX + sigma_n^2 I)."""
    X, y = as_xy(X, y)
    n = y.size
    _guard(n, max_n, "full_gp_lml")
    Kyy = kernel_matrix(X, X, h) + h.noise_variance * np.eye(n)
    factor = chol_with_jitter(Kyy, "K_XX + sigma_n^2 I")
    alpha = cho_solve(factor, y)
    return -0.5 * (n * LOG_2PI + factor.logdet + float(y @ alpha))


def batch_sparse_posterior(
    X: np.ndarray, y: np.ndarray, h: Hyperparameters, spec: ModelSpec
) -> tuple[np.ndarray, np.ndarray]:
    """One-shot posterior over inducing outputs (standard parametrization):

        Sigma_K = (K_RR^-1 + H^T V^-1 H)^-1,   mu_K = Sigma_K H^T V^-1 y.
    """
    X, y = as_xy(X, y)
    factor, A, d, v = _sparse_pieces(X, h, spec)
    H = solve_triangular(factor.L, A, lower=True, trans=1, check_finite=False).T  # K_XR K_RR^-1
    Lambda = symmetrize(factor.inv + (H.T / v[None, :]) @ H)
    post = chol_with_jitter(Lambda, "batch Lambda")
    Sigma_K = post.inv
    mu_K = Sigma_K @ (H.T @ (y / v))
    return mu_K, Sigma_K


def farthest_point_subset(X: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Well-spread subset of rows (keeps test K_RR matrices well conditioned)."""
    X = np.atleast_2d(X)
    idx = [int(rng.integers(X.shape[0]))]
    d2 = np.sum((X - X[idx[0]]) ** 2, axis=1)
    for _ in range(m - 1):
        nxt = int(np.argmax(d2))
        idx.append(nxt)
        d2 = np.minimum(d2, np.sum((X - X[nxt]) ** 2, axis=1))
    return X[idx].copy()


def make_instance(
    seed: int,
    n: int,
    d: int = 1,
    m: int = 8,
    lengthscale=0.25,
    sigma0: float = 1.2,
    noise_std: float = 0.2,
):
    """Random regression instance with spread-out inducing inputs."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (n, d))
    ls = np.broadcast_to(np.asarray(lengthscale, dtype=float), (d,))
    h = Hyperparameters(
        log_sigma0=float(np.log(sigma0)),
        log_lengthscales=np.log(ls).copy(),
        log_sigma_n=float(np.log(noise_std)),
        inducing_inputs=farthest_point_subset(X, m, rng),
    )
    K = kernel_matrix(X, X, h)
    f = np.linalg.cholesky(K + 1e-10 * np.eye(n)) @ rng.standard_normal(n)
    y = f + noise_std * rng.standard_normal(n)
    return X, y, h


def unpack_d_Lambda(d_Lambda: np.ndarray) -> np.ndarray:
    """The (P, M, M) symmetric matrices of a packed (P, M (M + 1) / 2)
    ``GradientState.d_Lambda``, whose rows hold upper triangles in
    ``np.triu_indices(M)`` order."""
    M = int(round((np.sqrt(8 * d_Lambda.shape[1] + 1) - 1) / 2))
    assert M * (M + 1) // 2 == d_Lambda.shape[1], d_Lambda.shape
    iu, ju = np.triu_indices(M)
    full = np.empty((d_Lambda.shape[0], M, M))
    full[:, iu, ju] = d_Lambda
    full[:, ju, iu] = d_Lambda
    return full


def record_adam_thetas(monkeypatch) -> list[np.ndarray]:
    """Record a copy of the parameter vector of every gradient step that
    ``srgp_fit`` takes from now on, in order, by wrapping
    ``streamgp.optimizer.adam_step``."""
    from streamgp import optimizer

    thetas: list[np.ndarray] = []
    adam_step = optimizer.adam_step

    def recording(theta, grad, st):
        theta, st = adam_step(theta, grad, st)
        thetas.append(theta.copy())
        return theta, st

    monkeypatch.setattr(optimizer, "adam_step", recording)
    return thetas


# -- dense oracles -------------------------------------------------------------


def dense_Q(A: np.ndarray, B: np.ndarray, h: Hyperparameters) -> np.ndarray:
    """Q_AB = K_AR K_RR^-1 K_RB via a plain dense solve."""
    R = h.inducing_inputs
    K_RR = kernel_matrix(R, R, h)
    return kernel_matrix(A, R, h) @ np.linalg.solve(K_RR, kernel_matrix(R, B, h))


def dense_noise_diag(X: np.ndarray, h: Hyperparameters, spec: ModelSpec) -> np.ndarray:
    """diag(V) = c * diag(K_XX - Q_XX) + sigma_n^2 built densely."""
    d = np.maximum(kernel_diag(X, h) - np.diag(dense_Q(X, X, h)), 0.0)
    if spec.variant == "pep":
        c = spec.alpha
    elif spec.variant == "fitc":
        c = 1.0
    else:
        c = 0.0
    return c * d + h.sigma_n ** 2


def gauss_logpdf(y: np.ndarray, cov: np.ndarray) -> float:
    """log N(y | 0, cov) via slogdet and a dense solve."""
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    return -0.5 * (y.size * LOG_2PI + logdet + float(y @ np.linalg.solve(cov, y)))


def dense_bound(X: np.ndarray, y: np.ndarray, h: Hyperparameters, spec: ModelSpec) -> float:
    """Collapsed lower bound of the variant, written out with N x N matrices."""
    Q = dense_Q(X, X, h)
    v = dense_noise_diag(X, h, spec)
    gaussian = gauss_logpdf(y, Q + np.diag(v))
    d = np.maximum(kernel_diag(X, h) - np.diag(Q), 0.0)
    if spec.variant == "vfe":
        reg = float(np.sum(d)) / (2.0 * h.sigma_n ** 2)
    elif spec.variant == "pep":
        a = spec.alpha
        reg = (1.0 - a) / (2.0 * a) * float(np.sum(np.log1p(a * d / h.sigma_n ** 2)))
    else:
        reg = 0.0
    return gaussian - reg


def dense_predictive(
    X: np.ndarray, y: np.ndarray, X_star: np.ndarray, h: Hyperparameters, spec: ModelSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Published batch predictive of each variant, all dense.

    mean = Q_*X (Q_XX + V)^-1 y
    cov  = T_** - Q_*X (Q_XX + V)^-1 Q_X*

    with T = Q for SoR (overconfident by construction) and T = K for the
    corrected variants, V the variant noise diagonal.
    """
    Q_sX = dense_Q(X_star, X, h)
    mid = dense_Q(X, X, h) + np.diag(dense_noise_diag(X, h, spec))
    mean = Q_sX @ np.linalg.solve(mid, y)
    if spec.variant == "sor":
        T = dense_Q(X_star, X_star, h)
    else:
        T = kernel_matrix(X_star, X_star, h)
    cov = T - Q_sX @ np.linalg.solve(mid, Q_sX.T)
    return mean, 0.5 * (cov + cov.T)


def kernel_matrix_outer_sum(A: np.ndarray, B: np.ndarray, h: Hyperparameters) -> np.ndarray:
    """k(A, B) as numpy's outer sum of the halved row sums followed by the
    cross-term GEMM: the sequence ``kernel_matrix`` states its bits against,
    with the outer sum taken by ``np.add.outer`` instead of BLAS."""
    A, B = _check_inputs(A, h, "A"), _check_inputs(B, h, "B")
    inv_l = 1.0 / h.lengthscales
    a, b = np.multiply(A, inv_l, order="F"), np.multiply(B, inv_l, order="F")
    K = np.add.outer(-0.5 * np.sum(a * a, axis=1), -0.5 * np.sum(b * b, axis=1))
    if K.size:
        a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
        dgemm(1.0, b.T, a.T, beta=1.0, c=K.T, trans_a=1, overwrite_c=1)
    np.minimum(K, 0.0, out=K)
    np.exp(K, out=K)
    K *= h.sigma0 ** 2
    return K


def se_ard(x: np.ndarray, x_other: np.ndarray, h: Hyperparameters) -> float:
    """The kernel for a single pair of points."""
    return float(kernel_matrix(np.atleast_2d(x), np.atleast_2d(x_other), h)[0, 0])


# -- moment-form oracles of one update ---------------------------------------------


def innovation_cov(km, state_prev) -> np.ndarray:
    """S = H Sigma_{k-1} H^T + V of the update ``km`` (B x B)."""
    H, v = km.geometry.H, km.geometry.v
    return symmetrize(H @ state_prev.Sigma @ H.T) + np.diag(v)


def kalman_gain(km, state_new) -> np.ndarray:
    """G = Sigma_{k-1} H^T S^-1 = Sigma_k H^T V^-1 of the update ``km`` (M x B)."""
    H, v = km.geometry.H, km.geometry.v
    return state_new.Sigma @ (H.T / v[None, :])


def kf_update_moments(
    mu: np.ndarray,
    Sigma: np.ndarray,
    batch: MiniBatch,
    h: Hyperparameters,
    spec: ModelSpec,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Kalman update in moment form, the cross-check of the natural recursion.

        r = y - H mu;  S = H Sigma H^T + V;  G = Sigma H^T S^-1
        mu' = mu + G r;  Sigma' = Sigma - G S G^T

    Returns (mu', Sigma', psi_increment), the increment being the term
    ``update`` adds to psi.  Forms the B x B innovation covariance.
    """
    geom = batch_geometry(batch.X, h, spec)
    H, v = geom.H, geom.v
    r = batch.y - H @ mu
    S = symmetrize(H @ Sigma @ H.T) + np.diag(v)
    factor = chol_with_jitter(S, "S")
    G = cho_solve(factor, H @ Sigma).T
    mu_new = mu + G @ r
    Sigma_new = symmetrize(Sigma - G @ S @ G.T)
    a_k = regularizer(geom.d, spec, h)
    psi_inc = -0.5 * (batch.size * LOG_2PI + factor.logdet + float(r @ cho_solve(factor, r)) + a_k)
    return mu_new, Sigma_new, psi_inc


# -- per-parameter gradient oracle ---------------------------------------------------


def kernel_matrix_grad(
    A: np.ndarray,
    B: np.ndarray,
    h: Hyperparameters,
    wrt: int,
    a_is_inducing: bool = False,
    b_is_inducing: bool = False,
) -> np.ndarray:
    """Derivative of the cross-covariance matrix w.r.t. one parameter.

    ``wrt`` indexes the flat parameter vector.  Log-parameter derivatives
    are chain-ruled (e.g. dK/dlog sigma0 = 2K); the noise derivative is a
    zero matrix since the kernel does not involve sigma_n.  For an
    inducing coordinate R[m][d], the identity flags declare which of A, B
    actually *is* the inducing-input matrix; the result is then nonzero
    only in row/column m of the flagged side(s).
    """
    A = _check_inputs(A, h, "A")
    B = _check_inputs(B, h, "B")
    cls = h.param_class(wrt)
    if cls[0] == CLASS_LOG_SIGMA0:
        return 2.0 * kernel_matrix(A, B, h)
    if cls[0] == CLASS_LOG_SIGMA_N:
        return np.zeros((A.shape[0], B.shape[0]))
    if cls[0] != CLASS_INDUCING:
        d = cls[1]
        K = kernel_matrix(A, B, h)
        diff = A[:, d][:, None] - B[:, d][None, :]
        return K * diff ** 2 / h.lengthscales[d] ** 2
    _, m, d = cls
    if not (a_is_inducing or b_is_inducing):
        raise ContractViolationError(
            "inducing-coordinate derivative requires A or B to be the inducing inputs"
        )
    K = kernel_matrix(A, B, h)
    l2 = h.lengthscales[d] ** 2
    out = np.zeros_like(K)
    if b_is_inducing:
        # d k(a_i, r_m) / d r_md = k * (a_id - r_md) / l_d^2
        out[:, m] += K[:, m] * (A[:, d] - h.inducing_inputs[m, d]) / l2
    if a_is_inducing:
        out[m, :] += K[m, :] * (B[:, d] - h.inducing_inputs[m, d]) / l2
    if a_is_inducing and b_is_inducing:
        out[m, m] = 0.0  # k(r_m, r_m) is constant in r_m
    return out


def _kdot_RR(h: Hyperparameters, i: int) -> np.ndarray:
    """Derivative of the factored K_RR (jitter included) w.r.t. parameter ``i``.

    The jitter is a multiple of mean(diag K_RR) = sigma0^2, so the log
    sigma0 derivative is twice the whole factored matrix.
    """
    if h.param_class(i)[0] == CLASS_LOG_SIGMA0:
        return 2.0 * prior(h).matrix
    R = h.inducing_inputs
    return kernel_matrix_grad(R, R, h, i, a_is_inducing=True, b_is_inducing=True)


def oracle_init_gradient_state(h: Hyperparameters) -> GradientState:
    """``init_gradient_state`` one parameter at a time with dense derivative matrices."""
    M = h.num_inducing
    factor = prior(h)
    d_Lambda = np.zeros((h.n_params, M, M))
    for i in range(h.n_params):
        if h.param_class(i)[0] != CLASS_LOG_SIGMA_N:
            d_Lambda[i] = -symmetrize(cho_solve(factor, cho_solve(factor, _kdot_RR(h, i)).T).T)
    return GradientState(
        d_eta=np.zeros((h.n_params, M)), d_Lambda=d_Lambda, d_psi=np.zeros(h.n_params)
    )


def oracle_propagate(gstate, adj, geom, h, spec, batch, ignore_history=False) -> GradientState:
    """``propagate`` one parameter at a time with dense derivative matrices.

    Returns a new state and leaves ``gstate`` untouched.
    """
    H, v, X, y = geom.H, geom.v, geom.X, batch.y
    c = spec.noise_scale
    Vinv_y = y / v
    VinvH = H / v[:, None]
    d_eta, d_Lambda, d_psi = gstate.d_eta.copy(), gstate.d_Lambda.copy(), gstate.d_psi.copy()
    drop_carried = ignore_history and gstate.k >= 1
    for i in range(h.n_params):
        cls = h.param_class(i)
        carried = 0.0
        if not drop_carried:
            carried = float(adj.L_deta @ gstate.d_eta[i]) + float(
                np.sum(adj.L_dLambda * gstate.d_Lambda[i])
            )
        if cls[0] == CLASS_LOG_SIGMA_N:
            d_psi[i] += -0.5 * (carried + adj.L_dsigman)
            if not ignore_history:
                s = -2.0 * h.noise_variance / v**2  # dV^-1/dlog sigma_n
                d_eta[i] += H.T @ (s * y)
                d_Lambda[i] = symmetrize(d_Lambda[i] + (H.T * s[None, :]) @ H)
            continue
        Kdot_RR = _kdot_RR(h, i)
        Kdot_XR = kernel_matrix_grad(
            X, h.inducing_inputs, h, i, b_is_inducing=cls[0] == CLASS_INDUCING
        )
        if cls[0] == CLASS_LOG_SIGMA0:
            kdot_XX = 2.0 * kernel_diag(X, h)
        else:
            kdot_XX = np.zeros(X.shape[0])  # lengthscales and R leave diag(K_XX) fixed
        direct = (
            float(np.sum(adj.L_dK_RR * Kdot_RR))
            + float(np.sum(adj.L_dK_XR * Kdot_XR))
            + float(adj.L_dk_XX @ kdot_XX)
        )
        d_psi[i] += -0.5 * (carried + direct)
        if not ignore_history:
            HKdot = H @ Kdot_RR
            Hdot = cho_solve(geom.prior, (Kdot_XR - HKdot).T).T
            d_eta[i] += Hdot.T @ Vinv_y
            cross = Hdot.T @ VinvH
            d_Lambda[i] += cross + cross.T
            if c != 0.0:
                ddot = kdot_XX - 2.0 * np.sum(H * Kdot_XR, axis=1) + np.sum(HKdot * H, axis=1)
                s = -c * ddot / v**2
                d_eta[i] += H.T @ (s * y)
                d_Lambda[i] += (H.T * s[None, :]) @ H
            d_Lambda[i] = symmetrize(d_Lambda[i])
    return GradientState(d_eta=d_eta, d_Lambda=d_Lambda, d_psi=d_psi, k=gstate.k + 1)
