"""Recursive Bayesian inference for the weight-space sparse GP model.

The posterior over the inducing outputs is propagated in natural
parameters

    eta_k    = eta_{k-1}    + H_k^T V_k^-1 y_k
    Lambda_k = Lambda_{k-1} + H_k^T V_k^-1 H_k

which is the information-filter form of the Kalman update: precision and
precision-weighted mean accumulate additively, so the result after K
mini-batches is independent of their order and equals the batch posterior.

Two parametrizations are supported.  The standard one uses
H = K_XR K_RR^-1 with prior precision Lambda_0 = K_RR^-1; the transformed
one uses H = K_XR with Lambda_0 = K_RR, avoiding the per-batch solve.
Predictions and the accumulated lower bound agree in exact arithmetic,
not in precision: at cond(K_RR) ~ 1e9 the transformed Sigma has entries
of about 2e7, and its predictive variance taken two ways (dense
H Sigma H^T, and through the whitened rows) differs by 6.2e-5 relative,
against 3.5e-15 for the standard state.

Predictions are per-row marginals only: each test row's mean H_* mu_k and
variance H_* Sigma_k H_*^T + [V_*]_ii.  They are taken through the whitened
rows A_* = K_*R L^-T (K_RR = L L^T), as H_* = A_* W for a fixed M x M
matrix W of the parametrization, so the basis itself is never formed, and
each row costs two triangular products (see :func:`predict`).  Rows go in
blocks of ``BLOCK``, so memory is O(BLOCK * M) however many rows are
predicted.

Updates are functional (they return a fresh state), so a posterior is
safe to hand between threads as long as a single stream of updates owns
it; predictions and bound reads change nothing but what the posterior
(its mean and predictive factor) and the parameter object (the prior and
the kernel's inducing side) keep, which every reader computes identically.

Each update also appends one term of the streaming collapsed lower bound

    psi_k = psi_{k-1} - (B/2) log 2pi
            - 1/2 [ logdet(Lambda_k) - logdet(Lambda_{k-1}) - logdet(V_k^-1)
                    + r_k^T S_k^-1 r_k + a_k ]

where r_k is the innovation, S_k = H_k Sigma_{k-1} H_k^T + V_k its
covariance (handled implicitly through S_k^-1 = V^-1 - V^-1 H Sigma_k H^T V^-1,
so no B x B matrix is ever formed), and a_k the variant regularizer.
After one pass over all data at fixed parameters, psi equals the batch
lower bound of the selected variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolationError, IllConditionedError, NumericalError
from ._lapack import dtrmm
from .kernel import Hyperparameters, _check_inputs, as_xy, kernel_matrix
from .linalg import chol_with_jitter, symmetrize
from .model import BatchGeometry, ModelSpec, batch_geometry, prior, regularizer, schur_diagonal

PARAM_STANDARD = "standard"
PARAM_TRANSFORMED = "transformed"
LOG_2PI = float(np.log(2.0 * np.pi))

# Test rows per block of :func:`predict`, which bounds its working set to one (M, BLOCK) array.
BLOCK = 1024


@dataclass(frozen=True)
class MiniBatch:
    """One block of training data."""

    X: np.ndarray  # (B, D)
    y: np.ndarray  # (B,)

    def __post_init__(self):
        X, y = as_xy(self.X, self.y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def size(self) -> int:
        return self.y.size


@dataclass(frozen=True)
class PosteriorState:
    """Gaussian posterior over inducing outputs in natural parameters.

    ``Sigma`` caches Lambda^-1 (refreshed from a Cholesky factorization at
    every update) and ``mu`` is Sigma @ eta, formed on first use and kept;
    ``psi`` is the accumulated streaming lower bound and ``k`` counts
    absorbed mini-batches.

    ``_predictive`` keeps :func:`predict`'s whitened mean and covariance
    factor (m, G) for the last ``Hyperparameters`` object it was called
    with, together with that object: a state never changes, and neither
    does a parameter object, so the pair is built once and read-only.  It
    is no part of the posterior's value: it is not an ``__init__``
    argument, not compared, not shown and not saved to a checkpoint, and
    ``dataclasses.replace`` returns a state without it.
    """

    eta: np.ndarray  # (M,)
    Lambda: np.ndarray  # (M, M)
    Sigma: np.ndarray  # (M, M)
    logdet_Lambda: float
    psi: float
    k: int
    parametrization: str
    _predictive: object = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def mu(self) -> np.ndarray:
        """Posterior mean Sigma @ eta in the state's parametrization."""
        return self.Sigma @ self.eta


@dataclass
class KalmanIntermediates:
    """Innovation quantities from one update, kept for the gradient
    recursion.

    Only O(B) / O(M) pieces are stored; H and diag(V) live in ``geometry``
    and the covariances in the pre/post states of the update, so no B x B
    matrix is ever formed.
    """

    t: np.ndarray  # H^T V^-1 r (M,)
    s_inv_r: np.ndarray  # S_k^-1 r (B,)
    geometry: BatchGeometry


@dataclass(frozen=True)
class PredictiveDistribution:
    """Predictive marginals of each test row; no joint covariance is formed."""

    mean: np.ndarray  # (A,)
    variance: np.ndarray  # (A,)
    includes_observation_noise: bool


def init_state(
    h: Hyperparameters, spec: ModelSpec, parametrization: str = PARAM_STANDARD
) -> PosteriorState:
    """Prior state before any data.

    Standard parametrization: Sigma_0 = K_RR, Lambda_0 = K_RR^-1.
    Transformed: Sigma_0 = K_RR^-1, Lambda_0 = K_RR.  Both come from the
    shared :func:`~streamgp.model.prior`, jitter included, so they are an
    exact inverse pair.  psi starts at 0 and collects a -(B/2) log 2pi
    constant with every batch, which sums to the usual -(N/2) log 2pi
    without requiring N up front.
    """
    if parametrization not in (PARAM_STANDARD, PARAM_TRANSFORMED):
        raise ContractViolationError(f"unknown parametrization {parametrization!r}")
    p = prior(h)
    standard = parametrization == PARAM_STANDARD
    return PosteriorState(
        eta=np.zeros(h.num_inducing),
        Lambda=p.inv if standard else p.matrix,
        Sigma=p.matrix if standard else p.inv,
        logdet_Lambda=-p.logdet if standard else p.logdet,
        psi=0.0,
        k=0,
        parametrization=parametrization,
    )


def update(
    state: PosteriorState,
    batch: MiniBatch,
    h: Hyperparameters,
    spec: ModelSpec,
) -> tuple[PosteriorState, KalmanIntermediates]:
    """Absorb one mini-batch into the posterior and the bound."""
    try:
        geom = batch_geometry(
            batch.X, h, spec, transformed=state.parametrization == PARAM_TRANSFORMED
        )
    except IllConditionedError as err:
        raise IllConditionedError(
            err.matrix_name, f"update of mini-batch {state.k + 1}: {err}"
        ) from None
    return update_with_geometry(state, batch, geom, h, spec)


def update_with_geometry(
    state: PosteriorState,
    batch: MiniBatch,
    geom: BatchGeometry,
    h: Hyperparameters,
    spec: ModelSpec,
) -> tuple[PosteriorState, KalmanIntermediates]:
    """Update path for callers that already built the batch geometry."""
    H, v = geom.H, geom.v
    y = batch.y
    a_k = regularizer(geom.d, spec, h)

    r = y - H @ state.mu
    eta_new = state.eta + H.T @ (y / v)
    Lambda_new = symmetrize(state.Lambda + (H.T / v[None, :]) @ H)
    try:
        factor = chol_with_jitter(Lambda_new, "Lambda")
    except IllConditionedError as err:
        raise IllConditionedError("Lambda", f"update of mini-batch {state.k + 1}: {err}") from None
    Sigma_new = factor.inv
    logdet_new = factor.logdet

    t = H.T @ (r / v)
    w = H @ (Sigma_new @ t)
    s_inv_r = (r - w) / v
    quad = float(r @ s_inv_r)
    logdet_V_inv = -float(np.sum(np.log(v)))

    psi_new = state.psi - 0.5 * (
        batch.size * LOG_2PI
        + logdet_new
        - state.logdet_Lambda
        - logdet_V_inv
        + quad
        + a_k
    )
    if not np.isfinite(psi_new):
        raise NumericalError(f"non-finite bound term at mini-batch {state.k + 1}")

    new_state = PosteriorState(
        eta=eta_new,
        Lambda=factor.matrix,  # jitter included, so that Lambda and Sigma stay an inverse pair
        Sigma=Sigma_new,
        logdet_Lambda=logdet_new,
        psi=psi_new,
        k=state.k + 1,
        parametrization=state.parametrization,
    )
    km = KalmanIntermediates(t=t, s_inv_r=s_inv_r, geometry=geom)
    return new_state, km


def predict(
    state: PosteriorState,
    X_star: np.ndarray,
    h: Hyperparameters,
    spec: ModelSpec,
    with_noise: bool = False,
) -> PredictiveDistribution:
    """Predictive marginals of the latent function (or noisy targets).

    For each row, mean = H_* mu_k and variance = H_* Sigma_k H_*^T + d_*,
    with d_* the clamped Schur diagonal (K_** - Q_** on the diagonal; left
    out for SoR) and ``with_noise`` adding sigma_n^2.  The basis is written
    as H_* = A_* W in the whitened rows A_* = K_*R L^-T, with W = L^-1 for
    the standard parametrization (H_* = K_*R K_RR^-1) and W = L^T for the
    transformed one (H_* = K_*R).  So once per posterior and parameter
    object (kept on ``state``, see :class:`PosteriorState`)

        m = W mu_k,    C = W Sigma_k W^T = G G^T,

    C being the whitened posterior covariance (eigenvalues in (0, 1]) and G
    its lower Cholesky factor.  The kernel's inducing side is kept on ``h``
    (see :func:`~streamgp.kernel.kernel_matrix`), so a block does only
    per-row work.  Per block of rows, two triangular products run in place
    in the buffer of K_*R^T: A_*^T = L^-1 K_R*, which gives
    d_* (:func:`~streamgp.model.schur_diagonal`) and

        mean = A_* m,

    and then G^T A_*^T, whose squared columns sum to the quadratic form

        variance = colsum((G^T A_*^T)^2) [+ d_*],

    a sum of squares, so never negative; both are written straight into
    the returned arrays.  That is 2 M^2 flops a row for the two, and one
    (M, rows) array alive per block.  Rows are taken
    ``BLOCK`` at a time, so memory is O(BLOCK * M).
    """
    X_star = _check_inputs(X_star, h, "X_star")
    p = prior(h)
    m, G = _predictive_factor(state, h)
    mean = np.empty(X_star.shape[0])
    variance = np.empty(X_star.shape[0])
    for lo in range(0, X_star.shape[0], BLOCK):
        rows = slice(lo, lo + BLOCK)
        A_T = dtrmm(1.0, p.L_inv, kernel_matrix(X_star[rows], h.inducing_inputs, h).T, overwrite_b=1)
        d = schur_diagonal(A_T, h)
        np.matmul(A_T.T, m, out=mean[rows])
        dtrmm(1.0, G, A_T, trans_a=1, overwrite_b=1)
        np.einsum("ij,ij->j", A_T, A_T, out=variance[rows])
        if spec.variant != "sor":
            variance[rows] += d
        del A_T  # before the next block allocates its own
    if with_noise:
        variance += h.noise_variance
    return PredictiveDistribution(mean=mean, variance=variance, includes_observation_noise=with_noise)


def _predictive_factor(state: PosteriorState, h: Hyperparameters) -> tuple[np.ndarray, np.ndarray]:
    """m = W mu_k and the lower Cholesky factor G of C = W Sigma_k W^T
    (see :func:`predict`), built on the first call for ``h`` and then kept
    on ``state``, read-only, until a call with another ``h`` object."""
    kept = state._predictive
    if kept is None or kept[0] is not h:
        p = prior(h)
        W = p.L.T if state.parametrization == PARAM_TRANSFORMED else p.L_inv
        m = W @ state.mu
        C = W @ state.Sigma @ W.T
        G = np.asfortranarray(chol_with_jitter(C, "whitened posterior covariance").L)
        m.flags.writeable = False
        G.flags.writeable = False
        kept = (h, m, G)
        object.__setattr__(state, "_predictive", kept)
    return kept[1], kept[2]


def split_into_batches(n: int, batch_size: int, order: np.ndarray | None = None) -> list[np.ndarray]:
    """Index blocks of size ``batch_size`` (last one may be smaller)."""
    if batch_size < 1:
        raise ContractViolationError("batch_size must be >= 1")
    idx = np.arange(n) if order is None else np.asarray(order)
    return [idx[i : i + batch_size] for i in range(0, n, batch_size)]
