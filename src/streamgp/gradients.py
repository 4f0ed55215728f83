"""Recursive propagation of bound gradients across mini-batches.

Each update of the streaming bound adds a term

    F_k = -1/2 [ logdet(Lambda_k) - logdet(Lambda_{k-1}) - logdet(V^-1)
                 + r^T S^-1 r + a_k ]

that depends on the parameters both directly (through the kernel matrices
of the current batch) and through the carried posterior (eta_{k-1},
Lambda_{k-1}).  Differentiating the recursion itself gives running
derivatives of the natural parameters,

    eta_dot_k    = eta_dot_{k-1}    + Hdot^T V^-1 y + H^T Vinv_dot y
    Lambda_dot_k = Lambda_dot_{k-1} + Hdot^T V^-1 H + H^T Vinv_dot H
                                    + H^T V^-1 Hdot

and the cumulative bound gradient accumulates

    psi_dot_k = psi_dot_{k-1} - 1/2 [ <L_deta, eta_dot_{k-1}>
                + <L_dLambda, Lambda_dot_{k-1}> + <L_dK_RR, Kdot_RR>
                + <L_dK_XR, Kdot_XR> + <L_dk_XX, kdot_XX>
                + 1[theta = log sigma_n] L_dsigma_n ]

where the L_* adjoints are closed forms in the update's intermediates
(every L_dZ equals -2 dF_k/dZ).  Summed over one full pass at fixed
parameters, psi_dot equals the gradient of the batch lower bound, which
is the correctness contract checked by finite differences in the tests.

The recursion is carried in the standard parametrization
(H = K_XR K_RR^-1, Lambda_0 = K_RR^-1); the adjoint algebra below is
specific to it, so states built with the transformed parametrization are
rejected.  Gradients of log sigma_n are taken directly in log space
(dV/dlog sigma_n = 2 sigma_n^2 I).

Inducing-coordinate derivatives have one-column / one-row-and-column
kernel sparsity which is exploited through rank-one updates; a dense
fallback (``force_dense``) retains the straightforward path for testing.

The per-parameter loop runs sequentially in a fixed order (parameter
slices are independent, so results are reproducible bit for bit); the
gradient state is single-writer alongside its posterior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NumericalError
from .inference import PARAM_STANDARD, KalmanIntermediates, MiniBatch, PosteriorState
from .kernel import (
    CLASS_INDUCING,
    CLASS_LOG_SIGMA0,
    CLASS_LOG_SIGMA_N,
    Hyperparameters,
    inducing_grad_vectors,
    kernel_diag,
    kernel_matrix_grad,
)
from .linalg import symmetrize
from .model import BatchGeometry, ModelSpec, Prior, prior


@dataclass
class GradientState:
    """Running derivatives of (eta, Lambda, psi) per tracked parameter."""

    param_indices: np.ndarray  # (P,) indices into the flat parameter vector
    d_eta: np.ndarray  # (P, M)
    d_Lambda: np.ndarray  # (P, M, M)
    d_psi: np.ndarray  # (P,)
    k: int = 0

    @property
    def n_params(self) -> int:
        return self.param_indices.size


@dataclass
class AdjointIntermediates:
    """Closed-form adjoints of one bound term w.r.t. the update's inputs.

    Convention: each field equals -2 dF_k/d(quantity), so contributions
    enter psi_dot through -1/2 <L, dot-quantity>.
    """

    L_dH: np.ndarray  # (B, M)
    L_dv: np.ndarray  # (B,)
    L_dK_XR: np.ndarray  # (B, M)
    L_dK_RR: np.ndarray  # (M, M)
    L_dk_XX: np.ndarray  # (B,)
    L_dLambda: np.ndarray  # (M, M)
    L_deta: np.ndarray  # (M,)
    L_dsigman: float


def _frob(a: np.ndarray, b: np.ndarray) -> float:
    # sum(a * b) without materializing the elementwise product
    return float(np.einsum("ij,ij->", a, b))


def _require_standard(transformed: bool) -> None:
    if transformed:
        raise ContractViolationError(
            "gradient propagation is defined for the standard parametrization only"
        )


def _kdot_RR(prior_h: Prior, h: Hyperparameters, i: int) -> np.ndarray:
    """Derivative of the factored K_RR (jitter included) w.r.t. parameter ``i``.

    The jitter is a multiple of mean(diag K_RR) = sigma0^2, so the log
    sigma0 derivative is twice the whole factored matrix.
    """
    if h.param_class(i)[0] == CLASS_LOG_SIGMA0:
        return 2.0 * prior_h.K_RR
    R = h.inducing_inputs
    return kernel_matrix_grad(R, R, h, i, a_is_inducing=True, b_is_inducing=True)


def init_gradient_state(
    h: Hyperparameters,
    spec: ModelSpec,
    param_indices: np.ndarray | None = None,
    force_dense: bool = False,
) -> GradientState:
    """Derivatives of the prior state: eta_dot = 0, psi_dot = 0 and

        Lambda_dot_0 = -K_RR^-1 Kdot_RR K_RR^-1

    which is nonzero exactly for the parameters K_RR depends on (amplitude,
    lengthscales, inducing coordinates) and zero for log sigma_n.
    """
    idx = (
        np.arange(h.n_params, dtype=int)
        if param_indices is None
        else np.asarray(param_indices, dtype=int)
    )
    M = h.num_inducing
    R = h.inducing_inputs
    prior_h = prior(h)
    K_RR, factor, Kinv = prior_h.K_RR, prior_h.chol, prior_h.inv
    d_Lambda = np.zeros((idx.size, M, M))
    for p, i in enumerate(idx):
        cls = h.param_class(i)
        if cls[0] == CLASS_LOG_SIGMA_N:
            continue
        if cls[0] == CLASS_INDUCING and not force_dense:
            _, m, d = cls
            beta = K_RR[m, :] * (R[:, d] - R[m, d]) / h.lengthscales[d] ** 2
            kb = Kinv @ beta
            wm = Kinv[:, m]
            d_Lambda[p] = -(np.outer(wm, kb) + np.outer(kb, wm))
        else:
            Kdot = _kdot_RR(prior_h, h, i)
            d_Lambda[p] = -symmetrize(factor.solve(factor.solve(Kdot).T).T)
    return GradientState(
        param_indices=idx,
        d_eta=np.zeros((idx.size, M)),
        d_Lambda=d_Lambda,
        d_psi=np.zeros(idx.size),
        k=0,
    )


def compute_adjoints(
    state_prev: PosteriorState,
    state_new: PosteriorState,
    km: KalmanIntermediates,
    h: Hyperparameters,
    spec: ModelSpec,
) -> AdjointIntermediates:
    """Adjoints of the bound term produced by one update call.

    ``state_prev``/``state_new`` must be the exact pre/post pair of that
    call, with ``km`` its intermediates.
    """
    geom = km.geometry
    _require_standard(geom.transformed or state_prev.parametrization != PARAM_STANDARD)
    if state_new.k != state_prev.k + 1:
        raise ContractViolationError("state_new must be the direct successor of state_prev")
    H, v, d = geom.H, geom.v, geom.d
    B = H.shape[0]
    s_inv_r, t = km.s_inv_r, km.t
    Sigma_prev, Sigma_new = state_prev.Sigma, state_new.Sigma

    mu_prev = Sigma_prev @ state_prev.eta
    Sk_t = Sigma_new @ t  # Sigma_k H^T V^-1 r
    HSk = H @ Sigma_new

    L_dH = 2.0 * (HSk / v[:, None] - np.outer(s_inv_r, mu_prev + Sk_t))

    diag_HSkH = np.sum(HSk * H, axis=1)
    # Gaussian part of the v-adjoint; (r - w)^2 / v^2 == s_inv_r^2.
    L_dv = -(diag_HSkH - v) / v**2 - s_inv_r**2
    if spec.variant == "pep":
        L_dv = L_dv + (1.0 - spec.alpha) / (spec.alpha * v)

    # Chain through d (v = c*d + sigma_n^2, plus VFE's d-dependent a_k).
    L_dd = spec.noise_scale * L_dv
    if spec.variant == "vfe":
        L_dd = L_dd + 1.0 / h.noise_variance

    A2 = geom.prior.chol.solve(L_dH.T).T  # L_dH K_RR^-1
    inner = A2 - L_dd[:, None] * H
    L_dK_XR = A2 - 2.0 * L_dd[:, None] * H
    L_dK_RR = -H.T @ inner
    L_dk_XX = L_dd.copy()

    q = Sigma_prev @ (H.T @ s_inv_r)
    L_dLambda = Sigma_new - Sigma_prev + 2.0 * np.outer(q, mu_prev) + np.outer(Sk_t, Sk_t)
    L_deta = -2.0 * q

    L_dsigman = 2.0 * h.noise_variance * float(np.sum(L_dv))
    if spec.variant == "pep":
        L_dsigman -= 2.0 * B * (1.0 - spec.alpha) / spec.alpha
    elif spec.variant == "vfe":
        L_dsigman -= 2.0 * float(np.sum(d)) / h.noise_variance

    return AdjointIntermediates(
        L_dH=L_dH,
        L_dv=L_dv,
        L_dK_XR=L_dK_XR,
        L_dK_RR=L_dK_RR,
        L_dk_XX=L_dk_XX,
        L_dLambda=L_dLambda,
        L_deta=L_deta,
        L_dsigman=L_dsigman,
    )


def propagate(
    gstate: GradientState,
    adj: AdjointIntermediates,
    geom: BatchGeometry,
    h: Hyperparameters,
    spec: ModelSpec,
    batch: MiniBatch,
    ignore_history: bool = False,
    force_dense: bool = False,
) -> GradientState:
    """Advance the gradient recursion across one absorbed mini-batch.

    With ``ignore_history`` the parameter-dependence of the carried
    posterior is dropped: psi_dot treats (eta_{k-1}, Lambda_{k-1}) as
    constants once they contain data, reproducing the naive stochastic
    gradient that forgets how past batches shaped the posterior.  On the
    first batch the carried state is the prior itself, not history, so
    both modes coincide there; the derivative state is never advanced in
    this mode.
    """
    _require_standard(geom.transformed)
    H, v, X, y = geom.H, geom.v, geom.X, batch.y
    c = spec.noise_scale
    sig_n2 = h.noise_variance
    Vinv_y = y / v
    VinvH = H / v[:, None]

    d_eta = gstate.d_eta if ignore_history else gstate.d_eta.copy()
    d_Lambda = gstate.d_Lambda if ignore_history else gstate.d_Lambda.copy()
    d_psi = gstate.d_psi.copy()

    # The carried-sensitivity terms <L_deta, eta_dot> + <L_dLambda, Lambda_dot>
    # are dropped by the ablation as soon as the carried state holds data.
    drop_carried = ignore_history and gstate.k >= 1

    for p, i in enumerate(gstate.param_indices):
        cls = h.param_class(i)
        if drop_carried:
            carried = 0.0
        else:
            carried = float(adj.L_deta @ gstate.d_eta[p]) + _frob(adj.L_dLambda, gstate.d_Lambda[p])

        if cls[0] == CLASS_LOG_SIGMA_N:
            # All kernel derivatives vanish; only the noise enters.
            d_psi[p] += -0.5 * (carried + adj.L_dsigman)
            if not ignore_history:
                s = -2.0 * sig_n2 / v**2  # dV^-1/dlog sigma_n
                d_eta[p] += H.T @ (s * y)
                d_Lambda[p] = symmetrize(d_Lambda[p] + (H.T * s[None, :]) @ H)
        elif cls[0] == CLASS_INDUCING and not force_dense:
            _, m, d_axis = cls
            gamma, beta = inducing_grad_vectors(X, h, geom.K_XR, geom.prior.K_RR, m, d_axis)
            direct = (
                float((adj.L_dK_RR[m, :] + adj.L_dK_RR[:, m]) @ beta)
                + float(adj.L_dK_XR[:, m] @ gamma)
            )
            d_psi[p] += -0.5 * (carried + direct)
            if not ignore_history:
                # Hdot = u1 w_m^T - h_m (K^-1 beta)^T  (rank two)
                Kinv = geom.prior.inv
                u1 = gamma - H @ beta
                w_m = Kinv[:, m]
                kb = Kinv @ beta
                h_m = H[:, m]
                d_eta[p] += w_m * float(u1 @ Vinv_y) - kb * float(h_m @ Vinv_y)
                half = np.outer(w_m, u1 @ VinvH) - np.outer(kb, h_m @ VinvH)
                d_Lambda[p] += half + half.T
                if c != 0.0:
                    ddot = -2.0 * h_m * u1
                    s = -c * ddot / v**2
                    d_eta[p] += H.T @ (s * y)
                    d_Lambda[p] += (H.T * s[None, :]) @ H
                d_Lambda[p] = symmetrize(d_Lambda[p])
        else:
            is_inducing = cls[0] == CLASS_INDUCING
            Kdot_RR = _kdot_RR(geom.prior, h, i)
            Kdot_XR = kernel_matrix_grad(X, h.inducing_inputs, h, i, b_is_inducing=is_inducing)
            if cls[0] == CLASS_LOG_SIGMA0:
                kdot_XX = 2.0 * kernel_diag(X, h)
            else:
                kdot_XX = np.zeros(X.shape[0])  # lengthscales and R leave diag(K_XX) fixed
            direct = (
                _frob(adj.L_dK_RR, Kdot_RR)
                + _frob(adj.L_dK_XR, Kdot_XR)
                + float(adj.L_dk_XX @ kdot_XX)
            )
            d_psi[p] += -0.5 * (carried + direct)
            if not ignore_history:
                HKdot = H @ Kdot_RR
                Hdot = geom.prior.chol.solve((Kdot_XR - HKdot).T).T
                d_eta[p] += Hdot.T @ Vinv_y
                cross = Hdot.T @ VinvH
                d_Lambda[p] += cross + cross.T
                if c != 0.0:
                    ddot = kdot_XX - 2.0 * np.sum(H * Kdot_XR, axis=1) + np.sum(HKdot * H, axis=1)
                    s = -c * ddot / v**2
                    d_eta[p] += H.T @ (s * y)
                    d_Lambda[p] += (H.T * s[None, :]) @ H
                d_Lambda[p] = symmetrize(d_Lambda[p])

        if not np.isfinite(d_psi[p]):
            raise NumericalError(
                f"non-finite gradient for {h.param_label(i)} at mini-batch {gstate.k + 1}"
            )

    return GradientState(
        param_indices=gstate.param_indices,
        d_eta=d_eta,
        d_Lambda=d_Lambda,
        d_psi=d_psi,
        k=gstate.k + 1,
    )
