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

Each parameter class (log sigma0, the D log-lengthscales, log sigma_n, the
M*D inducing coordinates) is one block of array code over all its members,
and all share one tail: s = -vdot / v^2, the noise terms H^T diag(s) H, the
carried terms as one contraction, and a finiteness check naming the first
bad parameter.  ``tests/conftest.py`` keeps the per-parameter dense
recursion as the reference.  The gradient state is single-writer alongside
its posterior, so :func:`propagate` advances it in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NumericalError
from .inference import PARAM_STANDARD, KalmanIntermediates, MiniBatch, PosteriorState
from .kernel import Hyperparameters, kernel_diag
from .model import BatchGeometry, ModelSpec, prior

# Parameters per block of the in-place Lambda_dot updates, which bounds
# their (BLOCK, M, M) temporaries.
BLOCK = 8


@dataclass
class GradientState:
    """Running derivatives of (eta, Lambda, psi) for every parameter, in the
    order of :meth:`~streamgp.kernel.Hyperparameters.to_vector`.

    :func:`propagate` advances ``d_eta`` and ``d_Lambda`` in place and
    returns them in the new state; ``d_psi`` is a fresh array at every step,
    so two successive states' ``d_psi`` differ by that step's gradient.
    """

    d_eta: np.ndarray  # (P, M)
    d_Lambda: np.ndarray  # (P, M, M)
    d_psi: np.ndarray  # (P,)
    k: int = 0

    @property
    def n_params(self) -> int:
        return self.d_psi.size


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


def _require_standard(transformed: bool) -> None:
    if transformed:
        raise ContractViolationError(
            "gradient propagation is defined for the standard parametrization only"
        )


def _kernel_grads(A: np.ndarray, K_AR: np.ndarray, h: Hyperparameters) -> tuple:
    """Derivatives of K_AR = k(A, R), stacked over the input dimension d.

    Returns ``(dR, dl)``, both (n, M, D): ``dR[:, m, d]`` is column m of
    dK_AR/dR[m][d] (its only nonzero column unless A is R itself) and
    ``dl[..., d]`` is dK_AR/dlog l_d.
    """
    diff = A[:, None, :] - h.inducing_inputs[None, :, :]
    dR = K_AR[:, :, None] * diff / h.lengthscales**2
    return dR, dR * diff


def _add_symmetric_products(dst: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """dst[p] += X_p + X_p^T with X_p = left[p] @ right[p], in place.

    Adding X + X^T keeps a symmetric ``dst`` exactly symmetric.
    """
    for lo in range(0, len(dst), BLOCK):
        X = left[lo : lo + BLOCK] @ right[lo : lo + BLOCK]
        dst[lo : lo + BLOCK] += X + X.swapaxes(1, 2)


def _add_noise_terms(dst: np.ndarray, s: np.ndarray, H: np.ndarray) -> None:
    """dst[p] += H^T diag(s[p]) H for every row p of ``s``, in place.

    Row i of every parameter's term, from the diagonal on, is one matrix
    product with the Khatri-Rao columns H_bi H_bj (j >= i), so no
    (B, M (M + 1) / 2) array of them is ever held.  Each row is mirrored into
    column i, so ``dst`` stays exactly symmetric.
    """
    for i in range(H.shape[1]):
        row = s @ (H[:, i : i + 1] * H[:, i:])
        dst[:, i, i:] += row
        dst[:, i + 1 :, i] += row[:, 1:]


def init_gradient_state(h: Hyperparameters, spec: ModelSpec) -> GradientState:
    """Derivatives of the prior state: eta_dot = 0, psi_dot = 0 and

        Lambda_dot_0 = -K_RR^-1 Kdot_RR K_RR^-1

    which is nonzero exactly for the parameters K_RR depends on (amplitude,
    lengthscales, inducing coordinates) and zero for log sigma_n.
    """
    P, M, D = h.n_params, h.num_inducing, h.input_dim
    p = prior(h)
    beta, dRR_l = _kernel_grads(h.inducing_inputs, p.K_RR, h)
    d_Lambda = np.zeros((P, M, M))
    d_Lambda[0] = -2.0 * p.inv  # Kdot_RR = 2 K_RR
    # K^-1 Kdot_d K^-1 for every lengthscale: two solves, D right-hand sides each.
    first = p.chol.solve(dRR_l.transpose(0, 2, 1).reshape(M, D * M)).reshape(M, D, M)
    both = p.chol.solve(first.transpose(2, 1, 0).reshape(M, D * M)).reshape(M, D, M)
    d_Lambda[1 : D + 1] = -0.5 * (both.transpose(1, 0, 2) + both.transpose(1, 2, 0))
    # Inducing coordinates: -(w_m kb^T + kb w_m^T) with kb = K^-1 beta.
    w = np.repeat(p.inv, D, axis=0)  # row m*D + d holds w_m
    kb = (p.inv @ beta.reshape(M, M * D)).T
    _add_symmetric_products(d_Lambda[D + 2 :], -w[:, :, None], kb[:, None, :])
    return GradientState(d_eta=np.zeros((P, M)), d_Lambda=d_Lambda, d_psi=np.zeros(P), k=0)


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

    mu_prev = state_prev.mu
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
) -> GradientState:
    """Advance the gradient recursion across one absorbed mini-batch.

    ``gstate.d_eta`` and ``gstate.d_Lambda`` are advanced in place and
    shared with the returned state, so ``gstate`` is spent afterwards
    except for its ``d_psi`` and ``k``.

    With ``ignore_history`` the parameter-dependence of the carried
    posterior is dropped: psi_dot treats (eta_{k-1}, Lambda_{k-1}) as
    constants once they contain data, reproducing the naive stochastic
    gradient that forgets how past batches shaped the posterior.  On the
    first batch the carried state is the prior itself, not history, so
    both modes coincide there; the derivative state is never advanced in
    this mode.
    """
    _require_standard(geom.transformed)
    P, D = h.n_params, h.input_dim
    beta, dRR_l = _kernel_grads(h.inducing_inputs, geom.prior.K_RR, h)
    gamma, dXR_l = _kernel_grads(geom.X, geom.K_XR, h)

    # Direct terms <L_dK_RR, Kdot_RR> + <L_dK_XR, Kdot_XR> + <L_dk_XX, kdot_XX>
    # and L_dsigma_n.  Lengthscales and inducing coordinates leave diag(K_XX)
    # fixed; for R[m][d], Kdot_RR = e_m beta^T + beta e_m^T and Kdot_XR = gamma e_m^T.
    L_RR, L_XR = adj.L_dK_RR, adj.L_dK_XR
    direct = np.empty(P)
    direct[0] = 2.0 * (
        np.vdot(L_RR, geom.prior.K_RR)
        + np.vdot(L_XR, geom.K_XR)
        + adj.L_dk_XX @ kernel_diag(geom.X, h)
    )
    direct[1 : D + 1] = L_RR.ravel() @ dRR_l.reshape(-1, D) + L_XR.ravel() @ dXR_l.reshape(-1, D)
    direct[D + 1] = adj.L_dsigman
    direct[D + 2 :] = (
        np.einsum("mj,jmd->md", L_RR + L_RR.T, beta) + np.einsum("bm,bmd->md", L_XR, gamma)
    ).ravel()

    # The carried-sensitivity terms <L_deta, eta_dot> + <L_dLambda, Lambda_dot>
    # are dropped by the ablation as soon as the carried state holds data.
    if ignore_history and gstate.k >= 1:
        carried = 0.0
    else:
        carried = gstate.d_eta @ adj.L_deta + gstate.d_Lambda.reshape(P, -1) @ adj.L_dLambda.ravel()
    d_psi = gstate.d_psi - 0.5 * (carried + direct)
    bad = np.flatnonzero(~np.isfinite(d_psi))
    if bad.size:
        raise NumericalError(
            f"non-finite gradient for {h.param_label(int(bad[0]))} at mini-batch {gstate.k + 1}"
        )
    if not ignore_history:
        _advance(gstate, geom, h, spec, batch.y, beta, dRR_l, gamma, dXR_l)
    return GradientState(d_eta=gstate.d_eta, d_Lambda=gstate.d_Lambda, d_psi=d_psi, k=gstate.k + 1)


def _advance(
    gstate: GradientState,
    geom: BatchGeometry,
    h: Hyperparameters,
    spec: ModelSpec,
    y: np.ndarray,
    beta: np.ndarray,
    dRR_l: np.ndarray,
    gamma: np.ndarray,
    dXR_l: np.ndarray,
) -> None:
    """Add one batch to eta_dot and Lambda_dot of every parameter, in place:

        eta_dot    += Hdot^T V^-1 y + H^T diag(s) y
        Lambda_dot += Hdot^T V^-1 H + H^T V^-1 Hdot + H^T diag(s) H

    with s = -vdot / v^2 the derivative of V^-1 and vdot = c ddot, plus
    2 sigma_n^2 for log sigma_n.
    """
    H, v, chol, Kinv = geom.H, geom.v, geom.prior.chol, geom.prior.inv
    B, M = H.shape
    P, D = h.n_params, h.input_dim
    lengthscales, inducing = slice(1, D + 1), slice(D + 2, P)
    Vinv_y, VinvH = y / v, H / v[:, None]
    eta_inc = np.zeros((P, M))
    s = np.zeros((P, B))  # ddot, then -vdot / v^2

    # log sigma0: Hdot = 0 and ddot = 2d.
    s[0] = 2.0 * geom.d

    # Lengthscales: Hdot_d^T = K^-1 (Kdot_XR - H Kdot_RR)^T, all d from one solve.
    HK = (H @ dRR_l.reshape(M, M * D)).reshape(B, M, D)
    s[lengthscales] = np.einsum("bm,bmd->db", H, HK - 2.0 * dXR_l)
    rhs = (dXR_l - HK).transpose(1, 2, 0).reshape(M, D * B)
    Hdot_T = chol.solve(rhs).reshape(M, D, B).transpose(1, 0, 2)
    eta_inc[lengthscales] = Hdot_T @ Vinv_y
    _add_symmetric_products(
        gstate.d_Lambda[lengthscales], Hdot_T, np.broadcast_to(VinvH, (D, B, M))
    )
    del HK, rhs, Hdot_T

    # Inducing coordinates: Hdot = u w_m^T - h_m kb^T with u = gamma - H beta,
    # w_m = K^-1 e_m and kb = K^-1 beta; row m*D + d is coordinate R[m][d].
    u = (gamma - (H @ beta.reshape(M, M * D)).reshape(B, M, D)).reshape(B, M * D)
    s[inducing] = -2.0 * (np.repeat(H, D, axis=1) * u).T
    w = np.repeat(Kinv, D, axis=0)
    kb = (Kinv @ beta.reshape(M, M * D)).T
    eta_inc[inducing] = w * (Vinv_y @ u)[:, None] - kb * np.repeat(H.T @ Vinv_y, D)[:, None]
    left = np.stack([w, -kb], axis=2)
    right = np.stack([u.T @ VinvH, np.repeat(H.T @ VinvH, D, axis=0)], axis=1)
    del u
    _add_symmetric_products(gstate.d_Lambda[inducing], left, right)

    # log sigma_n, and the noise term every class shares.  Without the
    # Schur-complement term (c = 0) only log sigma_n moves V.
    c = spec.noise_scale
    s *= c
    s[D + 1] = 2.0 * h.noise_variance
    s /= -(v**2)
    noisy = slice(0, P) if c != 0.0 else slice(D + 1, D + 2)
    eta_inc[noisy] += s[noisy] @ (H * y[:, None])
    gstate.d_eta += eta_inc
    _add_noise_terms(gstate.d_Lambda[noisy], s[noisy], H)
