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

Every Lambda_dot_p is symmetric, so the state keeps only its upper
triangle, packed row by row in ``np.triu_indices(M)`` order: d_Lambda is
(P, M (M + 1) / 2), and <L, Lambda_dot_p> weighs each packed entry (i, j)
by L_ij and, off the diagonal, also by L_ji.

Each parameter class (log sigma0, the D log-lengthscales, log sigma_n, the
M*D inducing coordinates) is one block of array code over all its members.
Every term of a step is a sum over batch rows, so :func:`propagate` walks
the batch in blocks of rows: it sums the kernel derivatives against
V^-1 [H, y] over the blocks, applies K_RR^-1 and the K_RR derivatives to
the sums once to form the symmetric products, and adds the noise terms
H^T diag(s) H, with s = -vdot / v^2, as one matrix product per ``ROWS``
rows into the state.  Its working memory is therefore bounded
independently of the batch size.  ``tests/conftest.py`` keeps the
per-parameter dense recursion as the reference.  The gradient state is
single-writer alongside its posterior, so :func:`propagate` advances it in
place.

Products K_RR^-1 B, the inducing coordinates' kb = K^-1 beta included, go
through the prior factor's L^-1 (:meth:`streamgp.linalg.CholFactor.solve`,
which says why); its dense inverse serves only Lambda_0, its log sigma0
derivative -2 K^-1 and the inducing coordinates' w_m = K^-1 e_m, its rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._lapack import dgemm
from .errors import ContractViolationError, NumericalError
from .inference import PARAM_STANDARD, KalmanIntermediates, MiniBatch, PosteriorState
from .kernel import Hyperparameters, kernel_diag
from .linalg import CholFactor
from .model import BatchGeometry, ModelSpec, prior

# Parameters per block of the symmetric products, which bounds their
# (BLOCK, M, M) temporaries.
BLOCK = 8
# Batch rows per Khatri-Rao block of the noise terms, which bounds that
# (ROWS, M (M + 1) / 2) temporary.  propagate walks the batch 2 ROWS rows
# at a time, which bounds its (2 ROWS, P) and (2 ROWS, 2 M D + M) buffers.
ROWS = 64


@dataclass
class GradientState:
    """Running derivatives of (eta, Lambda, psi) for every parameter, in the
    order of :meth:`~streamgp.kernel.Hyperparameters.to_vector`.

    ``d_Lambda[p]`` is the upper triangle of the symmetric Lambda_dot_p,
    packed row by row in ``np.triu_indices(M)`` order.  :func:`propagate`
    advances ``d_eta`` and ``d_Lambda`` in place and returns them in the new
    state; ``d_psi`` is a fresh array at every step, so two successive
    states' ``d_psi`` differ by that step's gradient.  ``d_Lambda`` is
    C-contiguous float64, as :func:`init_gradient_state` builds it, so that
    BLAS adds the noise terms into its rows in place.
    """

    d_eta: np.ndarray  # (P, M)
    d_Lambda: np.ndarray  # (P, M (M + 1) / 2)
    d_psi: np.ndarray  # (P,)
    k: int = 0


@dataclass
class AdjointIntermediates:
    """Closed-form adjoints of one bound term w.r.t. the update's inputs.

    Convention: each field equals -2 dF_k/d(quantity), so contributions
    enter psi_dot through -1/2 <L, dot-quantity>.
    """

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


@functools.cache
def _packing(M: int) -> tuple:
    """Index arrays of the packed layout for M x M matrices, read-only.

    Returns ``(iu, ju, upper, lower, diag)``: the row and column of every
    packed entry (``np.triu_indices(M)``), the flat positions iu * M + ju of
    the entries and ju * M + iu of their mirrors, and the packed positions
    of the diagonal.
    """
    iu, ju = np.triu_indices(M)
    arrays = (iu, ju, iu * M + ju, ju * M + iu, np.flatnonzero(iu == ju))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _row_blocks(n: int, rows: int = ROWS):
    """Slices of ``rows`` consecutive rows covering ``range(n)``."""
    return (slice(lo, lo + rows) for lo in range(0, n, rows))


def _kernel_grads(
    A: np.ndarray, K_AR: np.ndarray, h: Hyperparameters, out: np.ndarray | None = None
) -> np.ndarray:
    """Derivatives of K_AR = k(A, R), transposed and stacked over the input
    dimension d, as (2, M, D, n), written into ``out`` when given:
    ``[0, m, d]`` is column m of dK_AR/dR[m][d] (its only nonzero column
    unless A is R itself) and ``[1, :, d]`` is (dK_AR/dlog l_d)^T.  The rows
    of A run along the last axis, so every broadcast is over a long axis.
    """
    (n, M), D = K_AR.shape, A.shape[1]
    if out is None:
        out = np.empty((2, M, D, n))
    dR, dl = out
    np.subtract(np.ascontiguousarray(A.T), h.inducing_inputs[:, :, None], out=dl)
    np.multiply(np.ascontiguousarray(K_AR.T)[:, None, :], dl, out=dR)
    dR /= (h.lengthscales**2)[:, None]
    dl *= dR
    return out


def _add_symmetrized(dst: np.ndarray, X: np.ndarray) -> None:
    """dst[p] += packed(X_p + X_p^T) for (n, M, M) ``X``, in place."""
    _, _, upper, lower, _ = _packing(X.shape[1])
    flat = X.reshape(len(X), -1)
    packed = np.take(flat, upper, axis=1)
    packed += np.take(flat, lower, axis=1)
    dst += packed


def _add_symmetric_products(dst: np.ndarray, A: np.ndarray) -> None:
    """dst[p] += packed(A_p J A_p^T) in place for (n, M, 2 r) ``A``, with J
    the exchange matrix: A_p = [a_1 .. a_2r] adds the symmetric sum of
    a_k a_(2r+1-k)^T over k.  The products are formed ``BLOCK`` parameters
    at a time."""
    upper = _packing(A.shape[1])[2]
    right = A[:, :, ::-1].transpose(0, 2, 1)
    for lo in range(0, len(dst), BLOCK):
        X = A[lo : lo + BLOCK] @ right[lo : lo + BLOCK]
        dst[lo : lo + BLOCK] += np.take(X.reshape(len(X), -1), upper, axis=1)


def _khatri_rao_t(H: np.ndarray) -> np.ndarray:
    """The (M (M + 1) / 2, n) transpose of the packed Khatri-Rao product
    KR[b, t] = H[b, iu_t] H[b, ju_t] of (n, M) ``H``, gathered from H^T.  The
    second factor is gathered a quarter of the entries at a time, so its
    temporary is a quarter of the size of the result."""
    iu, ju = _packing(H.shape[1])[:2]
    Ht = np.ascontiguousarray(H.T)
    KR_t = np.take(Ht, iu, axis=0)
    step = -(-iu.size // 4)
    for lo in range(0, iu.size, step):
        KR_t[lo : lo + step] *= np.take(Ht, ju[lo : lo + step], axis=0)
    return KR_t


def _add_noise_terms(dst: np.ndarray, s: np.ndarray, H: np.ndarray) -> None:
    """dst[p] += packed(H^T diag(s[p]) H) for every row p of ``s``, in place.

    For each block of ``ROWS`` batch rows, one gemm at beta = 1 adds
    s_block @ KR, with KR the block's packed Khatri-Rao product, into
    ``dst`` through its Fortran-ordered transpose, so ``dst`` must be
    C-contiguous float64 (a row range of the state).  BLAS writes into it
    directly, and no (P, M (M + 1) / 2) temporary is formed.
    """
    for rows in _row_blocks(H.shape[0]):
        s_block = np.ascontiguousarray(s[:, rows])
        KR = _khatri_rao_t(H[rows]).T
        dgemm(1.0, KR, s_block.T, beta=1.0, c=dst.T, trans_a=1, overwrite_c=1)
        del KR  # before the next block's is formed


def _inducing_directions(p: CholFactor, KG: np.ndarray, D: int) -> tuple[np.ndarray, np.ndarray]:
    """w_m = K^-1 e_m and -kb = -K^-1 beta (through the inverse factor) of
    each inducing coordinate R[m][d], as row m*D + d of two (M D, M) arrays;
    ``KG`` is :func:`_kernel_grads` of K_RR."""
    M = len(p.L)
    neg_kb = p.solve(KG[0].reshape(M * D, M).T).T
    np.negative(neg_kb, out=neg_kb)
    return np.repeat(p.inv, D, axis=0), neg_kb


def init_gradient_state(
    h: Hyperparameters, spec: ModelSpec, *, reuse: GradientState | None = None
) -> GradientState:
    """Derivatives of the prior state: eta_dot = 0, psi_dot = 0 and

        Lambda_dot_0 = -K_RR^-1 Kdot_RR K_RR^-1

    which is nonzero exactly for the parameters K_RR depends on (amplitude,
    lengthscales, inducing coordinates) and zero for log sigma_n.

    With ``reuse``, a spent state of the same shape, the new state is built
    in its ``d_eta`` and ``d_Lambda`` arrays (the same bits as fresh ones),
    so a training loop keeps one derivative state's memory from epoch to
    epoch instead of freeing it and mapping it again.
    """
    P, M, D = h.n_params, h.num_inducing, h.input_dim
    p = prior(h)
    KG = _kernel_grads(h.inducing_inputs, p.matrix, h)
    upper = _packing(M)[2]
    if reuse is None:
        d_eta, d_Lambda = np.zeros((P, M)), np.zeros((P, upper.size))
    elif reuse.d_eta.shape == (P, M) and reuse.d_Lambda.shape == (P, upper.size):
        d_eta, d_Lambda = reuse.d_eta, reuse.d_Lambda
        d_eta.fill(0.0)
        d_Lambda.fill(0.0)
    else:
        raise ContractViolationError(f"cannot reuse a derivative state of another shape for P={P}, M={M}")
    d_Lambda[0] = -2.0 * np.take(p.inv, upper)  # Kdot_RR = 2 K_RR
    # K^-1 Kdot_d K^-1 for every lengthscale: K^-1 applied to D right-hand
    # sides at once, twice.
    first = p.solve(KG[1].reshape(M, D * M)).reshape(M, D, M)
    both = p.solve(first.transpose(2, 1, 0).reshape(M, D * M)).reshape(M, D, M)
    del first
    _add_symmetrized(d_Lambda[1 : D + 1], -0.5 * both.transpose(1, 0, 2))
    del both
    # Inducing coordinates: -(w_m kb^T + kb w_m^T).
    w, neg_kb = _inducing_directions(p, KG, D)
    del KG
    _add_symmetric_products(d_Lambda[D + 2 :], np.stack([w, neg_kb], axis=2))
    return GradientState(d_eta=d_eta, d_Lambda=d_Lambda, d_psi=np.zeros(P), k=0)


def compute_adjoints(
    state_prev: PosteriorState,
    state_new: PosteriorState,
    km: KalmanIntermediates,
    h: Hyperparameters,
    spec: ModelSpec,
) -> AdjointIntermediates:
    """Adjoints of the bound term produced by one update call.

    ``state_prev``/``state_new`` are the pre/post pair of that call and ``km``
    its intermediates, as :func:`streamgp.optimizer.step` passes them.
    """
    geom = km.geometry
    _require_standard(geom.transformed or state_prev.parametrization != PARAM_STANDARD)
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

    A2 = geom.prior.solve(L_dH.T).T  # L_dH K_RR^-1
    inner = A2 - L_dd[:, None] * H
    L_dK_XR = A2 - 2.0 * L_dd[:, None] * H
    L_dK_RR = -H.T @ inner

    q = Sigma_prev @ (H.T @ s_inv_r)
    L_dLambda = Sigma_new - Sigma_prev + 2.0 * np.outer(q, mu_prev) + np.outer(Sk_t, Sk_t)
    L_deta = -2.0 * q

    L_dsigman = 2.0 * h.noise_variance * float(np.sum(L_dv))
    if spec.variant == "pep":
        L_dsigman -= 2.0 * B * (1.0 - spec.alpha) / spec.alpha
    elif spec.variant == "vfe":
        L_dsigman -= 2.0 * float(np.sum(d)) / h.noise_variance

    return AdjointIntermediates(
        L_dK_XR=L_dK_XR,
        L_dK_RR=L_dK_RR,
        L_dk_XX=L_dd,
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
    advance: bool = True,
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
    this mode.  Without ``advance`` it is not advanced either, for a caller
    that discards it after this batch; ``d_psi`` is the same.

    A non-finite gradient raises :class:`NumericalError` naming its first
    parameter.  Every non-finite carried value or adjoint already reaches
    the terms formed before the walk over the batch (log sigma0's direct
    term sums all of L_dK_XR * K_XR), so it raises with the state
    untouched; only an overflow of the sums over the batch is found after
    the walk.
    """
    _require_standard(geom.transformed)
    P, D = h.n_params, h.input_dim
    KG = _kernel_grads(h.inducing_inputs, geom.prior.matrix, h)

    # Direct terms <L_dK_RR, Kdot_RR> + <L_dK_XR, Kdot_XR> + <L_dk_XX, kdot_XX>
    # and L_dsigma_n.  Lengthscales and inducing coordinates leave diag(K_XX)
    # fixed; for R[m][d], Kdot_RR = e_m beta^T + beta e_m^T.  Their terms
    # through K_XR are sums over the batch, taken by the walk below.
    L_RR, L_XR = adj.L_dK_RR, adj.L_dK_XR
    direct = np.empty(P)
    direct[0] = 2.0 * (
        np.vdot(L_RR, geom.prior.matrix)
        + np.vdot(L_XR, geom.K_XR)
        + adj.L_dk_XX @ kernel_diag(geom.X, h)
    )
    direct[1 : D + 1] = np.matmul(KG[1], L_RR.T[:, :, None]).sum(axis=0)[:, 0]
    direct[D + 1] = adj.L_dsigman
    direct[D + 2 :] = np.matmul(KG[0], (L_RR + L_RR.T)[:, :, None]).ravel()

    # The carried-sensitivity terms <L_deta, eta_dot> + <L_dLambda, Lambda_dot>
    # are dropped by the ablation as soon as the carried state holds data.
    # On packed Lambda_dot the weights are L_ij + L_ji off the diagonal and
    # L_ii on it.
    if ignore_history and gstate.k >= 1:
        carried = 0.0
    else:
        L = adj.L_dLambda
        _, _, upper, lower, diag = _packing(len(L))
        weights = np.take(L, lower)
        weights[diag] = 0.0
        weights += np.take(L, upper)
        carried = gstate.d_eta @ adj.L_deta + gstate.d_Lambda @ weights
    d_psi = gstate.d_psi - 0.5 * (carried + direct)
    _require_finite(d_psi, h, gstate.k)
    d_psi -= 0.5 * _walk(gstate, L_XR, geom, h, spec, batch.y, KG, advance and not ignore_history)
    _require_finite(d_psi, h, gstate.k)
    return GradientState(d_eta=gstate.d_eta, d_Lambda=gstate.d_Lambda, d_psi=d_psi, k=gstate.k + 1)


def _require_finite(d_psi: np.ndarray, h: Hyperparameters, k: int) -> None:
    bad = np.flatnonzero(~np.isfinite(d_psi))
    if bad.size:
        raise NumericalError(
            f"non-finite gradient for {h.param_label(int(bad[0]))} at mini-batch {k + 1}"
        )


def _walk(
    gstate: GradientState,
    L_XR: np.ndarray,
    geom: BatchGeometry,
    h: Hyperparameters,
    spec: ModelSpec,
    y: np.ndarray,
    KG: np.ndarray,
    advance: bool,
) -> np.ndarray:
    """Walk the batch 2 ``ROWS`` rows at a time; ``KG`` is
    :func:`_kernel_grads` of K_RR (beta = dK_RR/dR and Kdot_RR).

    Returns the direct terms <L_dK_XR, Kdot_XR> of the lengthscales and
    inducing coordinates (log sigma0's is formed by :func:`propagate`).
    With ``advance`` it also adds the batch to eta_dot and Lambda_dot of
    every parameter, in place:

        eta_dot    += Hdot^T V^-1 y + H^T diag(s) y
        Lambda_dot += Hdot^T V^-1 H + H^T V^-1 Hdot + H^T diag(s) H

    with s = -vdot / v^2, vdot = c ddot (plus 2 sigma_n^2 for log sigma_n).
    Each block adds its noise terms to the state.  Hdot is never formed:

        lengthscale d:      Hdot = (Kdot_XR - H Kdot_RR) K^-1
        coordinate R[m][d]: Hdot = u w_m^T - h_m kb^T,  u = gamma - H beta,

    with gamma = dK_XR/dR, w_m = K^-1 e_m, kb = K^-1 beta and h_m column m
    of H, so the blocks only sum [gamma, Kdot_XR, H]^T V^-1 [H, y], and
    K^-1, beta and Kdot_RR are applied to the sums once at the end.  Rows
    run along the last axis of the per-block buffers.  Every gemm operand
    and target is the transpose of a C-contiguous buffer, so BLAS reads the
    operands and updates the targets in place.
    """
    H, v = geom.H, geom.v
    (B, M), (P, D) = H.shape, (h.n_params, h.input_dim)
    MD = M * D
    lengthscales, inducing = slice(1, D + 1), slice(D + 2, P)
    through_XR = np.zeros(P)
    # Row m*D + d of KG_T holds beta[:, m, d], row MD + m*D + d column m of
    # Kdot_RR for lengthscale d.
    KG_T = KG.reshape(2 * MD, M)
    # Without the Schur-complement term (c = 0) only log sigma_n moves V.
    c = spec.noise_scale
    noisy = slice(0, P) if c != 0.0 else slice(D + 1, D + 2)
    # s = -c ddot / v^2, and -2 sigma_n^2 / v^2 for log sigma_n, where ddot
    # is 2d for log sigma0, H (H Kdot_RR - 2 Kdot_XR)^T for the lengthscales
    # and -2 h_m u for R[m][d].  g = 2 c / v^2 scales the per-block ones.
    g = 2.0 * c / v**2
    s_sigma0 = -g * geom.d
    s_sigma_n = -2.0 * h.noise_variance / v**2

    # Buffers for [gamma, Kdot_XR, H^T] and s of a block, rows along the last
    # axis; a shorter last block takes the front of each buffer.
    n_G, n_max = 2 * MD + M, min(B, 2 * ROWS)
    G_buf = np.empty(n_G * n_max)
    s_buf = np.empty(P * n_max)
    eta_inc = np.zeros((P, M))
    # Sums over the batch of Z V^-1 [H, y] for Z = gamma^T, Kdot_XR^T (rows
    # m*D + d of each) and H^T: the last column holds Z V^-1 y.
    GV = np.zeros((n_G, M + 1))
    for rows in _row_blocks(B, 2 * ROWS):
        Hb, vb, yb = H[rows], v[rows], y[rows, None]
        n = Hb.shape[0]
        G = G_buf[: n_G * n].reshape(n_G, n)
        Gk = _kernel_grads(geom.X[rows], geom.K_XR[rows], h, out=G[: 2 * MD].reshape(2, M, D, n))
        # For R[m][d], Kdot_XR = gamma e_m^T.
        lg = np.matmul(Gk, L_XR[rows].T[:, :, None])
        through_XR[inducing] += lg[0].ravel()
        through_XR[lengthscales] += lg[1].sum(axis=0)[:, 0]
        if not advance:
            continue
        G[2 * MD :] = Hb.T
        VHy = np.concatenate([Hb, yb], axis=1) / vb[:, None]  # V^-1 [H, y]
        dgemm(1.0, VHy.T, G.T, beta=1.0, c=GV.T, overwrite_c=1)
        del VHy
        # In place, [gamma, Kdot_XR] -= [beta, Kdot_RR / 2]^T H^T gives
        # [u, Kdot_XR - H Kdot_RR / 2], so that s = g H [u, (.)^T].
        for part, alpha in ((slice(0, MD), -1.0), (slice(MD, 2 * MD), -0.5)):
            dgemm(alpha, Hb.T, KG_T[part].T, beta=1.0, c=G[part].T, trans_a=1, overwrite_c=1)

        s = s_buf[: P * n].reshape(P, n)
        s[0] = s_sigma0[rows]
        s[D + 1] = s_sigma_n[rows]
        Hg = Hb.T * g[rows]
        s[lengthscales] = np.einsum("mb,mdb->db", Hg, Gk[1])
        np.multiply(Hg[:, None, :], Gk[0], out=s[inducing].reshape(M, D, n))
        dgemm(1.0, (Hb * yb).T, s[noisy].T, beta=1.0, c=eta_inc[noisy].T, overwrite_c=1)
        _add_noise_terms(gstate.d_Lambda[noisy], s[noisy], G[2 * MD :].T)

    if not advance:
        return through_XR
    # [u, Kdot_XR - H Kdot_RR]^T V^-1 [H, y], summed over the batch.
    HV = GV[2 * MD :]
    GV[: 2 * MD] -= KG_T @ HV
    uV = GV[:MD]
    # Lengthscale d: Hdot_d^T V^-1 [H, y] = K^-1 (GV rows m*D + d), all d at once.
    HdV = geom.prior.solve(GV[MD : 2 * MD].reshape(M, D * (M + 1))).reshape(M, D, M + 1)
    eta_inc[lengthscales] += HdV[:, :, M].T
    _add_symmetrized(gstate.d_Lambda[lengthscales], HdV[:, :, :M].transpose(1, 0, 2))
    # Inducing coordinates: Hdot^T V^-1 [H, y] = w_m uV - kb hV_m, with hV_m
    # row m of H^T V^-1 [H, y]; row m*D + d of each holds coordinate R[m][d].
    w, neg_kb = _inducing_directions(geom.prior, KG, D)
    hV = np.repeat(HV, D, axis=0)
    eta_inc[inducing] += w * uV[:, M, None] + neg_kb * hV[:, M, None]
    gstate.d_eta += eta_inc
    del eta_inc
    A = np.stack([w, neg_kb, hV[:, :M], uV[:, :M]], axis=2)
    del w, neg_kb, hV
    _add_symmetric_products(gstate.d_Lambda[inducing], A)
    return through_XR
