"""Weight-space view of inducing-point sparse GP variants.

Every supported approximation is a Bayesian linear regression on basis
functions of the inducing outputs,

    y_k = H_k u + gamma_k + eps_k,    u ~ N(0, K_RR),

where the variants differ only in three model-specific quantities:

* the extra per-point observation noise  diag(Vbar_k)  added to sigma_n^2,
* the prediction variance correction  diag(V_*),
* the regularizer  a_k  subtracted (times 1/2) from each term of the
  streaming lower bound.

variant   diag(Vbar)   diag(V_*)   a_k
-------   ----------   ---------   -------------------------------------
SoR       0            0           0
DTC       0            d_*         0
FITC      d            d_*         0
VFE       0            d_*         sum_i d_i / sigma_n^2
PEP       alpha * d    d_*         (1-alpha)/alpha * sum_i [log v_i - log sigma_n^2]

with d = diag(K_XX - Q_XX) >= 0 and v = diag(Vbar) + sigma_n^2; d_* is the
same diagonal at the test inputs, which :func:`schur_diagonal` computes for
training and test rows alike.  PEP interpolates between VFE (alpha -> 0)
and FITC (alpha = 1).

The prior is K_RR's :class:`~streamgp.linalg.CholFactor`, whose inverse
factor L^-1 takes every product with K_RR^-1 (the class says why).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .kernel import Hyperparameters, kernel_matrix, kernel_variance, _check_inputs
from .linalg import CholFactor, chol_with_jitter

VARIANTS = ("sor", "dtc", "fitc", "vfe", "pep")


@dataclass(frozen=True)
class ModelSpec:
    """Sparse-variant selector; ``alpha`` is only meaningful for PEP."""

    variant: str
    alpha: float = 1.0

    def __post_init__(self):
        v = self.variant.lower()
        if v not in VARIANTS:
            raise ContractViolationError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        object.__setattr__(self, "variant", v)
        if v == "pep" and not 0.0 < self.alpha <= 1.0:
            raise ContractViolationError(f"PEP requires 0 < alpha <= 1, got {self.alpha}")

    @property
    def noise_scale(self) -> float:
        """Coefficient c in diag(Vbar) = c * d."""
        if self.variant == "pep":
            return self.alpha
        if self.variant == "fitc":
            return 1.0
        return 0.0


def prior(h: Hyperparameters) -> CholFactor:
    """The prior u ~ N(0, K_RR) at ``h``, as K_RR's factor: built on the
    first call, then kept on ``h``.

    ``Hyperparameters`` is frozen with read-only arrays, so the kept prior
    stays valid for the object's lifetime and every consumer at one
    parameter value shares a single K_RR build and factorization.  A K_RR
    that is singular to working precision gets the jitter ladder's rungs
    (see :func:`chol_with_jitter`); otherwise a small parameter step could
    swing the prior precision between about 1 / rung and the round-off
    limit, and the posterior carried from the previous training step would
    no longer fit the new basis.
    """
    if h._prior is None:
        R = h.inducing_inputs
        chol = chol_with_jitter(kernel_matrix(R, R, h), "K_RR")
        chol.matrix.flags.writeable = False  # shared by every consumer
        chol.L.flags.writeable = False
        object.__setattr__(h, "_prior", chol)
    return h._prior


def schur_diagonal(A_T: np.ndarray, h: Hyperparameters) -> np.ndarray:
    """d = diag(K_XX - Q_XX) for rows X from their whitened rows
    A_T = L^-1 K_RX (M, B): as Q_XX = A A^T, d = k(x, x) - colsum(A_T * A_T)
    (k(x, x) is :func:`~streamgp.kernel.kernel_variance` at every row), with
    no B x B matrix, clamped at 0 against round-off.  Training
    (:func:`batch_geometry`) and prediction take d through this one step."""
    return np.maximum(kernel_variance(h) - np.einsum("ij,ij->j", A_T, A_T), 0.0)


@dataclass
class BatchGeometry:
    """Per-mini-batch quantities shared between inference and gradients.

    ``H`` is the basis in the requested parametrization (K_XR K_RR^-1 when
    ``transformed`` is False, plain K_XR otherwise); ``d`` / ``v`` are the
    clamped Schur-complement diagonal and total per-point noise variance.
    ``K_XR`` is kept because the gradient recursion consumes it; the batch
    rows and the prior are not, as every consumer holds the mini-batch and
    reads :func:`prior` of the same parameters.
    """

    H: np.ndarray  # (B, M)
    d: np.ndarray  # (B,)
    v: np.ndarray  # (B,)
    transformed: bool
    K_XR: np.ndarray  # (B, M)


def regularizer(d: np.ndarray, spec: ModelSpec, h: Hyperparameters) -> float:
    """Bound regularizer a_k; enters the streaming bound as -a_k / 2.

    PEP:  (1-alpha)/alpha * sum_i [log(alpha d_i + sigma_n^2) - log sigma_n^2]
    VFE:  sum_i d_i / sigma_n^2
    SoR / DTC / FITC: 0.
    """
    d = np.asarray(d, dtype=float)
    if spec.variant == "vfe":
        return float(np.sum(d) / h.noise_variance)
    if spec.variant == "pep":
        a = spec.alpha
        v = a * d + h.noise_variance
        return float((1.0 - a) / a * (np.sum(np.log(v)) - d.size * np.log(h.noise_variance)))
    return 0.0


def batch_geometry(
    X: np.ndarray, h: Hyperparameters, spec: ModelSpec, transformed: bool = False
) -> BatchGeometry:
    """Assemble all per-batch quantities on the shared prior factor.

    The whitened rows A_T = L^-1 K_RX (M, B), Fortran-ordered, are one
    triangular product on the prior factor K_RR = L L^T, taken into a copy
    because the gradient recursion keeps K_XR.  They give d
    (:func:`schur_diagonal`), and the standard basis is then
    H = (L^-T A_T)^T = K_XR K_RR^-1, the same two triangular products as
    :meth:`~streamgp.linalg.CholFactor.solve`.  diag(V) = c d + sigma_n^2 with
    c = ``spec.noise_scale``.
    """
    X = _check_inputs(X, h, "X")
    p = prior(h)
    K_XR = kernel_matrix(X, h.inducing_inputs, h)
    A_T = p.whiten(K_XR.T)
    d = schur_diagonal(A_T, h)
    return BatchGeometry(
        H=K_XR if transformed else p.solve_whitened(A_T).T,
        d=d,
        v=spec.noise_scale * d + h.noise_variance,
        transformed=transformed,
        K_XR=K_XR,
    )
