"""Batch-mode reference computations.

The collapsed lower bounds of the sparse variants, evaluated the classical
way, and central finite differences.  They check the streaming recursion
(``streamgp validate-gradients`` and the benchmark's gates); they share
none of its code path beyond the kernel, the variant definitions and the
prior (K_RR and its jittered factor L, see :func:`streamgp.model.prior`),
which defines the model.  Every product with K_RR^-1 in the recursion
goes through the factor's L^-1 (``dtrtri``, applied by ``dtrmm``).  The
reference takes its two triangular solves, the whitened rows L^-1 K_RX
and the vector through the Woodbury core's factor, from
``np.linalg.solve`` instead: numpy's own LAPACK ``dgesv``, which needs no
binding and shares no code with that path, so a fault in it cannot cancel
out of the comparison.  A general solve takes about twice as long as a
triangular one, off every timed path.

The bound goes through the M x M Woodbury route, so no N x N matrix is
formed.  This module deliberately has no analytic gradients: the
recursive propagation is the analytic path, and :func:`fd_gradient`
supplies the independent numerical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError
from .inference import LOG_2PI
from .kernel import Hyperparameters, as_xy, kernel_diag, kernel_matrix
from .linalg import chol_with_jitter
from .model import ModelSpec, prior, regularizer

@dataclass(frozen=True)
class BatchBoundReport:
    """Collapsed lower bound split into its two parts.

    ``value = gaussian_term - regularizer_term`` always holds;
    ``gradient`` is filled by central finite differences when requested.
    """

    value: float
    gaussian_term: float
    regularizer_term: float
    gradient: np.ndarray | None = None


def _sparse_pieces(X: np.ndarray, h: Hyperparameters, spec: ModelSpec):
    """Shared Woodbury ingredients: A = L^-1 K_RX, d, v."""
    factor = prior(h)
    K_XR = kernel_matrix(X, h.inducing_inputs, h)
    A = np.linalg.solve(factor.L, K_XR.T)  # (M, N)
    d = np.maximum(kernel_diag(X, h) - np.sum(A * A, axis=0), 0.0)
    v = spec.noise_scale * d + h.noise_variance
    return factor, A, d, v


def batch_bound(
    X: np.ndarray,
    y: np.ndarray,
    h: Hyperparameters,
    spec: ModelSpec,
    with_gradient: bool = True,
    fd_step: float = 1e-5,
) -> BatchBoundReport:
    """Collapsed lower bound of the selected variant.

    Gaussian term log N(y | 0, Q_XX + diag(v)) via the M x M Woodbury
    identity, minus half the variant regularizer.  The gradient entries
    come from :func:`fd_gradient` on the flat parameter vector.
    """
    X, y = as_xy(X, y)
    n = y.size

    def value_at(theta: np.ndarray | None = None) -> tuple[float, float]:
        hh = h if theta is None else h.with_vector(theta)
        factor, A, d, v = _sparse_pieces(X, hh, spec)
        sqrt_v = np.sqrt(v)
        Abar = A / sqrt_v[None, :]
        Bmat = np.eye(A.shape[0]) + Abar @ Abar.T
        Lb = chol_with_jitter(Bmat, "Woodbury core")
        beta = y / sqrt_v
        cvec = np.linalg.solve(Lb.L, Abar @ beta)
        logdet = float(np.sum(np.log(v))) + Lb.logdet
        quad = float(beta @ beta) - float(cvec @ cvec)
        gaussian = -0.5 * (n * LOG_2PI + logdet + quad)
        reg = 0.5 * regularizer(d, spec, hh)
        return gaussian, reg

    gaussian, reg = value_at()
    grad = None
    if with_gradient:
        grad = fd_gradient(lambda th: float(np.subtract(*value_at(th))), h.to_vector(), fd_step)
    return BatchBoundReport(
        value=gaussian - reg, gaussian_term=gaussian, regularizer_term=reg, gradient=grad
    )


def fd_gradient(
    f: Callable[[np.ndarray], float], theta: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    """Central finite differences, step relative to max(1, |theta_i|)."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty(theta.size)
    for i in range(theta.size):
        hi = step * max(1.0, abs(theta[i]))
        up = theta.copy()
        up[i] += hi
        down = theta.copy()
        down[i] -= hi
        f_up, f_down = f(up), f(down)
        if not (np.isfinite(f_up) and np.isfinite(f_down)):
            raise NumericalError(f"non-finite objective while differencing coordinate {i}")
        grad[i] = (f_up - f_down) / (2.0 * hi)
    return grad
