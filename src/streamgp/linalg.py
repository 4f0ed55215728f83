"""Cholesky-based linear algebra helpers.

Every matrix inversion in the package goes through a Cholesky factor
obtained from :func:`chol_with_jitter`, which escalates a trace-scaled
diagonal jitter from 1e-8 up to 1e-4 before giving up, both for a matrix
that does not factor and for one whose factor is singular to working
precision.  A dense inverse (LAPACK ``dpotri``: L^-T L^-1 from the factor)
is formed only where the inverse matrix itself is the result, such as a
posterior covariance from its precision.  Products with K_RR^-1 go
through the prior's inverse factor L^-1 instead (see
:class:`streamgp.model.Prior`), and the batch bound and the data generator
use triangular solves (:func:`tri_solve`, LAPACK ``dtrtrs``).  Both LAPACK
routines come from numpy's own OpenBLAS, bound by :mod:`streamgp._lapack`,
so they share one thread pool, sized by ``OPENBLAS_NUM_THREADS``, with
``np.linalg.cholesky``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import dpotri, dtrtrs
from .errors import IllConditionedError

# Escalation ladder for the diagonal jitter, as multiples of mean(diag).
JITTER_START = 1e-8
JITTER_MAX = 1e-4


@dataclass(frozen=True)
class CholFactor:
    """Lower Cholesky factor L of a symmetric positive definite matrix A,
    with log det(A) and the dense A^-1.  Products with K_RR^-1 go through
    the inverse factor L^-1 that :class:`streamgp.model.Prior` keeps."""

    L: np.ndarray
    jitter: float  # absolute jitter that was added to the diagonal

    @property
    def logdet(self) -> float:
        """Log-determinant of the factored matrix."""
        return 2.0 * float(np.sum(np.log(np.diag(self.L))))

    def inverse(self) -> np.ndarray:
        """Dense inverse of the factored matrix, exactly symmetric: LAPACK
        ``dpotri`` forms its lower triangle as L^-T L^-1, which is mirrored."""
        inv, _ = dpotri(self.L)
        inv = np.tril(inv)
        return inv + np.tril(inv, -1).T


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (a + a.T) / 2."""
    return 0.5 * (a + a.T)


def chol_with_jitter(a: np.ndarray, name: str = "matrix") -> CholFactor:
    """Cholesky-factorize ``a``, escalating diagonal jitter if needed.

    Tries the exact matrix first, then adds jitter scaled by the mean
    diagonal, multiplying by 10 each attempt from 1e-8 up to 1e-4.  An
    attempt fails when the matrix does not factor, and also when its
    smallest squared pivot is below 100 times the factorization's backward
    error n * eps * mean(diag): the matrix is then singular to all but two
    digits.  Raises :class:`IllConditionedError` naming ``name`` once the
    budget is exhausted.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise IllConditionedError(name, f"not square: shape {a.shape}")
    scale = float(np.mean(np.diag(a)))
    if not np.isfinite(scale):
        raise IllConditionedError(name, "non-finite diagonal")
    scale = max(scale, np.finfo(float).tiny)
    n = a.shape[0]
    floor = 100.0 * n * np.finfo(float).eps * scale
    jitter = 0.0
    factor = JITTER_START
    while True:
        try:
            L = np.linalg.cholesky(a if jitter == 0.0 else a + jitter * np.eye(n))
            if np.min(np.diag(L)) ** 2 >= floor:
                return CholFactor(L=L, jitter=jitter)
        except np.linalg.LinAlgError:
            pass
        if factor > JITTER_MAX * (1 + 1e-12):
            raise IllConditionedError(name, f"jitter escalated past {JITTER_MAX:g} * mean(diag)")
        jitter = factor * scale
        factor *= 10.0


def tri_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L x = b for a C-ordered lower-triangular L, as
    ``np.linalg.cholesky`` returns it, with LAPACK ``dtrtrs``: L goes in as
    the upper-triangular Fortran array L^T, solved transposed, as
    ``scipy.linalg.solve_triangular(L, b, lower=True)`` calls it.  numpy's
    binding refuses a Fortran-ordered L (``ValueError`` naming ``dtrtrs``)."""
    L, b = np.asarray(L), np.asarray(b)
    if b.size == 0:
        return np.empty_like(b, dtype=float)
    x, info = dtrtrs(L.T, b)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x
