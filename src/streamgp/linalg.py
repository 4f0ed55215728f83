"""Cholesky-based linear algebra helpers.

Every matrix inversion in the package goes through a :class:`CholFactor`
obtained from :func:`chol_with_jitter`, which escalates a trace-scaled
diagonal jitter from 1e-8 up to 1e-4 before giving up, both for a matrix
that does not factor and for one whose factor is singular to working
precision.  The factor's one inverse factor L^-1 (LAPACK ``dtrtri``) is
the library's one triangular path: BLAS ``dtrmm`` with it takes every
product with A^-1 and forms the dense inverse (see :class:`CholFactor` for
why).  Both routines come from numpy's own OpenBLAS, bound by
:mod:`streamgp._lapack`, so they share one thread pool, sized by
``OPENBLAS_NUM_THREADS``, with ``np.linalg.cholesky``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import dtrmm, dtrtri
from .errors import IllConditionedError

# Escalation ladder for the diagonal jitter, as multiples of mean(diag).
JITTER_START = 1e-8
JITTER_MAX = 1e-4


@dataclass(frozen=True, eq=False)
class CholFactor:
    """A symmetric positive definite matrix A = L L^T, factored once.

    ``matrix`` is the matrix that ``L`` factors, so it includes the
    diagonal jitter when :func:`chol_with_jitter` had to add one; for the
    prior K_RR (:func:`streamgp.model.prior`) every consumer therefore
    sees one and the same matrix.

    Products A^-1 B are taken as L^-T (L^-1 B): :meth:`whiten` forms
    L^-1 B and :meth:`solve_whitened` applies L^-T, each one BLAS triangular
    product (``dtrmm``) with the inverse factor L^-1 (LAPACK ``dtrtri``).
    That is several times faster than a LAPACK solve at these sizes and
    nearly as accurate, as triangular inversion has small componentwise
    residuals (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, chs. 8 and 14; Du Croz and Higham, IMA J. Numer. Anal. 12, 1992).
    A product with the dense A^-1 is not: at cond(K_RR) = 1.3e9 the basis
    residual ||H K_RR - K_XR|| / ||K_XR|| is about 1e-15 one way and 1e-8
    the other.  So :attr:`inv` serves only where A^-1 itself is wanted: a
    posterior covariance from its precision, the prior precision, its log
    sigma0 derivative, and the inducing coordinates' w_m = K_RR^-1 e_m, its
    rows.  Both inverses are formed on first use and read-only.
    """

    matrix: np.ndarray  # (n, n), jitter included
    L: np.ndarray  # lower factor, C-ordered as np.linalg.cholesky returns it
    jitter: float  # absolute jitter that was added to the diagonal

    @property
    def logdet(self) -> float:
        """Log-determinant of the factored matrix."""
        return 2.0 * float(np.sum(np.log(np.diag(self.L))))

    @cached_property
    def L_inv(self) -> np.ndarray:
        """L^-1, Fortran-ordered for BLAS, computed once."""
        L_inv, _ = dtrtri(self.L)
        L_inv.flags.writeable = False
        return L_inv

    @cached_property
    def inv(self) -> np.ndarray:
        """A^-1 = L^-T L^-1 from :attr:`L_inv`, one ``dtrmm``, computed once;
        exactly symmetric, as its lower triangle is mirrored."""
        inv = np.tril(dtrmm(1.0, self.L_inv, self.L_inv, trans_a=1))
        inv = inv + np.tril(inv, -1).T
        inv.flags.writeable = False
        return inv

    def whiten(self, b: np.ndarray) -> np.ndarray:
        """L^-1 b for (n, k) ``b``, as a new Fortran-ordered array."""
        return dtrmm(1.0, self.L_inv, b)

    def solve_whitened(self, a: np.ndarray) -> np.ndarray:
        """A^-1 b from its whitened form ``a`` = L^-1 b: L^-T a, written in
        place into ``a``, which is Fortran-ordered as :meth:`whiten`
        returns it."""
        return dtrmm(1.0, self.L_inv, a, trans_a=1, overwrite_b=1)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b for (n, k) ``b``, as a new Fortran-ordered array."""
        return self.solve_whitened(self.whiten(b))


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
        matrix = a if jitter == 0.0 else a + jitter * np.eye(n)
        try:
            L = np.linalg.cholesky(matrix)
            if np.min(np.diag(L)) ** 2 >= floor:
                return CholFactor(matrix=matrix, L=L, jitter=jitter)
        except np.linalg.LinAlgError:
            pass
        if factor > JITTER_MAX * (1 + 1e-12):
            raise IllConditionedError(name, f"jitter escalated past {JITTER_MAX:g} * mean(diag)")
        jitter = factor * scale
        factor *= 10.0
