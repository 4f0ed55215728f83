"""Squared-exponential ARD kernel, cross-covariances and the parameter layout.

The kernel is

    k(x, x') = sigma0^2 * exp(-0.5 * sum_d (x_d - x'_d)^2 / l_d^2)

with one lengthscale per input dimension.  Amplitude, lengthscales and the
observation-noise standard deviation are stored and optimized in log space
so that positivity holds by construction; inducing-input coordinates are
unconstrained.  Gradients (in :mod:`streamgp.gradients`) are therefore taken
w.r.t. log sigma0, log l_d, log sigma_n and R[m][d] directly.

The full parameter vector is laid out as

    theta = [log_sigma0, log_l_1, ..., log_l_D, log_sigma_n, R.ravel()]

giving P = D + 2 + M*D parameters in total.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._lapack import dgemm
from .errors import ContractViolationError, DataError

# Parameter-class names used in reports and error messages.
CLASS_LOG_SIGMA0 = "log_sigma0"
CLASS_LOG_LENGTHSCALE = "log_lengthscale"
CLASS_LOG_SIGMA_N = "log_sigma_n"
CLASS_INDUCING = "inducing"


@dataclass(frozen=True, eq=False)
class Hyperparameters:
    """Kernel hyper-parameters plus inducing inputs.

    Fields hold the log of the positive quantities; ``inducing_inputs`` is
    the raw (M, D) coordinate matrix.  Construction validates finiteness,
    M >= 1, D >= 1 and that no two inducing rows coincide (their distance
    is strictly positive).

    The arrays are private read-only copies, so an instance never changes
    after construction; that is what lets the instance keep what depends on
    it alone without it going stale: :func:`streamgp.model.prior` keeps the
    factored prior (``_prior``) and :func:`kernel_matrix` the kernel's
    inducing side (``_inducing``: 1 / l, the scaled inducing inputs and
    their halved squared norms).  Both are built on first use and are
    read-only; neither is an ``__init__`` argument, compared or shown, so
    ``dataclasses.replace``, :meth:`with_vector` and a checkpoint give an
    instance without them.
    """

    log_sigma0: float
    log_lengthscales: np.ndarray  # (D,)
    log_sigma_n: float
    inducing_inputs: np.ndarray  # (M, D)
    _prior: object = field(default=None, init=False, repr=False, compare=False)
    _inducing: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        ll = np.atleast_1d(np.array(self.log_lengthscales, dtype=float))
        R = np.array(self.inducing_inputs, dtype=float)
        ll.flags.writeable = False
        R.flags.writeable = False
        if R.ndim != 2:
            raise ContractViolationError("inducing_inputs must be a 2-D (M, D) array")
        object.__setattr__(self, "log_lengthscales", ll)
        object.__setattr__(self, "inducing_inputs", R)
        if ll.ndim != 1 or ll.size < 1:
            raise ContractViolationError("log_lengthscales must be a 1-D array with D >= 1")
        if R.shape[0] < 1 or R.shape[1] != ll.size:
            raise ContractViolationError(
                f"inducing_inputs shape {R.shape} incompatible with D={ll.size}"
            )
        scalars = [self.log_sigma0, self.log_sigma_n]
        if not (np.all(np.isfinite(scalars)) and np.all(np.isfinite(ll)) and np.all(np.isfinite(R))):
            raise DataError("hyperparameters contain non-finite values")
        if R.shape[0] > 1:
            # Direct difference form: the expanded ||a||^2 + ||b||^2 - 2ab
            # cancels catastrophically for nearly-identical rows and would
            # report tiny separations as exact zero.
            diff = R[:, None, :] - R[None, :, :]
            d2 = np.sum(diff * diff, axis=-1)
            np.fill_diagonal(d2, np.inf)
            if d2.min() == 0.0:
                raise ContractViolationError(
                    "inducing inputs too close: min pairwise distance 0 <= required separation 0"
                )

    # -- derived quantities ------------------------------------------------

    @property
    def sigma0(self) -> float:
        return float(np.exp(self.log_sigma0))

    @property
    def lengthscales(self) -> np.ndarray:
        return np.exp(self.log_lengthscales)

    @property
    def sigma_n(self) -> float:
        return float(np.exp(self.log_sigma_n))

    @property
    def noise_variance(self) -> float:
        return self.sigma_n ** 2

    @property
    def input_dim(self) -> int:
        return self.log_lengthscales.size

    @property
    def num_inducing(self) -> int:
        return self.inducing_inputs.shape[0]

    @property
    def n_params(self) -> int:
        return self.input_dim + 2 + self.num_inducing * self.input_dim

    # -- flat parameter vector ---------------------------------------------

    def to_vector(self) -> np.ndarray:
        """Flatten to the canonical parameter vector."""
        return np.concatenate(
            [
                [self.log_sigma0],
                self.log_lengthscales,
                [self.log_sigma_n],
                self.inducing_inputs.ravel(),
            ]
        )

    def with_vector(self, theta: np.ndarray) -> "Hyperparameters":
        """Rebuild from a flat parameter vector (same M and D)."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ContractViolationError(
                f"parameter vector has shape {theta.shape}, expected ({self.n_params},)"
            )
        D, M = self.input_dim, self.num_inducing
        return replace(
            self,
            log_sigma0=float(theta[0]),
            log_lengthscales=theta[1 : 1 + D],
            log_sigma_n=float(theta[1 + D]),
            inducing_inputs=theta[2 + D :].reshape(M, D),
        )

    def param_class(self, i: int) -> tuple:
        """Classify parameter ``i``.

        Returns ``("log_sigma0",)``, ``("log_lengthscale", d)``,
        ``("log_sigma_n",)`` or ``("inducing", m, d)``.
        """
        D, M = self.input_dim, self.num_inducing
        if not 0 <= i < self.n_params:
            raise ContractViolationError(f"parameter index {i} out of range [0, {self.n_params})")
        if i == 0:
            return (CLASS_LOG_SIGMA0,)
        if i <= D:
            return (CLASS_LOG_LENGTHSCALE, i - 1)
        if i == D + 1:
            return (CLASS_LOG_SIGMA_N,)
        flat = i - (D + 2)
        return (CLASS_INDUCING, flat // D, flat % D)

    def param_label(self, i: int) -> str:
        cls = self.param_class(i)
        if cls[0] == CLASS_LOG_LENGTHSCALE:
            return f"log_lengthscale[{cls[1]}]"
        if cls[0] == CLASS_INDUCING:
            return f"R[{cls[1]}][{cls[2]}]"
        return cls[0]


def as_rows(a: np.ndarray, one_row: bool) -> np.ndarray:
    """``a`` as a float array of rows, the one reader of inputs: a 1-D
    array is one row when ``one_row`` is set and a column of rows otherwise.

    A caller that knows D reads through :func:`_check_inputs`, which sets
    ``one_row`` when D > 1; one that knows only the targets sets it when
    there is one target.  At D = 1 the two readings coincide.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[None, :] if one_row else a[:, None]
    return a


def _check_inputs(a: np.ndarray, h: Hyperparameters, name: str) -> np.ndarray:
    """``a`` as an (rows, D) float array, read by :func:`as_rows`: a 1-D
    array is a column of rows when D = 1 and one row otherwise."""
    a = as_rows(a, h.input_dim > 1)
    if a.ndim != 2 or a.shape[1] != h.input_dim:
        raise ContractViolationError(
            f"{name} has shape {a.shape}, expected (*, {h.input_dim})"
        )
    return a


def as_xy(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Training data as (rows, D) inputs and their targets, the one check of
    every pass over data: X is 2-D, the row counts agree and are not zero,
    and every value is finite, else :class:`DataError`.  X is read by
    :func:`as_rows` (a 1-D X is one row when it comes with one target) and
    is neither copied nor reordered when float; its D is checked where it
    meets the hyper-parameters."""
    y = np.asarray(y, dtype=float).ravel()
    X = as_rows(X, y.size == 1)
    if X.ndim != 2:
        raise DataError(f"X has shape {X.shape}, expected (rows, D)")
    if X.shape[0] != y.size:
        raise DataError(f"X has {X.shape[0]} rows but y has {y.size}")
    if y.size == 0:
        raise DataError("X and y have no rows")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DataError("X or y holds a non-finite value")
    return X, y


def kernel_matrix(A: np.ndarray, B: np.ndarray, h: Hyperparameters) -> np.ndarray:
    """Cross-covariance matrix with entries k(a_i, b_j), C-ordered.

    With a, b the inputs scaled by 1 / l, the exponent -sq / 2 is built in
    the one output buffer in expanded form by two GEMMs: a rank-2 one fills
    it with the outer sum -(|a_i|^2 + |b_j|^2) / 2, as [r_b, 1] [1; r_a] for
    the halved row sums r, then one adds the cross term a_i . b_j; the clamp
    (sq >= 0 against round-off), ``exp`` and the scale by sigma0^2 run in
    place.  Halving and products with 1 are exact, so each entry is bit for
    bit the one of sigma0^2 exp(-0.5 max(|a|^2 + |b|^2 - 2 a.b, 0)) taken
    with a temporary per operation (for the same dot products a.b), and
    k(A, A) is exactly symmetric.  The scaled inputs are Fortran-ordered, as
    ``load_dataset`` rows are, whatever the layout of A and B, so the row
    sums, and with them K, are the same bits for C- and F-ordered inputs.

    When B is ``h.inducing_inputs`` itself (K_XR in training and
    prediction, and K_RR), its side (1 / l, b and [r_b, 1]) is built on the
    first such call and kept on ``h`` beside the prior, read-only; any
    other B has the same side built for the call.  Either way K has the
    same bits.
    """
    A = _check_inputs(A, h, "A")
    if B is h.inducing_inputs:
        if h._inducing is None:
            object.__setattr__(h, "_inducing", _inducing_side(h))
        inv_l, b, r_b = h._inducing
    else:
        inv_l = 1.0 / h.lengthscales
        b, r_b = _scaled_side(_check_inputs(B, h, "B"), inv_l, 0)
    a, r_a = _scaled_side(A, inv_l, 1)
    K = np.empty((A.shape[0], b.shape[0]))
    if K.size:  # BLAS refuses empty operands
        # BLAS writes the Fortran-ordered K^T in place and takes every
        # operand Fortran-ordered.  numpy's outer sum took 1.3 ns an entry,
        # the GEMM a third.
        dgemm(1.0, r_b, r_a, c=K.T, trans_a=1, overwrite_c=1)
        dgemm(1.0, b.T, a.T, beta=1.0, c=K.T, trans_a=1, overwrite_c=1)
    np.minimum(K, 0.0, out=K)
    np.exp(K, out=K)
    K *= kernel_variance(h)
    return K


def _scaled_side(X: np.ndarray, inv_l: np.ndarray, row: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``X`` scaled by ``inv_l``, C-contiguous for the cross-term GEMM,
    and the rank-2 operand of :func:`kernel_matrix`'s outer sum: a
    Fortran-ordered (2, rows) array of ones with the halved squared norms
    -|x|^2 / 2 in ``row``.  The norms are summed over Fortran-ordered rows:
    over a C-ordered (1024, 5) block they take 3.5 times as long."""
    x = np.multiply(X, inv_l, order="F")
    r = np.ones((2, X.shape[0]), order="F")
    r[row] = -0.5 * np.sum(x * x, axis=1)
    return np.ascontiguousarray(x), r


def _inducing_side(h: Hyperparameters) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(1 / l, b, [r_b, 1]) of :func:`kernel_matrix` for B = R, read-only."""
    inv_l = 1.0 / h.lengthscales
    side = (inv_l, *_scaled_side(h.inducing_inputs, inv_l, 0))
    for a in side:
        a.flags.writeable = False
    return side


def kernel_variance(h: Hyperparameters) -> float:
    """k(x, x), the same at every x for this kernel: sigma0^2."""
    return h.sigma0 ** 2


def kernel_diag(A: np.ndarray, h: Hyperparameters) -> np.ndarray:
    """diag of kernel_matrix(A, A): constant :func:`kernel_variance`."""
    A = _check_inputs(A, h, "A")
    return np.full(A.shape[0], kernel_variance(h))
