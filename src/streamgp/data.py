"""Datasets: synthetic generators, the CSTR plant, file I/O and metrics."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, DataError
from .kernel import Hyperparameters, as_xy, kernel_matrix, kernel_variance
from .linalg import chol_with_jitter

# generate_gp_data draws exactly up to this many samples, and above it
# through this many random inducing points.
DENSE_SAMPLING_GUARD = 5000
SPARSE_SAMPLING_INDUCING = 512


@dataclass
class Dataset:
    X: np.ndarray  # (N, D)
    y: np.ndarray  # (N,)
    column_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.X, self.y = as_xy(self.X, self.y)
        if not self.column_names:
            self.column_names = [f"x{i}" for i in range(self.input_dim)] + ["y"]
        if len(self.column_names) != self.input_dim + 1:
            raise DataError(
                f"{len(self.column_names)} column names for {self.input_dim} features + target"
            )

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def input_dim(self) -> int:
        return self.X.shape[1]


def default_hyperparameters(
    d: int = 1,
    sigma0: float = 1.0,
    lengthscale: float | np.ndarray = 0.1,
    noise_std: float = 0.1,
    inducing_inputs: np.ndarray | None = None,
) -> Hyperparameters:
    """Convenience constructor from raw (non-log) values."""
    ls = np.broadcast_to(np.asarray(lengthscale, dtype=float), (d,)).copy()
    R = np.full((1, d), 0.5) if inducing_inputs is None else np.asarray(inducing_inputs, float)
    return Hyperparameters(
        log_sigma0=float(np.log(sigma0)),
        log_lengthscales=np.log(ls),
        log_sigma_n=float(np.log(noise_std)),
        inducing_inputs=R,
    )


def generate_gp_data(seed: int, n: int, d: int = 1, h: Hyperparameters | None = None) -> Dataset:
    """Draw a regression dataset from a GP prior plus observation noise.

    Inputs are uniform on [0, 1]^D.  Up to ``DENSE_SAMPLING_GUARD`` samples
    the latent function is an exact joint draw; above it the draw
    factorizes through ``SPARSE_SAMPLING_INDUCING`` random inducing points:
    u ~ N(0, K_RR), then f_i | u independently with the exact conditional
    mean and variance, which preserves the marginal variance sigma0^2 at
    every input.
    """
    if n < 1:
        raise ContractViolationError("n must be >= 1")
    if h is None:
        h = default_hyperparameters(d=d)
    if h.input_dim != d:
        raise ContractViolationError(f"h has D={h.input_dim}, requested d={d}")
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, d))
    if n <= DENSE_SAMPLING_GUARD:
        K = kernel_matrix(X, X, h)
        factor = chol_with_jitter(K, "K_XX")
        f = factor.L @ rng.standard_normal(n)
    else:
        m = min(SPARSE_SAMPLING_INDUCING, n)
        R = rng.uniform(0.0, 1.0, size=(m, d))
        K_RR = kernel_matrix(R, R, h)
        factor = chol_with_jitter(K_RR, "K_RR (sampling)")
        z = rng.standard_normal(m)  # u = L z
        half = factor.whiten(kernel_matrix(X, R, h).T)  # L^-1 K_RX, (m, n)
        mean = half.T @ z  # K_XR K_RR^-1 u
        var = np.maximum(kernel_variance(h) - np.sum(half * half, axis=0), 0.0)
        f = mean + np.sqrt(var) * rng.standard_normal(n)
    y = f + h.sigma_n * rng.standard_normal(n)
    return Dataset(X=X, y=y)


# -- continuous stirred tank reactor -----------------------------------------

CSTR_CB1 = 24.9  # concentrated feed
CSTR_CB2 = 0.1  # diluted feed
CSTR_K1 = 1.0
CSTR_K2 = 1.0
CSTR_W2 = 0.1  # fixed diluted-feed flow rate
CSTR_H0 = 1.0  # initial tank level
CSTR_CB0 = 20.0  # initial product concentration
CSTR_DT_SAMPLE = 0.2  # seconds between samples
CSTR_SUBSTEPS = 10  # RK4 steps per sample


def _cstr_rhs(state: np.ndarray, w1: float) -> np.ndarray:
    level, cb = state
    dh = w1 + CSTR_W2 - 0.2 * np.sqrt(level)
    dcb = (
        (CSTR_CB1 - cb) * w1 / level
        + (CSTR_CB2 - cb) * CSTR_W2 / level
        - CSTR_K1 * cb / (1.0 + CSTR_K2 * cb) ** 2
    )
    return np.array([dh, dcb])


def integrate_cstr(w1_fn, duration: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-step RK4 integration of the two-state tank dynamics from level
    ``CSTR_H0`` and concentration ``CSTR_CB0``.

    Samples every ``CSTR_DT_SAMPLE`` seconds with ``CSTR_SUBSTEPS``
    internal RK4 steps per sample (0.02 s).  A non-positive or non-finite
    state is a :class:`DataError`.  With w1 >= 0 the level rises whenever
    it is below 0.25, so it never falls below min(``CSTR_H0``, 0.25).

    Returns (t, level, cb, w1) at the sample instants.
    """
    if duration <= 0:
        raise ContractViolationError("duration must be positive")
    n_samples = int(round(duration / CSTR_DT_SAMPLE))
    dt = CSTR_DT_SAMPLE / CSTR_SUBSTEPS
    state = np.array([CSTR_H0, CSTR_CB0], dtype=float)
    out = np.empty((4, n_samples + 1))  # rows t, level, cb, w1
    out[:, 0] = 0.0, CSTR_H0, CSTR_CB0, w1_fn(0.0)
    t = 0.0
    for i in range(1, n_samples + 1):
        for _ in range(CSTR_SUBSTEPS):
            w_mid = w1_fn(t + 0.5 * dt)
            k1 = _cstr_rhs(state, w1_fn(t))
            k2 = _cstr_rhs(state + 0.5 * dt * k1, w_mid)
            k3 = _cstr_rhs(state + 0.5 * dt * k2, w_mid)
            k4 = _cstr_rhs(state + dt * k3, w1_fn(t + dt))
            state = state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += dt
            if state[0] <= 0.0 or not np.all(np.isfinite(state)):
                raise DataError(f"tank state {state} at t = {t:g} s is non-positive or non-finite")
        out[:, i] = t, state[0], state[1], w1_fn(t)
    return tuple(out)


def random_step_signal(rng: np.random.Generator, duration: float):
    """Piecewise-constant input: heights U[0, 4], hold times U[5, 20] s."""
    times = [0.0]
    heights = [rng.uniform(0.0, 4.0)]
    while times[-1] < duration:
        times.append(times[-1] + rng.uniform(5.0, 20.0))
        heights.append(rng.uniform(0.0, 4.0))
    t_arr = np.asarray(times)
    h_arr = np.asarray(heights)

    def w1(t: float) -> float:
        return float(h_arr[np.searchsorted(t_arr, t, side="right") - 1])

    return w1


def simulate_cstr(seed: int, duration: float, lag: int = 2, noise_std: float = 0.1) -> Dataset:
    """Simulate the tank under a random step input and emit regression rows.

    Target y_t is the noisy product concentration; features stack the
    ``lag`` previous targets with the current and ``lag`` previous inputs:
    x_t = [y_{t-1}, ..., y_{t-p}, w_t, ..., w_{t-p}], so D = 2p + 1.
    """
    if lag < 1:
        raise ContractViolationError("lag must be >= 1")
    rng = np.random.default_rng(seed)
    w1_fn = random_step_signal(rng, duration)
    _, _, cb, w = integrate_cstr(w1_fn, duration)
    y_obs = cb + noise_std * rng.standard_normal(cb.size)
    p = lag
    rows = []
    targets = []
    for t in range(p, y_obs.size):
        rows.append(np.concatenate([y_obs[t - p : t][::-1], w[t - p : t + 1][::-1]]))
        targets.append(y_obs[t])
    names = [f"y_lag{i}" for i in range(1, p + 1)] + [f"w_lag{i}" for i in range(p + 1)] + ["y"]
    return Dataset(X=np.asarray(rows), y=np.asarray(targets), column_names=names)


# -- metrics ------------------------------------------------------------------


def rmse(y: np.ndarray, mean: np.ndarray) -> float:
    y = np.asarray(y, dtype=float).ravel()
    mean = np.asarray(mean, dtype=float).ravel()
    return float(np.sqrt(np.mean((y - mean) ** 2)))


def coverage(y: np.ndarray, mean: np.ndarray, variance: np.ndarray) -> float:
    """Fraction of targets inside the central 95% predictive interval.

    ``variance`` must already include the observation noise.
    """
    y = np.asarray(y, dtype=float).ravel()
    half_width = 1.96 * np.sqrt(np.asarray(variance, dtype=float).ravel())
    return float(np.mean(np.abs(y - np.asarray(mean).ravel()) <= half_width))


# -- delimited text files ------------------------------------------------------


def _check_delimiter(delimiter) -> None:
    """Refuse, before any file is opened, a delimiter ``csv`` cannot take."""
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ContractViolationError(f"delimiter must be one character, not {delimiter!r}")


def read_table(path: str, delimiter: str = ",") -> tuple[list[str], np.ndarray]:
    """Header and (rows, columns) values of a delimited file with one header row.

    A header that repeats a name is refused before the body is read, as a
    column is looked up by its name.  ``np.loadtxt`` parses the body
    straight from the open file, after the header line: each cell an ASCII
    number, with surrounding blanks and one pair of double quotes allowed;
    blank lines are skipped.  If it refuses the file, or the values are not
    one finite number per header column, a second pass over the rows words
    why: the first ragged row, non-numeric or non-finite cell, or the lack
    of data rows.
    """
    _check_delimiter(delimiter)
    failure = "no data rows"
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = [c.strip() for c in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        for name in header:
            if header.count(name) > 1:
                columns = " and ".join(str(i) for i, n in enumerate(header, start=1) if n == name)
                raise DataError(f"{path}: header repeats column name {name!r} (columns {columns})")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a file with no data rows
                data = np.loadtxt(fh, delimiter=delimiter, comments=None, quotechar='"', ndmin=2)
            if data.size and data.shape[1] == len(header) and np.all(np.isfinite(data)):
                return header, data
        except ValueError as err:
            failure = str(err)
        fh.seek(0)
        next(reader)
        rows = 0
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: row {lineno} has {len(row)} cells, header has {len(header)}")
            for name, cell in zip(header, row):
                try:  # as np.loadtxt reads a cell: an ASCII number between blanks
                    if not cell.strip().isascii() or "_" in cell:
                        raise ValueError
                    val = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric value {cell!r} at row {lineno}, column {name!r}"
                    ) from None
                if not np.isfinite(val):
                    raise DataError(
                        f"{path}: non-finite value {cell!r} at row {lineno}, column {name!r}"
                    )
            rows += 1
    raise DataError(f"{path}: {failure}" if rows else f"{path}: no data rows")


def load_dataset(path: str, target_col: str | None = None, delimiter: str = ",") -> Dataset:
    """Read a delimiter-separated file with one header row.

    The target column is selected by name (default: last column).  Cells
    are read as :func:`read_table` reads them; a ragged row, a non-numeric
    or non-finite cell or a file without data rows is rejected with
    row/column diagnostics.
    """
    header, data = read_table(path, delimiter)
    target = target_col if target_col is not None else header[-1]
    if target not in header:
        raise DataError(f"{path}: target column {target!r} not in header {header}")
    ti = header.index(target)
    mask = np.arange(len(header)) != ti
    names = [h for h in header if h != target] + [target]
    return Dataset(X=data[:, mask], y=data[:, ti], column_names=names)


def save_dataset(ds: Dataset, path: str, delimiter: str = ",") -> None:
    _check_delimiter(delimiter)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(ds.column_names)
        for xi, yi in zip(ds.X, ds.y):
            writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])
