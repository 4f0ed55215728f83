"""Interleaved stochastic training of hyper-parameters and posterior.

One epoch re-initializes the posterior and its derivative state at the
current parameters, then walks the K mini-batches: each :func:`step`
analytically absorbs the batch into the posterior and advances the
gradient recursion, and one ascent step of bias-corrected ADAM follows on
the per-batch bound increment.  The per-epoch reset makes the cumulative
bound of an epoch comparable to the batch bound (they are equal at fixed
parameters).

The loop is strictly sequential: the stochastic gradient at step k
depends on the one at k-1 through the carried posterior.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError, DataError, NumericalError
from .gradients import GradientState, compute_adjoints, init_gradient_state, propagate
from .inference import (
    MiniBatch,
    PosteriorState,
    init_state,
    split_into_batches,
    update,
)
from .kernel import Hyperparameters, as_rows, as_xy
from .model import ModelSpec

GRADIENT_MODES = ("full", "ignore_history")
# ADAM's decay rates of the first and second moments and its denominator
# offset (Kingma and Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class AdamState:
    """Bias-corrected adaptive-moment accumulator, with the fixed
    ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPSILON``."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    learning_rate: float

    @classmethod
    def fresh(cls, n_params: int, learning_rate: float) -> "AdamState":
        return cls(np.zeros(n_params), np.zeros(n_params), 0, learning_rate)


def adam_step(theta: np.ndarray, grad: np.ndarray, st: AdamState) -> tuple[np.ndarray, AdamState]:
    """One ascent step: theta + lr * mhat / (sqrt(vhat) + eps).

    The sign convention is maximization of the bound, so ``grad`` is the
    raw bound gradient (no negation by the caller).
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise DataError("adam_step received a non-finite gradient")
    t = st.step_count + 1
    m = ADAM_BETA1 * st.first_moment + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * st.second_moment + (1.0 - ADAM_BETA2) * grad**2
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    theta_new = theta + st.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    if not np.all(np.isfinite(theta_new)):
        bad = int(np.argmax(~np.isfinite(theta_new)))
        raise NumericalError(
            f"non-finite parameter after ADAM step {t} (coordinate {bad}, "
            f"grad={grad[bad]!r}, lr={st.learning_rate})"
        )
    return theta_new, replace(st, first_moment=m, second_moment=v, step_count=t)


@dataclass(frozen=True)
class TrainConfig:
    """Settings of :func:`srgp_fit`; ADAM's other constants are the fixed
    ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPSILON``."""

    epochs: int
    batch_size: int
    learning_rate: float = 1e-3
    shuffle: bool = False
    seed: int = 0
    psi_rel_tolerance: float = 0.0  # 0 disables early stopping
    gradient_mode: str = "full"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ContractViolationError("epochs and batch_size must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ContractViolationError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.gradient_mode not in GRADIENT_MODES:
            raise ContractViolationError(f"gradient_mode must be one of {GRADIENT_MODES}")


@dataclass
class TraceRecord:
    """One gradient step: per-batch bound term, gradient norm, wall time."""

    epoch: int
    batch: int
    psi_k: float
    grad_norm: float
    wall_ms: float


@dataclass
class ResumeState:
    """Training-loop state captured at an epoch boundary."""

    adam: AdamState
    rng_state: dict
    epochs_done: int


@dataclass
class FitResult:
    hyper: Hyperparameters
    posterior: PosteriorState
    trace: list[TraceRecord]
    adam: AdamState
    rng_state: dict
    epochs_run: int


def init_inducing_subset(X: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Random subset of training inputs used to seed the inducing inputs."""
    X = as_rows(X, False)
    n = X.shape[0]
    if not 1 <= m <= n:
        raise ContractViolationError(f"cannot pick {m} inducing inputs from {n} rows: the count must be in 1..{n}")
    return X[rng.permutation(n)[:m]].copy()


def step(
    state: PosteriorState,
    gstate: GradientState,
    batch: MiniBatch,
    h: Hyperparameters,
    spec: ModelSpec,
    *,
    ignore_history: bool = False,
    advance: bool = True,
) -> tuple[PosteriorState, GradientState]:
    """One step of the recursion at fixed ``h``: absorb ``batch``, take the
    adjoints of its bound term, and propagate ``gstate`` across it, which
    spends ``gstate`` except for its ``d_psi`` (see
    :func:`~streamgp.gradients.propagate`, whose keywords these are).  The
    step's bound term and gradient are the changes in ``psi`` and ``d_psi``.
    """
    state_new, km = update(state, batch, h, spec)
    adj = compute_adjoints(state, state_new, km, h, spec)
    gstate_new = propagate(
        gstate, adj, km.geometry, h, spec, batch, ignore_history=ignore_history, advance=advance
    )
    return state_new, gstate_new


def srgp_fit(
    X: np.ndarray,
    y: np.ndarray,
    theta0: Hyperparameters,
    spec: ModelSpec,
    cfg: TrainConfig,
    resume_from: ResumeState | None = None,
) -> FitResult:
    """Stochastic recursive training loop.

    Returns the final hyper-parameters, a clean posterior from one extra
    gradient-free pass at those parameters, and the full step trace.  A
    resumed fit keeps ``resume_from``'s ADAM moments and step count and
    steps at ``cfg.learning_rate``, and cannot stop early: it lacks the
    previous epoch's bound.  A numerical failure names its epoch (from 1)
    before the failing layer's own message.
    """
    X, y = as_xy(X, y)
    n = y.size
    if cfg.batch_size > n:
        raise ContractViolationError(f"batch_size {cfg.batch_size} exceeds N={n}")
    if resume_from is not None and cfg.psi_rel_tolerance > 0.0:
        raise ContractViolationError("a resumed fit cannot stop early: it lacks the previous epoch's bound")

    h = theta0
    theta = h.to_vector()
    if resume_from is None:
        adam = AdamState.fresh(theta.size, cfg.learning_rate)
        rng = np.random.default_rng(cfg.seed)
        start_epoch = 0
    else:
        adam = replace(resume_from.adam, learning_rate=cfg.learning_rate)
        rng = np.random.default_rng()
        rng.bit_generator.state = resume_from.rng_state
        start_epoch = resume_from.epochs_done

    trace: list[TraceRecord] = []
    gstate = None
    prev_epoch_psi: float | None = None
    epochs_run = start_epoch
    ignore_history = cfg.gradient_mode == "ignore_history"

    for epoch in range(start_epoch, cfg.epochs):
        state = init_state(h)
        # Built in the finished epoch's arrays, so that one packed
        # (P, M (M + 1) / 2) derivative state serves the whole fit.
        gstate = init_gradient_state(h, reuse=gstate)
        order = rng.permutation(n) if cfg.shuffle else None
        batches = split_into_batches(n, cfg.batch_size, order)
        for k, idx in enumerate(batches):
            t0 = time.perf_counter()
            try:
                # Nothing reads the derivative state after an epoch's last batch.
                state_new, gstate_new = step(
                    state, gstate, MiniBatch(X[idx], y[idx]), h, spec,
                    ignore_history=ignore_history, advance=k + 1 < len(batches),
                )
            except NumericalError as err:
                raise NumericalError(f"epoch {epoch + 1}: {err}") from None
            psi_k = state_new.psi - state.psi
            grad = gstate_new.d_psi - gstate.d_psi
            theta, adam = adam_step(theta, grad, adam)
            h = h.with_vector(theta)
            state, gstate = state_new, gstate_new
            trace.append(
                TraceRecord(
                    epoch=epoch,
                    batch=k,
                    psi_k=float(psi_k),
                    grad_norm=float(np.linalg.norm(grad)),
                    wall_ms=(time.perf_counter() - t0) * 1e3,
                )
            )
        epochs_run = epoch + 1
        epoch_psi = state.psi
        if (
            cfg.psi_rel_tolerance > 0.0
            and prev_epoch_psi is not None
            and abs(epoch_psi - prev_epoch_psi) <= cfg.psi_rel_tolerance * max(abs(prev_epoch_psi), 1.0)
        ):
            break
        prev_epoch_psi = epoch_psi

    posterior = fixed_theta_pass(X, y, h, spec, cfg.batch_size)
    return FitResult(
        hyper=h,
        posterior=posterior,
        trace=trace,
        adam=adam,
        rng_state=rng.bit_generator.state,
        epochs_run=epochs_run,
    )


def fixed_theta_pass(
    X: np.ndarray,
    y: np.ndarray,
    h: Hyperparameters,
    spec: ModelSpec,
    batch_size: int,
) -> PosteriorState:
    """One gradient-free pass over the data in natural order (standard
    parametrization)."""
    X, y = as_xy(X, y)
    state = init_state(h)
    for idx in split_into_batches(y.size, batch_size):
        state, _ = update(state, MiniBatch(X[idx], y[idx]), h, spec)
    return state
