"""Interleaved stochastic training of hyper-parameters and posterior.

One epoch re-initializes the posterior and its derivative state at the
current parameters, then walks the K mini-batches: each step analytically
absorbs the batch into the posterior, advances the gradient recursion,
and takes one ascent step of bias-corrected ADAM on the per-batch bound
increment.  The per-epoch reset makes the cumulative bound of an epoch
comparable to the batch bound (they are equal at fixed parameters);
carrying state across epochs is available behind a flag for study.

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
from .kernel import Hyperparameters, _check_inputs, as_rows
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
    reset_each_epoch: bool = True

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ContractViolationError("epochs and batch_size must be >= 1")
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
    if m > X.shape[0]:
        raise ContractViolationError(f"cannot pick {m} inducing inputs from {X.shape[0]} rows")
    idx = rng.permutation(X.shape[0])[:m]
    return X[idx].copy()


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
    steps at ``cfg.learning_rate``.
    """
    X = _check_inputs(X, theta0, "X")
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    if n < 1:
        raise DataError("empty training set")
    if cfg.batch_size > n:
        raise ContractViolationError(f"batch_size {cfg.batch_size} exceeds N={n}")

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
    state: PosteriorState | None = None
    gstate: GradientState | None = None
    prev_epoch_psi: float | None = None
    epochs_run = start_epoch
    ignore_history = cfg.gradient_mode == "ignore_history"

    for epoch in range(start_epoch, cfg.epochs):
        if state is None or cfg.reset_each_epoch:
            # Release the finished epoch's states first, so that only one
            # packed (P, M (M + 1) / 2) derivative state is alive while the
            # next is built.
            state = gstate = state_new = gstate_new = None
            state = init_state(h, spec)
            gstate = init_gradient_state(h, spec)
        order = rng.permutation(n) if cfg.shuffle else None
        for k, idx in enumerate(split_into_batches(n, cfg.batch_size, order)):
            t0 = time.perf_counter()
            batch = MiniBatch(X[idx], y[idx])
            try:
                state_new, km = update(state, batch, h, spec)
                adj = compute_adjoints(state, state_new, km, h, spec)
                gstate_new = propagate(
                    gstate, adj, km.geometry, h, spec, batch, ignore_history=ignore_history
                )
            except NumericalError as err:
                raise NumericalError(f"epoch {epoch}, mini-batch {k}: {err}") from None
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
    X = _check_inputs(X, h, "X")
    y = np.asarray(y, dtype=float).ravel()
    state = init_state(h, spec)
    for idx in split_into_batches(y.size, batch_size):
        state, _ = update(state, MiniBatch(X[idx], y[idx]), h, spec)
    return state
