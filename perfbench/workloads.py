"""The benchmark's workloads: seeded inputs, the timed unit of work, the gates.

Every workload has the same parts:

* ``make_inputs`` writes the workload's files from a seed; it runs before
  any timing, and the timed process receives only these files;
* ``load`` reads the files back (this is set-up time);
* ``first_op`` does the first piece of work a user waits for, which ends
  the set-up measurement;
* ``unit`` is one timed unit of work and returns
  ``(rows, step_seconds, output)``, step times in CPU seconds (see
  ``child.py`` for why);
* ``outputs`` picks from a unit's output the values the canary compares;
* ``gates`` checks the outputs of the timed units for correctness, untimed.

The library is called through its module attributes (``optimizer.srgp_fit``
and so on), so that the spans of ``spans.Tracer`` see every call.

``PARAMS["full"]`` is what the benchmark measures; ``PARAMS["tiny"]`` is the
same work at a size that runs in well under a second, used by the canary
gate and the self-test.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from streamgp import batch, checkpoint, data, inference, optimizer
from streamgp.kernel import Hyperparameters
from streamgp.model import ModelSpec

PARAMS = {
    "full": {
        "train-cstr": {
            "duration": 2000, "lag": 2, "variant": "pep", "alpha": 0.5,
            "M": 50, "B": 256, "epochs": 3, "lr": 1e-3,
        },
        "serve-eval": {
            "train_duration": 400, "heldout_duration": 800, "lag": 2, "variant": "pep",
            "alpha": 0.5, "M": 50, "B": 256, "epochs": 1, "lr": 1e-3,
        },
    },
    "tiny": {
        "train-cstr": {
            "duration": 60, "lag": 2, "variant": "pep", "alpha": 0.5,
            "M": 8, "B": 32, "epochs": 2, "lr": 1e-3,
        },
        "serve-eval": {
            "train_duration": 60, "heldout_duration": 40, "lag": 2, "variant": "pep",
            "alpha": 0.5, "M": 8, "B": 32, "epochs": 1, "lr": 1e-3,
        },
    },
}

# Relative tolerance of ``psi`` against ``batch_bound`` at the same parameters.
# Both sides sum the same terms in another order; 1e-9 leaves room for
# round-off over 1e4 rows while catching any term that is wrong.
BOUND_RTOL = 1e-9
# Relative tolerance of a canary output against its recorded reference.  The
# canary trains by ADAM, which carries round-off from one step to the next.
CANARY_RTOL = 1e-6


def sub_seed(seed: int, stream: int) -> int:
    """An independent integer seed derived from ``seed`` for input ``stream``."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _initial_hyper(X: np.ndarray, m: int, seed: int) -> Hyperparameters:
    # The same start as ``streamgp train``: unit amplitude, lengthscales and
    # noise, inducing inputs a seeded subset of the training inputs.
    return Hyperparameters(
        log_sigma0=0.0,
        log_lengthscales=np.zeros(X.shape[1]),
        log_sigma_n=0.0,
        inducing_inputs=optimizer.init_inducing_subset(X, m, np.random.default_rng(seed)),
    )


def _spec(p: dict) -> ModelSpec:
    return ModelSpec(p["variant"], p.get("alpha", 1.0))


def _train_config(p: dict, seed: int) -> optimizer.TrainConfig:
    return optimizer.TrainConfig(
        epochs=p["epochs"], batch_size=p["B"], learning_rate=p["lr"], shuffle=False, seed=seed
    )


class TrainCstr:
    """Interleaved training on a stirred-tank-reactor rollout."""

    def make_inputs(self, p: dict, seed: int, out: Path) -> None:
        ds = data.simulate_cstr(seed, p["duration"], lag=p["lag"])
        data.save_dataset(ds, str(out / "train.csv"))

    def load(self, p: dict, seed: int, inputs: Path) -> dict:
        ds = data.load_dataset(str(inputs / "train.csv"))
        return {
            "X": ds.X,
            "y": ds.y,
            "h0": _initial_hyper(ds.X, p["M"], seed),
            "spec": _spec(p),
            "cfg": _train_config(p, seed),
            "out": inputs / "model.npz",
        }

    def first_op(self, ctx: dict) -> None:
        # One epoch over the first mini-batch: init, one absorbed step, and
        # the closing gradient-free pass.
        B = ctx["cfg"].batch_size
        optimizer.srgp_fit(
            ctx["X"][:B], ctx["y"][:B], ctx["h0"], ctx["spec"], replace(ctx["cfg"], epochs=1)
        )

    def unit(self, ctx: dict):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        res = optimizer.srgp_fit(ctx["X"], ctx["y"], ctx["h0"], ctx["spec"], ctx["cfg"])
        cpu_per_wall = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
        # Write the fitted model as ``streamgp train --checkpoint-out`` does.
        checkpoint.save_checkpoint(
            str(ctx["out"]),
            checkpoint.Checkpoint(
                version=1, hyper=res.hyper, spec=ctx["spec"], state=res.posterior,
                adam=res.adam, rng_state=res.rng_state, epochs_done=res.epochs_run,
            ),
        )
        # The fit's own per-step wall times, in CPU time at the fit's ratio.
        steps = [rec.wall_ms / 1e3 * cpu_per_wall for rec in res.trace]
        return res.epochs_run * ctx["y"].size, steps, res

    def outputs(self, res) -> dict:
        return {"psi": float(res.posterior.psi)}

    def gates(self, ctx: dict, results: list) -> list[tuple[str, bool, str]]:
        last = results[-1]
        bound = batch.batch_bound(
            ctx["X"], ctx["y"], last.hyper, ctx["spec"], with_gradient=False
        ).value
        err = rel_err(last.posterior.psi, bound)
        psis = {float(r.posterior.psi) for r in results}
        return [
            ("psi_equals_batch_bound", err <= BOUND_RTOL, f"rel err {err:.3g}"),
            ("fits_repeat_bitwise", len(psis) == 1, f"{len(psis)} distinct psi"),
        ]


class ServeEval:
    """``streamgp evaluate``: a trained checkpoint scored on a held-out file."""

    def make_inputs(self, p: dict, seed: int, out: Path) -> None:
        train = data.simulate_cstr(sub_seed(seed, 0), p["train_duration"], lag=p["lag"])
        spec = _spec(p)
        res = optimizer.srgp_fit(
            train.X, train.y, _initial_hyper(train.X, p["M"], seed), spec, _train_config(p, seed)
        )
        checkpoint.save_checkpoint(
            str(out / "model.npz"),
            checkpoint.Checkpoint(version=1, hyper=res.hyper, spec=spec, state=res.posterior),
        )
        heldout = data.simulate_cstr(sub_seed(seed, 1), p["heldout_duration"], lag=p["lag"])
        data.save_dataset(heldout, str(out / "heldout.csv"))

    def load(self, p: dict, seed: int, inputs: Path) -> dict:
        ckpt = checkpoint.load_checkpoint(str(inputs / "model.npz"))
        ds = data.load_dataset(str(inputs / "heldout.csv"))
        return {"ckpt": ckpt, "X": ds.X, "y": ds.y}

    def first_op(self, ctx: dict) -> None:
        c = ctx["ckpt"]
        inference.predict(c.state, ctx["X"][:1], c.hyper, c.spec, with_noise=True)

    def unit(self, ctx: dict):
        c, y = ctx["ckpt"], ctx["y"]
        dist = inference.predict(c.state, ctx["X"], c.hyper, c.spec, with_noise=True)
        scores = {
            "rmse": data.rmse(y, dist.mean),
            "coverage": data.coverage(y, dist.mean, dist.variance),
        }
        return y.size, [], scores

    def outputs(self, scores) -> dict:
        return dict(scores)

    def gates(self, ctx: dict, results: list) -> list[tuple[str, bool, str]]:
        scores = results[-1]
        rmse, cov = scores["rmse"], scores["coverage"]
        ref_rmse, ref_cov, cond = _reference_scores(ctx)
        # Both sides solve with K_RR, by different factorizations, so they
        # agree to about cond(K_RR) * eps; allow a hundred times that.
        rtol = max(BOUND_RTOL, 100.0 * cond * np.finfo(float).eps)
        n = ctx["y"].size
        return [
            (
                "scores_finite_and_in_range",
                math.isfinite(rmse) and math.isfinite(cov) and 0.0 <= cov <= 1.0,
                f"rmse {rmse!r} coverage {cov!r}",
            ),
            (
                "scores_equal_independent_recomputation",
                rel_err(rmse, ref_rmse) <= rtol and abs(cov - ref_cov) <= 1.0 / n,
                f"rmse {rmse!r} vs {ref_rmse!r} (rtol {rtol:.2g}), coverage {cov!r} vs {ref_cov!r}",
            ),
            ("evaluations_repeat_bitwise", all(s == scores for s in results), ""),
        ]


def _reference_scores(ctx: dict) -> tuple[float, float, float]:
    """RMSE and 95% coverage recomputed with plain NumPy from the checkpoint,
    and the condition number of K_RR.

    Standard parametrization: H = K_sR K_RR^-1, mean = H Sigma eta and
    var = diag(H Sigma H^T) + k_ss - diag(H K_RS) + sigma_n^2 (every variant
    but SoR adds the Schur diagonal).  Shares no code with ``predict``.
    """
    c = ctx["ckpt"]
    h, state, X, y = c.hyper, c.state, ctx["X"], ctx["y"]
    if state.parametrization != "standard" or c.spec.variant == "sor":
        raise ValueError("recomputation covers the standard parametrization of non-SoR models")
    R = h.inducing_inputs
    ell = np.exp(h.log_lengthscales)
    amp = np.exp(2.0 * h.log_sigma0)

    def k(a, b):
        diff = a[:, None, :] / ell - b[None, :, :] / ell
        return amp * np.exp(-0.5 * np.sum(diff * diff, axis=-1))

    K_sR = k(X, R)
    K_RR = k(R, R)
    H = np.linalg.solve(K_RR, K_sR.T).T
    mean = H @ (state.Sigma @ state.eta)
    var = (
        np.sum((H @ state.Sigma) * H, axis=1)
        + amp
        - np.sum(H * K_sR, axis=1)
        + np.exp(2.0 * h.log_sigma_n)
    )
    rmse = float(np.sqrt(np.mean((y - mean) ** 2)))
    cov = float(np.mean(np.abs(y - mean) <= 1.96 * np.sqrt(var)))
    return rmse, cov, float(np.linalg.cond(K_RR))


WORKLOADS = {"train-cstr": TrainCstr(), "serve-eval": ServeEval()}
NAMES = tuple(WORKLOADS)
