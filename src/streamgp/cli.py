"""Command-line harness: train / predict / evaluate / validate-gradients / simulate.

Exit codes: 0 success, 2 usage, 3 bad data, 4 numerical failure,
5 tolerance exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from ._lapack import ROUTINES
from .batch import batch_bound
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    coverage,
    default_hyperparameters,
    generate_gp_data,
    load_dataset,
    read_table,
    rmse,
    save_dataset,
    simulate_cstr,
)
from .errors import (
    ContractViolationError,
    DataError,
    IllConditionedError,
    NumericalError,
    StreamGPError,
    ToleranceError,
)
from .gradients import init_gradient_state
from .inference import MiniBatch, init_state, predict, split_into_batches
from .kernel import Hyperparameters
from .model import VARIANTS, ModelSpec
from .optimizer import GRADIENT_MODES, AdamState, ResumeState, TrainConfig
from .optimizer import init_inducing_subset, srgp_fit, step

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4
EXIT_TOLERANCE = 5


def delimiter(text: str) -> str:
    """The ``--delimiter`` type: one character, which is all the CSV reader takes."""
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"must be one character, not {text!r}")
    return text


class Setting(NamedTuple):
    """A `train` setting: its flag (for one the run measures, the name
    refusals give it), its type (choices as a tuple; bool for a switch; None
    if measured), its fresh-run default (``...``: a required flag), whether a
    resumed run keeps it, how the checkpoint's arrays say it (else a kept one
    must be in train/config), whether train/config records it, its help."""

    label: str
    kind: object
    default: object
    keep: bool = False
    arrays: Callable[[Checkpoint], object] | None = None
    record: bool = True
    help: str = ""


# Keyed by train/config name; the parser, the resolved settings, train/config
# and the resume refusals (in this order) all read it.
TRAIN_SETTINGS = {
    "data": Setting("--data", str, ..., help="training data file (header + rows)"),
    "target_col": Setting("--target-col", str, None, True, help="target column (default: the last one)"),
    "n_rows": Setting("data row count", None, None, True),
    "data_sha256": Setting("data sha256", None, None, True),
    "epochs": Setting("--epochs", int, 50),
    "model": Setting("--model", VARIANTS, "vfe", True, lambda c: c.spec.variant),
    "alpha": Setting(
        "--alpha", float, 0.5, True, lambda c: c.spec.alpha, help="PEP power (ignored otherwise)"
    ),
    "lr": Setting("--lr", float, 1e-3, True, lambda c: c.adam.learning_rate),
    "batch_size": Setting("--batch-size", int, 256, True, help="at most N"),
    "shuffle": Setting("--shuffle", bool, False, True),
    "gradient_mode": Setting("--gradient-mode", GRADIENT_MODES, "full", True),
    "standardize": Setting(
        "--standardize", bool, False, True, lambda c: c.standardize_mean is not None, help="z-score inputs"
    ),
    "num_inducing": Setting(
        "--num-inducing", int, 20, True, lambda c: c.hyper.num_inducing, help="M, at most N"
    ),
    "seed": Setting("--seed", int, 0, True),
    "blas_threads": Setting("BLAS threads (OPENBLAS_NUM_THREADS)", None, None, True),
    "checkpoint_out": Setting("--checkpoint-out", str, "model.npz", record=False),
    "trace_out": Setting("--trace-out", str, None, record=False, help="append one JSON record per step"),
    "delimiter": Setting("--delimiter", delimiter, ",", record=False),
    "psi_tol": Setting("--psi-tol", float, 0.0, record=False, help="relative early-stop tolerance"),
    "resume": Setting(
        "--resume", str, None, record=False,
        help="checkpoint to continue training from: {flags} default to its values, and the run is "
        "refused (exit 2) if one of them or its {measured} differ from the checkpoint's",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamgp",
        description="Streaming sparse Gaussian process regression",
        formatter_class=argparse.RawDescriptionHelpFormatter,  # keeps --version's lines
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"streamgp {__version__}\nBLAS: {ROUTINES.library}\nBLAS threads: {ROUTINES.num_threads()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model on a delimited data file")
    kept = [s for s in TRAIN_SETTINGS.values() if s.keep]
    flags = ", ".join(s.label for s in kept if s.kind is not None)
    measured = ", ".join(s.label for s in kept if s.kind is None)
    for name, s in TRAIN_SETTINGS.items():
        if s.kind is None:
            continue
        if s.kind is bool:
            kind = {"action": "store_false" if s.default else "store_true"}
        else:
            kind = {"choices": s.kind} if isinstance(s.kind, tuple) else {"type": s.kind}
        default = "" if s.kind is bool or s.default in (None, ...) else f"default {s.default}"
        text = "; ".join(filter(None, [s.help.format(flags=flags, measured=measured), default]))
        # An omitted flag sets no attribute, so a resumed run can take the checkpoint's value.
        p_train.add_argument(
            s.label, dest=name, default=argparse.SUPPRESS, required=s.default is ..., help=text, **kind
        )

    p_pred = sub.add_parser("predict", help="predict from a checkpoint")
    p_eval = sub.add_parser("evaluate", help="RMSE and 95%% coverage on a labelled file")
    for p, scored in ((p_pred, "--inputs"), (p_eval, "--data")):
        p.add_argument("--checkpoint", required=True)
        p.add_argument(scored, required=True)
        p.add_argument("--delimiter", type=delimiter, default=",")
    p_pred.add_argument("--with-noise", action="store_true")
    p_pred.add_argument("--output", default=None, help="output file (default: stdout)")
    p_eval.add_argument("--target-col", default=None)

    p_val = sub.add_parser(
        "validate-gradients",
        help="check recursive bound gradients against finite differences",
    )
    p_val.add_argument("--n", type=int, default=60)
    p_val.add_argument("--d", type=int, default=2)
    p_val.add_argument("--num-inducing", type=int, default=7)
    p_val.add_argument("--num-batches", type=int, default=3)
    p_val.add_argument("--model", default="vfe", choices=VARIANTS)
    p_val.add_argument("--alpha", type=float, default=0.5)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--tolerance", type=float, default=1e-4)
    p_val.add_argument("--fd-step", type=float, default=1e-5)

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset to a file")
    sim_sub = p_sim.add_subparsers(dest="generator", required=True)
    p_gp = sim_sub.add_parser("gp", help="draw from a GP prior on [0,1]^D")
    p_gp.add_argument("--n", type=int, required=True)
    p_gp.add_argument("--d", type=int, default=1)
    p_gp.add_argument("--seed", type=int, default=0)
    p_gp.add_argument("--sigma0", type=float, default=1.0)
    p_gp.add_argument(
        "--lengthscale", type=float, nargs="+", default=[0.1], help="one value or one per dimension"
    )
    p_gp.add_argument("--noise-std", type=float, default=0.1)
    p_gp.add_argument("--out", required=True)
    p_cstr = sim_sub.add_parser("cstr", help="continuous stirred tank reactor rollout")
    p_cstr.add_argument("--duration", type=float, required=True, help="seconds of simulated time")
    p_cstr.add_argument("--lag", type=int, default=2)
    p_cstr.add_argument("--seed", type=int, default=0)
    p_cstr.add_argument("--noise-std", type=float, default=0.1)
    p_cstr.add_argument("--out", required=True)
    return parser


def _apply_standardize(X: np.ndarray, mean, scale) -> np.ndarray:
    return X if mean is None else (X - mean) / scale


def cmd_train(args) -> int:
    given, stored, ckpt = vars(args), {}, None
    if "resume" in given:
        ckpt = load_checkpoint(given["resume"])
        stored = dict(ckpt.config or {})
        unknown = [k for k, s in TRAIN_SETTINGS.items() if s.keep and s.arrays is None and k not in stored]
        if unknown:
            raise ContractViolationError(
                f"{given['resume']} has no train/config record of {', '.join(unknown)}; cannot resume"
            )
        if stored.get("epoch_reset") is False:
            raise ContractViolationError(
                f"{given['resume']} was trained without epoch resets, which train no longer "
                "offers; cannot resume"
            )
        if ckpt.adam is None or ckpt.rng_state is None:
            raise DataError(f"{given['resume']} lacks optimizer/RNG state; cannot resume")
        stored.update({k: s.arrays(ckpt) for k, s in TRAIN_SETTINGS.items() if s.arrays is not None})
    # As given, else (for a kept setting) as the resumed checkpoint says, else the default.
    settings = {
        k: given.get(k, stored.get(k, s.default) if s.keep else s.default) for k, s in TRAIN_SETTINGS.items()
    }
    # Before any work, so that a mistyped output path costs no training run.
    for k in ("checkpoint_out", "trace_out"):
        if settings[k] and not os.path.isdir(os.path.dirname(settings[k]) or "."):
            raise DataError(f"{TRAIN_SETTINGS[k].label} {settings[k]}: no such directory")
    ds = load_dataset(settings["data"], target_col=settings["target_col"], delimiter=settings["delimiter"])
    # The rows as read, before standardizing: a resumed run continues the
    # stored recursion only on the same data.
    digest = hashlib.sha256(np.ascontiguousarray(ds.X))
    digest.update(np.ascontiguousarray(ds.y))
    settings.update(
        target_col=ds.column_names[-1],
        n_rows=ds.n,
        data_sha256=digest.hexdigest(),
        batch_size=min(settings["batch_size"], ds.n),
        num_inducing=min(settings["num_inducing"], ds.n),
        # Results depend on the BLAS thread count.
        blas_threads=ROUTINES.num_threads(),
    )
    for k, s in TRAIN_SETTINGS.items():
        if ckpt is not None and s.keep and settings[k] != stored[k]:
            raise ContractViolationError(
                f"{s.label} {settings[k]} differs from the resumed checkpoint's {stored[k]}; "
                "a resumed run keeps its settings and data"
            )
    epochs = settings["epochs"]
    if ckpt is not None and ckpt.epochs_done >= epochs:
        print(
            f"nothing to do: checkpoint already trained {ckpt.epochs_done} epochs "
            f">= requested total {epochs}"
        )
        return EXIT_OK

    spec = ModelSpec(variant=settings["model"], alpha=settings["alpha"])
    resume = None
    if ckpt is not None:
        hyper, std_mean, std_scale = ckpt.hyper, ckpt.standardize_mean, ckpt.standardize_scale
        resume = ResumeState(adam=ckpt.adam, rng_state=ckpt.rng_state, epochs_done=ckpt.epochs_done)
    elif settings["standardize"]:
        std_mean, std_scale = ds.X.mean(axis=0), ds.X.std(axis=0)
        std_scale[std_scale == 0.0] = 1.0
    else:
        std_mean = std_scale = None
    X = _apply_standardize(ds.X, std_mean, std_scale)
    if ckpt is None:
        R = init_inducing_subset(X, settings["num_inducing"], np.random.default_rng(settings["seed"]))
        hyper = Hyperparameters(
            log_sigma0=0.0, log_lengthscales=np.zeros(ds.input_dim), log_sigma_n=0.0, inducing_inputs=R
        )

    if epochs == 0:
        # No training: checkpoint the prior posterior at the initial parameters.
        posterior = init_state(hyper)
        adam = AdamState.fresh(hyper.n_params, settings["lr"])
        rng_state = np.random.default_rng(settings["seed"]).bit_generator.state
        trace = []
        epochs_run = 0
    else:
        cfg = TrainConfig(
            epochs=epochs,
            batch_size=settings["batch_size"],
            learning_rate=settings["lr"],
            shuffle=settings["shuffle"],
            seed=settings["seed"],
            psi_rel_tolerance=settings["psi_tol"],
            gradient_mode=settings["gradient_mode"],
        )
        result = srgp_fit(X, ds.y, hyper, spec, cfg, resume_from=resume)
        hyper, posterior, trace = result.hyper, result.posterior, result.trace
        adam, rng_state, epochs_run = result.adam, result.rng_state, result.epochs_run

    out = settings["checkpoint_out"]
    save_checkpoint(
        out,
        Checkpoint(
            hyper=hyper,
            spec=spec,
            state=posterior,
            adam=adam,
            rng_state=rng_state,
            epochs_done=epochs_run,
            config={k: settings[k] for k, s in TRAIN_SETTINGS.items() if s.record},
            standardize_mean=std_mean,
            standardize_scale=std_scale,
        ),
    )
    # After the checkpoint, so that a trace that cannot be written loses no model.
    if settings["trace_out"] and trace:
        with open(settings["trace_out"], "a") as fh:
            fh.writelines(json.dumps(asdict(rec)) + "\n" for rec in trace)
    print(
        f"trained {spec.variant} model: epochs={epochs_run} psi={posterior.psi:.6f} "
        f"steps={len(trace)} -> {out}"
    )
    return EXIT_OK


def _read_scored_file(path: str, delimiter: str, ckpt: Checkpoint, target_col: str | None = None):
    """The standardized features of a file scored against ``ckpt``, and its
    targets: None for a file of exactly D columns, else the column that
    ``target_col`` names, else the checkpoint's recorded ``target_col``,
    else the column ``y``, else the last one."""
    header, data = read_table(path, delimiter)
    d = ckpt.hyper.input_dim
    y = None
    if data.shape[1] == d + 1:
        if target_col is None:
            recorded = (ckpt.config or {}).get("target_col")
            target_col = next((c for c in (recorded, "y") if c in header), header[-1])
        if target_col not in header:
            raise DataError(f"{path}: target column {target_col!r} not in header {header}")
        ti = header.index(target_col)
        y, data = data[:, ti], np.delete(data, ti, axis=1)
    elif data.shape[1] != d:
        raise DataError(
            f"{path}: {data.shape[1]} columns, model expects {d} features (+1 optional target)"
        )
    return _apply_standardize(data, ckpt.standardize_mean, ckpt.standardize_scale), y


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    X, _ = _read_scored_file(args.inputs, args.delimiter, ckpt)
    dist = predict(ckpt.state, X, ckpt.hyper, ckpt.spec, with_noise=args.with_noise)
    half = 1.96 * np.sqrt(dist.variance)
    out = sys.stdout if args.output is None else open(args.output, "w")
    try:
        out.write("mean,variance,lower95,upper95\n")
        for mu, v, hw in zip(dist.mean, dist.variance, half):
            out.write(f"{float(mu)!r},{float(v)!r},{float(mu - hw)!r},{float(mu + hw)!r}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_evaluate(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    X, y = _read_scored_file(args.data, args.delimiter, ckpt, args.target_col)
    if y is None:
        raise DataError(f"{args.data}: has only the model's D = {X.shape[1]} feature columns, no target")
    dist = predict(ckpt.state, X, ckpt.hyper, ckpt.spec, with_noise=True)
    metrics = {"rmse": rmse(y, dist.mean), "coverage": coverage(y, dist.mean, dist.variance)}
    print(json.dumps({**metrics, "n": int(y.size)}))
    return EXIT_OK


def cmd_validate_gradients(args) -> int:
    if args.num_batches < 1:
        raise ContractViolationError(f"--num-batches must be >= 1, got {args.num_batches}")
    spec = ModelSpec(variant=args.model, alpha=args.alpha)
    h_gen = default_hyperparameters(d=args.d, lengthscale=0.3, noise_std=0.2)
    ds = generate_gp_data(args.seed, args.n, d=args.d, h=h_gen)
    rng = np.random.default_rng(args.seed + 1)
    hyper = Hyperparameters(
        log_sigma0=float(np.log(1.2)),
        log_lengthscales=np.log(np.full(args.d, 0.35)),
        log_sigma_n=float(np.log(0.25)),
        inducing_inputs=init_inducing_subset(ds.X, args.num_inducing, rng),
    )
    batch_size = max(1, int(np.ceil(args.n / args.num_batches)))

    state = init_state(hyper)
    gstate = init_gradient_state(hyper)
    for idx in split_into_batches(args.n, batch_size):
        state, gstate = step(state, gstate, MiniBatch(ds.X[idx], ds.y[idx]), hyper, spec)

    reference = batch_bound(ds.X, ds.y, hyper, spec, fd_step=args.fd_step).gradient
    floor = 1e-7
    by_class: dict[str, float] = {}
    for i in range(hyper.n_params):
        cls = hyper.param_class(i)[0]
        err = abs(gstate.d_psi[i] - reference[i]) / max(abs(reference[i]), floor / args.tolerance)
        by_class[cls] = max(by_class.get(cls, 0.0), err)
    for cls, err in by_class.items():
        print(f"{cls:18s} max_rel_err={err:.3e} [{'ok' if err <= args.tolerance else 'FAIL'}]")
    if max(by_class.values()) > args.tolerance:
        raise ToleranceError(
            f"recursive gradient disagrees with finite differences beyond {args.tolerance:g}"
        )
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.generator == "gp":
        ls = args.lengthscale
        if len(ls) == 1:
            ls = ls * args.d
        if len(ls) != args.d:
            raise ContractViolationError(
                f"--lengthscale needs 1 or {args.d} values, got {len(ls)}"
            )
        h = default_hyperparameters(
            d=args.d, sigma0=args.sigma0, lengthscale=np.asarray(ls), noise_std=args.noise_std
        )
        ds = generate_gp_data(args.seed, args.n, d=args.d, h=h)
    else:
        ds = simulate_cstr(args.seed, args.duration, lag=args.lag, noise_std=args.noise_std)
    save_dataset(ds, args.out)
    print(f"wrote {ds.n} rows ({ds.input_dim} features) -> {args.out}")
    return EXIT_OK


COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "validate-gradients": cmd_validate_gradients,
    "simulate": cmd_simulate,
}


# Exit code and stderr prefix of each error the commands raise, the first
# matching class winning.
ERRORS = (
    (ContractViolationError, EXIT_USAGE, "usage error"),
    ((DataError, OSError), EXIT_DATA, "data error"),
    ((IllConditionedError, NumericalError), EXIT_NUMERICAL, "numerical error"),
    (ToleranceError, EXIT_TOLERANCE, "tolerance exceeded"),
    (StreamGPError, EXIT_NUMERICAL, "error"),
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (StreamGPError, OSError) as err:
        code, prefix = next((code, prefix) for cls, code, prefix in ERRORS if isinstance(err, cls))
        print(f"{prefix}: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
