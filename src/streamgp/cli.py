"""Command-line harness: train / predict / evaluate / validate-gradients / simulate.

Exit codes: 0 success, 2 usage, 3 bad data, 4 numerical failure,
5 tolerance exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

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
from .gradients import compute_adjoints, init_gradient_state, propagate
from .inference import PARAM_STANDARD, MiniBatch, init_state, predict, split_into_batches, update
from .kernel import Hyperparameters
from .model import ModelSpec
from .optimizer import (
    AdamState,
    ResumeState,
    TrainConfig,
    init_inducing_subset,
    srgp_fit,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4
EXIT_TOLERANCE = 5

# Training settings a resumed run must share with its checkpoint, with their
# defaults for a fresh run.  An omitted flag takes the checkpoint's value.
RESUMED_SETTINGS = {
    "model": "vfe",
    "alpha": 0.5,
    "lr": 1e-3,
    "batch_size": 256,
    "shuffle": False,
    "gradient_mode": "full",
    "standardize": False,
    "num_inducing": 20,
    "seed": 0,
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
    p_train.add_argument("--data", required=True, help="training data file (header + rows)")
    p_train.add_argument("--model", choices=["sor", "dtc", "fitc", "vfe", "pep"], help="default vfe")
    p_train.add_argument("--alpha", type=float, help="PEP power (ignored otherwise), default 0.5")
    p_train.add_argument("--num-inducing", type=int, default=None, metavar="M", help="default 20")
    p_train.add_argument("--batch-size", type=int, default=None, metavar="B", help="default 256")
    p_train.add_argument("--epochs", type=int, default=50, metavar="E")
    p_train.add_argument("--lr", type=float, default=None, help="default 1e-3")
    p_train.add_argument("--seed", type=int, default=None, help="default 0")
    p_train.add_argument("--checkpoint-out", default="model.npz")
    p_train.add_argument("--trace-out", default=None, help="append one JSON record per step")
    p_train.add_argument("--target-col", default=None)
    p_train.add_argument("--delimiter", default=",")
    p_train.add_argument("--shuffle", action="store_true", default=None)
    p_train.add_argument(
        "--standardize", action="store_true", default=None, help="z-score input columns"
    )
    p_train.add_argument(
        "--gradient-mode", default=None, choices=["full", "ignore_history"], help="default full"
    )
    p_train.add_argument("--psi-tol", type=float, default=0.0, help="relative early-stop tolerance")
    p_train.add_argument("--no-epoch-reset", action="store_true", help="carry posterior across epochs")
    p_train.add_argument(
        "--resume",
        default=None,
        help="checkpoint to continue training from; --model, --alpha, --lr, --batch-size, "
        "--shuffle, --gradient-mode, --standardize, --num-inducing and --seed default to its "
        "values and may not differ from them",
    )

    p_pred = sub.add_parser("predict", help="predict from a checkpoint")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--inputs", required=True)
    p_pred.add_argument("--delimiter", default=",")
    p_pred.add_argument("--with-noise", action="store_true")
    p_pred.add_argument("--output", default=None, help="output file (default: stdout)")

    p_eval = sub.add_parser("evaluate", help="RMSE and 95%% coverage on a labelled file")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--target-col", default=None)
    p_eval.add_argument("--delimiter", default=",")

    p_val = sub.add_parser(
        "validate-gradients",
        help="check recursive bound gradients against finite differences",
    )
    p_val.add_argument("--n", type=int, default=60)
    p_val.add_argument("--d", type=int, default=2)
    p_val.add_argument("--num-inducing", type=int, default=7)
    p_val.add_argument("--num-batches", type=int, default=3)
    p_val.add_argument("--model", default="vfe", choices=["sor", "dtc", "fitc", "vfe", "pep"])
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
    p_gp.add_argument("--mode", default="auto", choices=["auto", "dense", "sparse"])
    p_gp.add_argument("--out", required=True)
    p_cstr = sim_sub.add_parser("cstr", help="continuous stirred tank reactor rollout")
    p_cstr.add_argument("--duration", type=float, required=True, help="seconds of simulated time")
    p_cstr.add_argument("--lag", type=int, default=2)
    p_cstr.add_argument("--seed", type=int, default=0)
    p_cstr.add_argument("--noise-std", type=float, default=0.1)
    p_cstr.add_argument("--out", required=True)
    return parser


def _standardize_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    return mean, scale


def _apply_standardize(X: np.ndarray, mean, scale) -> np.ndarray:
    return X if mean is None else (X - mean) / scale


def _train_settings(args, n: int, stored: dict) -> dict:
    """The ``RESUMED_SETTINGS`` of this run: as given, else as stored in the
    resumed checkpoint, else the defaults.  A given value that differs from
    the checkpoint's is refused, because the run would then no longer
    continue the stored one."""
    settings = {}
    for key, default in RESUMED_SETTINGS.items():
        given = getattr(args, key)
        value = stored.get(key, default) if given is None else given
        if key in ("batch_size", "num_inducing"):
            value = min(value, n)
        if given is not None and key in stored and value != stored[key]:
            raise ContractViolationError(
                f"--{key.replace('_', '-')} {given} differs from the resumed checkpoint's "
                f"{stored[key]}; a resumed run keeps its settings"
            )
        settings[key] = value
    return settings


def cmd_train(args) -> int:
    ds = load_dataset(args.data, target_col=args.target_col, delimiter=args.delimiter)
    std_mean = std_scale = None
    resume = None
    stored: dict = {}

    if args.resume is not None:
        ckpt = load_checkpoint(args.resume)
        stored = dict(ckpt.config or {})
        # Results depend on the BLAS thread count, so another one would not
        # continue the stored run bit for bit.
        threads = ROUTINES.num_threads()
        if stored.get("blas_threads", threads) != threads:
            raise ContractViolationError(
                f"this run has {threads} BLAS threads and the resumed checkpoint was trained with "
                f"{stored['blas_threads']}; a resumed run keeps its settings (OPENBLAS_NUM_THREADS)"
            )
        if args.no_epoch_reset or stored.get("epoch_reset") is False:
            raise ContractViolationError(
                "cannot resume without epoch resets: the checkpoint holds the fixed-parameter "
                "posterior, not the carried training posterior and gradient state"
            )
        if ckpt.adam is None or ckpt.rng_state is None:
            raise DataError(f"{args.resume} lacks optimizer/RNG state; cannot resume")
        hyper = ckpt.hyper
        std_mean, std_scale = ckpt.standardize_mean, ckpt.standardize_scale
        # The checkpoint's own arrays say these five, whatever its config holds.
        stored["model"], stored["alpha"] = ckpt.spec.variant, ckpt.spec.alpha
        stored["lr"] = ckpt.adam.learning_rate
        stored["num_inducing"] = hyper.num_inducing
        stored["standardize"] = std_mean is not None
        resume = ResumeState(adam=ckpt.adam, rng_state=ckpt.rng_state, epochs_done=ckpt.epochs_done)
    settings = _train_settings(args, ds.n, stored)
    spec = ModelSpec(variant=settings["model"], alpha=settings["alpha"])
    if resume is None and settings["standardize"]:
        std_mean, std_scale = _standardize_fit(ds.X)
    if resume is not None and resume.epochs_done >= args.epochs:
        print(
            f"nothing to do: checkpoint already trained {resume.epochs_done} epochs "
            f">= requested total {args.epochs}"
        )
        return EXIT_OK

    X = _apply_standardize(ds.X, std_mean, std_scale)
    y = ds.y

    if args.resume is None:
        rng = np.random.default_rng(settings["seed"])
        hyper = Hyperparameters(
            log_sigma0=0.0,
            log_lengthscales=np.zeros(ds.input_dim),
            log_sigma_n=0.0,
            inducing_inputs=init_inducing_subset(X, settings["num_inducing"], rng),
        )

    config_record = {
        "data": args.data,
        "target_col": args.target_col if args.target_col is not None else ds.column_names[-1],
        "epochs": args.epochs,
        "epoch_reset": not args.no_epoch_reset,
        **settings,
        "num_inducing": int(hyper.num_inducing),
        "blas_threads": ROUTINES.num_threads(),
    }

    if args.epochs == 0:
        # No training: checkpoint the prior posterior at the initial parameters.
        posterior = init_state(hyper, spec, PARAM_STANDARD)
        adam = AdamState.fresh(hyper.n_params, settings["lr"])
        rng_state = np.random.default_rng(settings["seed"]).bit_generator.state
        trace = []
        epochs_run = 0
    else:
        cfg = TrainConfig(
            epochs=args.epochs,
            batch_size=settings["batch_size"],
            learning_rate=settings["lr"],
            shuffle=settings["shuffle"],
            seed=settings["seed"],
            psi_rel_tolerance=args.psi_tol,
            gradient_mode=settings["gradient_mode"],
            reset_each_epoch=not args.no_epoch_reset,
        )
        result = srgp_fit(X, y, hyper, spec, cfg, resume_from=resume)
        hyper, posterior, trace = result.hyper, result.posterior, result.trace
        adam, rng_state, epochs_run = result.adam, result.rng_state, result.epochs_run

    if args.trace_out and trace:
        with open(args.trace_out, "a") as fh:
            for rec in trace:
                fh.write(json.dumps(asdict(rec)) + "\n")

    save_checkpoint(
        args.checkpoint_out,
        Checkpoint(
            hyper=hyper,
            spec=spec,
            state=posterior,
            adam=adam,
            rng_state=rng_state,
            epochs_done=epochs_run,
            config=config_record,
            standardize_mean=std_mean,
            standardize_scale=std_scale,
        ),
    )
    print(
        f"trained {spec.variant} model: epochs={epochs_run} psi={posterior.psi:.6f} "
        f"steps={len(trace)} -> {args.checkpoint_out}"
    )
    return EXIT_OK


def _load_prediction_inputs(path: str, delimiter: str, ckpt: Checkpoint) -> np.ndarray:
    header, data = read_table(path, delimiter)
    d = ckpt.hyper.input_dim
    if data.shape[1] == d:
        return data
    if data.shape[1] == d + 1:
        # Labelled file: drop the target column (by name when recognizable).
        target = None
        if ckpt.config and ckpt.config.get("target_col") in header:
            target = header.index(ckpt.config["target_col"])
        elif "y" in header:
            target = header.index("y")
        else:
            target = data.shape[1] - 1
        return np.delete(data, target, axis=1)
    raise DataError(
        f"{path}: {data.shape[1]} columns, model expects {d} features (+1 optional target)"
    )


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    X = _load_prediction_inputs(args.inputs, args.delimiter, ckpt)
    X = _apply_standardize(X, ckpt.standardize_mean, ckpt.standardize_scale)
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
    ds = load_dataset(args.data, target_col=args.target_col, delimiter=args.delimiter)
    X = _apply_standardize(ds.X, ckpt.standardize_mean, ckpt.standardize_scale)
    dist = predict(ckpt.state, X, ckpt.hyper, ckpt.spec, with_noise=True)
    result = {
        "rmse": rmse(ds.y, dist.mean),
        "coverage": coverage(ds.y, dist.mean, dist.variance),
        "n": int(ds.n),
    }
    print(json.dumps(result))
    return EXIT_OK


def cmd_validate_gradients(args) -> int:
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

    state = init_state(hyper, spec, PARAM_STANDARD)
    gstate = init_gradient_state(hyper, spec)
    for idx in split_into_batches(args.n, batch_size):
        batch = MiniBatch(ds.X[idx], ds.y[idx])
        state_new, km = update(state, batch, hyper, spec)
        adj = compute_adjoints(state, state_new, km, hyper, spec)
        gstate = propagate(gstate, adj, km.geometry, hyper, spec, batch)
        state = state_new

    reference = batch_bound(ds.X, ds.y, hyper, spec, fd_step=args.fd_step).gradient
    floor = 1e-7
    by_class: dict[str, float] = {}
    for i in range(hyper.n_params):
        cls = hyper.param_class(i)[0]
        err = abs(gstate.d_psi[i] - reference[i]) / max(abs(reference[i]), floor / args.tolerance)
        by_class[cls] = max(by_class.get(cls, 0.0), err)
    failed = False
    for cls, err in by_class.items():
        status = "ok" if err <= args.tolerance else "FAIL"
        failed = failed or err > args.tolerance
        print(f"{cls:18s} max_rel_err={err:.3e} [{status}]")
    if failed:
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
        ds = generate_gp_data(args.seed, args.n, d=args.d, h=h, mode=args.mode)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ContractViolationError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (IllConditionedError, NumericalError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ToleranceError as err:
        print(f"tolerance exceeded: {err}", file=sys.stderr)
        return EXIT_TOLERANCE
    except FileNotFoundError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except StreamGPError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
