"""Versioned checkpoint container.

Checkpoints are NPZ archives: a zip of named ``.npy`` members, each of
which is self-describing (format-versioned text header carrying dtype
with an explicit endianness tag and row-major layout, followed by the
binary payload).  Scalars and strings ride along as 0-d arrays; RNG and
config state are JSON strings.  Loading restores the exact float64 bit
patterns, which is what makes resumed training reproduce an
uninterrupted run bit for bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .inference import PosteriorState
from .kernel import Hyperparameters
from .model import ModelSpec
from .optimizer import AdamState

FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    version: int
    hyper: Hyperparameters
    spec: ModelSpec
    state: PosteriorState
    adam: AdamState | None = None
    rng_state: dict | None = None
    epochs_done: int = 0
    config: dict | None = None
    standardize_mean: np.ndarray | None = None
    standardize_scale: np.ndarray | None = None
    trace_tail: list[dict] | None = None


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """Write ``ckpt`` atomically to exactly ``path``, whatever its suffix."""
    payload: dict[str, np.ndarray] = {
        "format_version": np.asarray(FORMAT_VERSION),
        "hyper/log_sigma0": np.asarray(ckpt.hyper.log_sigma0),
        "hyper/log_lengthscales": ckpt.hyper.log_lengthscales,
        "hyper/log_sigma_n": np.asarray(ckpt.hyper.log_sigma_n),
        "hyper/inducing_inputs": ckpt.hyper.inducing_inputs,
        "hyper/min_separation": np.asarray(ckpt.hyper.min_separation),
        "spec/variant": np.asarray(ckpt.spec.variant),
        "spec/alpha": np.asarray(ckpt.spec.alpha),
        "state/eta": ckpt.state.eta,
        "state/Lambda": ckpt.state.Lambda,
        "state/Sigma": ckpt.state.Sigma,
        "state/logdet_Lambda": np.asarray(ckpt.state.logdet_Lambda),
        "state/psi": np.asarray(ckpt.state.psi),
        "state/k": np.asarray(ckpt.state.k),
        "state/parametrization": np.asarray(ckpt.state.parametrization),
        "train/epochs_done": np.asarray(ckpt.epochs_done),
    }
    if ckpt.adam is not None:
        payload.update(
            {
                "adam/first_moment": ckpt.adam.first_moment,
                "adam/second_moment": ckpt.adam.second_moment,
                "adam/step_count": np.asarray(ckpt.adam.step_count),
                "adam/learning_rate": np.asarray(ckpt.adam.learning_rate),
                "adam/beta1": np.asarray(ckpt.adam.beta1),
                "adam/beta2": np.asarray(ckpt.adam.beta2),
                "adam/epsilon": np.asarray(ckpt.adam.epsilon),
            }
        )
    if ckpt.rng_state is not None:
        payload["train/rng_state"] = np.asarray(json.dumps(ckpt.rng_state))
    if ckpt.config is not None:
        payload["train/config"] = np.asarray(json.dumps(ckpt.config))
    if ckpt.standardize_mean is not None:
        payload["standardize/mean"] = np.asarray(ckpt.standardize_mean)
        payload["standardize/scale"] = np.asarray(ckpt.standardize_scale)
    if ckpt.trace_tail:
        payload["train/trace_tail"] = np.asarray(json.dumps(ckpt.trace_tail))
    # Write a sibling temp file and rename it over ``path``: readers see the
    # old checkpoint or the new one, never a partial file, and writing to an
    # open file keeps np.savez from appending ".npz" to the name.
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
    except (OSError, ValueError) as err:
        raise DataError(f"cannot read checkpoint {path}: {err}") from None
    if "format_version" not in arrays:
        raise DataError(f"{path} is not a checkpoint (missing format_version)")
    version = int(arrays["format_version"])
    if version > FORMAT_VERSION:
        raise DataError(f"checkpoint format {version} is newer than supported {FORMAT_VERSION}")
    hyper = Hyperparameters(
        log_sigma0=float(arrays["hyper/log_sigma0"]),
        log_lengthscales=arrays["hyper/log_lengthscales"],
        log_sigma_n=float(arrays["hyper/log_sigma_n"]),
        inducing_inputs=arrays["hyper/inducing_inputs"],
        min_separation=float(arrays["hyper/min_separation"]),
    )
    spec = ModelSpec(variant=str(arrays["spec/variant"]), alpha=float(arrays["spec/alpha"]))
    state = PosteriorState(
        eta=arrays["state/eta"],
        Lambda=arrays["state/Lambda"],
        Sigma=arrays["state/Sigma"],
        logdet_Lambda=float(arrays["state/logdet_Lambda"]),
        psi=float(arrays["state/psi"]),
        k=int(arrays["state/k"]),
        parametrization=str(arrays["state/parametrization"]),
    )
    adam = None
    if "adam/first_moment" in arrays:
        adam = AdamState(
            first_moment=arrays["adam/first_moment"],
            second_moment=arrays["adam/second_moment"],
            step_count=int(arrays["adam/step_count"]),
            learning_rate=float(arrays["adam/learning_rate"]),
            beta1=float(arrays["adam/beta1"]),
            beta2=float(arrays["adam/beta2"]),
            epsilon=float(arrays["adam/epsilon"]),
        )
    rng_state = json.loads(str(arrays["train/rng_state"])) if "train/rng_state" in arrays else None
    config = json.loads(str(arrays["train/config"])) if "train/config" in arrays else None
    trace_tail = (
        json.loads(str(arrays["train/trace_tail"])) if "train/trace_tail" in arrays else None
    )
    return Checkpoint(
        version=version,
        hyper=hyper,
        spec=spec,
        state=state,
        adam=adam,
        rng_state=rng_state,
        epochs_done=int(arrays["train/epochs_done"]),
        config=config,
        standardize_mean=arrays.get("standardize/mean"),
        standardize_scale=arrays.get("standardize/scale"),
        trace_tail=trace_tail,
    )
