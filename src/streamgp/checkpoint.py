"""Versioned checkpoint container.

Checkpoints are NPZ archives: a zip of named, self-describing ``.npy``
members (dtype with an explicit endianness tag, then the binary payload).
Loading restores the exact float64 bit patterns, which is what makes
resumed training reproduce an uninterrupted run bit for bit.

Format 2 stores each init field of the ``hyper``, ``spec``, ``state`` and
``adam`` objects as the member ``<section>/<field>`` (scalars as 0-d
arrays), and reads them back by walking the same fields.  Beside them are
``train/epochs_done``, the JSON strings ``train/rng_state`` and
``train/config``, and the ``standardize/mean`` and ``standardize/scale``
input transform.  Other members, such as the ``train/trace_tail`` that
older archives hold, are not read.  An archive the reader cannot use (a
``format_version`` other than 2, a missing, mistyped, non-finite or
misshapen member, an unknown parametrization, bad JSON, half a
standardize pair) raises :class:`DataError` naming the file.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractViolationError, DataError
from .inference import PARAM_STANDARD, PARAM_TRANSFORMED, PosteriorState
from .kernel import Hyperparameters
from .model import ModelSpec
from .optimizer import AdamState

FORMAT_VERSION = 2
SECTIONS = {"hyper": Hyperparameters, "spec": ModelSpec, "state": PosteriorState, "adam": AdamState}
# dtype kinds and conversion of each scalar field type; other fields are arrays.
SCALARS = {"float": ("if", float), "int": ("i", int), "str": ("U", str)}
STANDARDIZE = ("standardize/mean", "standardize/scale")


@dataclass
class Checkpoint:
    """What a checkpoint holds.  The writer writes and the reader reads
    format ``FORMAT_VERSION`` only, so a loaded ``version`` is always that."""

    hyper: Hyperparameters
    spec: ModelSpec
    state: PosteriorState
    adam: AdamState | None = None
    rng_state: dict | None = None
    epochs_done: int = 0
    config: dict | None = None
    standardize_mean: np.ndarray | None = None
    standardize_scale: np.ndarray | None = None
    version: int = FORMAT_VERSION


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """Write ``ckpt`` atomically to exactly ``path``, whatever its suffix."""
    payload = {"format_version": np.asarray(FORMAT_VERSION)}
    for section, cls in SECTIONS.items():
        obj = getattr(ckpt, section)
        if obj is not None:
            payload.update({f"{section}/{name}": np.asarray(getattr(obj, name)) for name in _fields(cls)})
    payload["train/epochs_done"] = np.asarray(ckpt.epochs_done)
    texts = {"rng_state": ckpt.rng_state, "config": ckpt.config}
    payload.update({f"train/{k}": np.asarray(json.dumps(v)) for k, v in texts.items() if v is not None})
    if ckpt.standardize_mean is not None:
        payload[STANDARDIZE[0]] = np.asarray(ckpt.standardize_mean)
        payload[STANDARDIZE[1]] = np.asarray(ckpt.standardize_scale)
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
    """Read the checkpoint at ``path``; :class:`DataError` if it is unusable."""
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
    except (OSError, ValueError, TypeError, zipfile.BadZipFile) as err:
        raise DataError(f"cannot read checkpoint {path}: {err}") from None
    if "format_version" not in arrays:
        raise DataError(f"{path} is not a checkpoint (missing format_version)")
    try:
        return _from_members(arrays)
    except (ContractViolationError, DataError) as err:
        raise DataError(f"checkpoint {path}: {err}") from None


def _from_members(arrays: dict[str, np.ndarray]) -> Checkpoint:
    version = _member(arrays, "format_version", "int")
    if version != FORMAT_VERSION:
        raise DataError(f"format {version} is not supported (only {FORMAT_VERSION})")
    has_adam = any(key.startswith("adam/") for key in arrays)
    sections = {s: _build(cls, s, arrays) for s, cls in SECTIONS.items() if s != "adam" or has_adam}
    hyper, state = sections["hyper"], sections["state"]
    M, D, P = hyper.num_inducing, hyper.input_dim, hyper.n_params
    if state.parametrization not in (PARAM_STANDARD, PARAM_TRANSFORMED):
        raise DataError(f"unknown state/parametrization {state.parametrization!r}")
    shapes = {"state/eta": (M,), "state/Lambda": (M, M), "state/Sigma": (M, M)}
    if "adam" in sections:
        shapes.update({"adam/first_moment": (P,), "adam/second_moment": (P,)})
    present = [key for key in STANDARDIZE if key in arrays]
    if len(present) == 1:
        raise DataError(f"{present[0]} without the rest of the standardize pair")
    mean, scale = (_member(arrays, key, "ndarray") for key in present) if present else (None, None)
    shapes.update(dict.fromkeys(present, (D,)))
    for key, shape in shapes.items():
        if arrays[key].shape != shape:
            raise DataError(f"{key} has shape {arrays[key].shape}, expected {shape} (M={M}, D={D})")
    if scale is not None and not np.all(scale > 0.0):
        raise DataError("standardize/scale must be positive")
    rng_state = _json(arrays, "train/rng_state")
    if rng_state is not None:
        try:
            np.random.PCG64().state = rng_state
        except (KeyError, TypeError, ValueError) as err:
            raise DataError(f"train/rng_state is not a generator state: {err!r}") from None
    return Checkpoint(
        **sections, rng_state=rng_state, epochs_done=_member(arrays, "train/epochs_done", "int"),
        config=_json(arrays, "train/config"), standardize_mean=mean, standardize_scale=scale,
    )


def _fields(cls) -> dict[str, str]:
    """Name and type name of each init field of the dataclass ``cls``."""
    return {f.name: getattr(f.type, "__name__", f.type) for f in fields(cls) if f.init}


def _build(cls, section: str, arrays: dict[str, np.ndarray]):
    """``cls`` from its init fields, each read from ``<section>/<field>``."""
    return cls(**{name: _member(arrays, f"{section}/{name}", t) for name, t in _fields(cls).items()})


def _member(arrays: dict[str, np.ndarray], key: str, kind: str):
    """Member ``key`` as a field of type ``kind``: a Python scalar for
    "float", "int" and "str", a finite numeric array otherwise."""
    if key not in arrays:
        raise DataError(f"missing member {key!r}")
    value = arrays[key]
    kinds, cast = SCALARS.get(kind, ("if", None))
    if value.dtype.kind not in kinds or (cast is not None and value.ndim != 0):
        raise DataError(f"member {key!r} is {value.dtype} of shape {value.shape}, not a {kind}")
    if value.dtype.kind == "f" and not np.all(np.isfinite(value)):
        raise DataError(f"member {key!r} holds non-finite values")
    return value if cast is None else cast(value)


def _json(arrays: dict[str, np.ndarray], key: str) -> dict | None:
    """The JSON member ``key`` decoded to a dict, or None if absent."""
    if key not in arrays:
        return None
    try:
        value = json.loads(str(arrays[key]))
    except ValueError as err:
        raise DataError(f"member {key!r} is not valid JSON: {err}") from None
    if not isinstance(value, dict):
        raise DataError(f"member {key!r} holds a {type(value).__name__}, not a dict")
    return value
