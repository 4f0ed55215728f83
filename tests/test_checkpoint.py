"""Checkpoint archives: exact round trips, format 1, and refused archives."""

from dataclasses import fields

import numpy as np
import pytest

from streamgp import AdamState, MiniBatch, ModelSpec, init_state, update
from streamgp.checkpoint import FORMAT_VERSION, Checkpoint, load_checkpoint, save_checkpoint
from streamgp.cli import main
from streamgp.inference import PARAM_STANDARD, PARAM_TRANSFORMED

from conftest import make_instance


def assert_bitwise(a, b, what: str) -> None:
    assert type(a) is type(b), what
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape), what
    assert a.tobytes() == b.tobytes(), what


def read_members(path) -> dict[str, np.ndarray]:
    with np.load(str(path), allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def write_members(path, members: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, **members)


class TestRoundTrip:
    @pytest.mark.parametrize("parametrization", [PARAM_STANDARD, PARAM_TRANSFORMED])
    @pytest.mark.parametrize("with_adam", [True, False], ids=["adam", "no-adam"])
    @pytest.mark.parametrize("with_standardize", [True, False], ids=["std", "no-std"])
    def test_every_field_bitwise(self, tmp_path, parametrization, with_adam, with_standardize):
        X, y, h = make_instance(4, n=30, d=2, m=5)
        spec = ModelSpec("pep", alpha=0.3)
        state, _ = update(init_state(h, spec, parametrization), MiniBatch(X, y), h, spec)
        rng = np.random.default_rng(9)
        adam = AdamState(rng.standard_normal(h.n_params), rng.random(h.n_params), 7, 3e-3)
        mean, scale = (rng.standard_normal(2), rng.random(2) + 0.5) if with_standardize else (None, None)
        ckpt = Checkpoint(
            hyper=h,
            spec=spec,
            state=state,
            adam=adam if with_adam else None,
            rng_state=rng.bit_generator.state,
            epochs_done=3,
            config={"model": "pep", "lr": 3e-3, "standardize": with_standardize},
            standardize_mean=mean,
            standardize_scale=scale,
        )
        path = tmp_path / "m.npz"
        save_checkpoint(str(path), ckpt)
        loaded = load_checkpoint(str(path))
        assert loaded.version == FORMAT_VERSION
        for section in ("hyper", "spec", "state", "adam"):
            original, back = getattr(ckpt, section), getattr(loaded, section)
            if original is None:
                assert back is None
                continue
            for f in fields(original):
                if f.init:
                    assert_bitwise(getattr(back, f.name), getattr(original, f.name), f"{section}.{f.name}")
        for name in ("rng_state", "epochs_done", "config"):
            assert getattr(loaded, name) == getattr(ckpt, name), name
        for name in ("standardize_mean", "standardize_scale"):
            if getattr(ckpt, name) is None:
                assert getattr(loaded, name) is None
            else:
                assert_bitwise(getattr(loaded, name), getattr(ckpt, name), name)


@pytest.fixture()
def gp_file(tmp_path):
    path = tmp_path / "train.csv"
    assert main(["simulate", "gp", "--n", "60", "--seed", "3", "--out", str(path)]) == 0
    return str(path)


TRAIN = (
    "--model", "pep", "--alpha", "0.5", "--num-inducing", "6", "--batch-size", "15",
    "--lr", "2e-3", "--seed", "11", "--shuffle", "--standardize",
)


def train(gp_file, out, *extra) -> int:
    return main(["train", "--data", gp_file, *TRAIN, "--checkpoint-out", str(out), *extra])


def as_format_1(members: dict[str, np.ndarray], beta1: float = 0.9) -> None:
    """Turn format-2 members into the format-1 layout, which also stored
    ADAM's constants."""
    members["format_version"] = np.asarray(1)
    members["adam/beta1"] = np.asarray(beta1)
    members["adam/beta2"] = np.asarray(0.999)
    members["adam/epsilon"] = np.asarray(1e-8)


class TestFormat1:
    def test_loads_and_resumes_bit_exactly(self, gp_file, tmp_path):
        full, half, resumed = tmp_path / "full.npz", tmp_path / "half.npz", tmp_path / "resumed.npz"
        assert train(gp_file, full, "--epochs", "4") == 0
        assert train(gp_file, half, "--epochs", "2") == 0
        members = read_members(half)
        as_format_1(members)
        write_members(half, members)
        loaded = load_checkpoint(str(half))
        assert loaded.version == 1 and loaded.adam.step_count == 8
        assert train(gp_file, resumed, "--epochs", "4", "--resume", str(half)) == 0
        a, b = read_members(full), read_members(resumed)
        assert set(a) == set(b)
        for key in sorted(a):
            assert (a[key].dtype, a[key].tobytes()) == (b[key].dtype, b[key].tobytes()), key


@pytest.mark.parametrize("version", [1, 2])
def test_archive_with_a_min_separation_member_loads(gp_file, tmp_path, version):
    """Archives written while ``Hyperparameters`` had a ``min_separation``
    field hold the member ``hyper/min_separation`` (always 0 from the CLI).
    The reader takes only the class's fields, so it loads them as if the
    member were absent."""
    path = tmp_path / "m.npz"
    assert train(gp_file, path, "--epochs", "1") == 0
    members = read_members(path)
    assert "hyper/min_separation" not in members
    if version == 1:
        as_format_1(members)
    write_members(path, members)
    plain = load_checkpoint(str(path))
    members["hyper/min_separation"] = np.asarray(0.0)
    write_members(path, members)
    loaded = load_checkpoint(str(path))
    assert loaded.version == version
    for section in ("hyper", "state", "adam"):
        for f in fields(getattr(plain, section)):
            if f.init:
                want, got = getattr(getattr(plain, section), f.name), getattr(getattr(loaded, section), f.name)
                assert_bitwise(got, want, f"{section}.{f.name}")


def test_archive_with_a_trace_tail_member_loads(gp_file, tmp_path):
    """Archives written before checkpoints dropped their trace tail hold
    the JSON list ``train/trace_tail``; the reader does not read it."""
    path = tmp_path / "m.npz"
    assert train(gp_file, path, "--epochs", "1") == 0
    plain = load_checkpoint(str(path))
    members = read_members(path)
    assert "train/trace_tail" not in members
    members["train/trace_tail"] = np.asarray('[{"epoch": 0, "batch": 0, "wall_ms": 1.5}]')
    write_members(path, members)
    loaded = load_checkpoint(str(path))
    for section in ("hyper", "spec", "state", "adam"):
        for f in fields(getattr(plain, section)):
            want, got = getattr(getattr(plain, section), f.name), getattr(getattr(loaded, section), f.name)
            assert_bitwise(got, want, f"{section}.{f.name}")
    for name in ("rng_state", "epochs_done", "config", "version"):
        assert getattr(loaded, name) == getattr(plain, name), name
    for name in ("standardize_mean", "standardize_scale"):
        assert_bitwise(getattr(loaded, name), getattr(plain, name), name)


def _drop(key):
    return lambda m: m.pop(key)


def _set(key, value):
    return lambda m: m.update({key: np.asarray(value)})


def _edit(key, fn):
    return lambda m: m.update({key: fn(m[key])})


def _nan_corner(a):
    a = a.copy()
    a[0, 0] = np.nan
    return a


MALFORMED = {
    "missing-member": (_drop("state/eta"), "evaluate"),
    "no-format-version": (_drop("format_version"), "evaluate"),
    "format-3": (_set("format_version", 3), "evaluate"),
    "int-k-as-float": (_edit("state/k", lambda a: a.astype(float)), "evaluate"),
    "zero-scale": (_edit("standardize/scale", np.zeros_like), "evaluate"),
    "config-list": (_set("train/config", "[1, 2]"), "evaluate"),
    "unknown-parametrization": (_set("state/parametrization", "sideways"), "evaluate"),
    "eta-shape": (_edit("state/eta", lambda a: a[:-1]), "evaluate"),
    "non-finite-sigma": (_edit("state/Sigma", _nan_corner), "evaluate"),
    "standardize-length": (_edit("standardize/mean", lambda a: np.append(a, 0.0)), "evaluate"),
    "half-standardize": (_drop("standardize/scale"), "evaluate"),
    "rng-json": (_set("train/rng_state", "{not json"), "resume"),
    "rng-state": (_set("train/rng_state", '{"bit_generator": "PCG64"}'), "resume"),
    "no-rng-state": (_drop("train/rng_state"), "resume"),
    "adam-length": (_edit("adam/first_moment", lambda a: np.append(a, 0.0)), "resume"),
    "format-1-beta": (lambda m: as_format_1(m, beta1=0.8), "resume"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_checkpoint_is_a_data_error(gp_file, tmp_path, capsys, case):
    change, command = MALFORMED[case]
    ckpt, out = tmp_path / "bad.npz", tmp_path / "out.npz"
    assert train(gp_file, ckpt, "--epochs", "1") == 0
    members = read_members(ckpt)
    change(members)
    write_members(ckpt, members)
    capsys.readouterr()
    if command == "evaluate":
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", gp_file])
    else:
        code = train(gp_file, out, "--epochs", "2", "--resume", str(ckpt))
    assert code == 3
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("data error:")]
    assert errors and str(ckpt) in errors[0]
    assert not out.exists()
