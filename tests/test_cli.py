"""End-to-end command-line flows and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from streamgp import load_dataset
from streamgp._lapack import ROUTINES
from streamgp.checkpoint import load_checkpoint, save_checkpoint
from streamgp import cli
from streamgp.cli import TRAIN_SETTINGS, main

# A value other than the one the resumed checkpoint of
# ``test_resume_refuses_changed_setting`` was trained with, per kept flag.
CHANGED = {
    "--target-col": ("x0",), "--model": ("pep",), "--alpha": ("0.7",), "--lr": ("0.5",),
    "--batch-size": ("20",), "--shuffle": (), "--gradient-mode": ("ignore_history",),
    "--standardize": (), "--num-inducing": ("6",), "--seed": ("4",),
}


def run_cli(*args) -> int:
    return main(list(args))


def data_sha256(ds) -> str:
    """The sha256 of a data set's inputs and then its targets, as float64 bytes."""
    return hashlib.sha256(ds.X.astype(np.float64).tobytes() + ds.y.astype(np.float64).tobytes()).hexdigest()


@pytest.fixture()
def gp_file(tmp_path):
    path = tmp_path / "train.csv"
    assert run_cli("simulate", "gp", "--n", "80", "--seed", "3", "--out", str(path)) == 0
    return str(path)


@pytest.fixture()
def target_first_file(gp_file, tmp_path):
    """The rows of ``gp_file`` with their target first, as column t."""
    from streamgp import load_dataset

    ds = load_dataset(gp_file)
    path = tmp_path / "target_first.csv"
    path.write_text("t,x0\n" + "".join(f"{float(t)!r},{float(x)!r}\n" for t, x in zip(ds.y, ds.X[:, 0])))
    return str(path)


class TestSimulate:
    def test_gp_writes_loadable_file(self, tmp_path):
        out = tmp_path / "gp.csv"
        code = run_cli(
            "simulate", "gp", "--n", "40", "--d", "2", "--seed", "1",
            "--lengthscale", "0.2", "0.3", "--out", str(out),
        )
        assert code == 0
        from streamgp import load_dataset

        ds = load_dataset(str(out))
        assert ds.n == 40 and ds.input_dim == 2

    def test_cstr_writes_lagged_rows(self, tmp_path):
        out = tmp_path / "cstr.csv"
        assert run_cli("simulate", "cstr", "--duration", "30", "--seed", "2", "--out", str(out)) == 0
        from streamgp import load_dataset

        ds = load_dataset(str(out))
        assert ds.input_dim == 5  # lag 2 -> 2 target lags + 3 input lags

    def test_sampling_mode_is_not_an_option(self, tmp_path):
        # The sampler follows from --n alone.
        out = tmp_path / "gp.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "gp", "--n", "40", "--mode", "sparse", "--out", str(out)])
        assert exc.value.code == 2 and not out.exists()

    def test_lengthscale_count_mismatch_is_usage_error(self, tmp_path):
        code = run_cli(
            "simulate", "gp", "--n", "10", "--d", "3",
            "--lengthscale", "0.1", "0.2", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2


class TestTrain:
    def test_train_writes_checkpoint_and_trace(self, gp_file, tmp_path):
        ckpt = tmp_path / "model.npz"
        trace = tmp_path / "trace.jsonl"
        code = run_cli(
            "train", "--data", gp_file, "--model", "vfe", "--num-inducing", "8",
            "--batch-size", "20", "--epochs", "3", "--lr", "1e-3", "--seed", "0",
            "--checkpoint-out", str(ckpt), "--trace-out", str(trace),
        )
        assert code == 0
        loaded = load_checkpoint(str(ckpt))
        assert loaded.spec.variant == "vfe"
        assert loaded.state.k == 4  # 80 / 20
        assert loaded.epochs_done == 3
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(records) == 3 * 4  # one per gradient step
        assert set(records[0]) == {"epoch", "batch", "psi_k", "grad_norm", "wall_ms"}

    def test_trace_file_is_append_only(self, gp_file, tmp_path):
        ckpt, trace = tmp_path / "m.npz", tmp_path / "t.jsonl"
        args = (
            "train", "--data", gp_file, "--epochs", "1", "--batch-size", "40",
            "--checkpoint-out", str(ckpt), "--trace-out", str(trace),
        )
        assert run_cli(*args) == 0
        first = len(trace.read_text().splitlines())
        assert run_cli(*args) == 0
        assert len(trace.read_text().splitlines()) == 2 * first

    @pytest.mark.parametrize("flag", ["--checkpoint-out", "--trace-out"])
    def test_missing_output_directory_is_refused_before_training(
        self, gp_file, tmp_path, capsys, monkeypatch, flag
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("srgp_fit called")

        monkeypatch.setattr(cli, "srgp_fit", refuse)
        outputs = {"--checkpoint-out": tmp_path / "m.npz", "--trace-out": tmp_path / "t.jsonl"}
        outputs[flag] = tmp_path / "nodir" / outputs[flag].name
        args = [str(a) for pair in outputs.items() for a in pair]
        assert run_cli("train", "--data", gp_file, "--epochs", "1", *args) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {flag} {outputs[flag]}"), err
        assert [p.name for p in tmp_path.iterdir()] == ["train.csv"]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--num-inducing", "-3", "cannot pick -3 inducing inputs from 80 rows: the count must be in 1..80"),
            ("--num-inducing", "0", "cannot pick 0 inducing inputs from 80 rows: the count must be in 1..80"),
            ("--lr", "-0.001", "learning_rate must be finite and >= 0, got -0.001"),
            ("--lr", "nan", "learning_rate must be finite and >= 0, got nan"),
        ],
    )
    def test_out_of_range_setting_is_refused_and_writes_nothing(
        self, gp_file, tmp_path, capsys, flag, value, message
    ):
        outputs = ["--checkpoint-out", str(tmp_path / "m.npz"), "--trace-out", str(tmp_path / "t.jsonl")]
        assert run_cli("train", "--data", gp_file, "--epochs", "1", flag, value, *outputs) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"usage error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["train.csv"]

    def test_a_trace_that_cannot_be_written_keeps_the_checkpoint(self, gp_file, tmp_path, capsys):
        # The checkpoint is written first; the trace path here is a directory.
        ckpt = tmp_path / "m.npz"
        code = run_cli(
            "train", "--data", gp_file, "--epochs", "1", "--batch-size", "40",
            "--checkpoint-out", str(ckpt), "--trace-out", str(tmp_path),
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("data error:")
        assert load_checkpoint(str(ckpt)).epochs_done == 1

    def test_epochs_zero_checkpoints_prior(self, gp_file, tmp_path):
        ckpt = tmp_path / "prior.npz"
        code = run_cli(
            "train", "--data", gp_file, "--epochs", "0", "--checkpoint-out", str(ckpt)
        )
        assert code == 0
        loaded = load_checkpoint(str(ckpt))
        assert loaded.state.k == 0
        assert loaded.state.psi == 0.0
        np.testing.assert_array_equal(loaded.state.eta, 0.0)

    def test_batch_size_clipped_to_n(self, gp_file, tmp_path):
        ckpt = tmp_path / "clip.npz"
        code = run_cli(
            "train", "--data", gp_file, "--epochs", "1", "--batch-size", "99999",
            "--checkpoint-out", str(ckpt),
        )
        assert code == 0
        assert load_checkpoint(str(ckpt)).state.k == 1

    def test_resume_is_bit_exact(self, gp_file, tmp_path):
        common = (
            "train", "--data", gp_file, "--model", "pep", "--alpha", "0.5",
            "--num-inducing", "6", "--batch-size", "16", "--lr", "2e-3",
            "--seed", "11", "--shuffle",
        )
        full_ckpt = tmp_path / "full.npz"
        assert run_cli(*common, "--epochs", "4", "--checkpoint-out", str(full_ckpt)) == 0

        half_ckpt = tmp_path / "half.npz"
        assert run_cli(*common, "--epochs", "2", "--checkpoint-out", str(half_ckpt)) == 0
        resumed_ckpt = tmp_path / "resumed.npz"
        assert (
            run_cli(
                *common, "--epochs", "4", "--resume", str(half_ckpt),
                "--checkpoint-out", str(resumed_ckpt),
            )
            == 0
        )
        with np.load(str(full_ckpt)) as a, np.load(str(resumed_ckpt)) as b:
            assert sorted(a.files) == sorted(b.files)
            for key in a.files:
                assert (a[key].dtype, a[key].tobytes()) == (b[key].dtype, b[key].tobytes()), key

    def test_resume_needs_the_recorded_recursion_and_takes_the_adam_rate(self, gp_file, tmp_path, capsys):
        # A library fit saved without a config cannot tell the data, batch
        # size, shuffling, gradient mode, seed and BLAS threads it ran with,
        # so it is not resumed.  Saved with a config that records them but no
        # rate, the resumed run records and steps at its ADAM rate 0.05, not
        # at the fresh default.
        from streamgp import Hyperparameters, ModelSpec, TrainConfig, load_dataset, srgp_fit
        from streamgp.checkpoint import Checkpoint
        from streamgp.optimizer import ResumeState, init_inducing_subset

        ds, spec = load_dataset(gp_file), ModelSpec("vfe")
        R = init_inducing_subset(ds.X, 5, np.random.default_rng(0))
        cfg = TrainConfig(epochs=1, batch_size=20, learning_rate=0.05)
        fit = srgp_fit(ds.X, ds.y, Hyperparameters(0.0, np.zeros(1), 0.0, R), spec, cfg)
        ckpt, out = tmp_path / "lib.npz", tmp_path / "resumed.npz"
        stored = Checkpoint(fit.hyper, spec, fit.posterior, fit.adam, fit.rng_state, epochs_done=1)
        save_checkpoint(str(ckpt), stored)
        args = ("train", "--data", gp_file, "--epochs", "2", "--batch-size", "20", "--resume", str(ckpt))
        assert run_cli(*args, "--checkpoint-out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"usage error: {ckpt} has no train/config record of target_col, n_rows, data_sha256, "
            "batch_size, shuffle, gradient_mode, seed, blas_threads; cannot resume\n"
        )
        assert not out.exists()
        stored.config = {
            "target_col": "y", "n_rows": 80, "data_sha256": data_sha256(ds),
            "batch_size": 20, "shuffle": False, "gradient_mode": "full", "seed": 0,
            "blas_threads": ROUTINES.num_threads(),
        }
        save_checkpoint(str(ckpt), stored)
        assert run_cli(*args, "--checkpoint-out", str(out)) == 0
        resumed = load_checkpoint(str(out))
        assert resumed.config["lr"] == resumed.adam.learning_rate == 0.05
        want = srgp_fit(
            ds.X, ds.y, fit.hyper, spec, TrainConfig(epochs=2, batch_size=20, learning_rate=0.05),
            resume_from=ResumeState(adam=fit.adam, rng_state=fit.rng_state, epochs_done=1),
        )
        assert resumed.hyper.to_vector().tobytes() == want.hyper.to_vector().tobytes()
        # Another --lr differs from the checkpoint's and is refused.
        assert run_cli(*args, "--lr", "1e-3", "--checkpoint-out", str(tmp_path / "x.npz")) == 2

    def test_resume_beyond_target_is_noop(self, gp_file, tmp_path):
        ckpt = tmp_path / "done.npz"
        assert run_cli("train", "--data", gp_file, "--epochs", "2", "--batch-size", "40", "--checkpoint-out", str(ckpt)) == 0
        assert run_cli("train", "--data", gp_file, "--epochs", "1", "--batch-size", "40", "--resume", str(ckpt), "--checkpoint-out", str(tmp_path / "x.npz")) == 0

    def test_checkpoint_written_to_exact_path_and_resumable(self, gp_file, tmp_path):
        # A non-.npz name is written as given (no ".npz" appended), with no
        # temp file left beside it, and --resume reads it back.
        common = ("train", "--data", gp_file, "--batch-size", "40", "--num-inducing", "5")
        ckpt = tmp_path / "m.ckpt"
        assert run_cli(*common, "--epochs", "1", "--checkpoint-out", str(ckpt)) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "train.csv"]
        out = tmp_path / "m2.ckpt"
        assert run_cli(*common, "--epochs", "2", "--resume", str(ckpt), "--checkpoint-out", str(out)) == 0
        assert load_checkpoint(str(out)).epochs_done == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "m2.ckpt", "train.csv"]

    def test_resume_refuses_no_epoch_reset(self, gp_file, tmp_path, capsys):
        # Every epoch restarts from the prior: carrying the posterior across
        # epochs is not an option, and a checkpoint whose run carried it (its
        # train/config records epoch_reset false) lacks that carried
        # posterior and gradient state, so it is not resumed.
        common = ("train", "--data", gp_file, "--batch-size", "40", "--num-inducing", "5")
        ckpt, out = tmp_path / "m.npz", tmp_path / "out.npz"
        with pytest.raises(SystemExit) as exc:
            main([*common, "--epochs", "1", "--no-epoch-reset", "--checkpoint-out", str(ckpt)])
        assert exc.value.code == 2 and not ckpt.exists()
        assert run_cli(*common, "--epochs", "1", "--checkpoint-out", str(ckpt)) == 0
        stored = load_checkpoint(str(ckpt))
        assert "epoch_reset" not in stored.config
        stored.config["epoch_reset"] = False
        save_checkpoint(str(ckpt), stored)
        capsys.readouterr()
        args = ("--epochs", "2", "--resume", str(ckpt), "--checkpoint-out", str(out))
        assert run_cli(*common, *args) == 2
        assert capsys.readouterr().err == (
            f"usage error: {ckpt} was trained without epoch resets, which train no longer offers; "
            "cannot resume\n"
        )
        assert not out.exists()
        stored.config["epoch_reset"] = True
        save_checkpoint(str(ckpt), stored)
        assert run_cli(*common, *args) == 0

    def test_resume_refuses_early_stopping(self, gp_file, tmp_path, capsys):
        # Early stopping compares an epoch's bound with the one before, which
        # a resumed run does not have.
        common = ("train", "--data", gp_file, "--batch-size", "40", "--num-inducing", "5")
        ckpt, out = tmp_path / "m.npz", tmp_path / "out.npz"
        assert run_cli(*common, "--epochs", "1", "--checkpoint-out", str(ckpt)) == 0
        args = ("--epochs", "3", "--psi-tol", "1.0", "--resume", str(ckpt), "--checkpoint-out", str(out))
        assert run_cli(*common, *args) == 2
        assert "cannot stop early" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag", [(s.label, *CHANGED[s.label]) for s in TRAIN_SETTINGS.values() if s.keep and s.kind is not None]
    )
    def test_resume_refuses_changed_setting(self, gp_file, tmp_path, capsys, flag):
        # A resumed run continues the stored one, so a flag that asks for
        # another value than the checkpoint's would silently not be obeyed.
        common = ("train", "--data", gp_file, "--num-inducing", "5", "--batch-size", "40")
        ckpt, out = tmp_path / "m.npz", tmp_path / "out.npz"
        assert run_cli(*common, "--epochs", "1", "--seed", "3", "--checkpoint-out", str(ckpt)) == 0
        capsys.readouterr()
        code = run_cli(*common, "--epochs", "2", "--resume", str(ckpt), "--checkpoint-out", str(out), *flag)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"usage error: {flag[0]} ")
        assert not out.exists()

    def test_resume_help_names_every_kept_setting(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # one line per option
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        resume = next(line for line in capsys.readouterr().out.splitlines() if "--resume RESUME " in line)
        kept = [s.label for s in TRAIN_SETTINGS.values() if s.keep]
        assert "data sha256" in kept and all(label in resume for label in kept)

    def test_resume_refuses_fewer_rows(self, gp_file, tmp_path, capsys):
        common = ("train", "--batch-size", "40", "--num-inducing", "5")
        ckpt, out, fewer = tmp_path / "m.npz", tmp_path / "out.npz", tmp_path / "fewer.csv"
        assert run_cli(*common, "--data", gp_file, "--epochs", "1", "--checkpoint-out", str(ckpt)) == 0
        fewer.write_text("".join(Path(gp_file).read_text().splitlines(keepends=True)[:61]))
        capsys.readouterr()
        args = ("--data", str(fewer), "--epochs", "2", "--resume", str(ckpt), "--checkpoint-out", str(out))
        assert run_cli(*common, *args) == 2
        assert "data row count 60 differs from the resumed checkpoint's 80" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_refuses_other_rows_of_the_same_count(self, gp_file, tmp_path, capsys):
        common = ("train", "--batch-size", "40", "--num-inducing", "5")
        ckpt, out, other = tmp_path / "m.npz", tmp_path / "out.npz", tmp_path / "other.csv"
        assert run_cli(*common, "--data", gp_file, "--epochs", "1", "--checkpoint-out", str(ckpt)) == 0
        lines = Path(gp_file).read_text().splitlines(keepends=True)
        x, _ = lines[-1].split(",")
        other.write_text("".join(lines[:-1]) + f"{x},1.5\n")  # one target changed
        capsys.readouterr()
        args = ("--data", str(other), "--epochs", "2", "--resume", str(ckpt), "--checkpoint-out", str(out))
        assert run_cli(*common, *args) == 2
        assert capsys.readouterr().err.startswith("usage error: data sha256 ")
        assert not out.exists()

    def test_resume_refuses_a_config_without_the_data_digest(self, gp_file, tmp_path, capsys):
        # A checkpoint that does not say which rows it was trained on cannot
        # show that the resumed run continues it on the same data.
        common = ("train", "--data", gp_file, "--batch-size", "40", "--num-inducing", "5")
        ckpt, out = tmp_path / "m.npz", tmp_path / "out.npz"
        assert run_cli(*common, "--epochs", "1", "--checkpoint-out", str(ckpt)) == 0
        stored = load_checkpoint(str(ckpt))
        assert stored.config["data_sha256"] == data_sha256(load_dataset(gp_file))
        del stored.config["data_sha256"]
        save_checkpoint(str(ckpt), stored)
        capsys.readouterr()
        assert run_cli(*common, "--epochs", "2", "--resume", str(ckpt), "--checkpoint-out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"usage error: {ckpt} has no train/config record of data_sha256; cannot resume\n"
        )
        assert not out.exists()

    def test_resume_records_the_checkpoints_own_settings(self, gp_file, tmp_path):
        common = ("train", "--data", gp_file, "--batch-size", "40")
        first = ("--seed", "3", "--num-inducing", "6", "--standardize")
        ckpt, out, again = tmp_path / "m.npz", tmp_path / "out.npz", tmp_path / "again.npz"
        assert run_cli(*common, *first, "--epochs", "1", "--checkpoint-out", str(ckpt)) == 0
        assert run_cli(*common, "--epochs", "2", "--resume", str(ckpt), "--checkpoint-out", str(out)) == 0
        config = load_checkpoint(str(out)).config
        assert (config["seed"], config["num_inducing"], config["standardize"]) == (3, 6, True)
        # Giving the checkpoint's own values again is no change.
        assert run_cli(*common, *first, "--epochs", "3", "--resume", str(out), "--checkpoint-out", str(again)) == 0
        assert load_checkpoint(str(again)).config == {**config, "epochs": 3}

    def test_resume_keeps_the_checkpoints_model(self, gp_file, tmp_path):
        # A PEP checkpoint resumed with no --model or --alpha continues as
        # PEP with its own alpha, not as the fresh run's default VFE.
        common = ("train", "--data", gp_file, "--num-inducing", "5", "--batch-size", "40")
        model = ("--model", "pep", "--alpha", "0.3")
        full, half, resumed = tmp_path / "full.npz", tmp_path / "half.npz", tmp_path / "resumed.npz"
        assert run_cli(*common, *model, "--epochs", "2", "--checkpoint-out", str(full)) == 0
        assert run_cli(*common, *model, "--epochs", "1", "--checkpoint-out", str(half)) == 0
        assert run_cli(*common, "--epochs", "2", "--resume", str(half), "--checkpoint-out", str(resumed)) == 0
        a, b = load_checkpoint(str(full)), load_checkpoint(str(resumed))
        assert b.spec == a.spec and (b.config["model"], b.config["alpha"]) == ("pep", 0.3)
        np.testing.assert_array_equal(a.hyper.to_vector(), b.hyper.to_vector())
        assert a.config == b.config

    def test_resume_takes_omitted_settings_from_checkpoint(self, target_first_file, tmp_path):
        common = ("train", "--data", target_first_file, "--num-inducing", "5", "--seed", "3")
        settings = (
            "--lr", "0.01", "--batch-size", "20", "--shuffle", "--gradient-mode", "ignore_history",
            "--target-col", "t",
        )
        full, half, resumed = tmp_path / "full.npz", tmp_path / "half.npz", tmp_path / "resumed.npz"
        assert run_cli(*common, *settings, "--epochs", "2", "--checkpoint-out", str(full)) == 0
        assert run_cli(*common, *settings, "--epochs", "1", "--checkpoint-out", str(half)) == 0
        assert run_cli(*common, "--epochs", "2", "--resume", str(half), "--checkpoint-out", str(resumed)) == 0
        a, b = load_checkpoint(str(full)), load_checkpoint(str(resumed))
        np.testing.assert_array_equal(a.hyper.to_vector(), b.hyper.to_vector())
        assert a.config == b.config

    def test_standardize_round_trips_through_predict(self, tmp_path):
        # Shifted/scaled inputs train fine with --standardize and predict
        # applies the stored transform.
        from streamgp import Dataset, generate_gp_data, save_dataset

        ds = generate_gp_data(5, 60)
        shifted = Dataset(X=ds.X * 40.0 + 300.0, y=ds.y)
        data = tmp_path / "shifted.csv"
        save_dataset(shifted, str(data))
        ckpt = tmp_path / "std.npz"
        assert (
            run_cli(
                "train", "--data", str(data), "--standardize", "--epochs", "2",
                "--batch-size", "20", "--checkpoint-out", str(ckpt),
            )
            == 0
        )
        out = tmp_path / "pred.csv"
        assert run_cli("predict", "--checkpoint", str(ckpt), "--inputs", str(data), "--output", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mean,variance,lower95,upper95"
        assert len(lines) == 61


class TestPredictEvaluate:
    @pytest.fixture()
    def trained(self, gp_file, tmp_path):
        ckpt = tmp_path / "trained.npz"
        assert (
            run_cli(
                "train", "--data", gp_file, "--epochs", "5", "--batch-size", "20",
                "--num-inducing", "10", "--checkpoint-out", str(ckpt),
            )
            == 0
        )
        return str(ckpt)

    def test_predict_emits_interval_rows(self, trained, gp_file, tmp_path, capsys):
        assert run_cli("predict", "--checkpoint", trained, "--inputs", gp_file, "--with-noise") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "mean,variance,lower95,upper95"
        row = [float(v) for v in lines[1].split(",")]
        assert row[2] <= row[0] <= row[3]
        assert row[1] > 0.0

    def test_evaluate_reports_rmse_and_coverage(self, trained, gp_file, capsys):
        assert run_cli("evaluate", "--checkpoint", trained, "--data", gp_file) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"rmse", "coverage", "n"}
        assert result["rmse"] > 0.0 and 0.0 <= result["coverage"] <= 1.0

    def test_evaluate_on_perfect_predictions(self, trained, gp_file, tmp_path, capsys):
        # Re-label the inputs with the model's own predictive mean: the
        # metrics must collapse to rmse 0, coverage 1.
        from streamgp import Dataset, load_dataset, predict, save_dataset

        ckpt = load_checkpoint(trained)
        ds = load_dataset(gp_file)
        dist = predict(ckpt.state, ds.X, ckpt.hyper, ckpt.spec)
        perfect = tmp_path / "perfect.csv"
        save_dataset(Dataset(X=ds.X, y=dist.mean), str(perfect))
        assert run_cli("evaluate", "--checkpoint", trained, "--data", str(perfect)) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["rmse"] < 1e-8
        assert result["coverage"] == 1.0

    def test_predict_drops_the_target_column(self, trained, gp_file, tmp_path, capsys):
        # A features-only file (D columns) and the labelled file give the
        # same rows.  Without a config, the column named y is the target,
        # or else the last column.
        from streamgp import load_dataset

        def predicted(ckpt, header, columns) -> str:
            path = tmp_path / "inputs.csv"
            rows = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in np.column_stack(columns))
            path.write_text(",".join(header) + "\n" + rows)
            capsys.readouterr()
            assert run_cli("predict", "--checkpoint", ckpt, "--inputs", str(path)) == 0
            return capsys.readouterr().out

        ds = load_dataset(gp_file)
        features = predicted(trained, ["x0"], [ds.X[:, 0]])
        assert len(features.splitlines()) == ds.n + 1
        assert run_cli("predict", "--checkpoint", trained, "--inputs", gp_file) == 0
        assert capsys.readouterr().out == features
        configless = tmp_path / "configless.npz"
        ckpt = load_checkpoint(trained)
        ckpt.config = None
        save_checkpoint(str(configless), ckpt)
        assert predicted(str(configless), ["y", "x0"], [ds.y, ds.X[:, 0]]) == features
        assert predicted(str(configless), ["x0", "target"], [ds.X[:, 0], ds.y]) == features

    def test_evaluate_takes_the_recorded_target_column(self, target_first_file, gp_file, tmp_path, capsys):
        # Trained with --target-col t, the first column, the model scores its
        # own file on t without the flag, and a file whose target is y (not in
        # the checkpoint's header) on y.  A file of the D features alone has
        # no target: predict reads it and evaluate refuses it.
        ckpt = str(tmp_path / "t.npz")
        train = ("train", "--data", target_first_file, "--target-col", "t", "--epochs", "3")
        assert run_cli(*train, "--batch-size", "20", "--num-inducing", "10", "--checkpoint-out", ckpt) == 0
        capsys.readouterr()

        def evaluated(*args) -> str:
            assert run_cli("evaluate", "--checkpoint", ckpt, *args) == 0
            return capsys.readouterr().out

        flagged = evaluated("--data", target_first_file, "--target-col", "t")
        assert evaluated("--data", target_first_file) == flagged
        assert evaluated("--data", gp_file) == flagged
        assert run_cli("evaluate", "--checkpoint", ckpt, "--data", gp_file, "--target-col", "t") == 3
        assert "target column 't' not in header ['x0', 'y']" in capsys.readouterr().err
        features = tmp_path / "features.csv"
        features.write_text("".join(line.split(",", 1)[1] for line in open(target_first_file)))
        assert run_cli("predict", "--checkpoint", ckpt, "--inputs", str(features)) == 0
        capsys.readouterr()
        assert run_cli("evaluate", "--checkpoint", ckpt, "--data", str(features)) == 3
        assert capsys.readouterr().err == (
            f"data error: {features}: has only the model's D = 1 feature columns, no target\n"
        )

    def test_predict_rejects_wrong_width(self, trained, tmp_path):
        bad = tmp_path / "wide.csv"
        bad.write_text("a,b,c,d\n1,2,3,4\n")
        assert run_cli("predict", "--checkpoint", trained, "--inputs", str(bad)) == 3

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x0\n0.1\n0.2,0.3\n", "row 3 has 2 cells, header has 1"),
            ("x0\n0.1\nnan\n", "non-finite value 'nan' at row 3, column 'x0'"),
            ("x0,x0\n0.1,0.2\n", "header repeats column name 'x0' (columns 1 and 2)"),
        ],
        ids=["ragged", "non-finite", "repeated-name"],
    )
    def test_predict_rejects_malformed_inputs(self, trained, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert run_cli("predict", "--checkpoint", trained, "--inputs", str(bad)) == 3
        assert message in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])  # missing --data
        assert exc.value.code == 2

    def test_top_level_help_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: streamgp") and "RMSE and 95% coverage" in out

    def test_data_error_for_bad_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,y\n1,banana\n")
        assert run_cli("train", "--data", str(bad), "--checkpoint-out", str(tmp_path / "m.npz")) == 3

    def test_data_error_for_missing_file(self, tmp_path, capsys):
        assert run_cli("evaluate", "--checkpoint", str(tmp_path / "no.npz"), "--data", "nope.csv") == 3
        missing = tmp_path / "nope.csv"
        capsys.readouterr()
        assert run_cli("train", "--data", str(missing), "--checkpoint-out", str(tmp_path / "m.npz")) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(missing) in err

    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    def test_data_error_for_a_directory(self, gp_file, tmp_path, capsys, command):
        # Opening a directory raises IsADirectoryError, an OSError other
        # than FileNotFoundError.
        ckpt = str(tmp_path / "m.npz")
        assert run_cli("train", "--data", gp_file, "--epochs", "0", "--checkpoint-out", ckpt) == 0
        directory = str(tmp_path)
        args = {
            "train": ["--data", directory, "--checkpoint-out", str(tmp_path / "out.npz")],
            "predict": ["--checkpoint", ckpt, "--inputs", directory],
            "evaluate": ["--checkpoint", ckpt, "--data", directory],
        }[command]
        capsys.readouterr()
        assert run_cli(command, *args) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and directory in err

    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    @pytest.mark.parametrize("text", [";;", ""])
    def test_delimiter_must_be_one_character(self, gp_file, command, text, capsys):
        args = {
            "train": ["--data", gp_file],
            "predict": ["--checkpoint", "m.npz", "--inputs", gp_file],
            "evaluate": ["--checkpoint", "m.npz", "--data", gp_file],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--delimiter", text])
        assert exc.value.code == 2
        assert f"--delimiter: must be one character, not {text!r}" in capsys.readouterr().err

    def test_validate_gradients_passes_at_default_tolerance(self, capsys):
        assert run_cli("validate-gradients", "--n", "40", "--num-inducing", "5") == 0
        out = capsys.readouterr().out
        assert "log_sigma0" in out and "inducing" in out and "FAIL" not in out

    def test_validate_gradients_fails_at_absurd_tolerance(self, capsys):
        assert run_cli("validate-gradients", "--n", "40", "--num-inducing", "5", "--tolerance", "1e-14") == 5
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--num-inducing", "-2", "cannot pick -2 inducing inputs from 40 rows: the count must be in 1..40"),
            ("--num-inducing", "0", "cannot pick 0 inducing inputs from 40 rows: the count must be in 1..40"),
            ("--num-batches", "0", "--num-batches must be >= 1, got 0"),
            ("--num-batches", "-2", "--num-batches must be >= 1, got -2"),
        ],
    )
    def test_validate_gradients_refuses_a_count_below_one(self, capsys, flag, value, message):
        assert run_cli("validate-gradients", "--n", "40", flag, value) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"usage error: {message}\n")

    def test_numerical_error_for_overflowing_targets(self, tmp_path):
        # Targets near the float ceiling overflow the innovation quadratic
        # and must surface as a numerical failure, not a crash.
        import warnings

        huge = tmp_path / "huge.csv"
        rows = "\n".join(f"{i / 10.0},1e300" for i in range(10))
        huge.write_text("x0,y\n" + rows + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # deliberate overflow
            code = run_cli(
                "train", "--data", str(huge), "--epochs", "1", "--batch-size", "5",
                "--num-inducing", "3", "--checkpoint-out", str(tmp_path / "m.npz"),
            )
        assert code == 4


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "streamgp.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "streamgp" in proc.stdout


def test_version_names_the_blas_library_and_its_threads():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "streamgp.cli", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    _, library, threads = proc.stdout.strip().splitlines()
    assert library == f"BLAS: {ROUTINES.library}"
    assert threads == "BLAS threads: 1"


def test_checkpoint_config_records_blas_threads(gp_file, tmp_path):
    out = tmp_path / "m.npz"
    assert run_cli("train", "--data", gp_file, "--epochs", "1", "--checkpoint-out", str(out)) == 0
    assert load_checkpoint(str(out)).config["blas_threads"] == ROUTINES.num_threads()


def test_resume_refuses_another_blas_thread_count(gp_file, tmp_path, capsys):
    # Results depend on the thread count, so a resumed run under another
    # one would not continue the stored run bit for bit.
    common = ("train", "--data", gp_file, "--batch-size", "40", "--num-inducing", "5")
    ckpt, out = tmp_path / "m.npz", tmp_path / "out.npz"
    assert run_cli(*common, "--epochs", "1", "--checkpoint-out", str(ckpt)) == 0
    stored = load_checkpoint(str(ckpt))
    stored.config["blas_threads"] = ROUTINES.num_threads() + 1
    save_checkpoint(str(ckpt), stored)
    capsys.readouterr()
    assert run_cli(*common, "--epochs", "2", "--resume", str(ckpt), "--checkpoint-out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "BLAS threads" in err
    assert not out.exists()
