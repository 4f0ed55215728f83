"""Acceptance suite: one test per criterion, each ending in a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion.  Every tolerance is fixed here; nothing is calibrated at run
time.  The heavier training criteria keep their wall-clock budgets
explicit.
"""

import json
import time

import numpy as np

import streamgp as sg
from streamgp import (
    Hyperparameters,
    MiniBatch,
    ModelSpec,
    batch_bound,
    init_state,
    predict,
    split_into_batches,
    update,
)
from streamgp.batch import fd_gradient
from streamgp.cli import main as cli_main
from streamgp.data import integrate_cstr
from streamgp.gradients import init_gradient_state
from streamgp.inference import PARAM_STANDARD, PARAM_TRANSFORMED
from streamgp.kernel import kernel_matrix
from streamgp.optimizer import step

from conftest import (
    batch_sparse_posterior,
    farthest_point_subset,
    full_gp_lml,
    full_gp_predict,
    record_adam_thetas,
    rel_diff,
    train_test_split,
)
from timing import pinned


def report(number: int, detail: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS: {detail}")


def stream(X, y, h, spec, batch_size, parametrization=PARAM_STANDARD, order=None):
    state = init_state(h, parametrization)
    for idx in split_into_batches(y.size, batch_size, order):
        state, _ = update(state, MiniBatch(X[idx], y[idx]), h, spec)
    return state


def standard_moments(state, h):
    if state.parametrization == PARAM_TRANSFORMED:
        K = kernel_matrix(h.inducing_inputs, h.inducing_inputs, h)
        return K @ state.mu, K @ state.Sigma @ K
    return state.mu, state.Sigma


def small_instance():
    """N=200, D=1, M=15 regression instance shared by criteria 1, 2 and 5.

    The lengthscale keeps cond(K_RR) ~ 5e2 so that the transformed
    parametrization (whose round-off scales with the squared condition
    number) stays well inside the 1e-8 agreement tolerances.
    """
    rng = np.random.default_rng(12)
    n = 200
    X = rng.uniform(0.0, 1.0, (n, 1))
    h = Hyperparameters(
        log_sigma0=0.0,
        log_lengthscales=np.log([0.08]),
        log_sigma_n=np.log(0.1),
        inducing_inputs=farthest_point_subset(X, 15, rng),
    )
    f = np.linalg.cholesky(kernel_matrix(X, X, h) + 1e-10 * np.eye(n)) @ rng.standard_normal(n)
    y = f + 0.1 * rng.standard_normal(n)
    return X, y, h


SMALL_VARIANTS = [ModelSpec("vfe"), ModelSpec("fitc"), ModelSpec("pep", alpha=0.5)]


def test_criterion_01_recursive_equals_batch_posterior():
    # N=200, D=1, M=15, K in {1, 4, 200}: streamed posterior equals the
    # one-shot posterior to 1e-8 relative for three variants and both
    # parametrizations, in under 5 s.
    t0 = time.perf_counter()
    X, y, h = small_instance()
    worst = 0.0
    for spec in SMALL_VARIANTS:
        mu_b, Sigma_b = batch_sparse_posterior(X, y, h, spec)
        for parametrization in (PARAM_STANDARD, PARAM_TRANSFORMED):
            for k_batches in (1, 4, 200):
                st = stream(X, y, h, spec, batch_size=200 // k_batches, parametrization=parametrization)
                assert st.k == k_batches
                mu_r, Sigma_r = standard_moments(st, h)
                err = max(rel_diff(mu_r, mu_b), rel_diff(Sigma_r, Sigma_b))
                worst = max(worst, err)
                assert err < 1e-8, (spec.variant, parametrization, k_batches, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"max posterior rel diff {worst:.2e} over 18 runs in {elapsed:.2f}s")


def test_criterion_02_recursive_bound_equals_batch_bound():
    # Same instances: accumulated streaming bound equals the collapsed
    # batch bound to 1e-8 relative (FITC checked against the power model
    # at alpha = 1).
    X, y, h = small_instance()
    cases = [
        (ModelSpec("vfe"), ModelSpec("vfe")),
        (ModelSpec("fitc"), ModelSpec("pep", alpha=1.0)),
        (ModelSpec("pep", alpha=0.5), ModelSpec("pep", alpha=0.5)),
    ]
    worst = 0.0
    for run_spec, bound_spec in cases:
        L = batch_bound(X, y, h, bound_spec, with_gradient=False).value
        for parametrization in (PARAM_STANDARD, PARAM_TRANSFORMED):
            for k_batches in (1, 4, 200):
                st = stream(X, y, h, run_spec, 200 // k_batches, parametrization)
                err = abs(st.psi - L) / abs(L)
                worst = max(worst, err)
                assert err < 1e-8, (run_spec.variant, parametrization, k_batches, err)
    report(2, f"max bound rel diff {worst:.2e}")


def test_criterion_03_cumulative_gradient_equals_batch_gradient():
    # N=60, D=2, M=7, K=3: the accumulated streaming gradient matches
    # central finite differences of the batch bound for every parameter
    # class, rel. 1e-4 with absolute floor 1e-7, in under 30 s.
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    n = 60
    X = rng.uniform(0.0, 1.0, (n, 2))
    h = Hyperparameters(
        log_sigma0=float(np.log(1.2)),
        log_lengthscales=np.log([0.3, 0.45]),
        log_sigma_n=float(np.log(0.2)),
        inducing_inputs=farthest_point_subset(X, 7, rng),
    )
    f = np.linalg.cholesky(kernel_matrix(X, X, h) + 1e-10 * np.eye(n)) @ rng.standard_normal(n)
    y = f + 0.2 * rng.standard_normal(n)

    summary = []
    for spec in (ModelSpec("vfe"), ModelSpec("pep", alpha=0.5)):
        state = init_state(h)
        g = init_gradient_state(h)
        for idx in split_into_batches(n, 20):
            state, g = step(state, g, MiniBatch(X[idx], y[idx]), h, spec)
        fd = fd_gradient(
            lambda th: batch_bound(X, y, h.with_vector(th), spec, with_gradient=False).value,
            h.to_vector(),
            step=1e-5,
        )
        by_class = {}
        for i in range(h.n_params):
            cls = h.param_class(i)[0]
            err = abs(g.d_psi[i] - fd[i]) / max(abs(fd[i]), 1e-7 / 1e-4)
            by_class[cls] = max(by_class.get(cls, 0.0), err)
        for cls, err in by_class.items():
            assert err < 1e-4, (spec.variant, cls, err)
        summary.append(f"{spec.variant}: " + ", ".join(f"{c}={e:.1e}" for c, e in by_class.items()))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report(3, "; ".join(summary) + f" ({elapsed:.1f}s)")


def test_criterion_04_full_gp_recovery():
    # VFE with M = N, R = X on N=100 recovers the exact GP: bound within
    # 1e-6 of the log marginal likelihood, predictions within 1e-6.
    rng = np.random.default_rng(7)
    n = 100
    X = ((np.arange(n) + 0.3 * rng.uniform(-1, 1, n)) / n).reshape(-1, 1)
    h = Hyperparameters(0.0, np.log([0.02]), np.log(0.1), X.copy())
    K = kernel_matrix(X, X, h)
    y = np.linalg.cholesky(K + 1e-12 * np.eye(n)) @ rng.standard_normal(n)
    y += 0.1 * rng.standard_normal(n)
    spec = ModelSpec("vfe")

    st = stream(X, y, h, spec, batch_size=25)
    lml = full_gp_lml(X, y, h)
    bound_gap = abs(st.psi - lml)
    assert bound_gap < 1e-6

    X_star = rng.uniform(0.0, 1.0, (25, 1))
    approx = predict(st, X_star, h, spec)
    exact = full_gp_predict(X, y, X_star, h)
    mean_gap = float(np.max(np.abs(approx.mean - exact.mean)))
    var_gap = float(np.max(np.abs(approx.variance - exact.variance)))
    assert mean_gap < 1e-6 and var_gap < 1e-6
    report(4, f"bound gap {bound_gap:.2e}, mean gap {mean_gap:.2e}, var gap {var_gap:.2e}")


def test_criterion_05_order_and_transformation_invariance():
    # Ten random permutations of the mini-batches leave (eta, Lambda)
    # unchanged to 1e-10; the two parametrizations predict identically
    # to 1e-8.
    X, y, h = small_instance()
    spec = ModelSpec("pep", alpha=0.5)
    batches = split_into_batches(200, 20)
    ref = None
    rng = np.random.default_rng(0)
    worst_state = 0.0
    for _ in range(10):
        order = rng.permutation(len(batches))
        st = init_state(h)
        for bi in order:
            idx = batches[bi]
            st, _ = update(st, MiniBatch(X[idx], y[idx]), h, spec)
        if ref is None:
            ref = st
        else:
            err = max(rel_diff(st.eta, ref.eta), rel_diff(st.Lambda, ref.Lambda))
            worst_state = max(worst_state, err)
            assert err < 1e-10

    X_star = rng.uniform(0.0, 1.0, (20, 1))
    p_std = predict(stream(X, y, h, spec, 20, PARAM_STANDARD), X_star, h, spec)
    p_tr = predict(stream(X, y, h, spec, 20, PARAM_TRANSFORMED), X_star, h, spec)
    pred_err = max(rel_diff(p_std.mean, p_tr.mean), rel_diff(p_std.variance, p_tr.variance))
    assert pred_err < 1e-8
    report(5, f"permutation state diff {worst_state:.2e}, parametrization pred diff {pred_err:.2e}")


def desk_task_data(seed: int, n_test: int = 500):
    """1-D draw with amplitude 1, lengthscale 0.5, noise std 0.1."""
    h_true = sg.default_hyperparameters(d=1, sigma0=1.0, lengthscale=0.5, noise_std=0.1)
    ds = sg.generate_gp_data(seed, 1000 + n_test, d=1, h=h_true)
    return ds.X[:1000], ds.y[:1000], ds.X[1000:], ds.y[1000:]


def test_criterion_06_desk_scale_training():
    # SRGP (B=100, lr 1e-3, <= 200 epochs) reaches, within 2%, the bound
    # of the same ADAM run on full-batch gradients; test RMSE within 10%
    # of the batch-optimized model; recovered noise std within 25% of 0.1.
    t0 = time.perf_counter()
    Xtr, ytr, Xte, yte = desk_task_data(100)
    spec = ModelSpec("vfe")
    rng = np.random.default_rng(0)
    h0 = Hyperparameters(0.0, np.log([1.0]), np.log(0.3), sg.init_inducing_subset(Xtr, 15, rng))

    srgp = sg.srgp_fit(
        Xtr, ytr, h0, spec, sg.TrainConfig(epochs=200, batch_size=100, learning_rate=1e-3, seed=1)
    )
    batch = sg.srgp_fit(
        Xtr, ytr, h0, spec, sg.TrainConfig(epochs=2500, batch_size=1000, learning_rate=1e-3, seed=2)
    )

    L_batch = batch_bound(Xtr, ytr, batch.hyper, spec, with_gradient=False).value
    psi_gap = abs(srgp.posterior.psi - L_batch) / abs(L_batch)
    assert psi_gap < 0.02, f"bound gap {psi_gap:.4f}"

    rmse_s = sg.rmse(yte, predict(srgp.posterior, Xte, srgp.hyper, spec).mean)
    rmse_b = sg.rmse(yte, predict(batch.posterior, Xte, batch.hyper, spec).mean)
    assert rmse_s <= 1.1 * rmse_b, f"rmse {rmse_s:.4f} vs batch {rmse_b:.4f}"

    sigma_n = srgp.hyper.sigma_n
    assert 0.075 <= sigma_n <= 0.125, f"sigma_n {sigma_n:.4f}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(
        6,
        f"bound gap {psi_gap * 100:.3f}% (limit 2%), rmse {rmse_s:.4f} vs {rmse_b:.4f}, "
        f"sigma_n {sigma_n:.4f}, {elapsed:.0f}s",
    )


def test_criterion_07_coverage_sanity():
    # Well-specified synthetic task, 2000 test points: central 95%
    # interval coverage lands in [0.90, 0.99] for each of five seeds.
    h_true = sg.default_hyperparameters(d=1, sigma0=1.0, lengthscale=0.3, noise_std=0.1)
    spec = ModelSpec("vfe")
    coverages = []
    for seed in range(5):
        ds = sg.generate_gp_data(500 + seed, 3000, d=1, h=h_true)
        Xtr, ytr, Xte, yte = ds.X[:1000], ds.y[:1000], ds.X[1000:], ds.y[1000:]
        rng = np.random.default_rng(seed)
        h0 = Hyperparameters(0.0, np.log([1.0]), np.log(0.3), sg.init_inducing_subset(Xtr, 15, rng))
        fit = sg.srgp_fit(
            Xtr, ytr, h0, spec, sg.TrainConfig(epochs=120, batch_size=100, learning_rate=3e-3, seed=seed)
        )
        pred = predict(fit.posterior, Xte, fit.hyper, spec, with_noise=True)
        cov = sg.coverage(yte, pred.mean, pred.variance)
        coverages.append(cov)
        assert 0.90 <= cov <= 0.99, f"seed {seed}: coverage {cov:.4f}"
    report(7, "coverages " + ", ".join(f"{c:.3f}" for c in coverages))


def test_criterion_08_ignore_history_ablation():
    # On the desk-scale task presented as a spatially ordered stream, the
    # history-blind gradient gives strictly worse test RMSE than full
    # propagation for five paired seeds.
    h_true = sg.default_hyperparameters(d=1, sigma0=1.0, lengthscale=0.5, noise_std=0.1)
    spec = ModelSpec("vfe")
    margins = []
    for seed in range(5):
        ds = sg.generate_gp_data(300 + seed, 3000, d=1, h=h_true)
        Xtr, ytr, Xte, yte = ds.X[:1000], ds.y[:1000], ds.X[1000:], ds.y[1000:]
        order = np.argsort(Xtr[:, 0])  # stream arrives sorted in space
        Xtr, ytr = Xtr[order], ytr[order]
        rng = np.random.default_rng(seed)
        h0 = Hyperparameters(0.0, np.log([1.0]), np.log(0.3), sg.init_inducing_subset(Xtr, 15, rng))
        rmses = {}
        for mode in ("full", "ignore_history"):
            fit = sg.srgp_fit(
                Xtr,
                ytr,
                h0,
                spec,
                sg.TrainConfig(
                    epochs=120, batch_size=100, learning_rate=1e-3, seed=seed, gradient_mode=mode
                ),
            )
            rmses[mode] = sg.rmse(yte, predict(fit.posterior, Xte, fit.hyper, spec).mean)
        margin = rmses["ignore_history"] - rmses["full"]
        margins.append(margin)
        assert margin > 0.0, f"seed {seed}: full {rmses['full']:.5f}, naive {rmses['ignore_history']:.5f}"
    report(8, "naive-minus-full rmse margins " + ", ".join(f"{m:+.1e}" for m in margins))


def test_criterion_09_complexity_smoke():
    # Per-mini-batch wall time grows sub-quadratically in B at fixed M=50
    # (fitted exponent < 2.3) and linearly in the number of tracked
    # parameters at fixed B, M (exponent in [0.7, 1.3]).  Timed in a child
    # process pinned to one BLAS thread, minimum over warmed-up repetitions.
    t = pinned("criterion_09")
    slope_b = float(np.polyfit(np.log(t["sizes_b"]), np.log(t["times_b"]), 1)[0])
    assert slope_b < 2.3, f"batch-size exponent {slope_b:.2f}"
    slope_p = float(np.polyfit(np.log(t["sizes_p"]), np.log(t["times_p"]), 1)[0])
    assert 0.7 <= slope_p <= 1.3, f"parameter-count exponent {slope_p:.2f}"
    # t = a + b P on the same times: the P-independent cost a flattens the exponent.
    per_p, fixed = np.polyfit(t["sizes_p"], t["times_p"], 1)
    report(
        9,
        f"batch-size exponent {slope_b:.2f} (<2.3), parameter exponent {slope_p:.2f}; "
        f"propagate {fixed * 1e3:.2f} ms + {per_p * 1e6:.1f} us per parameter",
    )


def test_criterion_10_mini_batch_size_study(monkeypatch):
    # N=1e4: the relative error between the per-epoch accumulated bound
    # and the batch bound decreases as B grows, and the across-repetition
    # spread of the late per-update error is larger at B=100 than B=5000.
    h_true = sg.default_hyperparameters(d=1, sigma0=1.0, lengthscale=0.1, noise_std=0.1)
    spec = ModelSpec("vfe")
    epochs, seeds = 8, [0, 1, 2, 3]
    datasets = {
        seed: sg.generate_gp_data(300 + seed, 10_000, d=1, h=h_true) for seed in seeds
    }
    stats = {}
    steps = record_adam_thetas(monkeypatch)
    for B in (100, 1000, 5000):
        final_errs, late_errs = [], []
        for seed in seeds:
            ds = datasets[seed]
            rng = np.random.default_rng(seed)
            h0 = Hyperparameters(
                0.0, np.log([1.0]), np.log(0.3), sg.init_inducing_subset(ds.X, 20, rng)
            )
            steps.clear()
            fit = sg.srgp_fit(
                ds.X,
                ds.y,
                h0,
                spec,
                sg.TrainConfig(epochs=epochs, batch_size=B, learning_rate=1e-3, seed=seed, shuffle=True),
            )
            K = int(np.ceil(10_000 / B))
            psi_last_epoch = sum(t.psi_k for t in fit.trace if t.epoch == epochs - 1)
            L_final = batch_bound(ds.X, ds.y, fit.hyper, spec, with_gradient=False).value
            final_errs.append(abs(psi_last_epoch - L_final) / abs(L_final))
            per_update = []
            assert len(steps) == len(fit.trace)
            for t, theta in zip(fit.trace[-10:], steps[-10:]):
                L_t = batch_bound(
                    ds.X, ds.y, h0.with_vector(theta), spec, with_gradient=False
                ).value
                per_update.append((K * t.psi_k - L_t) / abs(L_t))
            late_errs.append(float(np.mean(per_update)))
        stats[B] = (float(np.mean(final_errs)), float(np.std(late_errs)))
    assert stats[100][0] > stats[1000][0] > stats[5000][0], stats
    assert stats[100][1] > stats[5000][1], stats
    report(
        10,
        "epoch-bound rel err " + ", ".join(f"B={b}: {stats[b][0]:.1e}" for b in (100, 1000, 5000))
        + f"; late-update spread B=100 {stats[100][1]:.1e} > B=5000 {stats[5000][1]:.1e}",
    )


def test_criterion_11_cstr_pipeline(tmp_path):
    # Tank-level fixed point under constant inflow, then an end-to-end
    # simulate/train/evaluate run through the CLI on 1e4 samples that must
    # beat the predict-train-mean baseline.
    _, level, _, _ = integrate_cstr(lambda t: 0.0, duration=120.0)
    fp_err = abs(level[-1] - 0.25)
    assert fp_err < 1e-3

    data_file = tmp_path / "cstr.csv"
    assert cli_main(
        ["simulate", "cstr", "--duration", "2000", "--seed", "0", "--out", str(data_file)]
    ) == 0
    ds = sg.load_dataset(str(data_file))
    assert ds.n >= 9_999
    train_ds, test_ds = train_test_split(ds, 0.2)
    train_file, test_file = tmp_path / "train.csv", tmp_path / "test.csv"
    sg.save_dataset(train_ds, str(train_file))
    sg.save_dataset(test_ds, str(test_file))

    ckpt = tmp_path / "cstr.npz"
    assert (
        cli_main(
            [
                "train", "--data", str(train_file), "--model", "vfe", "--num-inducing", "20",
                "--batch-size", "500", "--epochs", "50", "--lr", "5e-3", "--seed", "0",
                "--shuffle", "--standardize", "--checkpoint-out", str(ckpt),
            ]
        )
        == 0
    )
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli_main(["evaluate", "--checkpoint", str(ckpt), "--data", str(test_file)]) == 0
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    baseline = sg.rmse(test_ds.y, np.full(test_ds.n, train_ds.y.mean()))
    assert np.isfinite(result["rmse"])
    assert result["rmse"] < baseline, f"model {result['rmse']:.4f} vs baseline {baseline:.4f}"
    report(
        11,
        f"fixed-point err {fp_err:.1e}, rmse {result['rmse']:.4f} beats mean baseline {baseline:.4f}",
    )
