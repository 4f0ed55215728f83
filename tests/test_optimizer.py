"""ADAM steps and the interleaved training loop."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from streamgp import (
    AdamState,
    ContractViolationError,
    DataError,
    MiniBatch,
    ModelSpec,
    NumericalError,
    TrainConfig,
    adam_step,
    fixed_theta_pass,
    init_inducing_subset,
    init_state,
    srgp_fit,
)
from streamgp.gradients import GradientState, init_gradient_state, propagate
from streamgp.optimizer import ADAM_BETA1, ADAM_BETA2, ResumeState, step

from conftest import make_instance, record_adam_thetas, rel_diff


class TestAdamStep:
    def test_zero_gradient_leaves_theta_fixed_and_decays_moments(self):
        theta = np.array([0.3, -0.2, 0.9])
        fresh = AdamState.fresh(3, learning_rate=0.1)
        theta2, _ = adam_step(theta, np.zeros(3), fresh)
        np.testing.assert_array_equal(theta2, theta)
        # from a warmed-up state, zero gradient decays both moments
        _, warm = adam_step(theta, np.array([1.0, -2.0, 0.5]), fresh)
        _, decayed = adam_step(theta, np.zeros(3), warm)
        np.testing.assert_allclose(decayed.first_moment, ADAM_BETA1 * warm.first_moment, rtol=1e-15)
        np.testing.assert_allclose(decayed.second_moment, ADAM_BETA2 * warm.second_moment, rtol=1e-15)

    def test_constant_gradient_step_approaches_lr_times_sign(self):
        # ADAM fixed point: m_hat -> g, v_hat -> g^2, step -> lr * sign(g).
        st = AdamState.fresh(2, learning_rate=0.01)
        theta = np.zeros(2)
        g = np.array([3.7, -0.002])
        for _ in range(500):
            theta_new, st = adam_step(theta, g, st)
            delta = theta_new - theta
            theta = theta_new
        np.testing.assert_allclose(delta, 0.01 * np.sign(g), rtol=0.01)

    def test_first_step_is_lr_times_sign(self):
        st = AdamState.fresh(2, learning_rate=0.05)
        theta, _ = adam_step(np.zeros(2), np.array([4.0, -0.3]), st)
        np.testing.assert_allclose(theta, [0.05, -0.05], rtol=1e-6)

    def test_ascends_the_objective(self):
        st = AdamState.fresh(1, learning_rate=0.1)
        theta, _ = adam_step(np.array([0.0]), np.array([1.0]), st)
        assert theta[0] > 0.0  # positive gradient, maximization

    def test_rejects_non_finite_gradient(self):
        st = AdamState.fresh(2, learning_rate=0.1)
        with pytest.raises(DataError):
            adam_step(np.zeros(2), np.array([np.nan, 0.0]), st)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ContractViolationError):
            TrainConfig(epochs=0, batch_size=10)
        with pytest.raises(ContractViolationError):
            TrainConfig(epochs=1, batch_size=0)
        with pytest.raises(ContractViolationError):
            TrainConfig(epochs=1, batch_size=1, gradient_mode="bogus")
        with pytest.raises(TypeError):  # every epoch restarts from the prior
            TrainConfig(epochs=2, batch_size=10, reset_each_epoch=False)


class TestInitInducingSubset:
    def test_rows_come_from_data(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(30, 2))
        R = init_inducing_subset(X, 6, rng)
        assert R.shape == (6, 2)
        for row in R:
            assert np.any(np.all(np.isclose(X, row), axis=1))

    def test_rejects_more_than_available(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ContractViolationError):
            init_inducing_subset(np.zeros((3, 1)) + np.arange(3)[:, None], 5, rng)


class TestStep:
    def test_advance_changes_only_the_derivative_state(self):
        # From a state that holds one batch, so that the carried terms count:
        # both calls give the same posterior and gradient, and without
        # ``advance`` d_eta and d_Lambda are left as they were.
        X, y, h = make_instance(14, n=30, m=5, d=2)
        spec = ModelSpec("pep", alpha=0.5)
        state, g = step(init_state(h, spec), init_gradient_state(h, spec), MiniBatch(X[:15], y[:15]), h, spec)
        batch = MiniBatch(X[15:], y[15:])

        def copy(g):
            return GradientState(d_eta=g.d_eta.copy(), d_Lambda=g.d_Lambda.copy(), d_psi=g.d_psi, k=g.k)

        kept, advanced = copy(g), copy(g)
        st_kept, g_kept = step(state, kept, batch, h, spec, advance=False)
        st_adv, g_adv = step(state, advanced, batch, h, spec, advance=True)
        for a, b in [
            (st_kept.eta, st_adv.eta), (st_kept.Lambda, st_adv.Lambda), (st_kept.Sigma, st_adv.Sigma),
            (g_kept.d_psi, g_adv.d_psi),
        ]:
            assert a.tobytes() == b.tobytes()
        assert (st_kept.psi, st_kept.k, g_kept.k) == (st_adv.psi, 2, 2)
        assert g_kept.d_eta.tobytes() == g.d_eta.tobytes()
        assert g_kept.d_Lambda.tobytes() == g.d_Lambda.tobytes()
        assert g_adv.d_Lambda.tobytes() != g.d_Lambda.tobytes()


class TestSrgpFit:
    def test_zero_learning_rate_keeps_theta_and_matches_fixed_pass(self):
        X, y, h = make_instance(2, n=40, m=5)
        spec = ModelSpec("vfe")
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.0)
        result = srgp_fit(X, y, h, spec, cfg)
        np.testing.assert_array_equal(result.hyper.to_vector(), h.to_vector())
        reference = fixed_theta_pass(X, y, h, spec, 8)
        assert rel_diff(result.posterior.mu, reference.mu) == 0.0
        assert result.posterior.psi == reference.psi

    def test_epoch_start_holds_one_derivative_state(self):
        # Each epoch drops the finished epoch's states before building the
        # next, so more epochs do not raise the allocation peak.
        X, y, h = make_instance(5, n=200, m=30, d=2)
        spec = ModelSpec("pep", alpha=0.5)

        def peak(epochs):
            tracemalloc.start()
            try:
                srgp_fit(X, y, h, spec, TrainConfig(epochs=epochs, batch_size=50, learning_rate=1e-3))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # the prior at the start is built and kept outside the measurement
        one, three = peak(1), peak(3)
        assert three <= 1.1 * one, three / one

    def test_gradient_step_count_is_epochs_times_batches(self):
        X, y, h = make_instance(3, n=30, m=4)
        cfg = TrainConfig(epochs=4, batch_size=7, learning_rate=1e-3)
        result = srgp_fit(X, y, h, ModelSpec("vfe"), cfg)
        assert len(result.trace) == 4 * 5  # ceil(30/7) = 5 batches
        assert result.adam.step_count == 20

    def test_epoch_reset_gives_identical_epochs_at_fixed_theta(self):
        X, y, h = make_instance(4, n=24, m=4)
        cfg = TrainConfig(epochs=3, batch_size=6, learning_rate=0.0)
        result = srgp_fit(X, y, h, ModelSpec("pep", alpha=0.5), cfg)
        per_epoch = {}
        for rec in result.trace:
            per_epoch.setdefault(rec.epoch, []).append(rec.psi_k)
        e0 = per_epoch[0]
        for e in (1, 2):
            np.testing.assert_array_equal(per_epoch[e], e0)

    def test_full_batch_step_equals_batch_gradient_step(self):
        # E=1, K=1: the one stochastic step is exactly an ADAM step on the
        # cumulative (= batch) bound gradient.
        X, y, h = make_instance(5, n=30, m=4)
        spec = ModelSpec("vfe")
        cfg = TrainConfig(epochs=1, batch_size=30, learning_rate=1e-3)
        result = srgp_fit(X, y, h, spec, cfg)

        _, g = step(init_state(h, spec), init_gradient_state(h, spec), MiniBatch(X, y), h, spec)
        expected, _ = adam_step(h.to_vector(), g.d_psi, AdamState.fresh(h.n_params, 1e-3))
        np.testing.assert_array_equal(result.hyper.to_vector(), expected)

    def test_deterministic_trace_for_fixed_seed(self, monkeypatch):
        X, y, h = make_instance(6, n=40, m=5)
        cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=1e-3, shuffle=True, seed=123)
        steps = record_adam_thetas(monkeypatch)
        r1 = srgp_fit(X, y, h, ModelSpec("vfe"), cfg)
        thetas1 = steps[:]
        steps.clear()
        r2 = srgp_fit(X, y, h, ModelSpec("vfe"), cfg)
        assert [t.psi_k for t in r1.trace] == [t.psi_k for t in r2.trace]
        assert [t.grad_norm for t in r1.trace] == [t.grad_norm for t in r2.trace]
        assert len(thetas1) == len(steps) == len(r1.trace)
        for a, b in zip(thetas1, steps):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(r1.hyper.to_vector(), r2.hyper.to_vector())

    def test_training_improves_bound(self):
        X, y, h0 = make_instance(7, n=80, m=6, lengthscale=0.8, noise_std=0.6)
        spec = ModelSpec("vfe")
        from streamgp import batch_bound

        before = batch_bound(X, y, h0, spec, with_gradient=False).value
        cfg = TrainConfig(epochs=40, batch_size=20, learning_rate=5e-3)
        result = srgp_fit(X, y, h0, spec, cfg)
        after = batch_bound(X, y, result.hyper, spec, with_gradient=False).value
        assert after > before

    def test_resume_reproduces_uninterrupted_run(self):
        X, y, h = make_instance(8, n=32, m=4)
        spec = ModelSpec("vfe")
        full_cfg = TrainConfig(epochs=6, batch_size=8, learning_rate=2e-3, shuffle=True, seed=7)
        full = srgp_fit(X, y, h, spec, full_cfg)

        half_cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=2e-3, shuffle=True, seed=7)
        half = srgp_fit(X, y, h, spec, half_cfg)
        resumed = srgp_fit(
            X,
            y,
            half.hyper,
            spec,
            full_cfg,
            resume_from=ResumeState(adam=half.adam, rng_state=half.rng_state, epochs_done=3),
        )
        np.testing.assert_array_equal(resumed.hyper.to_vector(), full.hyper.to_vector())
        np.testing.assert_array_equal(resumed.posterior.eta, full.posterior.eta)
        assert [t.psi_k for t in resumed.trace] == [t.psi_k for t in full.trace[12:]]

    def test_resume_steps_at_the_configured_learning_rate(self):
        # The resumed fit keeps the stored ADAM moments and step count, and
        # takes its rate from the config, not from the stored state.
        X, y, h = make_instance(8, n=32, m=4)
        spec = ModelSpec("vfe")
        half = srgp_fit(X, y, h, spec, TrainConfig(epochs=1, batch_size=8, learning_rate=1e-3))

        def resumed(lr: float, adam: AdamState):
            resume = ResumeState(adam=adam, rng_state=half.rng_state, epochs_done=1)
            cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=lr)
            return srgp_fit(X, y, half.hyper, spec, cfg, resume_from=resume)

        slow, fast = resumed(1e-3, half.adam), resumed(0.5, half.adam)
        assert (fast.adam.learning_rate, fast.adam.step_count) == (0.5, 8)
        assert not np.array_equal(fast.hyper.to_vector(), slow.hyper.to_vector())
        stored_fast = resumed(0.5, replace(half.adam, learning_rate=0.5))
        assert fast.hyper.to_vector().tobytes() == stored_fast.hyper.to_vector().tobytes()
        fresh = resumed(0.5, AdamState.fresh(h.n_params, 0.5))
        assert not np.array_equal(fast.hyper.to_vector(), fresh.hyper.to_vector())

    def test_early_stop_on_psi_tolerance(self):
        X, y, h = make_instance(9, n=30, m=4)
        cfg = TrainConfig(epochs=50, batch_size=30, learning_rate=0.0, psi_rel_tolerance=1e-12)
        result = srgp_fit(X, y, h, ModelSpec("vfe"), cfg)
        assert result.epochs_run == 2  # identical psi at lr=0 stops at once
        # A resumed fit lacks the previous epoch's bound, so it cannot stop early.
        resume = ResumeState(adam=result.adam, rng_state=result.rng_state, epochs_done=1)
        with pytest.raises(ContractViolationError, match="cannot stop early"):
            srgp_fit(X, y, h, ModelSpec("vfe"), cfg, resume_from=resume)

    def test_failing_step_names_its_epoch_and_mini_batch_once(self, monkeypatch):
        # The second step of the second epoch enters propagate with a NaN
        # derivative of eta in log_sigma0's row.
        from streamgp import optimizer

        X, y, h = make_instance(12, n=40, m=4)
        calls = []

        def corrupting(gstate, *args, **kwargs):
            calls.append(None)
            if len(calls) == 6:
                gstate = replace(gstate, d_eta=gstate.d_eta.copy())
                gstate.d_eta[0] = np.nan
            return propagate(gstate, *args, **kwargs)

        monkeypatch.setattr(optimizer, "propagate", corrupting)
        with pytest.raises(NumericalError) as err:
            srgp_fit(X, y, h, ModelSpec("vfe"), TrainConfig(epochs=3, batch_size=10))
        assert str(err.value) == "epoch 2: non-finite gradient for log_sigma0 at mini-batch 2"

    @pytest.mark.parametrize(
        "settings",
        [
            {}, {"shuffle": True},
            {"batch_size": 30},  # one batch per epoch: no step advances anything
            {"gradient_mode": "ignore_history"},
            {"epochs": 1, "batch_size": 30},  # one batch: the only step advances nothing
        ],
    )
    def test_fit_equals_a_loop_that_advances_on_every_step(self, monkeypatch, settings):
        # An epoch's last mini-batch leaves the derivative state as it was,
        # since the next epoch resets it or none follows; d_psi is the same.
        # The reference loop also builds a fresh derivative state each epoch,
        # where the fit rebuilds it in the finished epoch's arrays.
        from streamgp import optimizer

        X, y, h = make_instance(13, n=30, m=4)
        spec = ModelSpec("pep", alpha=0.5)
        cfg = TrainConfig(**{"epochs": 3, "batch_size": 7, "learning_rate": 1e-2, "seed": 5, **settings})
        got = srgp_fit(X, y, h, spec, cfg)
        advanced = []

        def advancing(*args, advance, **kwargs):
            advanced.append(advance)
            return propagate(*args, **kwargs)

        monkeypatch.setattr(optimizer, "propagate", advancing)
        monkeypatch.setattr(optimizer, "init_gradient_state", lambda h, spec, reuse: init_gradient_state(h, spec))
        want = srgp_fit(X, y, h, spec, cfg)
        assert len(advanced) == len(got.trace)
        assert advanced.count(False) == cfg.epochs
        for a, b in [
            (got.hyper.to_vector(), want.hyper.to_vector()),
            (got.posterior.eta, want.posterior.eta),
            (got.posterior.Lambda, want.posterior.Lambda),
            (got.adam.first_moment, want.adam.first_moment),
            (got.adam.second_moment, want.adam.second_moment),
        ]:
            assert a.tobytes() == b.tobytes()
        assert [(t.psi_k, t.grad_norm) for t in got.trace] == [(t.psi_k, t.grad_norm) for t in want.trace]

    def test_every_epoch_builds_its_derivative_state_in_the_same_arrays(self, monkeypatch):
        from streamgp import optimizer

        X, y, h = make_instance(13, n=30, m=4)
        built = []

        def recording(*args, **kwargs):
            built.append(init_gradient_state(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(optimizer, "init_gradient_state", recording)
        srgp_fit(X, y, h, ModelSpec("pep", alpha=0.5), TrainConfig(epochs=3, batch_size=7))
        assert len(built) == 3
        assert all(g.d_Lambda is built[0].d_Lambda and g.d_eta is built[0].d_eta for g in built)

    def test_batch_size_larger_than_n_rejected(self):
        X, y, h = make_instance(10, n=10, m=3)
        with pytest.raises(ContractViolationError):
            srgp_fit(X, y, h, ModelSpec("vfe"), TrainConfig(epochs=1, batch_size=11))
