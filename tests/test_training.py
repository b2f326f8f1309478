"""Tests for the harmonic training loop and scaling runner."""

import tracemalloc

import numpy as np
import pytest

from cliffscale import streams
from cliffscale.harmonic import network, training
from cliffscale.harmonic.basis import BandwidthRegularizer, sample_harmonic
from cliffscale.harmonic.training import DivergenceError, TrainConfig, train, run_harmonic_scaling


def rng_for(*key):
    return streams.stream(424242, *key)


def tiny_config(**overrides):
    base = dict(
        width=32,
        batch_size=64,
        max_steps=400,
        patience=200,
        eval_every=20,
        val_size=128,
        test_size=256,
        reg_points=256,
        learning_rate=3e-3,
    )
    base.update(overrides)
    return TrainConfig(**base)


def small_regularizer(B, m, *key, lam=1.0):
    pts = rng_for(*key).uniform(size=(m, 2))
    return BandwidthRegularizer(B=B, d=2, points=pts, lam=lam)


class TestTrain:
    def test_deterministic_given_seed(self):
        h = sample_harmonic(1, 2, rng_for(1))
        cfg = tiny_config()
        a = train(h, 40, config=cfg, rng=rng_for(2))
        b = train(h, 40, config=cfg, rng=rng_for(2))
        assert a.test_mse == b.test_mse
        assert a.steps == b.steps
        for wa, wb in zip(a.model.weights, b.model.weights):
            assert np.array_equal(wa, wb)

    def test_learns_an_easy_target(self):
        h = sample_harmonic(0, 2, rng_for(3))  # constant target
        res = train(h, 64, config=tiny_config(), rng=rng_for(4))
        assert res.test_mse < 1e-3

    def test_penalty_only_run_stays_bandlimited(self):
        h = sample_harmonic(2, 2, rng_for(5))
        reg = small_regularizer(2, 256, 6)
        res = train(h, 0, config=tiny_config(), regularizer=reg, rng=rng_for(7))
        assert res.reg_value is not None and res.reg_value < 1e-3

    def test_nothing_to_train_on_rejected(self):
        h = sample_harmonic(1, 2, rng_for(8))
        with pytest.raises(ValueError, match="n = 0"):
            train(h, 0, config=tiny_config(), rng=rng_for(9))

    @pytest.mark.filterwarnings("error")
    def test_divergence_reports_step(self):
        # Every diverging run raises DivergenceError; none leaks numpy's
        # overflow or invalid-value warning, which would be raised here first.
        cfg = tiny_config(learning_rate=1e18, max_steps=50, patience=10**9)
        for key in range(12):
            h = sample_harmonic(1, 2, rng_for(10, key))
            with pytest.raises(DivergenceError) as err:
                train(h, 32, config=cfg, rng=rng_for(11, key))
            assert err.value.step >= 1

    def test_early_stopping_respects_budget(self):
        h = sample_harmonic(1, 2, rng_for(12))
        cfg = tiny_config(max_steps=300, patience=60, eval_every=10)
        res = train(h, 32, config=cfg, rng=rng_for(13))
        assert res.steps <= 300
        if res.stopped_early:
            assert res.steps < 300

    def test_requires_rng(self):
        h = sample_harmonic(1, 2, rng_for(16))
        with pytest.raises(ValueError, match="generator"):
            train(h, 32, config=tiny_config())


class TestPinnedResults:
    # float.hex of (test_mse, val_mse, reg_value) and the step count,
    # captured from the implementation that allocated fresh arrays for
    # every forward, backward and Adam operation. n = 300 exceeds the
    # batch size, so the minibatch permutation wraps within 60 steps.
    # float32 matrix products round as the BLAS kernel orders them: the
    # values were taken with scipy-openblas 0.3.31 on an AVX-512 x86-64
    # CPU. Another BLAS build or kernel may differ in the last bits, and
    # so may the reg arm at its default 20 000 points with another BLAS
    # thread count; these small runs make their products on one thread.
    # The inputs come from the generators the package's streams were before
    # they keyed Philox directly, so the literals pin arithmetic only.
    PINNED = {
        "reg": ("0x1.9d032fef1c294p-1", "0x1.8698eb7b6488ep-1", "0x1.0b04944444444p-6", 60),
        "noreg": ("0x1.971833ec4cf76p-1", "0x1.815ef46d6ddaap-1", None, 60),
    }

    @staticmethod
    def seed_sequence_rng(*key):
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(424242, spawn_key=key)))

    @pytest.mark.parametrize("arm", PINNED)
    def test_matches_pinned_values(self, arm):
        h = sample_harmonic(1, 2, self.seed_sequence_rng(40))
        pts = self.seed_sequence_rng(41).uniform(size=(60, 2))
        reg = BandwidthRegularizer(B=1, d=2, points=pts, lam=1.0) if arm == "reg" else None
        cfg = tiny_config(width=16, max_steps=60, reg_points=60)
        res = train(h, 300, config=cfg, regularizer=reg, rng=self.seed_sequence_rng(42))
        reg_value = None if res.reg_value is None else res.reg_value.hex()
        assert (res.test_mse.hex(), res.val_mse.hex(), reg_value, res.steps) == self.PINNED[arm]


class TestAllocations:
    M, WIDTH, BATCH = 2000, 64, 64

    def traced_steps(self, monkeypatch):
        """Memory held after step 1, then each later step's peak above it.

        numpy reports its buffers to tracemalloc.
        """
        h = sample_harmonic(1, 2, rng_for(50))
        reg = small_regularizer(1, self.M, 51)
        cfg = tiny_config(width=self.WIDTH, batch_size=self.BATCH, max_steps=6, eval_every=2,
                          reg_points=self.M)
        growth = []

        def measured_adam_step(state, params, grads):
            adam_step(state, params, grads)
            current, peak = tracemalloc.get_traced_memory()
            if state.step == 1:
                growth.append(current)
                tracemalloc.reset_peak()
            else:
                growth.append(peak - growth[0])

        adam_step = training.adam_step
        monkeypatch.setattr(training, "adam_step", measured_adam_step)
        tracemalloc.start()
        try:
            train(h, 100, config=cfg, regularizer=reg, rng=rng_for(52))
        finally:
            tracemalloc.stop()
        assert len(growth) == 6
        return growth

    def test_steps_after_the_first_allocate_no_activation_sized_array(self, monkeypatch):
        # Every step after the first reuses the workspace built by train(),
        # so the traced peak above the memory held after step 1 stays below
        # one (m x width) float32 array.
        growth = self.traced_steps(monkeypatch)
        assert max(growth[1:]) < self.M * self.WIDTH * np.dtype(np.float32).itemsize

    def test_a_regularized_step_holds_one_buffer_per_hidden_layer(self, monkeypatch):
        # Three hidden layers, each delta kept in its activation buffer,
        # plus a bool mask, the k = 1 output and train()'s own inputs: about
        # 3.9 activation-sized arrays. Two separate delta buffers would add 2.
        held = self.traced_steps(monkeypatch)[0]
        activation = (self.BATCH + self.M) * self.WIDTH * np.dtype(np.float32).itemsize
        assert held < 4.5 * activation


class TestRowBlocks:
    def test_blocked_training_matches_unblocked(self, monkeypatch):
        # batch + m = 64 + 2 ROW_BLOCK rows run in three blocks; raising
        # ROW_BLOCK above that runs every product whole.
        m = 2 * network.ROW_BLOCK
        h = sample_harmonic(1, 2, rng_for(60))
        cfg = tiny_config(width=32, max_steps=8, eval_every=4, reg_points=m)

        def run():
            reg = small_regularizer(1, m, 61)
            res = train(h, 100, config=cfg, regularizer=reg, rng=rng_for(62))
            return res.test_mse.hex(), res.val_mse.hex(), res.reg_value.hex(), res.steps

        blocked = run()
        monkeypatch.setattr(network, "ROW_BLOCK", cfg.batch_size + m + 1)
        assert run() == blocked


class TestRunHarmonicScaling:
    def test_metadata_and_shape(self):
        curve = run_harmonic_scaling(
            B=1, arm="noreg", n_grid=[8, 16], trials=2, seed=3, config=tiny_config(max_steps=60)
        )
        assert curve.metadata["task"] == "harmonic"
        assert curve.metadata["arm"] == "noreg"
        assert curve.ns.tolist() == [8, 16]
        assert len(dict(curve.points)[8]) == 2

    def test_deterministic_and_worker_independent(self):
        kwargs = dict(
            B=1, arm="reg", n_grid=[8, 16], trials=2, seed=4, config=tiny_config(max_steps=60)
        )
        a = run_harmonic_scaling(**kwargs)
        b = run_harmonic_scaling(**kwargs)
        assert a.points == b.points

    def test_arms_share_targets_and_reject_unknown(self):
        with pytest.raises(ValueError, match="arm"):
            run_harmonic_scaling(B=1, arm="magic", n_grid=[8], trials=1, seed=5)

    def test_below_threshold_no_free_lunch(self):
        # Far below the sampling threshold (2B+1)^2 both arms are equally
        # stuck: median errors within a small constant factor.
        cfg = tiny_config(width=64, max_steps=800, patience=400, reg_points=512)
        kwargs = dict(B=2, n_grid=[6], trials=5, seed=6, config=cfg)
        reg = run_harmonic_scaling(arm="reg", **kwargs)
        noreg = run_harmonic_scaling(arm="noreg", **kwargs)
        m_reg = float(reg.statistic("median")[0])
        m_noreg = float(noreg.statistic("median")[0])
        assert 0.2 <= m_reg / m_noreg <= 5.0
