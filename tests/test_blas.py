"""The scoped BLAS thread count: restored on every exit, inert without a control."""

import os

import pytest

from cliffscale import _blas, streams
from cliffscale.harmonic.basis import sample_harmonic
from cliffscale.harmonic.training import DivergenceError, TrainConfig, train
from cliffscale.linreg import run_linreg_scaling

has_control = pytest.mark.skipif(_blas._controls() is None, reason="numpy's BLAS has no thread control")
two_cores = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs at least two cores")


class FakeControls:
    """A stand-in BLAS thread count that records every set."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, count):
        self.sets.append(count)
        self.count = count


@pytest.fixture
def fake(monkeypatch):
    controls = FakeControls(2)
    monkeypatch.setattr(_blas, "_controls", lambda: (controls.get, controls.set))
    return controls


def errors(estimator, d, n_grid, **kw):
    curve = run_linreg_scaling(d=d, sigma=0.1, estimator=estimator, n_grid=n_grid, trials=5, seed=3, **kw)
    return [tuple(errs) for _, errs in curve.points]


def ridge_errors():
    return errors("ridge", 100, [20, 50, 100, 200], lam=1.0)


class TestScope:
    def test_restores_after_normal_exit(self, fake):
        with _blas.blas_threads(1):
            assert fake.count == 1
        assert fake.count == 2

    def test_restores_after_exception(self, fake):
        with pytest.raises(KeyError):
            with _blas.blas_threads(1):
                raise KeyError
        assert fake.count == 2

    def test_restores_after_nested_use(self, fake):
        with _blas.blas_threads(3):
            with _blas.blas_threads(1):
                assert fake.count == 1
            assert fake.count == 3
        assert (fake.count, fake.sets) == (2, [3, 1, 3, 2])

    def test_one_thread_only_below_the_bound(self, fake):
        with _blas.threads_for(_blas.ONE_THREAD_BELOW):
            assert fake.count == 2
        assert fake.sets == []
        with _blas.threads_for(_blas.ONE_THREAD_BELOW - 1):
            assert fake.count == 1
        assert fake.sets == [1, 2]

    @has_control
    def test_restores_the_real_count(self):
        before = _blas.thread_count()
        with pytest.raises(KeyError):
            with _blas.blas_threads(1):
                assert _blas.thread_count() == 1
                raise KeyError
        assert _blas.thread_count() == before


def test_without_a_control_nothing_changes(monkeypatch):
    # lstsq's errors do not depend on the thread count, so they can be compared.
    expected = errors("lstsq", 5, [3, 10])
    monkeypatch.setattr(_blas, "_controls", lambda: None)
    assert _blas.thread_count() is None
    with _blas.blas_threads(1), _blas.threads_for(0):
        assert errors("lstsq", 5, [3, 10]) == expected


@has_control
@two_cores
class TestReproducibility:
    def test_ridge_bits_do_not_depend_on_the_callers_count(self):
        with _blas.blas_threads(2):
            two = ridge_errors()
        with _blas.blas_threads(1):
            one = ridge_errors()
        assert two == one

    def test_train_restores_the_callers_count(self):
        h = sample_harmonic(1, 2, streams.stream(5, 0))
        cfg = TrainConfig(width=32, batch_size=64, max_steps=40, val_size=128, test_size=256)
        with _blas.blas_threads(2):
            train(h, 100, config=cfg, rng=streams.stream(5, 1))
            assert _blas.thread_count() == 2
            # A diverging run, as in test_training's divergence test.
            h = sample_harmonic(1, 2, streams.stream(424242, 10))
            cfg = TrainConfig(width=32, batch_size=64, max_steps=50, patience=10**9, eval_every=20,
                              val_size=128, test_size=256, learning_rate=1e18)
            with pytest.raises(DivergenceError):
                train(h, 32, config=cfg, rng=streams.stream(424242, 11))
            assert _blas.thread_count() == 2
