"""The scoped BLAS thread count: restored on every exit, inert without a control."""

import os
import resource
import time

import pytest

from cliffscale import _blas, _parallel, linreg, streams
from cliffscale.gaussian import run_gaussian_scaling
from cliffscale.harmonic.basis import sample_harmonic
from cliffscale.harmonic.training import DivergenceError, TrainConfig, run_harmonic_scaling, train
from cliffscale.linreg import run_linreg_scaling

has_control = pytest.mark.skipif(_blas._controls() is None, reason="numpy's BLAS has no thread control")
two_cores = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs at least two cores")


class FakeControls:
    """A stand-in BLAS thread count that records every set and every pool shutdown."""

    def __init__(self, count):
        self.count = count
        self.calls = []

    @property
    def sets(self):
        return [call for call in self.calls if call != "shutdown"]

    def get(self):
        return self.count

    def set(self, count):
        self.calls.append(count)
        self.count = count

    def shutdown(self):
        self.calls.append("shutdown")
        return 0


@pytest.fixture
def fake(monkeypatch):
    controls = FakeControls(2)
    monkeypatch.setattr(_blas, "_controls", lambda: (controls.get, controls.set, controls.shutdown))
    return controls


def errors(estimator, d, n_grid, trials=5, **kw):
    curve = run_linreg_scaling(d=d, sigma=0.1, estimator=estimator, n_grid=n_grid, trials=trials, seed=3, **kw)
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

    def test_every_set_is_followed_by_a_pool_shutdown(self, fake):
        with _blas.blas_threads(1):
            assert fake.calls == [1, "shutdown"]
        assert fake.calls == [1, "shutdown", 2, "shutdown"]

    def test_a_failing_linreg_cell_restores_the_callers_count(self, fake, monkeypatch):
        calls = []
        fit = linreg.fit_least_squares

        def failing_on_the_third_call(data):
            calls.append(data)
            if len(calls) == 3:
                raise ZeroDivisionError
            return fit(data)

        monkeypatch.setattr(linreg, "fit_least_squares", failing_on_the_third_call)
        with pytest.raises(ZeroDivisionError):
            errors("lstsq", 5, [3, 10])
        assert len(calls) == 3
        assert (fake.count, fake.calls) == (2, [1, "shutdown", 2, "shutdown"])

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
    with _blas.blas_threads(1):
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

    def test_ridge_bits_at_large_n_do_not_depend_on_the_callers_count(self):
        # Every linreg cell runs on one thread, at any n.
        grid = [2000, 5000, 10_000]
        with _blas.blas_threads(2):
            two = errors("ridge", 100, grid, lam=1.0)
        with _blas.blas_threads(1):
            one = errors("ridge", 100, grid, lam=1.0)
        assert two == one

    @pytest.mark.parametrize(
        "estimator, d, n_grid, kw",
        [("lstsq", 300, [300, 600], {}), ("ridge", 400, [400, 800], {"lam": 1.0}), ("nn", 20, [2000], {})],
        ids=["lstsq-d300", "ridge-d400", "nn-d20"],
    )
    def test_large_cells_bits_do_not_depend_on_the_callers_count(self, estimator, d, n_grid, kw):
        # Products this large are split between two threads, which rounds differently.
        with _blas.blas_threads(2):
            two = errors(estimator, d, n_grid, trials=2, **kw)
        with _blas.blas_threads(1):
            one = errors(estimator, d, n_grid, trials=2, **kw)
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

    def test_reg_arm_bits_do_not_depend_on_the_callers_count(self):
        # batch + reg_points = 4161 rows, not a multiple of the kernel's row
        # block, and rows x width^2 >= 2^24: a step the regularized arm once
        # kept on the caller's count, where a.T @ d rounds differently.
        kwargs = dict(
            B=1, arm="reg", n_grid=[60], trials=2, seed=5,
            config=TrainConfig(width=64, max_steps=3, reg_points=4101, val_size=64, test_size=256),
        )
        with _blas.blas_threads(2):
            two = run_harmonic_scaling(**kwargs).points
        with _blas.blas_threads(1):
            one = run_harmonic_scaling(**kwargs).points
        assert two == one


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@pytest.mark.skipif(
    _blas._controls() is None or _blas._controls()[2] is None, reason="the BLAS exports no pool shutdown"
)
@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(_parallel.usable_cpus()) < 2,
    reason="needs CPU affinity and at least two usable CPUs",
)
@pytest.mark.parametrize(
    "run",
    [ridge_errors, lambda: run_gaussian_scaling(d=50, s=1.0, n_grid=[10, 100, 1000], trials=20, seed=3)],
    ids=["ridge-d100", "gaussian"],
)
def test_no_blas_thread_spins_after_a_split_run(split_cells, run):
    # After a fork OpenBLAS re-creates its pool when the count is restored,
    # and its new worker spins a core for ~0.13 s unless it is shut down.
    run()
    before = cpu_seconds()
    time.sleep(0.3)
    assert cpu_seconds() - before < 0.03
