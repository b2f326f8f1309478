"""Tests for the linear-regression toy model."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cliffscale import _parallel, linreg, streams
from cliffscale.curve_io import curve_to_json
from cliffscale.gaussian import run_gaussian_scaling
from cliffscale.harmonic.training import run_harmonic_scaling
from cliffscale.linreg import (
    NN_TREE_MAX_D,
    LinearTask,
    RegressionDataset,
    fit_least_squares,
    fit_ridge,
    linear_test_mse,
    nn_test_mse,
    run_linreg_scaling,
    sample_dataset,
    sample_dataset_sufficient,
    _nn_predict_batch,
    sample_task,
)

# One dimension served by the k-d tree and one by the brute-force scan.
SIDES = pytest.mark.parametrize("d", [NN_TREE_MAX_D, NN_TREE_MAX_D + 1], ids=["tree", "brute"])


def rng_for(*key):
    return streams.stream(2024, *key)


class TestSampleTask:
    def test_one_dimensional_sphere(self):
        for k in range(20):
            task = sample_task(1, 0.0, rng_for(k))
            assert task.v[0] in (1.0, -1.0) or abs(abs(task.v[0]) - 1.0) < 1e-12

    def test_unit_norm(self):
        for d in (2, 5, 100):
            task = sample_task(d, 0.0, rng_for(d))
            assert abs(np.linalg.norm(task.v) - 1.0) < 1e-12

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            sample_task(0, 0.0, rng_for(0))

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.5])
    def test_bad_sigma_rejected(self, sigma):
        # Both samplers add noise only when sigma > 0, so a NaN sigma used to give noiseless data.
        with pytest.raises(ValueError, match="sigma"):
            LinearTask(d=2, v=np.array([1.0, 0.0]), sigma=sigma)
        with pytest.raises(ValueError, match="sigma"):
            run_linreg_scaling(d=5, sigma=sigma, estimator="lstsq", n_grid=[10, 20, 40], trials=5, seed=1)

    def test_fig_2a_configuration(self):
        task = sample_task(5, 0.0, rng_for(1))
        assert task.d == 5 and task.sigma == 0.0
        assert abs(np.linalg.norm(task.v) - 1.0) < 1e-12


class TestSampleDataset:
    def test_empty(self):
        task = sample_task(3, 0.0, rng_for(1))
        data = sample_dataset(task, 0, rng_for(2))
        assert len(data) == 0

    def test_noiseless_targets_exact(self):
        task = sample_task(4, 0.0, rng_for(3))
        data = sample_dataset(task, 50, rng_for(4))
        assert np.allclose(data.ys, data.xs @ task.v)

    def test_target_second_moment(self):
        # Var(y) = |v|^2 + sigma^2 = 1.01 for unit v and sigma = 0.1.
        task = sample_task(8, 0.1, rng_for(5))
        data = sample_dataset(task, 1_000_000, rng_for(6))
        assert np.mean(data.ys**2) == pytest.approx(1.01, abs=0.01)


def linear_errors(sampler, n, fit, trials, seed, d=10, sigma=0.1):
    """Test errors of one fit over trials, each with its own task and dataset."""
    errs = []
    for t in range(trials):
        task = sample_task(d, sigma, streams.stream(seed, streams.TASK, t))
        errs.append(linear_test_mse(task, fit(sampler(task, n, streams.stream(seed, streams.DATA, t)))))
    return np.array(errs)


def ridge_one(data):
    return fit_ridge(data, 1.0)


class TestSampleDatasetSufficient:
    """The triangular-factor sampler against n full rows, in the style of criterion 5."""

    def test_below_d_it_is_the_full_sampler(self):
        task = sample_task(6, 0.1, rng_for(40))
        a = sample_dataset(task, 5, rng_for(41))
        b = sample_dataset_sufficient(task, 5, rng_for(41))
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_documented_draw_order(self, sigma):
        d, n = 4, 9
        task = sample_task(d, sigma, rng_for(42))
        sampled = rng_for(43)
        data = sample_dataset_sufficient(task, n, sampled)
        rng = rng_for(43)
        r = np.zeros((d, d))
        for i in range(d):
            r[i, i + 1 :] = rng.standard_normal(d - 1 - i)
        for i in range(d):
            r[i, i] = np.sqrt(rng.chisquare(n - i))
        ys = r @ task.v + (sigma * rng.standard_normal(d) if sigma else 0.0)
        assert np.array_equal(data.xs, r) and np.array_equal(data.ys, ys)
        # Nothing else was drawn.
        assert sampled.random() == rng.random()

    @pytest.mark.parametrize(
        "n, fit", [(10, fit_least_squares), (30, fit_least_squares), (30, ridge_one)],
        ids=["lstsq-n10", "lstsq-n30", "ridge-n30"],
    )
    def test_errors_match_the_full_sampler_in_law(self, n, fit):
        full = linear_errors(sample_dataset, n, fit, 4000, seed=51)
        sufficient = linear_errors(sample_dataset_sufficient, n, fit, 4000, seed=52)
        assert stats.ks_2samp(full, sufficient).statistic < 0.04

    @pytest.mark.parametrize("n", [30, 10**9])
    def test_mean_lstsq_error_is_exact(self, n):
        # E|v_hat - v|^2 = sigma^2 tr E[(X'X)^-1] = sigma^2 d / (n - d - 1).
        started = time.perf_counter()
        errs = linear_errors(sample_dataset_sufficient, n, fit_least_squares, 2000, seed=53)
        per_trial = (time.perf_counter() - started) / len(errs)
        exact = 0.1**2 * 10 / (n - 10 - 1)
        assert abs(errs.mean() - exact) < 3 * errs.std(ddof=1) / np.sqrt(len(errs))
        assert per_trial < 0.01

    def test_gram_mean_is_n_times_identity(self):
        d, n, trials = 5, 20, 4000
        task = sample_task(d, 0.0, rng_for(44))
        factors = [sample_dataset_sufficient(task, n, rng_for(45, t)).xs for t in range(trials)]
        grams = np.array([r.T @ r for r in factors])
        # Var (X'X)_ij = n (1 + [i = j]) for standard normal rows.
        se = np.sqrt(n * (1 + np.eye(d)) / trials)
        assert np.all(np.abs(grams.mean(axis=0) - n * np.eye(d)) < 4 * se)


class TestLeastSquares:
    def test_minimum_norm_single_point(self):
        data = RegressionDataset(xs=np.array([[1.0, 0.0]]), ys=np.array([3.0]))
        assert np.allclose(fit_least_squares(data), [3.0, 0.0])

    def test_exact_recovery_at_n_equals_d(self):
        task = sample_task(5, 0.0, rng_for(7))
        data = sample_dataset(task, 5, rng_for(8))
        assert np.linalg.norm(fit_least_squares(data) - task.v) < 1e-8

    def test_empty_dataset_gives_zero(self):
        data = RegressionDataset(xs=np.zeros((0, 4)), ys=np.zeros(0))
        assert np.allclose(fit_least_squares(data), 0.0)

    def test_beats_random_perturbations(self):
        rng = rng_for(9)
        task = sample_task(6, 0.3, rng)
        data = sample_dataset(task, 12, rng)
        v_hat = fit_least_squares(data)

        def sq_resid(w):
            r = data.xs @ w - data.ys
            return r @ r

        base = sq_resid(v_hat)
        for _ in range(100):
            delta = 0.1 * rng.standard_normal(6)
            assert base <= sq_resid(v_hat + delta) + 1e-12

    def test_underdetermined_interpolates_in_row_span(self):
        task = sample_task(10, 0.0, rng_for(10))
        data = sample_dataset(task, 4, rng_for(11))
        v_hat = fit_least_squares(data)
        # zero training residual
        assert np.allclose(data.xs @ v_hat, data.ys, atol=1e-10)
        # v_hat lies in the row span of the xs
        coeffs, *_ = np.linalg.lstsq(data.xs.T, v_hat, rcond=None)
        assert np.linalg.norm(data.xs.T @ coeffs - v_hat) < 1e-10


class TestDirectSolve:
    """fit_least_squares solves a nonsingular triangular factor directly, and sends the rest to lstsq."""

    @pytest.fixture
    def lstsq_calls(self, monkeypatch):
        calls = []
        real = np.linalg.lstsq

        def recording_lstsq(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
        return calls

    @pytest.mark.parametrize("d", [1, 10, 100])
    def test_sampled_factors_agree_with_lstsq(self, d, lstsq_calls):
        # Both are backward stable, so they differ by at most about
        # cond(R) d eps relative; 4 d cond(R) eps bounds the largest gap seen
        # (15.6 cond(R) eps at d = 10 over 200 factors).
        eps = np.finfo(float).eps
        for n in (d, d + 1, 2 * d, 10_000):
            for trial in range(5):
                task = sample_task(d, 0.1, rng_for(60, trial))
                data = sample_dataset_sufficient(task, n, rng_for(61, trial, n))
                direct = fit_least_squares(data)
                assert not lstsq_calls
                ref, *_ = np.linalg.lstsq(data.xs, data.ys, rcond=None)
                lstsq_calls.clear()
                bound = 4 * d * np.linalg.cond(data.xs) * eps * np.linalg.norm(ref)
                assert np.linalg.norm(direct - ref) <= bound

    @pytest.mark.parametrize(
        "xs",
        [
            np.array([[2.0, 1.0, 3.0], [0.0, 0.0, 1.0], [0.0, 0.0, 4.0]]),
            np.array([[2.0, 1.0, 3.0], [0.0, 1.0, 1.0], [1e-300, 0.0, 4.0]]),
            np.array([[2.0, 1.0, 3.0], [0.0, 1.0, 1.0]]),
            np.array([[2.0, 1.0], [0.0, 1.0], [0.0, 0.0]]),
        ],
        ids=["zero-on-diagonal", "not-triangular", "wide", "tall"],
    )
    def test_other_inputs_go_to_lstsq(self, xs, lstsq_calls):
        data = RegressionDataset(xs=xs, ys=np.arange(1.0, len(xs) + 1))
        v_hat = fit_least_squares(data)
        assert lstsq_calls == [xs.shape]
        assert np.array_equal(v_hat, np.linalg.lstsq(xs, data.ys, rcond=None)[0])

    def test_singular_factor_keeps_the_minimum_norm_solution(self):
        # Row 1 is 0 = 2; the pseudoinverse solution has zero weight on x_1.
        xs = np.array([[1.0, 0.0], [0.0, 0.0]])
        v_hat = fit_least_squares(RegressionDataset(xs=xs, ys=np.array([3.0, 2.0])))
        assert np.allclose(v_hat, [3.0, 0.0])


class TestRidge:
    def test_heavy_shrinkage(self):
        task = sample_task(4, 0.0, rng_for(12))
        data = sample_dataset(task, 20, rng_for(13))
        assert np.linalg.norm(fit_ridge(data, 1e12)) < 1e-6

    def test_small_lambda_matches_lstsq(self):
        task = sample_task(4, 0.0, rng_for(14))
        data = sample_dataset(task, 40, rng_for(15))
        ridge = fit_ridge(data, 1e-10)
        lstsq = fit_least_squares(data)
        assert np.linalg.norm(ridge - lstsq) < 1e-6

    def test_normal_equations_satisfied(self):
        task = sample_task(7, 0.2, rng_for(16))
        data = sample_dataset(task, 30, rng_for(17))
        lam = 2.5
        lhs = (data.xs.T @ data.xs + lam * np.eye(7)) @ fit_ridge(data, lam)
        rhs = data.xs.T @ data.ys
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))

    def test_nonpositive_lambda_rejected(self):
        data = RegressionDataset(xs=np.eye(2), ys=np.ones(2))
        with pytest.raises(ValueError):
            fit_ridge(data, 0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        data = RegressionDataset(xs=np.eye(2), ys=np.ones(2))
        with pytest.raises(ValueError, match="lam"):
            fit_ridge(data, lam)


class TestTestMse:
    def test_perfect_estimate(self):
        task = sample_task(3, 0.0, rng_for(18))
        assert linear_test_mse(task, fit_least_squares(sample_dataset(task, 10, rng_for(19)))) < 1e-16

    def test_zero_estimate_gives_one(self):
        task = sample_task(6, 0.0, rng_for(20))
        assert linear_test_mse(task, np.zeros(6)) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        task = sample_task(3, 0.0, rng_for(21))
        with pytest.raises(ValueError):
            linear_test_mse(task, np.zeros(4))

    def test_matches_monte_carlo(self):
        rng = rng_for(22)
        task = sample_task(5, 0.0, rng)
        v_hat = task.v + 0.3 * rng.standard_normal(5)
        exact = linear_test_mse(task, v_hat)
        xs = rng.standard_normal((1_000_000, 5))
        mc = np.mean((xs @ v_hat - xs @ task.v) ** 2)
        assert mc == pytest.approx(exact, rel=0.01)


class TestNearestNeighbor:
    def test_single_training_point(self):
        data = RegressionDataset(xs=np.array([[0.0, 0.0]]), ys=np.array([7.0]))
        assert _nn_predict_batch(data, np.array([[5.0, -3.0]]))[0] == 7.0

    def test_exact_hit(self):
        data = RegressionDataset(xs=np.array([[1.0, 2.0], [3.0, 4.0]]), ys=np.array([1.0, 2.0]))
        assert _nn_predict_batch(data, np.array([[3.0, 4.0]]))[0] == 2.0

    @SIDES
    def test_tie_goes_to_lowest_index(self, d):
        # All 2d rows +-e_i sit at distance 1 from the origin.
        xs = np.concatenate([np.eye(d), -np.eye(d)])[::-1]
        data = RegressionDataset(xs=xs, ys=10.0 * np.arange(1, 2 * d + 1))
        assert _nn_predict_batch(data, np.zeros((1, d)))[0] == 10.0

    @SIDES
    def test_duplicated_rows_go_to_lowest_index(self, d):
        rng = rng_for(28, d)
        a, b, c = rng.standard_normal((3, d))
        data = RegressionDataset(xs=np.stack([b, a, c, a, b, a]), ys=np.arange(6.0))
        queries = np.stack([a, b, c, a + 1e-3, b - 1e-3])
        assert list(_nn_predict_batch(data, queries)) == [1.0, 0.0, 2.0, 1.0, 0.0]

    def test_permutation_invariant_without_ties(self):
        rng = rng_for(23)
        xs = rng.standard_normal((30, 3))
        ys = rng.standard_normal(30)
        data = RegressionDataset(xs=xs, ys=ys)
        perm = rng.permutation(30)
        shuffled = RegressionDataset(xs=xs[perm], ys=ys[perm])
        for _ in range(20):
            q = rng.standard_normal((1, 3))
            assert _nn_predict_batch(data, q)[0] == _nn_predict_batch(shuffled, q)[0]

    def test_empty_dataset_rejected(self):
        data = RegressionDataset(xs=np.zeros((0, 2)), ys=np.zeros(0))
        with pytest.raises(ValueError):
            _nn_predict_batch(data, np.zeros((1, 2)))

    @SIDES
    def test_non_finite_query_rejected(self, d):
        data = RegressionDataset(xs=np.eye(d), ys=np.arange(float(d)))
        with pytest.raises(ValueError, match="non-finite"):
            _nn_predict_batch(data, np.full((1, d), np.nan))

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs CPU affinity and at least two usable CPUs",
    )
    def test_tree_search_runs_on_every_usable_cpu(self, monkeypatch):
        import scipy.spatial

        workers = []
        real = scipy.spatial.cKDTree

        class RecordingTree:
            def __init__(self, *args, **kwargs):
                self.tree = real(*args, **kwargs)

            def query(self, *args, **kwargs):
                workers.append(kwargs.get("workers", 1))
                return self.tree.query(*args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", RecordingTree)
        data = RegressionDataset(xs=rng_for(29).standard_normal((50, 3)), ys=np.arange(50.0))
        _nn_predict_batch(data, rng_for(30).standard_normal((100, 3)))
        assert workers == [len(os.sched_getaffinity(0))]

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs CPU affinity and at least two usable CPUs",
    )
    def test_curve_bits_do_not_depend_on_usable_cpus(self):
        # The same tree-path curve in a child process pinned to one CPU.
        kwargs = dict(d=5, sigma=0.0, estimator="nn", n_grid=[20, 300, 3000], trials=2, seed=31)
        assert kwargs["d"] <= NN_TREE_MAX_D
        child = (
            "import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from cliffscale.curve_io import curve_to_json\n"
            "from cliffscale.linreg import run_linreg_scaling\n"
            f"sys.stdout.write(curve_to_json(run_linreg_scaling(**{kwargs!r})))\n"
        )
        src = os.path.dirname(os.path.dirname(linreg.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        pinned = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True)
        assert pinned.stdout == curve_to_json(run_linreg_scaling(**kwargs))

    def test_origin_point_mse_near_one(self):
        # Single training point at the origin with y=0: prediction is always
        # zero, so MSE is E[(v.x)^2] = 1 for unit v.
        task = LinearTask(d=4, v=np.array([1.0, 0.0, 0.0, 0.0]), sigma=0.0)
        data = RegressionDataset(xs=np.zeros((1, 4)), ys=np.zeros(1))
        mse = nn_test_mse(task, data, 200_000, rng_for(24))
        assert mse == pytest.approx(1.0, rel=0.05)

    def test_error_shrinks_with_data(self):
        task = sample_task(3, 0.0, rng_for(25))
        medians = []
        for n in (20, 200, 2000):
            vals = [
                nn_test_mse(task, sample_dataset(task, n, rng_for(26, n, t)), 2000, rng_for(27, n, t))
                for t in range(5)
            ]
            medians.append(np.median(vals))
        assert medians[0] > medians[1] > medians[2]


def squared_distances(xs, q):
    return np.sum((xs - q) ** 2, axis=1)


def direct_nearest(xs, q):
    """Lowest index among the rows at minimal squared distance from q."""
    return int(np.argmin(squared_distances(xs, q)))


TREE_DIMS = [1, 2, NN_TREE_MAX_D]
BRUTE_DIMS = [NN_TREE_MAX_D + 1, 2 * NN_TREE_MAX_D]
# Half-integers in [-2, 2]: every distance is computed exactly by either
# path, and equal distances are frequent.
GRID = st.sampled_from([k / 2 for k in range(-4, 5)])
FLOATS = st.floats(-10, 10, allow_nan=False, allow_subnormal=False)


@st.composite
def nn_problems(draw, dims, elements):
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(1, 60))
    xs = draw(hnp.arrays(np.float64, (n, d), elements=elements))
    queries = draw(hnp.arrays(np.float64, (draw(st.integers(1, 20)), d), elements=elements))
    return RegressionDataset(xs=xs, ys=np.arange(n, dtype=float)), queries


class TestNearestNeighborPaths:
    """Both 1-NN paths against a direct scan, on each side of NN_TREE_MAX_D.

    ys[i] = i, so a prediction is the index of the row it came from.
    """

    @settings(max_examples=300, deadline=None)
    @given(nn_problems(TREE_DIMS + BRUTE_DIMS, GRID))
    def test_exact_on_a_grid_with_ties(self, problem):
        data, queries = problem
        expected = [direct_nearest(data.xs, q) for q in queries]
        assert list(_nn_predict_batch(data, queries)) == expected

    @settings(max_examples=300, deadline=None)
    @given(nn_problems(TREE_DIMS, FLOATS))
    def test_tree_matches_direct_scan_on_floats(self, problem):
        data, queries = problem
        expected = [direct_nearest(data.xs, q) for q in queries]
        assert list(_nn_predict_batch(data, queries)) == expected

    @settings(max_examples=300, deadline=None)
    @given(nn_problems(BRUTE_DIMS, FLOATS))
    def test_brute_within_rounding_of_direct_scan(self, problem):
        # |x|^2 - 2 q.x rounds each value by at most about
        # (d + 2) eps (|x|^2 + |q|^2), so it can only swap rows whose
        # distances differ by less than twice that.
        data, queries = problem
        d = data.xs.shape[1]
        scale = np.max(np.sum(data.xs**2, axis=1))
        for q, pred in zip(queries, _nn_predict_batch(data, queries)):
            d2 = squared_distances(data.xs, q)
            tol = 4 * (d + 2) * np.finfo(float).eps * (scale + q @ q)
            assert d2[int(pred)] - d2.min() <= tol


class TestRunScaling:
    def test_noiseless_cliff_at_d(self):
        curve = run_linreg_scaling(
            d=5, sigma=0.0, estimator="lstsq", n_grid=list(range(1, 11)), trials=20, seed=1
        )
        med = curve.statistic("median")
        assert all(m > 1e-2 for m in med[:4])
        assert all(m < 1e-15 for m in med[4:])

    def test_metadata_recorded(self):
        curve = run_linreg_scaling(
            d=3, sigma=0.1, estimator="ridge", n_grid=[2, 4, 8], trials=3, seed=2, lam=0.5
        )
        assert curve.metadata["estimator"] == "ridge"
        assert curve.metadata["d"] == "3"
        assert "lambda" in curve.metadata

    def test_deterministic_and_worker_independent(self):
        kwargs = dict(d=4, sigma=0.1, estimator="lstsq", n_grid=[2, 4, 8], trials=6, seed=3)
        a = run_linreg_scaling(**kwargs)
        b = run_linreg_scaling(**kwargs)
        assert a.points == b.points

    def test_trial_prefix_stable(self):
        # A longer run reproduces the shorter run's trials exactly.
        small = run_linreg_scaling(d=3, sigma=0.2, estimator="lstsq", n_grid=[2, 4], trials=3, seed=4)
        big = run_linreg_scaling(d=3, sigma=0.2, estimator="lstsq", n_grid=[2, 4], trials=9, seed=4)
        for n, errs in small.points:
            assert dict(big.points)[n][: len(errs)] == errs

    @pytest.mark.parametrize("estimator", ["lstsq", "ridge", "nn"])
    def test_only_nn_derives_test_streams(self, monkeypatch, serial_cells, estimator):
        # The calls are recorded in this process, so every cell must run here.
        purposes = []
        real_stream = streams.stream

        def recording_stream(seed, purpose, *key, **kwargs):
            purposes.append(purpose)
            return real_stream(seed, purpose, *key, **kwargs)

        monkeypatch.setattr(streams, "stream", recording_stream)
        run_linreg_scaling(d=3, sigma=0.1, estimator=estimator, n_grid=[2, 4], trials=3, seed=7,
                           lam=0.5)
        assert purposes.count(streams.TEST) == (6 if estimator == "nn" else 0)
        assert purposes.count(streams.DATA) == 6

    @pytest.mark.parametrize(
        "estimator, kwargs, expected",
        [
            ("lstsq", dict(d=6, n_grid=[1, 3, 5]), [
                (1, (0.9645425903412286, 0.5690748454304821)),
                (3, (0.38282459478092434, 0.21573079238453063)),
                (5, (0.16327608472418795, 0.06530067912757055)),
            ]),
            ("ridge", dict(d=6, n_grid=[1, 3, 5], lam=0.5), [
                (1, (0.963677649529535, 0.5677833768037104)),
                (3, (0.3862101179440398, 0.3823097959191667)),
                (5, (0.16881617158440848, 0.06534344460891983)),
            ]),
            ("nn", dict(d=3, n_grid=[2, 7]), [
                (2, (1.020904320789877, 5.151347783100036)),
                (7, (0.5708265053437265, 0.7302593207174919)),
            ]),
        ],
        ids=["lstsq", "ridge", "nn"],
    )
    def test_pinned_cells_that_draw_every_row(self, estimator, kwargs, expected):
        # Linear cells below n = d and every 1-NN cell draw their n full rows,
        # so the triangular-factor sampler at n >= d must leave these errors as they were.
        curve = run_linreg_scaling(sigma=0.1, estimator=estimator, trials=2, seed=12, **kwargs)
        assert [(n, tuple(errs)) for n, errs in curve.points] == expected

    @pytest.mark.parametrize("estimator", ["lstsq", "ridge"])
    def test_huge_n_draws_no_rows(self, estimator):
        # n rows of d = 50 would take 400 TB; the triangular factor is 50 x 50.
        curve = run_linreg_scaling(d=50, sigma=0.1, estimator=estimator, n_grid=[10**12], trials=2, seed=8,
                                   lam=1.0)
        assert all(0 < e < 1e-9 for e in curve.points[0][1])

    def test_ridge_needs_lambda(self):
        with pytest.raises(ValueError):
            run_linreg_scaling(d=3, sigma=0.1, estimator="ridge", n_grid=[2, 4], trials=2, seed=5)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, 0.0])
    def test_bad_lambda_rejected_before_any_cell(self, monkeypatch, lam):
        monkeypatch.setattr(linreg, "sample_task", lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(ValueError, match="lam"):
            run_linreg_scaling(d=3, sigma=0.1, estimator="ridge", n_grid=[2, 4], trials=2, seed=5, lam=lam)

    @pytest.mark.parametrize(
        "run",
        [
            lambda **kw: run_linreg_scaling(d=3, sigma=0.0, estimator="lstsq", **kw),
            lambda **kw: run_gaussian_scaling(d=3, s=1.0, **kw),
            lambda **kw: run_harmonic_scaling(B=1, arm="noreg", **kw),
        ],
        ids=["linreg", "gaussian", "harmonic"],
    )
    @pytest.mark.parametrize(
        "n_grid, trials",
        [([4, 2], 2), ([], 2), ([2, 4], 0), ([2.7, 5], 2)],
        ids=["descending", "empty", "no-trials", "fractional"],
    )
    def test_bad_grid_rejected(self, run, n_grid, trials):
        # Every kind shares one grid and trial check, run before any cell.
        with pytest.raises(ValueError):
            run(n_grid=n_grid, trials=trials, seed=6)

    @pytest.mark.parametrize(
        "run",
        [
            lambda **kw: run_linreg_scaling(d=3, sigma=0.0, estimator="lstsq", **kw),
            lambda **kw: run_gaussian_scaling(d=3, s=1.0, **kw),
            lambda **kw: run_harmonic_scaling(B=1, arm="reg", **kw),
        ],
        ids=["linreg", "gaussian", "harmonic"],
    )
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(trials=2**32 + 1, seed=3), "trials: must be in [1, 2**32], got 4294967297"),
            (dict(trials=0, seed=3), "trials: must be in [1, 2**32], got 0"),
            (dict(trials=4, seed=2.5), "seed and key entries must be integers, got 2.5"),
            (dict(trials=4, seed=2**64), f"seed: must be a 64-bit unsigned integer, got {2**64}"),
            (dict(trials=4, seed=-1), "seed: must be a 64-bit unsigned integer, got -1"),
        ],
        ids=["trials", "trials-zero", "fractional-seed", "seed", "seed-negative"],
    )
    def test_a_refused_key_fails_before_any_cell(self, monkeypatch, run, kwargs, message):
        # A trial count is refused by run_cells and a seed by streams, both before any cell runs.
        monkeypatch.setattr(_parallel, "run_split", lambda *args: pytest.fail("cells ran"))
        with pytest.raises(ValueError) as refused:
            run(n_grid=[2, 5, 9], **kwargs)
        assert str(refused.value) == message
