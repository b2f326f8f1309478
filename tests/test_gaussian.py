"""Tests for the binary Gaussian classification toy model."""

import numpy as np
import pytest
from scipy import stats

from cliffscale import streams
from cliffscale.gaussian import (
    GaussianTask,
    approx_error,
    asymptotic_error,
    estimate_weights,
    exact_error,
    run_gaussian_scaling,
    sample_chi_squared,
    sample_error_sufficient,
    simulate_error,
    std_normal_cdf,
)

PHI_MINUS_1 = 0.15865525393145705  # high-precision erf oracle, frozen
PHI_MINUS_2 = 0.022750131948179207
PHI_M1_OVER_SQRT2 = 0.23975006109347673  # Phi(-1/sqrt(2))


def rng_for(*key):
    return streams.stream(555, *key)


class TestStdNormalCdf:
    def test_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_symmetry(self):
        rng = rng_for(1)
        for x in rng.uniform(-8, 8, size=200):
            assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-14

    def test_reference_value(self):
        assert abs(std_normal_cdf(-1.0) - 0.158655253931) < 1e-10

    def test_monotone(self):
        xs = np.linspace(-10, 10, 400)
        vals = std_normal_cdf(xs)
        assert np.all(np.diff(vals) >= 0)

    def test_array_matches_scalar(self):
        xs = np.array([-2.0, -0.5, 0.3, 4.0])
        vals = std_normal_cdf(xs)
        for x, v in zip(xs, vals):
            assert v == std_normal_cdf(float(x))


class TestEstimateWeights:
    def test_single_positive_point(self):
        x = np.array([[2.0, -1.0, 0.5]])
        w = estimate_weights(x, np.array([1.0]))
        assert np.allclose(w, x[0])

    def test_negation_symmetry(self):
        rng = rng_for(2)
        xs = rng.standard_normal((40, 6))
        ys = np.where(rng.uniform(size=40) < 0.5, 1.0, -1.0)
        base = estimate_weights(xs, ys)
        xs2 = np.concatenate([xs, -xs])
        ys2 = np.concatenate([ys, -ys])
        doubled = estimate_weights(xs2, ys2)
        assert np.allclose(doubled, base)

    def test_law_of_large_numbers(self):
        task = GaussianTask(d=10, s=2.0)
        rng = rng_for(3)
        n = 1_000_000
        ys = rng.integers(0, 2, size=n) * 2.0 - 1.0
        xs = rng.standard_normal((n, task.d))
        xs[:, 0] += ys * task.s
        w = estimate_weights(xs, ys)
        target = np.zeros(10)
        target[0] = 2.0
        assert np.linalg.norm(w - target) < 0.01

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_weights(np.zeros((0, 3)), np.zeros(0))


class TestExactError:
    def test_no_signal_is_chance(self):
        task = GaussianTask(d=3, s=0.0)
        w = np.array([1.0, 0.0, 0.0])
        assert exact_error(task, w) == 0.5

    def test_orthogonal_classifier_is_chance(self):
        task = GaussianTask(d=3, s=2.0)
        w = np.array([0.0, 1.0, 1.0])
        assert exact_error(task, w) == 0.5

    def test_aligned_classifier(self):
        task = GaussianTask(d=4, s=1.0)
        w = np.array([1.0, 0.0, 0.0, 0.0])
        assert exact_error(task, w) == pytest.approx(PHI_MINUS_1, abs=1e-14)

    def test_scale_invariance(self):
        rng = rng_for(4)
        task = GaussianTask(d=5, s=1.3)
        for _ in range(50):
            w = rng.standard_normal(5)
            e1 = exact_error(task, w)
            e2 = exact_error(task, 3.7 * w)
            assert e1 == pytest.approx(e2, abs=1e-15)

    def test_flip_complement(self):
        rng = rng_for(5)
        task = GaussianTask(d=5, s=0.8)
        for _ in range(50):
            w = rng.standard_normal(5)
            e = exact_error(task, w)
            ef = exact_error(task, -w)
            assert e + ef == pytest.approx(1.0, abs=1e-14)

    def test_zero_vector_rejected(self):
        task = GaussianTask(d=2, s=1.0)
        with pytest.raises(ValueError):
            exact_error(task, np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        task = GaussianTask(d=2, s=1.0)
        with pytest.raises(ValueError, match="finite"):
            exact_error(task, np.array([1.0, bad]))


class TestSimulateError:
    def test_no_signal_has_chance_median(self):
        task = GaussianTask(d=5, s=0.0)
        rng = rng_for(6)
        draws = [simulate_error(task, 20, rng) for _ in range(801)]
        assert np.median(draws) == pytest.approx(0.5, abs=0.06)

    def test_large_n_approaches_floor(self):
        task = GaussianTask(d=100, s=1.0)
        err = simulate_error(task, 100_000, rng_for(7))
        assert abs(err - PHI_MINUS_1) < 0.01


class TestSufficientSampler:
    def test_large_n_limit(self):
        task = GaussianTask(d=50, s=1.5)
        errs = [sample_error_sufficient(task, 10_000_000, rng_for(8, t)) for t in range(50)]
        assert np.median(errs) == pytest.approx(std_normal_cdf(-1.5), abs=0.001)

    def test_plug_in_value(self):
        # With eps = 0 and the chi-squared at its mean the margin is
        # s^2 / sqrt(s^2 + (d-1)/n).
        s, d, n = 1.0, 31, 60
        margin = s * s / np.sqrt(s * s + (d - 1) / n)
        expected = std_normal_cdf(-margin)
        # reproduce by direct formula, not sampling
        first = s
        norm_sq = first * first + (d - 1) / n
        assert std_normal_cdf(-s * first / np.sqrt(norm_sq)) == pytest.approx(expected, abs=1e-15)

    def test_d1_degenerate_chi2(self):
        task = GaussianTask(d=1, s=1.0)
        errs = [sample_error_sufficient(task, 30, rng_for(9, t)) for t in range(100)]
        assert all(0.0 <= e <= 1.0 for e in errs)

    def test_distribution_matches_full_sampler(self):
        task = GaussianTask(d=30, s=1.0)
        rng_a, rng_b = rng_for(10), rng_for(11)
        a = np.array([simulate_error(task, 50, rng_a) for _ in range(10_000)])
        b = np.array([sample_error_sufficient(task, 50, rng_b) for _ in range(10_000)])
        assert stats.ks_2samp(a, b).statistic < 0.03


class TestChiSquared:
    def test_zero_df_is_zero(self):
        assert sample_chi_squared(0, rng_for(12)) == 0.0

    def test_paths_agree_in_distribution(self):
        # gamma-based sampler vs the defining sum of squared normals
        rng_a, rng_b = rng_for(13), rng_for(14)
        drawn = np.array([sample_chi_squared(40, rng_a) for _ in range(4000)])
        z = rng_b.standard_normal((4000, 40))
        reference = np.einsum("ij,ij->i", z, z)
        assert stats.ks_2samp(drawn, reference).pvalue > 1e-4


class TestAsymptoticError:
    def test_limit_is_floor(self):
        task = GaussianTask(d=20, s=1.0)
        assert asymptotic_error(task, 10**12) == pytest.approx(PHI_MINUS_1, abs=1e-9)

    def test_excess_halves_when_n_doubles(self):
        task = GaussianTask(d=200, s=1.0)
        floor = std_normal_cdf(-1.0)
        e1 = asymptotic_error(task, 1000) - floor
        e2 = asymptotic_error(task, 2000) - floor
        assert e1 / e2 == pytest.approx(2.0, rel=1e-9)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_error(GaussianTask(d=5, s=0.0), 100)

    def test_matches_simulation_median_large_n(self):
        # Monte-Carlo oracle through the sufficient-statistic sampler,
        # which is validated against the full simulation separately.
        task = GaussianTask(d=1000, s=1.0)
        errs = [sample_error_sufficient(task, 100_000, rng_for(15, t)) for t in range(10_000)]
        assert abs(asymptotic_error(task, 100_000) - np.median(errs)) < 0.002


class TestApproxError:
    def test_large_n_limit(self):
        task = GaussianTask(d=100, s=2.0)
        assert approx_error(task, 10**12) == pytest.approx(PHI_MINUS_2, abs=1e-9)

    def test_knee_value(self):
        task = GaussianTask(d=100, s=1.0)
        assert approx_error(task, 100) == pytest.approx(PHI_M1_OVER_SQRT2, abs=1e-14)

    def test_zero_signal_is_chance(self):
        assert approx_error(GaussianTask(d=10, s=0.0), 5) == 0.5

    def test_monotonicities(self):
        ns = [1, 3, 10, 30, 100, 1000]
        for d in (10, 100):
            vals = [approx_error(GaussianTask(d=d, s=1.0), n) for n in ns]
            assert all(b < a for a, b in zip(vals, vals[1:]))
        svals = [approx_error(GaussianTask(d=50, s=s), 100) for s in (0.5, 1.0, 2.0)]
        assert all(b < a for a, b in zip(svals, svals[1:]))
        dvals = [approx_error(GaussianTask(d=d, s=1.0), 100) for d in (10, 100, 1000)]
        assert all(b > a for a, b in zip(dvals, dvals[1:]))

    def test_depends_on_d_over_n(self):
        for k in (2, 5, 10):
            a = approx_error(GaussianTask(d=60, s=1.2), 30)
            b = approx_error(GaussianTask(d=60 * k, s=1.2), 30 * k)
            assert a == pytest.approx(b, abs=1e-15)

    def test_matches_simulation_for_large_d(self):
        task = GaussianTask(d=1000, s=1.0)
        for n in (10, 100, 1000, 10_000):
            errs = [sample_error_sufficient(task, n, rng_for(16, n, t)) for t in range(2_000)]
            assert abs(np.median(errs) - approx_error(task, n)) < 0.01


class TestRunGaussianScaling:
    def test_medians_match_between_samplers(self):
        kwargs = dict(d=30, s=1.0, n_grid=[10, 40, 160], trials=10_000, seed=99)
        full = run_gaussian_scaling(**kwargs, sampler="full")
        suff = run_gaussian_scaling(**kwargs, sampler="sufficient")
        gap = np.abs(full.statistic("median") - suff.statistic("median"))
        assert gap.max() < 0.005

    def test_floor_reached(self):
        curve = run_gaussian_scaling(d=100, s=1.0, n_grid=[100_000], trials=401, seed=5)
        assert abs(curve.statistic("median")[0] - PHI_MINUS_1) < 0.01

    def test_metadata(self):
        curve = run_gaussian_scaling(d=4, s=0.5, n_grid=[5, 10], trials=3, seed=1)
        assert curve.metadata["task"] == "gaussian"
        assert curve.metadata["sampler"] == "sufficient"

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError):
            run_gaussian_scaling(d=4, s=0.5, n_grid=[5], trials=2, seed=1, sampler="magic")

    def test_band_of_longer_run_encloses_subset(self):
        kwargs = dict(d=20, s=1.0, n_grid=[5, 20, 80], seed=31)
        small = run_gaussian_scaling(trials=10, **kwargs)
        big = run_gaussian_scaling(trials=50, **kwargs)
        assert np.all(big.statistic("min") <= small.statistic("min"))
        assert np.all(big.statistic("max") >= small.statistic("max"))
        for n, errs in small.points:
            assert big.trial_errors(n)[: len(errs)] == errs

    @pytest.mark.parametrize("sampler", ["sufficient", "full"])
    def test_one_generator_per_run(self, monkeypatch, sampler):
        # Each cell resets the previous cell's generator; a fresh Philox per
        # cell costs more than a sufficient-sampler draw.
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        run_gaussian_scaling(d=3, s=1.0, n_grid=[2, 5, 9], trials=20, seed=4, sampler=sampler)
        assert len(built) == 1

    @pytest.mark.parametrize("sampler", ["sufficient", "full"])
    def test_cells_draw_their_own_fresh_stream(self, sampler):
        task, grid, seed = GaussianTask(d=3, s=1.0), [2, 5, 9], 4
        curve = run_gaussian_scaling(d=task.d, s=task.s, n_grid=grid, trials=20, seed=seed, sampler=sampler)
        draw = sample_error_sufficient if sampler == "sufficient" else simulate_error
        for n_idx, (n, errs) in enumerate(curve.points):
            assert errs == tuple(draw(task, n, streams.stream(seed, streams.DATA, t, n_idx)) for t in range(20))


class TestRows:
    """A gaussian run works a grid row at a time, with the draws of its cells."""

    @pytest.mark.parametrize("sampler", ["sufficient", "full"])
    @pytest.mark.parametrize("d", [1, 2, 1000])
    @pytest.mark.parametrize("trials", [1, 15, 17, 1025])
    def test_rows_equal_cells_on_fresh_streams(self, sampler, d, trials):
        task, grid, seed = GaussianTask(d=d, s=0.7), [1, 6], 12
        curve = run_gaussian_scaling(d=d, s=task.s, n_grid=grid, trials=trials, seed=seed, sampler=sampler)
        draw = sample_error_sufficient if sampler == "sufficient" else simulate_error
        for n_idx, (n, errs) in enumerate(curve.points):
            want = tuple(draw(task, n, streams.stream(seed, streams.DATA, t, n_idx)) for t in range(trials))
            assert errs == want
            assert all(type(e) is float for e in errs)

    def test_degenerate_draw_reports_chance_and_warns(self):
        # eps = -s sqrt(n) puts the first weight at exactly 0; at d = 1 the
        # chi-squared draw is 0, so the whole estimate is zero.
        class Draws:
            def standard_normal(self):
                return -2.0

        with pytest.warns(RuntimeWarning, match="degenerate"):
            assert sample_error_sufficient(GaussianTask(d=1, s=1.0), 4, Draws()) == 0.5
