"""Tests for the trigonometric basis and the bandwidth regularizer."""

import itertools
import math

import numpy as np
import pytest

from cliffscale import streams
from cliffscale.harmonic.basis import (
    BandwidthRegularizer,
    HarmonicFunction,
    build_basis_matrix,
    canonical_frequencies,
    regularizer_value,
    sample_harmonic,
)


def rng_for(*key):
    return streams.stream(777, *key)


class TestCanonicalFrequencies:
    def test_b1_d2_lattice(self):
        assert canonical_frequencies(1, 2) == [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]

    def test_exactly_one_of_each_sign_pair(self):
        kept = set(canonical_frequencies(3, 2))
        for v in itertools.product(range(-3, 4), repeat=2):
            if any(v):
                neg = tuple(-c for c in v)
                assert (v in kept) != (neg in kept)

    def test_half_lattice_count(self):
        for B in range(4):
            for d in (1, 2, 3):
                size = (2 * B + 1) ** d
                assert len(canonical_frequencies(B, d)) == (size + 1) // 2


class TestHarmonicFunction:
    def test_constant(self):
        h = HarmonicFunction(B=0, d=2, coeffs=[1.0])
        assert np.allclose(h(rng_for(1).uniform(size=(10, 2))), 1.0)

    def test_single_cosine(self):
        # Cosines over (0,0), (0,1), (1,-1), (1,0), (1,1), then four sines.
        coeffs = np.zeros(9)
        coeffs[3] = 1.0
        h = HarmonicFunction(B=1, d=2, coeffs=coeffs)
        vals = h(np.array([[0.25, 0.7], [0.0, 0.3]]))
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[1] == pytest.approx(1.0)

    def test_periodicity(self):
        h = sample_harmonic(2, 2, rng_for(2))
        xs = rng_for(3).uniform(size=(20, 2))
        for axis in range(2):
            shifted = xs.copy()
            shifted[:, axis] += 1.0
            np.testing.assert_allclose(h(shifted), h(xs), rtol=0, atol=1e-12)

    def test_coefficient_count(self):
        h = sample_harmonic(2, 2, rng_for(4))
        assert h.coeffs.shape == (25,)

    def test_wrong_coefficient_count_rejected(self):
        for coeffs in ([1.0], np.zeros(4), np.zeros((3, 1))):
            with pytest.raises(ValueError):
                HarmonicFunction(B=1, d=1, coeffs=coeffs)

    def test_values_are_the_basis_matrix_times_the_coefficients(self):
        for B in range(4):
            for d in (1, 2, 3):
                h = sample_harmonic(B, d, rng_for(8, B, d))
                xs = rng_for(9, B, d).uniform(size=(30, d))
                np.testing.assert_allclose(h(xs), build_basis_matrix(B, d, xs) @ h.coeffs, rtol=0, atol=1e-12)


class TestSampleHarmonic:
    def test_b0_single_coefficient(self):
        h = sample_harmonic(0, 2, rng_for(5))
        assert h.coeffs.shape == (1,)

    def test_normalized_monte_carlo_norm(self):
        h = sample_harmonic(2, 2, rng_for(6))
        assert h.norm_squared() == pytest.approx(1.0, abs=1e-12)
        xs = rng_for(7).uniform(size=(1_000_000, 2))
        assert np.mean(h(xs) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_pinned_values(self):
        # float.hex of a B = 2 target at three points, captured from the
        # implementation that kept the coefficients in frequency-keyed
        # dicts; the draw, the normalization and the evaluation keep every bit.
        # The target is drawn from the generator the package's streams were
        # before they keyed Philox directly, so the literals pin arithmetic only.
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(777, spawn_key=(4,))))
        h = sample_harmonic(2, 2, rng)
        vals = h(np.array([[0.0, 0.0], [0.25, 0.7], [0.9, 0.1]]))
        assert [float(v).hex() for v in vals] == [
            "0x1.f7c19e3c41610p-1", "-0x1.bb1e391cbc796p-3", "-0x1.270e60db2d1d2p-2",
        ]


class TestBasisMatrix:
    def test_count_matches_lattice(self):
        for B in range(5):
            for d in (1, 2, 3):
                if (2 * B + 1) ** d > 200:
                    continue
                pts = rng_for(9, B, d).uniform(size=(8, d))
                V = build_basis_matrix(B, d, pts)
                assert V.shape == (8, (2 * B + 1) ** d)

    def test_zero_frequency_column_is_ones(self):
        pts = rng_for(10).uniform(size=(30, 2))
        V = build_basis_matrix(2, 2, pts)
        assert np.allclose(V[:, 0], 1.0)

    def test_square_system_invertible(self):
        pts = np.array([[0.0], [1.0 / 3.0], [2.0 / 3.0]])
        V = build_basis_matrix(1, 1, pts)
        assert V.shape == (3, 3)
        assert abs(np.linalg.det(V)) > 1e-6

    def test_gram_approaches_half_identity(self):
        # (1/m) V'V -> diag(1, 1/2, ..., 1/2) by Monte-Carlo integration.
        m = 100_000
        pts = rng_for(11).uniform(size=(m, 2))
        V = build_basis_matrix(1, 1, pts[:, :1])
        gram = V.T @ V / m
        expected = np.diag([1.0, 0.5, 0.5])
        assert np.abs(gram - expected).max() < 0.02


class TestRegularizer:
    def test_in_span_values_give_zero(self):
        rng = rng_for(12)
        pts = rng.uniform(size=(400, 2))
        reg = BandwidthRegularizer(B=2, d=2, points=pts, lam=1.0)
        V = build_basis_matrix(2, 2, pts)
        z = rng.standard_normal(V.shape[1])
        y = V @ z
        assert regularizer_value(reg, y) <= 1e-10 * max(1.0, float(y @ y) / len(y))

    def test_zero_vector(self):
        reg = BandwidthRegularizer(B=1, d=2, points=rng_for(13).uniform(size=(50, 2)), lam=1.0)
        assert regularizer_value(reg, np.zeros(50)) == 0.0

    def test_bandlimited_targets_are_annihilated(self):
        pts = rng_for(14).uniform(size=(500, 2))
        reg = BandwidthRegularizer(B=2, d=2, points=pts, lam=1.0)
        for t in range(20):
            h = sample_harmonic(2, 2, rng_for(15, t))
            assert regularizer_value(reg, h(pts)) <= 1e-8

    def test_out_of_band_tone_calibration(self):
        pts = rng_for(16).uniform(size=(20_000, 2))
        reg = BandwidthRegularizer(B=2, d=2, points=pts, lam=1.0)
        tone = np.cos(2 * math.pi * 3.0 * pts[:, 0])
        assert regularizer_value(reg, tone) == pytest.approx(0.5, abs=0.02)

    def test_out_of_band_error_shrinks_with_m(self):
        # Monte-Carlo convergence: quadrupling m should roughly halve the
        # residual's distance to 1/2. Compare medians across repeats; with
        # 80 of them, no seed in 700-739 in place of 777 gave a ratio below 1.8.
        gaps = []
        for m in (500, 2000, 8000):
            vals = []
            for t in range(80):
                pts = rng_for(17, m, t).uniform(size=(m, 2))
                reg = BandwidthRegularizer(B=2, d=2, points=pts, lam=1.0)
                tone = np.cos(2 * math.pi * 3.0 * pts[:, 0])
                vals.append(abs(regularizer_value(reg, tone) - 0.5))
            gaps.append(np.median(vals))
        assert gaps[0] / gaps[1] > 1.4
        assert gaps[1] / gaps[2] > 1.4

    def test_projector_symmetric_idempotent(self):
        pts = rng_for(18).uniform(size=(120, 2))
        reg = BandwidthRegularizer(B=1, d=2, points=pts, lam=1.0)
        # Row i is P e_i, so the rows form P^T.
        P = np.array([reg.residual(e) for e in np.eye(120)])
        assert np.abs(P - P.T).max() <= 1e-10
        assert np.abs(P @ P - P).max() <= 1e-8
        assert reg.span.shape[1] == 9

    def test_full_rank_when_oversampled(self):
        pts = rng_for(19).uniform(size=(2000, 2))
        reg = BandwidthRegularizer(B=2, d=2, points=pts, lam=1.0)
        assert reg.span.shape[1] == 25

    def test_gradient_matches_finite_differences(self):
        rng = rng_for(20)
        pts = rng.uniform(size=(80, 2))
        reg = BandwidthRegularizer(B=1, d=2, points=pts, lam=1.0)
        y = rng.standard_normal(80)
        # The gradient train() applies: (2/m) P y.
        grad = (2.0 / reg.m) * reg.residual(y)
        step = 1e-6
        for _ in range(10):
            direction = rng.standard_normal(80)
            direction /= np.linalg.norm(direction)
            forward = regularizer_value(reg, y + step * direction)
            backward = regularizer_value(reg, y - step * direction)
            numeric = (forward - backward) / (2 * step)
            analytic = float(grad @ direction)
            assert numeric == pytest.approx(analytic, rel=1e-5, abs=1e-10)

    def test_gradient_zero_in_span(self):
        rng = rng_for(21)
        pts = rng.uniform(size=(100, 2))
        reg = BandwidthRegularizer(B=1, d=2, points=pts, lam=1.0)
        V = build_basis_matrix(1, 2, pts)
        y = V @ rng.standard_normal(9)
        assert np.abs((2.0 / reg.m) * reg.residual(y)).max() < 1e-10

    def test_gradient_orthogonal_to_span(self):
        rng = rng_for(22)
        pts = rng.uniform(size=(150, 2))
        reg = BandwidthRegularizer(B=2, d=2, points=pts, lam=1.0)
        y = rng.standard_normal(150)
        grad = (2.0 / reg.m) * reg.residual(y)
        V = build_basis_matrix(2, 2, pts)
        assert np.abs(V.T @ grad).max() <= 1e-8

    def test_length_mismatch_rejected(self):
        reg = BandwidthRegularizer(B=1, d=2, points=rng_for(23).uniform(size=(40, 2)), lam=1.0)
        with pytest.raises(ValueError):
            regularizer_value(reg, np.zeros(41))

    def test_residual_in_each_working_dtype_matches_a_fresh_cast(self):
        # The span is cast once per working dtype and kept; alternating
        # dtypes must give what casting it afresh on every call gives.
        reg = BandwidthRegularizer(B=1, d=2, points=rng_for(24).uniform(size=(70, 2)), lam=1.0)
        y = rng_for(25).standard_normal(70)
        for dtype in (np.float32, np.float64, np.float32):
            yd = y.astype(dtype)
            span = reg.span.astype(dtype)
            want = yd - span @ (yd @ span)
            got = reg.residual(yd)
            assert got.dtype == dtype and np.array_equal(got, want)
