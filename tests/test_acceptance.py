"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria pin their own tolerances. Criterion 8, the harmonic cliff, is
not yet implemented (ROADMAP open item 9), so there is no test_08.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

import cliffscale as cs
from cliffscale import streams
from cliffscale.curves import PowerLawFit, log_spaced_ns
from cliffscale.gaussian import (
    GaussianTask,
    approx_error,
    sample_error_sufficient,
    simulate_error,
)

PHI_MINUS_1 = 0.15865525393145705


def report(criterion: str, ok: bool, detail: str):
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


class TestAcceptance:
    def test_01_noiseless_linreg_cliff(self):
        started = time.time()
        curve = cs.run_linreg_scaling(
            d=5, sigma=0.0, estimator="lstsq", n_grid=list(range(1, 21)), trials=50, seed=11
        )
        med = dict(zip(curve.ns.tolist(), curve.statistic("median")))
        below = all(med[n] > 1e-2 for n in range(1, 5))
        above = all(med[n] < 1e-15 for n in range(5, 21))
        elapsed = time.time() - started
        report(
            "criterion 1 (noiseless linreg cliff)",
            below and above and elapsed < 10,
            f"median>1e-2 for n<=4: {below}, median<1e-15 for n>=5: {above}, {elapsed:.1f}s",
        )

    def test_02_nearest_neighbor_exponent(self):
        started = time.time()
        ns = log_spaced_ns(100, 10_000, 10)
        curve = cs.run_linreg_scaling(
            d=5, sigma=0.0, estimator="nn", n_grid=ns, trials=20, seed=5
        )
        slope = float(
            np.polyfit(np.log(curve.ns.astype(float)), np.log(curve.statistic("median")), 1)[0]
        )
        elapsed = time.time() - started
        report(
            "criterion 2 (nearest-neighbor exponent)",
            -0.55 <= slope <= -0.25 and elapsed < 300,
            f"log-log slope {slope:.3f} (target [-0.55, -0.25]), {elapsed:.0f}s",
        )

    def test_03_ridge_soft_cliff_and_double_descent(self):
        started = time.time()
        ns = log_spaced_ns(10, 1000, 10)
        ridge = cs.run_linreg_scaling(
            d=100, sigma=0.1, estimator="ridge", n_grid=ns, trials=50, seed=7, lam=1.0
        )
        regions = cs.detect_cliffs(ridge)
        has_cliff = any(r.n_start <= 100 <= r.n_end for r in regions)
        lstsq = cs.run_linreg_scaling(
            d=100, sigma=0.1, estimator="lstsq", n_grid=[50, 100], trials=50, seed=7
        )
        m50, m100 = lstsq.statistic("median")
        elapsed = time.time() - started
        report(
            "criterion 3 (ridge soft cliff, double descent)",
            has_cliff and m100 > m50 and elapsed < 300,
            f"ridge cliff regions {[(r.n_start, r.n_end) for r in regions]} contain 100: {has_cliff}; "
            f"lstsq median n=100 {m100:.2f} > n=50 {m50:.2f}; {elapsed:.0f}s",
        )

    def test_04_gaussian_closed_form_match(self):
        started = time.time()
        task = GaussianTask(d=1000, s=1.0)
        curve = cs.run_gaussian_scaling(
            d=1000, s=1.0, n_grid=[10, 100, 1000, 10_000, 100_000],
            trials=10_000, seed=77,
        )
        med = dict(zip(curve.ns.tolist(), curve.statistic("median")))
        gaps = {n: abs(med[n] - approx_error(task, n)) for n in (10, 100, 1000, 10_000)}
        match = all(g < 0.01 for g in gaps.values())
        floor_gap = abs(med[100_000] - PHI_MINUS_1)
        elapsed = time.time() - started
        report(
            "criterion 4 (gaussian closed-form match)",
            match and floor_gap < 0.005 and elapsed < 120,
            f"max |median - approx| {max(gaps.values()):.4f} (<0.01); "
            f"|median(1e5) - Phi(-1)| {floor_gap:.4f} (<0.005); {elapsed:.0f}s",
        )

    def test_05_sampler_equivalence(self):
        started = time.time()
        task = GaussianTask(d=30, s=1.0)
        rng_a = streams.stream(2025, 1)
        rng_b = streams.stream(2025, 2)
        a = np.array([simulate_error(task, 50, rng_a) for _ in range(10_000)])
        b = np.array([sample_error_sufficient(task, 50, rng_b) for _ in range(10_000)])
        ks = stats.ks_2samp(a, b).statistic
        elapsed = time.time() - started
        report(
            "criterion 5 (sampler equivalence)",
            ks < 0.03 and elapsed < 120,
            f"two-sample KS statistic {ks:.4f} (<0.03), {elapsed:.0f}s",
        )

    def test_06_concavity_proposition(self):
        started = time.time()
        rng = streams.stream(606, 1)
        ns = log_spaced_ns(1, 100_000, 10)
        convex_ok = True
        cliffs_ok = True
        for _ in range(1000):
            A, alpha, E = (10.0 ** rng.uniform(-3, 3, size=3)).tolist()
            fit = PowerLawFit(A=A, alpha=alpha, E=E, residual=0.0, n_range=(1, 100_000))
            xs = rng.uniform(-10, 12, size=100)
            if any(cs.powerlaw_loglog_convexity(fit, float(x)) < 0 for x in xs):
                convex_ok = False
                break
            curve = cs.aggregate_trials([(n, 0, float(fit.predict(n))) for n in ns])
            if cs.detect_cliffs(curve):
                cliffs_ok = False
                break
        elapsed = time.time() - started
        report(
            "criterion 6 (log-log non-concavity of power laws)",
            convex_ok and cliffs_ok and elapsed < 30,
            f"convexity >= 0: {convex_ok}; no cliffs on sampled fits: {cliffs_ok}; {elapsed:.0f}s",
        )

    def test_07_regularizer_exactness_and_calibration(self):
        from cliffscale.harmonic.basis import (
            BandwidthRegularizer,
            regularizer_value,
            sample_harmonic,
        )

        started = time.time()
        pts = streams.stream(707, 1).uniform(size=(20_000, 2))
        reg = BandwidthRegularizer(B=2, d=2, points=pts)
        worst = 0.0
        for t in range(100):
            h = sample_harmonic(2, 2, streams.stream(707, 2, t))
            worst = max(worst, regularizer_value(reg, h(pts)))
        tone = np.cos(2 * math.pi * 3.0 * pts[:, 0])
        tone_value = regularizer_value(reg, tone)
        elapsed = time.time() - started
        report(
            "criterion 7 (regularizer exactness and calibration)",
            worst <= 1e-8 and abs(tone_value - 0.5) <= 0.02 and elapsed < 60,
            f"max in-band value {worst:.2e} (<=1e-8); tone value {tone_value:.4f} (0.5 +- 0.02); {elapsed:.0f}s",
        )

    def test_09_gradient_integrity(self):
        from cliffscale.harmonic.basis import BandwidthRegularizer
        from cliffscale.harmonic.network import init_mlp, mlp_backward, mlp_forward_batch

        started = time.time()
        rng = streams.stream(909, 1)
        pts = rng.uniform(size=(200, 2))
        reg = BandwidthRegularizer(B=1, d=2, points=pts)
        model = init_mlp([2, 8, 8, 8, 1], rng)
        xs = rng.uniform(0.05, 0.95, size=(16, 2))
        ys = rng.standard_normal(16)

        def loss() -> float:
            out, _ = mlp_forward_batch(model, np.concatenate([xs, pts]))
            resid = out[:16] - ys
            r = reg.residual(out[16:])
            return float(resid @ resid) / 16 + float(r @ r) / reg.m

        out, cache = mlp_forward_batch(model, np.concatenate([xs, pts]))
        dout = np.zeros(216)
        dout[:16] = 2.0 / 16 * (out[:16] - ys)
        dout[16:] = 2.0 / reg.m * reg.residual(out[16:])
        grads = mlp_backward(model, cache, dout)
        params = model.parameters()

        step = 1e-6
        worst_rel = 0.0
        for _ in range(100):
            pi = int(rng.integers(len(params)))
            arr = params[pi]
            idx = tuple(int(rng.integers(s)) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + step
            plus = loss()
            arr[idx] = orig - step
            minus = loss()
            arr[idx] = orig
            numeric = (plus - minus) / (2 * step)
            analytic = grads[pi][idx]
            scale = max(abs(numeric), abs(analytic), 1e-8)
            worst_rel = max(worst_rel, abs(numeric - analytic) / scale)
        elapsed = time.time() - started
        report(
            "criterion 9 (gradient integrity incl. regularizer path)",
            worst_rel < 1e-4 and elapsed < 30,
            f"worst relative gradient error {worst_rel:.2e} (<1e-4), {elapsed:.0f}s",
        )

    def test_10_run_determinism(self, tmp_path, monkeypatch):
        from cliffscale import _parallel
        from cliffscale.cli import main

        args = [
            "run", "--kind", "gaussian", "--d", "100", "--s", "1",
            "--n-grid", "10,100,1000", "--trials", "200", "--seed", "4242",
        ]
        outputs = {}
        # Run d splits its cells between processes from the first cell on.
        for label, workers, serial_start in (("a", 1, math.inf), ("b", 8, math.inf), ("c", 1, math.inf),
                                             ("d", 1, 0.0)):
            monkeypatch.setattr(_parallel, "SERIAL_START_S", serial_start)
            out = tmp_path / label
            assert main(args + ["--workers", str(workers), "--out", str(out)]) == 0
            outputs[label] = {
                name: (out / name).read_bytes()
                for name in ("curve.csv", "curve.json", "plot.svg")
            }
        identical = outputs["a"] == outputs["b"] == outputs["c"] == outputs["d"]
        report(
            "criterion 10 (byte-identical reruns)",
            identical,
            f"run vs rerun with --workers 8 (selects nothing) vs repeat vs a run split between processes, "
            f"outputs identical: {identical}",
        )
