"""A learner confined to a k-dim subspace U is a toy the package already runs.

With |P_U t| = rho for the task's direction t, each reduction below turns
a prior of adjustable compatibility into an existing runner at dimension
k, so a sweep over rho needs no new sampler. Each test draws the explicit
d-dim learner from its own streams and compares mean errors.
"""

import math

import numpy as np
import pytest

from cliffscale import streams
from cliffscale.gaussian import GaussianTask, exact_error, sample_error_sufficient
from cliffscale.linreg import RegressionDataset, fit_least_squares, run_linreg_scaling


def rng_for(*key):
    return streams.stream(2026, *key)


def subspace(t, k, rho, rng):
    """A d x k orthonormal basis U with |P_U t| = rho for a unit vector t.

    The columns are random and orthogonal to t, except the first, which is
    rho t plus sqrt(1 - rho^2) times one of them.
    """
    g = rng.standard_normal((len(t), k))
    basis, _ = np.linalg.qr(g - np.outer(t, t @ g))
    basis[:, 0] = rho * t + math.sqrt(1.0 - rho * rho) * basis[:, 0]
    return basis


def assert_means_agree(a, b):
    """The means of two independent samples lie within 3 combined standard errors."""
    se = math.sqrt(np.var(a, ddof=1) / len(a) + np.var(b, ddof=1) / len(b))
    assert abs(np.mean(a) - np.mean(b)) < 3 * se


def test_subspace_is_orthonormal_at_the_given_overlap():
    t = rng_for(0).standard_normal(50)
    t /= np.linalg.norm(t)
    u = subspace(t, 7, 0.3, rng_for(1))
    assert np.allclose(u.T @ u, np.eye(7), atol=1e-12)
    assert np.linalg.norm(u.T @ t) == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize("n", [5, 20, 80])
def test_gaussian_subspace_prior_is_the_task_at_k_and_s_rho(n):
    # The class mean w projected onto U classifies by sign((U U'w).x), whose
    # margin is s rho (w_U . u) / |w_U| with u = P_U e1 / rho: the class mean
    # of GaussianTask(k, s rho). w is drawn from its law, s e1 + N(0, I_d / n)
    # (criterion 5 checks that law against n explicit rows).
    d, k, s, rho, trials = 200, 20, 2.0, 0.8, 2000
    task = GaussianTask(d=d, s=s)
    u = subspace(np.eye(d)[0], k, rho, rng_for(2))
    ws = rng_for(3, n).standard_normal((trials, d)) / math.sqrt(n)
    ws[:, 0] += s
    projected = [exact_error(task, u @ (u.T @ w)) for w in ws]
    reduced = GaussianTask(d=k, s=s * rho)
    reference = [sample_error_sufficient(reduced, n, rng_for(4, n, t)) for t in range(trials)]
    assert_means_agree(projected, reference)


@pytest.mark.parametrize("rho", [0.9, 0.5])
def test_linear_probe_is_lstsq_at_k_plus_a_floor(rho):
    # With Gaussian x, v's part outside U is noise of variance 1 - rho^2,
    # independent of the features x U. So least squares on x U fits
    # |P_U v| = rho under noise 1 - rho^2 + sigma^2: scaled by rho, the lstsq
    # toy at d = k, plus the unreachable 1 - rho^2.
    d, k, sigma, trials, grid = 100, 20, 0.1, 200, [5, 10, 40, 80]
    curve = run_linreg_scaling(
        d=k, sigma=math.sqrt(1.0 - rho * rho + sigma * sigma) / rho, estimator="lstsq",
        n_grid=grid, trials=trials, seed=5,
    )
    for n_idx, (n, errs) in enumerate(curve.points):
        probe = []
        for t in range(trials):
            g = rng_for(6, t, n_idx)
            v = g.standard_normal(d)
            v /= np.linalg.norm(v)
            u = subspace(v, k, rho, g)
            xs = g.standard_normal((n, d))
            ys = xs @ v + sigma * g.standard_normal(n)
            diff = u @ fit_least_squares(RegressionDataset(xs @ u, ys)) - v
            probe.append(diff @ diff)  # exact test MSE, as linear_test_mse
        assert_means_agree(probe, rho * rho * np.array(errs) + (1.0 - rho * rho))
