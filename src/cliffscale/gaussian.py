"""Binary Gaussian classification toy model with a closed-form cliff curve.

Labels are uniform on {-1, +1} and x ~ N(y * s * e1, I_d). The class-mean
estimator w = (1/n) sum y_i x_i has a test error that is an explicit
function of w, admits an exact low-dimensional sampling shortcut, and is
tightly approximated by a closed-form cliff-shaped curve in n.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import streams
# aggregate_trials is not called here; benchmarks/tracing.py wraps it at this name.
from .curves import ScalingCurve, aggregate_trials, run_cells

__all__ = [
    "GaussianTask",
    "std_normal_cdf",
    "estimate_weights",
    "exact_error",
    "simulate_error",
    "sample_error_sufficient",
    "asymptotic_error",
    "approx_error",
    "run_gaussian_scaling",
    "sample_chi_squared",
    "SAMPLERS",
]

# The names of run_gaussian_scaling's samplers.
SAMPLERS = ("full", "sufficient")


@dataclass(frozen=True)
class GaussianTask:
    """Class-mean separation s along the first axis in d dimensions."""

    d: int
    s: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.s < 0:
            raise ValueError(f"signal-to-noise ratio must be >= 0, got {self.s}")


@functools.cache
def _erfc():
    """scipy's erfc, imported on first use.

    Importing scipy.special pulls numpy.f2py, numpy.testing and numpy.ma in
    with it, about 0.3 s of importing the package; a cached call costs less
    than an import statement in the function that needs it.
    """
    from scipy.special import erfc

    return erfc


_SQRT2 = math.sqrt(2.0)


def _phi(x: float) -> float:
    """std_normal_cdf of a float, without its type dispatch."""
    return 0.5 * float(_erfc()(-x / _SQRT2))


def std_normal_cdf(x):
    """Standard normal CDF via the complementary error function.

    Accurate to well under 1e-14 absolute over the whole real line;
    accepts scalars or arrays.
    """
    if np.isscalar(x):
        return _phi(float(x))
    return 0.5 * _erfc()(-np.asarray(x, dtype=float) / _SQRT2)


def estimate_weights(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Class-mean estimator w = (1/n) sum of y_i * x_i."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2 or ys.shape != (len(xs),):
        raise ValueError(f"inconsistent dataset shapes {xs.shape}, {ys.shape}")
    if len(xs) == 0:
        raise ValueError("need at least one labeled sample")
    return (ys @ xs) / len(xs)


def exact_error(task: GaussianTask, w: np.ndarray) -> float:
    """Test error of sign(w.x): Phi(-s * w_1 / |w|)."""
    if w.shape != (task.d,):
        raise ValueError(f"weight shape {w.shape} != ({task.d},)")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    norm = np.linalg.norm(w)
    if norm == 0.0:
        raise ValueError("test error undefined for the zero classifier")
    return float(std_normal_cdf(-task.s * w[0] / norm))


def simulate_error(task: GaussianTask, n: int, rng: np.random.Generator) -> float:
    """Draw n labeled samples, fit the class-mean classifier, return its error.

    The error of a fitted w is known in closed form, so no test set is
    drawn. The probability-zero degenerate w = 0 reports chance error.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    ys = rng.integers(0, 2, size=n) * 2.0 - 1.0
    xs = rng.standard_normal((n, task.d))
    xs[:, 0] += ys * task.s
    w = estimate_weights(xs, ys)
    if not np.any(w):
        warnings.warn("degenerate zero estimate; reporting chance error", RuntimeWarning)
        return 0.5
    return exact_error(task, w)


def sample_chi_squared(df: int, rng: np.random.Generator) -> float:
    """One chi-squared draw with df degrees of freedom, in O(1) time.

    Delegates to the generator's gamma-based sampler. df = 0 is the
    degenerate point mass at zero.
    """
    if df < 0:
        raise ValueError(f"degrees of freedom must be >= 0, got {df}")
    if df == 0:
        return 0.0
    return float(rng.chisquare(df))


def sample_error_sufficient(task: GaussianTask, n: int, rng: np.random.Generator) -> float:
    """Error draw through the two sufficient statistics of the estimator.

    The margin s * w_1 / |w| of the fitted classifier equals, in
    distribution, a function of one standard normal and one chi-squared
    with d - 1 degrees of freedom, so the cost per draw is independent
    of n and nearly independent of d.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    s = task.s
    eps = rng.standard_normal()
    chi2 = sample_chi_squared(task.d - 1, rng)
    first = s + eps / math.sqrt(n)
    norm_sq = first * first + chi2 / n
    if norm_sq == 0.0:
        warnings.warn("degenerate zero estimate; reporting chance error", RuntimeWarning)
        return 0.5
    margin = s * first / math.sqrt(norm_sq)
    return _phi(-margin)


def asymptotic_error(task: GaussianTask, n: int) -> float:
    """Large-n expansion Phi(-s) + exp(-s^2/2)/(sqrt(8 pi) s) * q / n.

    q is the median of the chi-squared distribution with d - 1 degrees
    of freedom. Invalid at s = 0, where the leading term divides by zero.
    """
    if task.s == 0:
        raise ValueError("asymptotic expansion undefined at s = 0")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    # Imported here: scipy.stats costs most of the package's import time
    # and nothing else needs it.
    from scipy import stats

    s = task.s
    q = 0.0 if task.d == 1 else float(stats.chi2.median(df=task.d - 1))
    return float(std_normal_cdf(-s) + math.exp(-s * s / 2.0) / (math.sqrt(8.0 * math.pi) * s) * q / n)


def approx_error(task: GaussianTask, n: int) -> float:
    """Closed-form scaling curve Phi(-s / sqrt(1 + d / (n s^2))).

    Strictly decreasing in n with limit Phi(-s); tends to chance error
    when d / (n s^2) blows up, which is also the s = 0 value.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if task.s == 0:
        return 0.5
    s = task.s
    return float(std_normal_cdf(-s / math.sqrt(1.0 + task.d / (n * s * s))))


def run_gaussian_scaling(
    d: int,
    s: float,
    n_grid,
    trials: int,
    seed: int,
    sampler: str = "sufficient",
) -> ScalingCurve:
    """Scaling curve of simulated classification errors over an n grid."""
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r} (expected one of {SAMPLERS})")
    task = GaussianTask(d=d, s=float(s))
    draw = simulate_error if sampler == "full" else sample_error_sufficient
    # Cells run one at a time, and each draws from one stream only, so every
    # cell resets the previous cell's generator instead of building its own.
    rng = None

    def cell(n_idx: int, n: int, trial: int) -> float:
        nonlocal rng
        rng = streams.stream(seed, streams.DATA, trial, n_idx, reuse=rng)
        return draw(task, n, rng)

    meta = {"task": "gaussian", "d": d, "s": task.s, "sampler": sampler, "seed": seed}
    return run_cells(cell, n_grid, trials, meta)
