"""Linear-regression toy problem: sharp cliff at n = d, soft cliff under ridge.

A unit-norm weight vector v is learned from Gaussian covariates. The
least-squares estimator jumps to zero error exactly when the sample
count reaches the dimension; a nearest-neighbor baseline on the same
data scales as a slow power law instead.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from . import _blas, streams
# aggregate_trials is not called here; benchmarks/tracing.py wraps it at this name.
from .curves import ScalingCurve, aggregate_trials, run_cells

__all__ = [
    "LinearTask",
    "RegressionDataset",
    "sample_task",
    "sample_dataset",
    "sample_dataset_sufficient",
    "fit_least_squares",
    "fit_ridge",
    "linear_test_mse",
    "nn_test_mse",
    "run_linreg_scaling",
    "ESTIMATORS",
]

# The names of run_linreg_scaling's estimators.
ESTIMATORS = ("lstsq", "ridge", "nn")

# Monte-Carlo test queries per NN cell.
NN_TEST_POINTS = 10_000

# Largest input dimension for which 1-NN uses a k-d tree instead of the
# brute-force scan; k-d trees degrade as d grows (Friedman, Bentley &
# Finkel 1977). Measured on a 2-core x86-64 box, one NN curve over 21
# log-spaced n in [100, 10 000] with 10 000 queries per n, wall time
# brute -> tree: d=5 1.9 -> 0.7 s, d=7 1.9 -> 1.3 s, d=8 2.1 -> 1.6 s,
# d=9 2.0 -> 2.2 s, d=10 2.0 -> 3.0 s (leafsize 32, tie check included).
# Re-measured with the brute scan on one BLAS thread and the tree on both
# cores (median of 3, wall / CPU): d=5 2.34 / 2.33 -> 0.42 / 0.57 s,
# d=7 2.35 / 2.35 -> 0.83 / 1.37 s, d=8 2.21 / 2.20 -> 1.05 / 1.76 s,
# d=9 2.18 / 2.18 -> 1.27 / 2.11 s, d=10 2.53 / 2.52 -> 1.77 / 3.05 s.
# The tree now wins on wall time through d = 10, and on CPU through
# d = 9; raising the bound would change the bits of those curves.
NN_TREE_MAX_D = 8

# Queries per distance product in the brute-force scan above NN_TREE_MAX_D.
NN_QUERY_CHUNK = 512

# Relative gap between the two nearest tree distances below which a
# query counts as a possible tie and is re-ranked exactly. It only needs
# to exceed the rounding difference between two summation orders.
NN_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class LinearTask:
    """Ground truth: y = v.x + sigma * noise, with x standard Gaussian."""

    d: int
    v: np.ndarray
    sigma: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.v.shape != (self.d,):
            raise ValueError(f"weight vector shape {self.v.shape} != ({self.d},)")
        if self.sigma < 0:
            raise ValueError(f"noise level must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class RegressionDataset:
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        if self.xs.ndim != 2 or self.ys.ndim != 1 or len(self.xs) != len(self.ys):
            raise ValueError(f"inconsistent dataset shapes {self.xs.shape}, {self.ys.shape}")
        if len(self.xs) and not (np.isfinite(self.xs).all() and np.isfinite(self.ys).all()):
            raise ValueError("dataset contains non-finite entries")

    def __len__(self) -> int:
        return len(self.ys)


def sample_task(d: int, sigma: float, rng: np.random.Generator) -> LinearTask:
    """Draw v uniformly on the unit sphere in d dimensions."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    v = rng.standard_normal(d)
    norm = np.linalg.norm(v)
    while norm == 0.0:  # probability-zero redraw guard
        v = rng.standard_normal(d)
        norm = np.linalg.norm(v)
    return LinearTask(d=d, v=v / norm, sigma=float(sigma))


def sample_dataset(task: LinearTask, n: int, rng: np.random.Generator) -> RegressionDataset:
    """n i.i.d. rows x ~ N(0, I_d) with y = v.x + sigma * N(0, 1)."""
    xs = rng.standard_normal((n, task.d))
    ys = xs @ task.v
    if task.sigma > 0:
        ys = ys + task.sigma * rng.standard_normal(n)
    return RegressionDataset(xs=xs, ys=ys)


@functools.cache
def _upper_triangle(d: int) -> np.ndarray:
    """Flat indices of a d x d matrix's entries above the diagonal, row by row."""
    rows, cols = np.triu_indices(d, 1)
    flat = rows * d + cols
    flat.flags.writeable = False  # shared by every call at this d
    return flat


def sample_dataset_sufficient(task: LinearTask, n: int, rng: np.random.Generator) -> RegressionDataset:
    """A dataset whose X'X and X'y have the joint law of n rows of sample_dataset.

    For n < d this is sample_dataset itself. For n >= d it has d rows:
    xs = R, the triangular factor of X = QR, and ys = R v + sigma z, since
    X'y = R'(R v + sigma Q'e). R's entries are independent, N(0, 1) above
    the diagonal and r_ii^2 ~ chi^2(n - i) for i = 0, ..., d - 1
    (Bartlett 1933), and z = Q'e ~ N(0, I_d) is independent of R. So
    fit_least_squares and fit_ridge give fits with the law they have on n
    rows, from d (d + 1) / 2 + d draws instead of n (d + 1).

    Draw order: the d (d - 1) / 2 normals above the diagonal, row by row;
    the d chi-squares with n, n - 1, ..., n - d + 1 degrees of freedom,
    whose square roots are the diagonal; then, if sigma > 0, the d normals z.
    """
    d = task.d
    if n < d:
        return sample_dataset(task, n, rng)
    xs = np.zeros((d, d))
    flat = xs.reshape(-1)
    flat[_upper_triangle(d)] = rng.standard_normal(d * (d - 1) // 2)
    flat[:: d + 1] = np.sqrt(rng.chisquare(np.arange(n, n - d, -1)))
    ys = xs @ task.v
    if task.sigma > 0:
        ys = ys + task.sigma * rng.standard_normal(d)
    return RegressionDataset(xs=xs, ys=ys)


def fit_least_squares(data: RegressionDataset) -> np.ndarray:
    """Minimum-norm least-squares weight vector v_hat (pseudoinverse).

    With fewer samples than dimensions the residual-zero solution of
    smallest norm is returned; an empty dataset yields the zero vector.
    A square upper-triangular float64 xs with no zero on its diagonal,
    such as the factor sample_dataset_sufficient returns for n >= d, is
    nonsingular, so the solution is unique and back substitution (LAPACK
    dtrtrs) finds it: ~6 us against ~1.3 ms for the SVD at d = 100 on one
    BLAS thread. Every other xs goes to the SVD-based lstsq.
    """
    xs = data.xs
    if len(data) == 0:
        return np.zeros(xs.shape[1])
    if xs.shape[0] == xs.shape[1] and xs.dtype == np.float64 and not np.tril(xs, -1).any():
        # Imported here: scipy.linalg adds about 0.1 s to importing the CLI.
        from scipy.linalg.lapack import dtrtrs

        v_hat, info = dtrtrs(xs, data.ys)
        if info == 0:  # info > 0: a zero on the diagonal, so xs is singular
            return v_hat
    v_hat, *_ = np.linalg.lstsq(xs, data.ys, rcond=None)
    return v_hat


def fit_ridge(data: RegressionDataset, lam: float) -> np.ndarray:
    """Ridge weight vector v_hat = (X'X + lam I)^-1 X'y; unique for lam > 0."""
    if lam <= 0:
        raise ValueError(f"ridge penalty must be positive, got {lam}")
    d = data.xs.shape[1]
    gram = data.xs.T @ data.xs + lam * np.eye(d)
    rhs = data.xs.T @ data.ys
    return np.linalg.solve(gram, rhs)


def linear_test_mse(task: LinearTask, v_hat: np.ndarray) -> float:
    """Exact test MSE of a linear estimate v_hat under x ~ N(0, I_d).

    E[((v_hat - v).x)^2] collapses to |v_hat - v|^2, so linear
    estimators get a zero-variance error measurement.
    """
    if v_hat.shape != task.v.shape:
        raise ValueError(f"estimate shape {v_hat.shape} != task shape {task.v.shape}")
    diff = v_hat - task.v
    return float(diff @ diff)


def _nn_index_brute(xs: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Nearest-row indices by a chunked scan over |x|^2 - 2 q.x (BLAS-bound)."""
    train_sq = np.einsum("ij,ij->i", xs, xs)
    idx = np.empty(len(queries), dtype=np.intp)
    for start in range(0, len(queries), NN_QUERY_CHUNK):
        stop = start + NN_QUERY_CHUNK
        # squared distance up to a per-query constant
        d2 = train_sq[None, :] - 2.0 * (queries[start:stop] @ xs.T)
        idx[start:stop] = np.argmin(d2, axis=1)
    return idx


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _nn_index_tree(xs: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Nearest-row indices by k-d tree search on direct distances sum (x - q)^2.

    The tree's order among equidistant rows is unspecified, so it is
    asked for the two nearest rows; a query whose two distances agree to
    within NN_TIE_RTOL is re-ranked by a direct scan, whose argmin keeps
    the lowest index. The queries are split across every usable CPU;
    each is searched exactly and on its own, so the result does not
    depend on the number of CPUs.
    """
    # Imported here: scipy.spatial adds about 0.1 s to importing the CLI.
    from scipy.spatial import cKDTree

    if len(xs) == 1:  # no second neighbor to compare against
        return np.zeros(len(queries), dtype=np.intp)
    # leafsize 32 queries 15-25% faster than the default 16 at d = 5..8.
    dist, idx = cKDTree(xs, leafsize=32).query(queries, k=2, workers=_usable_cpus())
    nearest = idx[:, 0]
    for j in np.flatnonzero(dist[:, 1] - dist[:, 0] <= NN_TIE_RTOL * dist[:, 1]):
        nearest[j] = np.argmin(np.sum((xs - queries[j]) ** 2, axis=1))
    return nearest


def _nn_predict_batch(data: RegressionDataset, queries: np.ndarray) -> np.ndarray:
    """1-NN regression values for a batch of queries; ties go to the lowest index.

    Up to NN_TREE_MAX_D dimensions a k-d tree finds the row with the
    smallest float64 squared distance sum (x - q)^2, the lowest index
    among equal ones. Above it a chunked scan ranks rows by
    |x|^2 - 2 q.x, the same order up to rounding: rows whose squared
    distances differ by less than about (d + 2) eps (|x|^2 + |q|^2) can
    swap, and equal values go to the lowest index.
    """
    if len(data) == 0:
        raise ValueError("nearest-neighbor prediction needs at least one training point")
    if not np.isfinite(queries).all():
        raise ValueError("nearest-neighbor queries contain non-finite entries")
    if data.xs.shape[1] <= NN_TREE_MAX_D:
        return data.ys[_nn_index_tree(data.xs, queries)]
    return data.ys[_nn_index_brute(data.xs, queries)]


def nn_test_mse(
    task: LinearTask,
    data: RegressionDataset,
    n_test: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo test MSE of the 1-NN estimator on noiseless targets."""
    if n_test < 1:
        raise ValueError(f"need at least one test point, got {n_test}")
    queries = rng.standard_normal((n_test, task.d))
    preds = _nn_predict_batch(data, queries)
    resid = preds - queries @ task.v
    return float(np.mean(resid * resid))


def run_linreg_scaling(
    d: int,
    sigma: float,
    estimator: str,
    n_grid,
    trials: int,
    seed: int,
    lam: float | None = None,
) -> ScalingCurve:
    """Scaling curve of a linear-regression estimator over an n grid.

    Each trial draws a fresh task and a fresh dataset per n, all from
    streams keyed by (seed, trial, n index), so results are independent
    of trial order.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r} (expected one of {ESTIMATORS})")
    if estimator == "ridge" and (lam is None or lam <= 0):
        raise ValueError("ridge estimator needs a positive lambda")

    # Only 1-NN needs the points themselves; the linear fits need X'X and X'y.
    sample = sample_dataset if estimator == "nn" else sample_dataset_sufficient

    def cell(n_idx: int, n: int, trial: int) -> float:
        task = sample_task(d, sigma, streams.stream(seed, streams.TASK, trial))
        data = sample(task, n, streams.stream(seed, streams.DATA, trial, n_idx))
        if estimator == "lstsq":
            return linear_test_mse(task, fit_least_squares(data))
        if estimator == "ridge":
            return linear_test_mse(task, fit_ridge(data, lam))
        # Only the NN error is sampled, so only it derives a test stream.
        return nn_test_mse(task, data, NN_TEST_POINTS, streams.stream(seed, streams.TEST, trial, n_idx))

    meta = {"task": "linreg", "estimator": estimator, "d": d, "sigma": float(sigma), "seed": seed}
    if estimator == "ridge":
        meta["lambda"] = float(lam)
    # One BLAS thread for every cell, so its bits depend only on the seed and
    # the BLAS build, never on the thread count or the host.
    with _blas.blas_threads(1):
        return run_cells(cell, n_grid, trials, meta)
