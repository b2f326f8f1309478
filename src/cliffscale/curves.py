"""Data-scaling curves: representation, power-law fitting, cliff detection.

A scaling curve records test error against training-set size n across
repeated trials. A three-parameter power law ``A * n**-alpha + E`` is
never concave on log-log axes, so any measured region of log-log
concavity marks error falling faster than every power law locally; those
are the cliff regions this module detects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ScalingCurve",
    "PowerLawFit",
    "CliffRegion",
    "CurveError",
    "FitError",
    "aggregate_trials",
    "check_n_grid",
    "run_cells",
    "fit_power_law",
    "powerlaw_loglog_convexity",
    "loglog_second_differences",
    "detect_cliffs",
    "log_spaced_ns",
]

DEFAULT_ERROR_FLOOR = 1e-20
DEFAULT_CLIFF_THRESHOLD = -0.05
DEFAULT_MIN_RUN = 2


class CurveError(ValueError):
    """Malformed curve data (bad n grid, negative errors, duplicates)."""


class FitError(ValueError):
    """Curve cannot support the requested fit (too few points, zero errors)."""


@dataclass(frozen=True)
class ScalingCurve:
    """Per-n error measurements across trials.

    ``points`` maps each sample count n to the tuple of per-trial errors
    measured at that n. Immutable after construction; all analysis
    functions in this module are pure.
    """

    points: tuple[tuple[int, tuple[float, ...]], ...]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        prev = 0
        for n, errs in self.points:
            if n <= prev:
                raise CurveError(f"n values must be strictly increasing positives, got {n} after {prev}")
            if len(errs) == 0:
                raise CurveError(f"no trial errors recorded at n={n}")
            for e in errs:
                if not math.isfinite(e) or e < 0:
                    raise CurveError(f"error values must be finite and >= 0, got {e} at n={n}")
            prev = n

    @property
    def ns(self) -> np.ndarray:
        return np.array([n for n, _ in self.points], dtype=np.int64)

    def trial_errors(self, n: int) -> tuple[float, ...]:
        for m, errs in self.points:
            if m == n:
                return errs
        raise KeyError(n)

    def statistic(self, which: str = "median") -> np.ndarray:
        """Per-n summary across trials: 'median', 'mean', 'min' or 'max'."""
        fns = {"median": np.median, "mean": np.mean, "min": np.min, "max": np.max}
        if which not in fns:
            raise ValueError(f"unknown statistic {which!r}")
        return np.array([fns[which](errs) for _, errs in self.points], dtype=float)

    def percentile(self, p: float) -> np.ndarray:
        return np.array([np.percentile(errs, p) for _, errs in self.points], dtype=float)

    def restricted(self, n_min: int, n_max: int) -> "ScalingCurve":
        kept = tuple((n, errs) for n, errs in self.points if n_min <= n <= n_max)
        return ScalingCurve(points=kept, metadata=dict(self.metadata))

    def with_metadata(self, **tags) -> "ScalingCurve":
        md = dict(self.metadata)
        md.update({k: str(v) for k, v in tags.items()})
        return ScalingCurve(points=self.points, metadata=md)


@dataclass(frozen=True)
class PowerLawFit:
    """Fitted scaling law ``A * n**-alpha + E`` with log-space RMS misfit."""

    A: float
    alpha: float
    E: float
    residual: float
    n_range: tuple[int, int]

    def __post_init__(self):
        if self.A < 0 or self.alpha < 0 or self.E < 0 or self.residual < 0:
            raise FitError("A, alpha, E and residual must all be nonnegative")
        if self.n_range[0] >= self.n_range[1]:
            raise FitError(f"degenerate fit range {self.n_range}")

    def predict(self, n) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        return self.A * n ** (-self.alpha) + self.E


@dataclass(frozen=True)
class CliffRegion:
    """Maximal stretch of log-log concavity on a measured curve.

    ``strength`` is the negated sum of the flagged second differences,
    a measure of how far below every power law the stretch bends.
    """

    n_start: int
    n_end: int
    strength: float

    def __post_init__(self):
        if self.n_start >= self.n_end:
            raise CurveError(f"empty cliff region [{self.n_start}, {self.n_end}]")
        if self.strength <= 0:
            raise CurveError("cliff strength must be positive")

    def contains(self, n: int) -> bool:
        return self.n_start <= n <= self.n_end

    def intersects(self, n_lo: int, n_hi: int) -> bool:
        return self.n_start <= n_hi and n_lo <= self.n_end


def aggregate_trials(raw, metadata: dict | None = None) -> ScalingCurve:
    """Group (n, trial, error) records into a ScalingCurve, losslessly.

    Records may arrive in any order; each (n, trial) pair must be unique.
    Trial errors are stored in trial order. Records in (n, trial) order,
    as ``run_cells`` returns them, are grouped in one pass; others are
    sorted first.
    """
    records = list(raw)
    if not records:
        raise CurveError("no records to aggregate")
    points = _group_sorted(records)
    if points is None:
        points = _group_sorted(sorted(records, key=lambda r: (int(r[0]), int(r[1]))))
    return ScalingCurve(points=points, metadata=dict(metadata or {}))


def _group_sorted(records) -> tuple | None:
    """The points of (n, trial)-ordered records, or None if they are out of order.

    A repeated (n, trial) pair raises CurveError.
    """
    points: list[tuple[int, list[float]]] = []
    for n, trial, error in records:
        n = int(n)
        trial = int(trial)
        if not points or n != last_n:
            if points and n < last_n:
                return None
            errs: list[float] = []
            points.append((n, errs))
            last_n = n
        elif trial <= last_trial:
            if trial < last_trial:
                return None
            raise CurveError(f"duplicate record for n={n}, trial={trial}")
        errs.append(float(error))
        last_trial = trial
    return tuple((n, tuple(errs)) for n, errs in points)


def check_n_grid(n_grid) -> list[int]:
    """The grid as a list of ints; CurveError unless nonempty, positive and ascending."""
    grid = [int(n) for n in n_grid]
    if not grid or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise CurveError(f"bad n grid {grid}: need a nonempty ascending list of positive integers")
    return grid


def run_cells(row, n_grid, trials: int) -> list[tuple[int, int, float]]:
    """Evaluate ``row(n_idx, n, trials) -> errors`` over the grid, serially.

    A row returns the errors of trials 0 .. trials - 1 at one n, in trial
    order. Rows run in n-index order and come back as (n, trial, error)
    records for ``aggregate_trials``. Each trial draws only from streams
    keyed by its own (trial, n index), so the order cannot change any
    result.
    """
    grid = check_n_grid(n_grid)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    return [
        (n, trial, error)
        for n_idx, n in enumerate(grid)
        for trial, error in enumerate(row(n_idx, n, trials))
    ]


def log_spaced_ns(n_min: int, n_max: int, points_per_decade: int = 10) -> list[int]:
    """Distinct integer sample counts, log-spaced between n_min and n_max."""
    if n_min < 1 or n_max <= n_min or points_per_decade < 1:
        raise CurveError(f"bad grid spec ({n_min}, {n_max}, {points_per_decade})")
    k = int(math.ceil(points_per_decade * math.log10(n_max / n_min)))
    grid = [int(round(n_min * 10 ** (i / points_per_decade))) for i in range(k + 1)]
    grid.append(n_max)
    out: list[int] = []
    for n in grid:
        n = min(max(n, n_min), n_max)
        if not out or n > out[-1]:
            out.append(n)
    return out


def _fit_values(curve: ScalingCurve, statistic: str, n_range, floor: float | None):
    ns = curve.ns.astype(float)
    vals = curve.statistic(statistic)
    if n_range is not None:
        lo, hi = n_range
        keep = (ns >= lo) & (ns <= hi)
        ns, vals = ns[keep], vals[keep]
    if floor is not None:
        if floor <= 0:
            raise FitError(f"error floor must be positive, got {floor}")
        vals = np.maximum(vals, floor)
    return ns, vals


# On extreme curves numpy meets zeros, infinities and overflow along the way
# (a median of two values near the float maximum, log(0) once E reaches an
# error, inf * 0 in a prediction). The search scores those candidates as
# infinite or NaN misfits and a fit that is not finite raises FitError, so
# the floating-point warnings carry nothing.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def fit_power_law(
    curve: ScalingCurve,
    n_range: tuple[int, int] | None = None,
    statistic: str = "median",
    floor: float | None = None,
) -> PowerLawFit:
    """Fit ``A * n**-alpha + E`` by least squares on log error.

    The objective is the mean squared log-space misfit of the chosen
    per-n statistic (median by default). E is located by golden-section
    search on [0, 0.999 * min error]; for each candidate E the remaining
    (log A, alpha) problem is ordinary least squares of log(err - E)
    against log n. Deterministic for fixed input.
    """
    ns, vals = _fit_values(curve, statistic, n_range, floor)
    if len(ns) < 4:
        raise FitError(f"need at least 4 points to fit, got {len(ns)}")
    if np.any(vals <= 0):
        raise FitError("curve has nonpositive error values; log fit undefined (set an error floor)")

    log_n = np.log(ns)
    log_v = np.log(vals)
    design = np.column_stack([np.ones_like(log_n), log_n])

    def solve_at(E: float):
        resid = vals - E
        y = np.log(resid)
        (intercept, slope), *_ = np.linalg.lstsq(design, y, rcond=None)
        alpha = -slope
        if alpha < 0:
            # Best nonnegative-exponent fit of the remainder is a constant.
            alpha = 0.0
            intercept = float(np.mean(y))
        try:
            A = math.exp(intercept)
        except OverflowError:
            A = math.inf  # scores as an infinite misfit below
        pred = A * ns ** (-alpha) + E
        obj = float(np.mean((log_v - np.log(pred)) ** 2))
        return obj, A, alpha

    e_hi = 0.999 * float(vals.min())
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, e_hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = solve_at(c)[0], solve_at(d)[0]
    for _ in range(200):
        if b - a < 1e-15 * max(e_hi, 1.0) + 1e-300:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = solve_at(c)[0]
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = solve_at(d)[0]
    candidates = [0.0, e_hi, 0.5 * (a + b)]
    best = min(((solve_at(E), E) for E in candidates), key=lambda t: t[0][0])
    (obj, A, alpha), E = best
    if not all(math.isfinite(v) for v in (obj, A, alpha)):
        raise FitError("no power law within floating-point range fits this curve")
    return PowerLawFit(
        A=A,
        alpha=alpha,
        E=E,
        residual=math.sqrt(obj),
        n_range=(int(ns[0]), int(ns[-1])),
    )


def powerlaw_loglog_convexity(fit: PowerLawFit, x: float) -> float:
    """Second derivative of log fit(e**x) with respect to x = log n.

    Closed form ``alpha**2 * A * E * e**(alpha x) / (A + E e**(alpha x))**2``,
    nonnegative for every valid fit: a power law plus a floor is never
    concave on log-log axes.
    """
    A, alpha, E = fit.A, fit.alpha, fit.E
    if A == 0.0 or E == 0.0 or alpha == 0.0:
        return 0.0
    # Evaluated via the symmetric form to survive large |alpha * x|:
    # expression == alpha^2 / (sqrt(A/E) e^{-u/2} + sqrt(E/A) e^{u/2})^2.
    u = alpha * x
    half = math.sqrt(A / E) * math.exp(min(-u / 2.0, 700.0)) if -u / 2.0 < 700.0 else math.inf
    other = math.sqrt(E / A) * math.exp(min(u / 2.0, 700.0)) if u / 2.0 < 700.0 else math.inf
    denom = half + other
    if math.isinf(denom):
        return 0.0
    return alpha * alpha / (denom * denom)


def loglog_second_differences(
    curve: ScalingCurve,
    statistic: str = "median",
    floor: float | None = DEFAULT_ERROR_FLOOR,
) -> list[tuple[int, float]]:
    """Centered second differences of log error against log n.

    Uses the three-point formula for non-uniform grids, so imported
    curves with irregular n spacing are handled exactly. Values at or
    below the floor are clamped up to it before taking logs. Returns one
    (n, value) pair per interior grid point.
    """
    ns, vals = _fit_values(curve, statistic, None, floor)
    if len(ns) < 3:
        raise CurveError(f"need at least 3 points for second differences, got {len(ns)}")
    if np.any(vals <= 0):
        raise CurveError("nonpositive statistic values; log undefined (set an error floor)")
    x = np.log(ns)
    y = np.log(vals)
    out = []
    for i in range(1, len(ns) - 1):
        h0 = x[i] - x[i - 1]
        h1 = x[i + 1] - x[i]
        span = x[i + 1] - x[i - 1]
        d2 = 2.0 * (y[i - 1] * h1 - y[i] * span + y[i + 1] * h0) / (h0 * h1 * span)
        out.append((int(ns[i]), float(d2)))
    return out


def detect_cliffs(
    curve: ScalingCurve,
    threshold: float = DEFAULT_CLIFF_THRESHOLD,
    min_run: int = DEFAULT_MIN_RUN,
    statistic: str = "median",
    floor: float | None = DEFAULT_ERROR_FLOOR,
) -> list[CliffRegion]:
    """Find maximal runs of log-log concavity below a threshold.

    A run of at least ``min_run`` consecutive second differences below
    ``threshold`` becomes a region spanning from the grid point before
    the run to the one after it (the full stencil the run rests on).
    Regions that touch are merged; the result is disjoint and ordered.
    """
    if threshold > 0:
        raise CurveError(f"threshold must be nonpositive, got {threshold}")
    if min_run < 1:
        raise CurveError(f"min_run must be >= 1, got {min_run}")
    if len(curve.points) < min_run + 2:
        raise CurveError(
            f"need at least {min_run + 2} points to detect runs of {min_run}, got {len(curve.points)}"
        )
    seconds = loglog_second_differences(curve, statistic=statistic, floor=floor)
    ns = curve.ns
    regions: list[CliffRegion] = []
    i = 0
    while i < len(seconds):
        if seconds[i][1] < threshold:
            j = i
            while j + 1 < len(seconds) and seconds[j + 1][1] < threshold:
                j += 1
            if j - i + 1 >= min_run:
                # seconds[k] sits at grid index k+1; extend one point outward.
                n_start = int(ns[i])
                n_end = int(ns[j + 2])
                strength = -sum(v for _, v in seconds[i : j + 1])
                regions.append(CliffRegion(n_start=n_start, n_end=n_end, strength=strength))
            i = j + 1
        else:
            i += 1
    merged: list[CliffRegion] = []
    for region in regions:
        if merged and region.n_start <= merged[-1].n_end:
            prev = merged.pop()
            region = CliffRegion(
                n_start=prev.n_start,
                n_end=max(prev.n_end, region.n_end),
                strength=prev.strength + region.strength,
            )
        merged.append(region)
    return merged
