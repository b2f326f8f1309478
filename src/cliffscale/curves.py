"""Data-scaling curves: representation, power-law fitting, cliff detection.

A scaling curve records test error against training-set size n across
repeated trials. A three-parameter power law ``A * n**-alpha + E`` is
never concave on log-log axes, so any measured region of log-log
concavity marks error falling faster than every power law locally; those
are the cliff regions this module detects.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import _blas, _parallel

__all__ = [
    "ScalingCurve",
    "PowerLawFit",
    "CliffRegion",
    "CurveError",
    "FitError",
    "aggregate_trials",
    "check_floor",
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
# Curves hold n as int64 (ScalingCurve.ns).
MAX_N = 2**63 - 1

# Error types a ScalingCurve stores as they are.
_PLAIN_ERRORS = frozenset((int, float))


class CurveError(ValueError):
    """Malformed curve data (bad n grid, negative errors, duplicates)."""


class FitError(ValueError):
    """Curve cannot support the requested fit (too few points, zero errors)."""


def _check_n(n) -> int:
    """n as an int; CurveError unless it is an integer in [1, MAX_N]."""
    try:
        n = operator.index(n)
    except TypeError:
        raise CurveError(f"n values must be integers, got {n!r}") from None
    if not 1 <= n <= MAX_N:
        raise CurveError(f"n values must be in [1, 2**63 - 1], got {n}")
    return n


def _median(errs) -> float:
    """np.median, or a/2 + b/2 of the two middle values where a + b overflows."""
    with np.errstate(over="ignore"):
        med = np.median(errs)
    if math.isfinite(med):
        return med
    mid = len(errs) // 2
    a, b = sorted(errs)[mid - 1 : mid + 1]
    return a / 2 + b / 2


@dataclass(frozen=True)
class ScalingCurve:
    """Per-n error measurements across trials.

    ``points`` maps each sample count n to the tuple of per-trial errors
    measured at that n. Immutable after construction; all analysis
    functions in this module are pure. If any error is of a type other
    than int and float, such as a numpy scalar, every error is stored as a
    Python float, so the writers format each as Python formats a float.
    """

    points: tuple[tuple[int, tuple[float, ...]], ...]
    metadata: dict[str, str] = field(default_factory=dict)
    # How many processes computed the cells, for a curve that run_cells
    # made; None for one read or built from records. No curve file holds it.
    processes: int | None = field(default=None, compare=False)

    def __post_init__(self):
        ns: list[int] = []
        for n, errs in self.points:
            n = _check_n(n)
            if ns and n <= ns[-1]:
                raise CurveError(f"n values must be strictly increasing, got {n} after {ns[-1]}")
            if len(errs) == 0:
                raise CurveError(f"no trial errors recorded at n={n}")
            if not all(map(math.isfinite, errs)) or min(errs) < 0:
                bad = next(e for e in errs if not math.isfinite(e) or e < 0)
                raise CurveError(f"error values must be finite and >= 0, got {bad} at n={n}")
            ns.append(n)
        rows = [errs for _, errs in self.points]
        if not all(_PLAIN_ERRORS.issuperset(map(type, errs)) for errs in rows):
            rows = [tuple(map(float, errs)) for errs in rows]
        object.__setattr__(self, "points", tuple(zip(ns, rows)))
        object.__setattr__(self, "metadata", {k: str(v) for k, v in self.metadata.items()})
        # statistic's arrays by name, each computed on first request.
        object.__setattr__(self, "_statistics", {})

    @property
    def ns(self) -> np.ndarray:
        return np.array([n for n, _ in self.points], dtype=np.int64)

    def statistic(self, which: str = "median") -> np.ndarray:
        """Per-n summary across trials: 'median', 'min' or 'max'.

        Each is computed once per curve; the array returned is read-only.
        """
        values = self._statistics.get(which)
        if values is None:
            fns = {"median": _median, "min": np.min, "max": np.max}
            if which not in fns:
                raise ValueError(f"unknown statistic {which!r}")
            values = np.array([fns[which](errs) for _, errs in self.points], dtype=float)
            values.flags.writeable = False
            self._statistics[which] = values
        return values


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
    a measure of how far below every power law the stretch bends. It sums
    one value per grid point, so on the same curve it grows with the grid's
    density.
    """

    n_start: int
    n_end: int
    strength: float

    def __post_init__(self):
        if self.n_start >= self.n_end:
            raise CurveError(f"empty cliff region [{self.n_start}, {self.n_end}]")
        if self.strength <= 0:
            raise CurveError("cliff strength must be positive")


def aggregate_trials(raw, metadata: dict | None = None) -> ScalingCurve:
    """Group (n, trial, error) records into a ScalingCurve.

    Records may arrive in any order; each (n, trial) pair must be unique,
    and the first duplicate in (n, trial) order is named. Trial errors are
    stored in trial order; the trial labels themselves are not kept, so
    trials 3 and 7 at one n are written out as trials 0 and 1.
    """
    records = []
    for n, trial, error in raw:
        try:
            records.append((operator.index(n), operator.index(trial), error))
        except TypeError:
            raise CurveError(f"n and trial must be integers, got record {(n, trial, error)!r}") from None
    records.sort(key=lambda r: r[:2])
    if not records:
        raise CurveError("no records to aggregate")
    points: list[tuple[int, list[float]]] = []
    for n, trial, error in records:
        if points and n == points[-1][0]:
            if trial == last_trial:
                raise CurveError(f"duplicate record for n={n}, trial={trial}")
        else:
            points.append((n, []))
        points[-1][1].append(float(error))
        last_trial = trial
    return ScalingCurve(points=tuple((n, tuple(errs)) for n, errs in points), metadata=metadata or {})


def check_n_grid(n_grid) -> list[int]:
    """The grid as a list of ints; CurveError unless nonempty, ascending and in [1, MAX_N]."""
    grid = [_check_n(n) for n in n_grid]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise CurveError(f"bad n grid {grid}: need a nonempty ascending list of positive integers")
    return grid


def check_floor(floor: float | None) -> None:
    """ValueError unless floor, the least error kept before logs, is None or finite and > 0."""
    if floor is not None and not 0 < floor < math.inf:
        raise ValueError(f"floor: must be finite and positive, got {floor}")


def run_cells(cell, n_grid, trials: int, metadata: dict) -> ScalingCurve:
    """The curve of ``cell(n, trial) -> error`` over the grid.

    Cells run in (n, trial) order, and each grid row's errors are stored
    in trial order. Every cell runs on one BLAS thread and draws only
    from streams keyed by its own (trial, n), so neither the order, the
    grid around it nor the process that runs a cell can change any
    result: a run that lasts past a short serial start spreads its
    remaining cells over forked processes on every usable CPU
    (``_parallel.run_split``). The caller's BLAS thread count is
    restored when the run returns or fails.
    """
    grid = check_n_grid(n_grid)
    if not 1 <= trials <= 2**32:
        # 2**32 trials are far beyond any run on one machine; each index fits a 64-bit key word.
        raise ValueError(f"trials: must be in [1, 2**32], got {trials}")

    def call(i: int) -> float:
        row, trial = divmod(i, trials)
        return cell(grid[row], trial)

    with _blas.blas_threads(1):
        errors, processes = _parallel.run_split(call, len(grid) * trials)
    points = tuple((n, tuple(errors[row * trials : (row + 1) * trials])) for row, n in enumerate(grid))
    return ScalingCurve(points=points, metadata=metadata, processes=processes)


def log_spaced_ns(n_min: int, n_max: int, points_per_decade: int = 10) -> list[int]:
    """Distinct integer sample counts, log-spaced between n_min and n_max."""
    if not 1 <= n_min < n_max <= MAX_N or points_per_decade < 1:
        raise CurveError(
            f"bad grid spec ({n_min}, {n_max}, {points_per_decade}): need 1 <= n_min < n_max <= 2**63 - 1 "
            "and points per decade >= 1"
        )
    k = int(math.ceil(points_per_decade * math.log10(n_max / n_min)))
    grid = [int(round(n_min * 10 ** (i / points_per_decade))) for i in range(k + 1)]
    grid.append(n_max)
    out: list[int] = []
    for n in grid:
        n = min(max(n, n_min), n_max)
        if not out or n > out[-1]:
            out.append(n)
    return out


def _distinct(ns: np.ndarray, keys: np.ndarray, what: str) -> None:
    """CurveError naming the first neighbouring n whose float64 keys do not increase."""
    same = np.flatnonzero(np.diff(keys) <= 0)
    if len(same):
        i = same[0]
        raise CurveError(
            f"n = {ns[i]} and n = {ns[i + 1]} have the same float64 {what}; "
            "the analysis needs distinct values"
        )


def _fit_values(curve: ScalingCurve, n_range, floor: float | None):
    """The curve's n values, as integers and as float64, and per-n medians.

    Restricted to n_range and clamped up to floor, which is checked
    first. CurveError if two of the n kept round to the same float64,
    which only n above 2**53 can.
    """
    check_floor(floor)
    ns = curve.ns
    vals = curve.statistic("median")
    if n_range is not None:
        lo, hi = n_range
        keep = (ns >= lo) & (ns <= hi)
        ns, vals = ns[keep], vals[keep]
    if floor is not None:
        vals = np.maximum(vals, floor)
    ns_float = ns.astype(float)
    _distinct(ns, ns_float, "value")
    return ns, ns_float, vals


# On extreme curves numpy meets zeros, infinities and overflow along the way
# (log(0) once E reaches an error, inf * 0 in a prediction). The search
# scores those candidates as infinite or NaN misfits and a fit that is not
# finite raises FitError, so the floating-point warnings carry nothing.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def fit_power_law(
    curve: ScalingCurve,
    n_range: tuple[int, int] | None = None,
    floor: float | None = None,
) -> PowerLawFit:
    """Fit ``A * n**-alpha + E`` by least squares on log error.

    The objective is the mean squared log-space misfit of the per-n
    median. E is located by golden-section search on
    [0, 0.999 * min error]; for each candidate E the remaining
    (log A, alpha) problem is ordinary least squares of log(err - E)
    against log n. Deterministic for fixed input. ValueError unless
    n_range, when given, has 1 <= n_min < n_max <= 2**63 - 1.
    """
    if n_range is not None and not 1 <= n_range[0] < n_range[1] <= MAX_N:
        raise ValueError(f"n_range: need 1 <= n_min < n_max <= 2**63 - 1, got {n_range}")
    ns_int, ns, vals = _fit_values(curve, n_range, floor)
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
        n_range=(int(ns_int[0]), int(ns_int[-1])),
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
    floor: float | None = DEFAULT_ERROR_FLOOR,
) -> list[tuple[int, float]]:
    """Centered second differences of log median error against log n.

    Uses the three-point formula for non-uniform grids, so imported
    curves with irregular n spacing are handled exactly. Values at or
    below the floor are clamped up to it before taking logs. Returns one
    (n, value) pair per interior grid point. CurveError if two neighbouring
    n have the same float64 log, as n and n + 1 do from about 2**47 on.
    """
    ns_int, ns, vals = _fit_values(curve, None, floor)
    if len(ns) < 3:
        raise CurveError(f"need at least 3 points for second differences, got {len(ns)}")
    if np.any(vals <= 0):
        raise CurveError("nonpositive median values; log undefined (set an error floor)")
    x = np.log(ns)
    _distinct(ns_int, x, "log")
    y = np.log(vals)
    out = []
    for i in range(1, len(ns) - 1):
        h0 = x[i] - x[i - 1]
        h1 = x[i + 1] - x[i]
        span = x[i + 1] - x[i - 1]
        d2 = 2.0 * (y[i - 1] * h1 - y[i] * span + y[i + 1] * h0) / (h0 * h1 * span)
        out.append((int(ns_int[i]), float(d2)))
    return out


def detect_cliffs(
    curve: ScalingCurve,
    threshold: float = DEFAULT_CLIFF_THRESHOLD,
    min_run: int = DEFAULT_MIN_RUN,
    floor: float | None = DEFAULT_ERROR_FLOOR,
) -> list[CliffRegion]:
    """Find maximal runs of log-log concavity of the per-n median below a threshold.

    A run of at least ``min_run`` consecutive second differences below
    ``threshold`` becomes a region spanning from the grid point before
    the run to the one after it (the full stencil the run rests on).
    A run whose region shares a grid point with the previous region
    joins it, and its strength adds to that region's; the result is
    disjoint and ordered. Each parameter is checked before the curve.
    """
    if not -math.inf < threshold <= 0:
        raise ValueError(f"threshold: must be finite and nonpositive, got {threshold}")
    if min_run < 1:
        raise ValueError(f"min_run: must be >= 1, got {min_run}")
    check_floor(floor)
    if len(curve.points) < min_run + 2:
        raise CurveError(
            f"need at least {min_run + 2} points to detect runs of {min_run}, got {len(curve.points)}"
        )
    values = [v for _, v in loglog_second_differences(curve, floor=floor)]
    ns = [n for n, _ in curve.points]
    regions: list[CliffRegion] = []
    start = 0
    for flagged, run in itertools.groupby(values, key=lambda v: v < threshold):
        run = list(run)
        stop = start + len(run)
        if flagged and len(run) >= min_run:
            # values[k] sits at grid index k+1, so the run rests on ns[start : stop + 2].
            n_start, strength = ns[start], -sum(run)
            if regions and n_start <= regions[-1].n_end:
                prev = regions.pop()
                n_start, strength = prev.n_start, prev.strength + strength
            regions.append(CliffRegion(n_start=n_start, n_end=ns[stop + 1], strength=strength))
        start = stop
    return regions
