"""Tests for curve aggregation, power-law fitting and cliff detection."""

import math
import os
import signal
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliffscale import _blas, _parallel
from cliffscale.curves import (
    CliffRegion,
    CurveError,
    FitError,
    PowerLawFit,
    ScalingCurve,
    aggregate_trials,
    check_n_grid,
    detect_cliffs,
    fit_power_law,
    log_spaced_ns,
    loglog_second_differences,
    powerlaw_loglog_convexity,
    run_cells,
)
from cliffscale.gaussian import GaussianTask, approx_error
from cliffscale.harmonic.training import DivergenceError

PHI_MINUS_1 = 0.15865525393145705  # high-precision erf oracle, frozen


def curve_from_fn(ns, fn, trials=1):
    return aggregate_trials([(n, t, fn(n)) for n in ns for t in range(trials)])


class TestScalingCurve:
    def test_invariants_enforced(self):
        with pytest.raises(CurveError):
            ScalingCurve(points=((10, (0.5,)), (10, (0.2,))))
        with pytest.raises(CurveError):
            ScalingCurve(points=((10, ()),))
        with pytest.raises(CurveError):
            ScalingCurve(points=((10, (-0.1,)),))
        with pytest.raises(CurveError):
            ScalingCurve(points=((10, (float("nan"),)),))
        with pytest.raises(CurveError):
            ScalingCurve(points=((10, (float("inf"),)),))

    def test_numpy_integer_n_is_stored_as_int(self):
        curve = ScalingCurve(points=((np.int64(3), (0.5,)), (np.uint32(10), (0.25,))))
        assert curve.points == ((3, (0.5,)), (10, (0.25,)))
        assert all(type(n) is int for n, _ in curve.points)

    def test_n_above_int64_rejected(self):
        # ns holds n as int64; such a curve used to be accepted and then
        # died with an OverflowError when plotted.
        ScalingCurve(points=((2**63 - 1, (0.5,)),))
        with pytest.raises(CurveError, match=r"2\*\*63"):
            ScalingCurve(points=((10, (0.5,)), (2**63, (0.1,))))

    @pytest.mark.parametrize("n", [3.0, np.float64(3.0), 5.5, "3"])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(CurveError, match="integers"):
            ScalingCurve(points=((n, (0.5,)),))

    def test_metadata_values_are_stored_as_str(self):
        curve = ScalingCurve(points=((2, (0.5,)),), metadata={"d": 4, "s": 0.5, "task": "x"})
        assert curve.metadata == {"d": "4", "s": "0.5", "task": "x"}
        merged = ScalingCurve(points=curve.points, metadata={**curve.metadata, "B": 2, "s": 1.0})
        assert merged.metadata == {"B": "2", "d": "4", "s": "1.0", "task": "x"}

    def test_statistics_deterministic(self):
        curve = aggregate_trials([(10, 0, 0.5), (10, 1, 0.3), (100, 0, 0.1)])
        assert curve.statistic("median").tolist() == [0.4, 0.1]
        assert curve.statistic("min").tolist() == [0.3, 0.1]
        assert curve.statistic("max").tolist() == [0.5, 0.1]

    @pytest.mark.parametrize("which", ["median", "min", "max"])
    def test_each_statistic_is_computed_once_and_read_only(self, which):
        curve = aggregate_trials([(10, 0, 0.5), (10, 1, 0.3), (100, 0, 0.1)])
        first = curve.statistic(which)
        assert curve.statistic(which) is first
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 1.0
        assert curve == aggregate_trials([(10, 0, 0.5), (10, 1, 0.3), (100, 0, 0.1)])

    def test_median_near_the_float_maximum_does_not_overflow(self):
        # np.median sums the two middle values; where that overflows the
        # median is a/2 + b/2, and every other median is np.median's.
        rows = ((1e308, 1e308), (1.7e308, 1.0, 1.7e308, 1e308), (0.5, 0.3), (0.1,), (0.01,))
        curve = ScalingCurve(points=tuple(zip((2, 3, 5, 8, 13), rows)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            med = curve.statistic("median").tolist()
            detect_cliffs(curve)
        assert med == [1e308, 1.7e308 / 2 + 1e308 / 2, 0.4, 0.1, 0.01]


class TestAggregateTrials:
    def test_groups_by_n(self):
        curve = aggregate_trials([(10, 0, 0.5), (10, 1, 0.3), (100, 0, 0.1)])
        assert curve.ns.tolist() == [10, 100]
        assert dict(curve.points)[10] == (0.5, 0.3)
        assert dict(curve.points)[100] == (0.1,)

    def test_empty_input_errors(self):
        with pytest.raises(CurveError):
            aggregate_trials([])

    def test_duplicate_key_errors(self):
        with pytest.raises(CurveError, match="duplicate"):
            aggregate_trials([(10, 0, 0.5), (10, 0, 0.6)])

    def test_fractional_n_or_trial_rejected_with_its_record(self):
        with pytest.raises(CurveError, match=r"\(5\.5, 0, 0\.1\)"):
            aggregate_trials([(5.5, 0, 0.1), (7, 0.9, 0.2)])
        with pytest.raises(CurveError, match=r"\(7, 0\.9, 0\.2\)"):
            aggregate_trials([(5, 0, 0.1), (7, 0.9, 0.2)])
        with pytest.raises(CurveError, match="integers"):
            aggregate_trials([(np.float64(7.0), 0, 0.2)])

    def test_numpy_integers_accepted(self):
        curve = aggregate_trials([(np.int64(5), np.int32(1), 0.1), (np.uint8(5), np.int64(0), 0.2)])
        assert curve.points == ((5, (0.2, 0.1)),)

    def test_order_independent(self):
        records = [(100, 0, 0.1), (10, 1, 0.3), (1000, 0, 0.05), (10, 0, 0.5)]
        shuffled = [records[i] for i in (2, 0, 3, 1)]
        assert aggregate_trials(records).points == aggregate_trials(shuffled).points

    # Any order of the records gives the curve of the sorted records, or the
    # same duplicate error.
    @given(
        cells=st.lists(st.tuples(st.integers(1, 6), st.integers(0, 6)), min_size=1, max_size=20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shuffled_records_aggregate_to_the_sorted_curve(self, cells, seed):
        records = sorted((n, t, float(i)) for i, (n, t) in enumerate(cells))
        shuffled = [records[i] for i in np.random.default_rng(seed).permutation(len(records))]
        if len(set(cells)) < len(cells):
            for rows in (records, shuffled):
                with pytest.raises(CurveError, match="duplicate"):
                    aggregate_trials(rows)
            return
        by_n: dict[int, list[float]] = {}
        for n, _, e in records:
            by_n.setdefault(n, []).append(e)
        want = tuple((n, tuple(errs)) for n, errs in by_n.items())
        assert aggregate_trials(records).points == aggregate_trials(shuffled).points == want


class TestRunCells:
    def test_cells_run_in_n_index_then_trial_order(self):
        visits = []

        def cell(n, trial):
            visits.append((n, trial))
            return n + trial / 10

        curve = run_cells(cell, [3, 7, 20], 2, {})
        assert visits == [(3, 0), (3, 1), (7, 0), (7, 1), (20, 0), (20, 1)]
        assert curve.points == ((3, (3.0, 3.1)), (7, (7.0, 7.1)), (20, (20.0, 20.1)))

    def test_rows_hold_errors_in_trial_order(self):
        curve = run_cells(lambda n, trial: 1.0 / (1 + trial), [5, 50], 4, {})
        assert dict(curve.points)[5] == dict(curve.points)[50] == (1.0, 0.5, 1 / 3, 0.25)

    def test_metadata_values_are_stored_as_str(self):
        meta = {"task": "demo", "d": 3, "s": 0.1, "seed": np.uint64(7)}
        curve = run_cells(lambda n, trial: 0.5, [2], 1, meta)
        assert curve.metadata == {"task": "demo", "d": "3", "s": "0.1", "seed": "7"}
        assert meta["d"] == 3  # the caller's dict is left as it was

    def test_numpy_errors_come_back_as_python_floats(self):
        curve = run_cells(lambda n, trial: np.float64(0.25) * (trial + 1), [2, 4], 2, {})
        assert curve.points == ((2, (0.25, 0.5)), (4, (0.25, 0.5)))
        assert all(type(e) is float for _, errs in curve.points for e in errs)

    def test_needs_a_trial(self):
        with pytest.raises(ValueError, match="trial"):
            run_cells(lambda n, trial: 0.0, [3, 7], 0, {})

    def test_rejects_a_descending_grid(self):
        with pytest.raises(CurveError, match="grid"):
            run_cells(lambda n, trial: 0.0, [7, 3], 1, {})


def cell_value(n, trial):
    return n + trial / 10


# The same 12-cell grid in every split test: cell i is GRID[i // 3], trial i % 3.
GRID, TRIALS = [2, 5, 9, 20], 3
needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(_parallel.usable_cpus()) < 2,
    reason="needs CPU affinity and at least two usable CPUs",
)


def index(n, trial):
    return GRID.index(n) * TRIALS + trial


def outcome(run):
    """What a run gives its caller: ("ok", points) or ("raised", type, message)."""
    try:
        return "ok", run().points
    except Exception as exc:
        return "raised", type(exc), str(exc)


def serially(run):
    """run(), with every cell run in this process."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_parallel, "SERIAL_START_S", math.inf)
        return run()


class TestSplitCells:
    """A run split between processes gives the serial run's curve, exception or warnings."""

    def test_tiny_runs_stay_in_this_process(self):
        assert run_cells(cell_value, GRID, TRIALS, {}).processes == 1

    def test_split_curve_equals_the_serial_curve(self, split_cells):
        open_fds = os.listdir("/proc/self/fd")
        curve = run_cells(cell_value, GRID, TRIALS, {"task": "demo"})
        assert curve == serially(lambda: run_cells(cell_value, GRID, TRIALS, {"task": "demo"}))
        assert curve.processes == min(len(_parallel.usable_cpus()), len(GRID) * TRIALS)
        assert os.listdir("/proc/self/fd") == open_fds

    def test_a_single_cell_is_not_split(self, split_cells):
        assert run_cells(cell_value, [3], 1, {}).processes == 1

    @needs_affinity
    def test_shares_interleave_and_each_process_has_its_own_cpus(self, split_cells):
        # Each cell returns its process's affinity mask; process w of k runs
        # cells w, w + k, ... on every k-th usable CPU from the w-th.
        cpus = _parallel.usable_cpus()
        if max(cpus) > 50:
            pytest.skip("a CPU number too high for an exact float mask")
        before = os.sched_getaffinity(0)
        curve = run_cells(
            lambda n, trial: float(sum(1 << c for c in os.sched_getaffinity(0))), GRID, TRIALS, {}
        )
        k = curve.processes
        assert k == min(len(cpus), len(GRID) * TRIALS) >= 2
        masks = [e for _, errs in curve.points for e in errs]
        assert masks == [float(sum(1 << c for c in cpus[i % k :: k])) for i in range(len(masks))]
        assert os.sched_getaffinity(0) == before

    @needs_affinity
    @pytest.mark.skipif(_blas.thread_count() is None, reason="numpy's BLAS has no thread control")
    @pytest.mark.parametrize("count", [1, 2])
    def test_every_process_runs_its_cells_on_one_blas_thread(self, split_cells, count):
        parent = os.getpid()
        with _blas.blas_threads(count):
            curve = run_cells(
                lambda n, trial: float(_blas.thread_count()) + (os.getpid() != parent) / 2,
                GRID, TRIALS, {},
            )
            assert _blas.thread_count() == count
        # The 0.5 marks a cell that a child ran: the odd cells, with two processes.
        errs = [e for _, row in curve.points for e in row]
        assert {math.floor(e) for e in errs} == {1}
        assert {e % 1 for e in errs[1::curve.processes]} == {0.5}

    @needs_affinity
    @pytest.mark.parametrize(
        "failing",
        [{index(5, 0)}, {index(5, 1)}, {index(5, 0), index(9, 0)}, {index(5, 1), index(9, 1)}, {index(20, 2)}],
        ids=["child", "parent-mid-run", "child-first", "parent-first", "last"],
    )
    def test_a_raising_cell_gives_the_serial_exception(self, split_cells, failing):
        # DivergenceError(step) comes back from pickling with its message garbled, so a child must not send it.
        def cell(n, trial):
            if index(n, trial) in failing:
                raise DivergenceError(index(n, trial))
            return cell_value(n, trial)

        serial = serially(lambda: outcome(lambda: run_cells(cell, GRID, TRIALS, {})))
        assert serial == ("raised", DivergenceError, str(DivergenceError(min(failing))))
        assert outcome(lambda: run_cells(cell, GRID, TRIALS, {})) == serial

    @needs_affinity
    @pytest.mark.parametrize("action", ["always", "error", "ignore"])
    def test_a_warning_cell_gives_the_serial_warnings(self, split_cells, action):
        def cell(n, trial):
            if index(n, trial) in (3, 6, 7):
                warnings.warn(f"cell {index(n, trial)}", UserWarning)
            return cell_value(n, trial)

        def run():
            return outcome(lambda: run_cells(cell, GRID, TRIALS, {}))

        runs = {}
        for split in (False, True):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                result = run() if split else serially(run)
            runs[split] = result, [str(w.message) for w in caught]
        assert runs[True] == runs[False]
        assert runs[False][1] == (["cell 3", "cell 6", "cell 7"] if action == "always" else [])

    @needs_affinity
    def test_a_child_that_dies_is_made_good_here(self, split_cells):
        parent = os.getpid()

        def cell(n, trial):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return cell_value(n, trial)

        curve = run_cells(cell, GRID, TRIALS, {})
        assert curve == serially(lambda: run_cells(cell_value, GRID, TRIALS, {}))
        assert curve.processes == 1

    @needs_affinity
    def test_a_failed_fork_leaves_the_cells_to_this_process(self, split_cells, monkeypatch):
        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        open_fds = os.listdir("/proc/self/fd")
        monkeypatch.setattr(os, "fork", no_fork)
        curve = run_cells(cell_value, GRID, TRIALS, {})
        assert curve == serially(lambda: run_cells(cell_value, GRID, TRIALS, {}))
        assert curve.processes == 1
        assert os.listdir("/proc/self/fd") == open_fds

    @needs_affinity
    def test_an_interrupt_kills_the_children(self, split_cells):
        # The children's share would take 10 s; the parent's own second cell
        # is interrupted at once, and every child is killed and reaped.
        parent = os.getpid()

        def cell(n, trial):
            if os.getpid() != parent:
                time.sleep(10 / len(GRID) / TRIALS)
            elif index(n, trial) > 0:
                raise KeyboardInterrupt
            return cell_value(n, trial)

        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_cells(cell, GRID, TRIALS, {})
        assert time.perf_counter() - started < 5
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestCheckNGrid:
    # int() truncated 2.5 to 2 and ran the grid at n = 2, and n >= 2**63
    # passed until the finished curve overflowed its int64 ns.
    @pytest.mark.parametrize("grid", [[2.5, 10], [np.float64(2.7), 5], [], [0, 5], [5, 5], [10, 2**63]])
    def test_bad_grid_rejected(self, grid):
        with pytest.raises(CurveError):
            check_n_grid(grid)

    def test_int64_bound_accepted(self):
        assert check_n_grid([np.uint8(10), 2**63 - 1]) == [10, 2**63 - 1]


class TestFitPowerLaw:
    def test_recovers_exact_parameters(self):
        ns = [10, 100, 1000, 10_000, 100_000]
        fit = fit_power_law(curve_from_fn(ns, lambda n: 2.0 * n**-0.5 + 0.1))
        assert abs(fit.A - 2.0) / 2.0 < 0.01
        assert abs(fit.alpha - 0.5) / 0.5 < 0.01
        assert abs(fit.E - 0.1) / 0.1 < 0.01
        assert fit.residual < 1e-6

    def test_constant_curve(self):
        ns = [10, 100, 1000, 10_000]
        fit = fit_power_law(curve_from_fn(ns, lambda n: 0.3))
        assert fit.alpha < 1e-6 or fit.A < 1e-6
        assert np.allclose(fit.predict(np.array(ns)), 0.3, atol=1e-9)
        assert fit.residual < 1e-6

    def test_gaussian_tail_recovers_irreducible_error(self):
        # Closed-form classifier curve: its large-n tail behaves like a
        # power law above the floor Phi(-1).
        task = GaussianTask(d=100, s=1.0)
        ns = log_spaced_ns(1000, 100_000, 10)
        fit = fit_power_law(curve_from_fn(ns, lambda n: approx_error(task, n)))
        assert abs(fit.E - PHI_MINUS_1) < 0.005

    def test_too_few_points(self):
        with pytest.raises(FitError, match="4 points"):
            fit_power_law(curve_from_fn([1, 2, 3], lambda n: 1.0 / n))

    def test_zero_errors_rejected(self):
        ns = [1, 10, 100, 1000]
        with pytest.raises(FitError, match="log"):
            fit_power_law(curve_from_fn(ns, lambda n: 0.0))

    def test_invariant_under_trial_duplication(self):
        ns = [10, 100, 1000, 10_000]
        rng = np.random.default_rng(3)
        errs = {n: 1.5 * n**-0.7 + 0.02 * (1 + 0.1 * rng.standard_normal()) for n in ns}
        single = aggregate_trials([(n, 0, errs[n]) for n in ns])
        tripled = aggregate_trials([(n, t, errs[n]) for n in ns for t in range(3)])
        f1, f3 = fit_power_law(single), fit_power_law(tripled)
        assert (f1.A, f1.alpha, f1.E) == (f3.A, f3.alpha, f3.E)

    def test_respects_n_range(self):
        ns = [1, 3, 10, 100, 1000, 10_000, 100_000]
        fit = fit_power_law(
            curve_from_fn(ns, lambda n: 2.0 * n**-0.5 + 0.1), n_range=(10, 100_000)
        )
        assert fit.n_range == (10, 100_000)


class TestConvexity:
    def test_degenerate_parameters_give_zero(self):
        for fit in (
            PowerLawFit(A=0, alpha=1, E=1, residual=0, n_range=(1, 10)),
            PowerLawFit(A=1, alpha=0, E=1, residual=0, n_range=(1, 10)),
            PowerLawFit(A=1, alpha=1, E=0, residual=0, n_range=(1, 10)),
        ):
            for x in (-5.0, 0.0, 5.0):
                assert powerlaw_loglog_convexity(fit, x) == 0.0

    def test_unit_case(self):
        fit = PowerLawFit(A=1, alpha=1, E=1, residual=0, n_range=(1, 10))
        assert powerlaw_loglog_convexity(fit, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            A, alpha, E = rng.uniform(0, 10, size=3)
            fit = PowerLawFit(A=A, alpha=alpha, E=E, residual=0, n_range=(1, 10))
            for x in rng.uniform(-10, 10, size=20):
                assert powerlaw_loglog_convexity(fit, float(x)) >= 0.0

    def test_extreme_arguments_stay_finite(self):
        fit = PowerLawFit(A=1e3, alpha=1e3, E=1e-3, residual=0, n_range=(1, 10))
        for x in (-50.0, 0.0, 50.0, 1e6):
            v = powerlaw_loglog_convexity(fit, x)
            assert math.isfinite(v) and v >= 0.0


class TestSecondDifferences:
    def test_pure_power_law_is_flat(self):
        ns = log_spaced_ns(1, 100_000, 10)
        sd = loglog_second_differences(curve_from_fn(ns, lambda n: 3.0 * n**-0.8))
        assert max(abs(v) for _, v in sd) < 1e-9

    def test_exponential_decay_is_concave(self):
        sd = loglog_second_differences(
            curve_from_fn(range(1, 21), lambda n: math.exp(-n)), floor=None
        )
        assert all(v < 0 for _, v in sd)

    def test_power_law_with_floor_never_concave(self):
        ns = log_spaced_ns(1, 100_000, 10)
        sd = loglog_second_differences(curve_from_fn(ns, lambda n: n**-1.0 + 0.01))
        assert all(v >= -1e-6 for _, v in sd)

    def test_needs_three_points(self):
        with pytest.raises(CurveError, match="3 points"):
            loglog_second_differences(curve_from_fn([1, 10], lambda n: 1.0 / n))

    def test_matches_closed_form_at_second_order(self):
        # Discrete second differences of sampled fits converge at O(h^2):
        # halving the log-grid step should shrink the worst gap by >= 3x.
        # n starts at 1e5 so integer rounding jitter (~1/n) stays far below
        # the O(h^2) truncation term being measured.
        fit = PowerLawFit(A=2000.0, alpha=0.6, E=0.05, residual=0, n_range=(10**5, 10**9))

        def max_gap(points_per_decade):
            ns = np.unique(
                np.round(1e5 * 10 ** (np.arange(0, 4 * points_per_decade + 1) / points_per_decade))
            ).astype(np.int64)
            curve = curve_from_fn(ns.tolist(), lambda n: float(fit.predict(n)))
            sd = loglog_second_differences(curve)
            return max(
                abs(v - powerlaw_loglog_convexity(fit, math.log(n))) for n, v in sd
            )

        assert max_gap(40) / max_gap(80) >= 3.0



class TestNAsFloat64:
    """The analysis reads n as float64; n it cannot tell apart are refused by name."""

    TOP = [2**63 - 4, 2**63 - 3, 2**63 - 2, 2**63 - 1]  # all round to 2**63

    def test_second_differences_name_n_with_one_float64_value(self):
        # This was a 0/0 second difference, a NaN that detect_cliffs skipped.
        curve = curve_from_fn(self.TOP[1:], lambda n: 0.5)
        with pytest.raises(CurveError, match=f"n = {2**63 - 3} and n = {2**63 - 2} have the same float64 value"):
            loglog_second_differences(curve)

    def test_second_differences_name_n_with_one_float64_log(self):
        # Distinct float64 values whose logs round to the same float64.
        ns = [2**52, 2**52 + 1, 2**52 + 2]
        assert len(set(map(float, ns))) == 3
        with pytest.raises(CurveError, match=f"n = {2**52} and n = {2**52 + 1} have the same float64 log"):
            loglog_second_differences(curve_from_fn(ns, lambda n: 0.5))

    def test_fit_names_n_with_one_float64_value(self):
        # This was FitError: degenerate fit range (2**63, 2**63), n not on the curve.
        curve = curve_from_fn(self.TOP, lambda n: 0.5)
        with pytest.raises(CurveError, match=f"n = {2**63 - 4} and n = {2**63 - 3}"):
            fit_power_law(curve)

    def test_fit_range_holds_the_curve_own_n(self):
        ns = [10, 100, 1000, 2**60 + 1]  # 2**60 + 1 rounds to 2**60
        fit = fit_power_law(curve_from_fn(ns, lambda n: 2.0 * float(n) ** -0.5 + 0.1))
        assert fit.n_range == (10, 2**60 + 1)

    def test_distinct_logs_pass_up_to_the_largest_n(self):
        ns = [2**62, 2**62 + 2**20, 2**63 - 1]
        assert [n for n, _ in loglog_second_differences(curve_from_fn(ns, lambda n: 0.5))] == [2**62 + 2**20]


class TestDetectCliffs:
    def test_power_law_curves_are_cliff_free(self):
        rng = np.random.default_rng(11)
        ns = log_spaced_ns(1, 100_000, 10)
        for _ in range(50):
            A, alpha, E = 10 ** rng.uniform(-3, 3, size=3)
            fit = PowerLawFit(A=A, alpha=alpha, E=E, residual=0, n_range=(1, 10))
            curve = curve_from_fn(ns, lambda n: float(fit.predict(n)))
            assert detect_cliffs(curve) == []

    def test_gaussian_closed_form_has_one_cliff(self):
        # Exact differentiation of the closed form puts its log-log
        # inflection at n ~ 20.4 for d=100, s=2, so the single concave
        # region ends just below the knee n = d/s^2 = 25.
        task = GaussianTask(d=100, s=2.0)
        ns = log_spaced_ns(1, 10_000, 10)
        curve = curve_from_fn(ns, lambda n: approx_error(task, n))
        regions = detect_cliffs(curve)
        assert len(regions) == 1
        assert regions[0].n_start <= 2
        assert 16 <= regions[0].n_end <= 25
        assert regions[0].strength > 0

    def test_region_fields_validated(self):
        with pytest.raises(CurveError):
            CliffRegion(n_start=5, n_end=5, strength=1.0)
        with pytest.raises(CurveError):
            CliffRegion(n_start=5, n_end=6, strength=0.0)

    def test_threshold_must_be_nonpositive(self):
        ns = [1, 2, 4, 8, 16]
        curve = curve_from_fn(ns, lambda n: 1.0 / n)
        with pytest.raises(ValueError, match="nonpositive"):
            detect_cliffs(curve, threshold=0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, value):
        # A NaN threshold used to flag nothing on this one-cliff curve.
        task = GaussianTask(d=100, s=2.0)
        curve = curve_from_fn(log_spaced_ns(1, 10_000, 10), lambda n: approx_error(task, n))
        with pytest.raises(ValueError, match="threshold"):
            detect_cliffs(curve, threshold=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_floor_rejected(self, value):
        # A NaN floor used to make every second difference NaN, so no cliff was flagged.
        task = GaussianTask(d=100, s=2.0)
        curve = curve_from_fn(log_spaced_ns(1, 10_000, 10), lambda n: approx_error(task, n))
        for analysis in (detect_cliffs, loglog_second_differences, fit_power_law):
            with pytest.raises(ValueError, match="floor"):
                analysis(curve, floor=value)

    def test_needs_enough_points(self):
        curve = curve_from_fn([1, 2, 4], lambda n: 1.0 / n)
        with pytest.raises(CurveError, match="points"):
            detect_cliffs(curve, min_run=2)

    def test_regions_disjoint_and_ordered(self):
        # A curve with two separated concave dips.
        def dip(n, center, depth=3.0, width=0.25):
            return math.exp(-depth * math.exp(-((math.log10(n / center)) ** 2) / width))

        ns = log_spaced_ns(1, 100_000, 10)
        curve = curve_from_fn(ns, lambda n: dip(n, 30) * dip(n, 3000))
        regions = detect_cliffs(curve)
        assert len(regions) >= 2
        for a, b in zip(regions, regions[1:]):
            assert a.n_end <= b.n_start
        assert all(r.strength > 0 for r in regions)

    @pytest.mark.parametrize(
        "pattern, min_run, spans",
        [
            # The runs at interior points 1-2 and 4-5 span [1, 1000] and [1000, 10^6], which touch.
            ((-1, -1, 1, -1, -1), 2, [(0, 6)]),
            # Runs two points apart span [1, 1000] and [10^4, 10^7], which do not.
            ((-1, -1, 1, 1, -1, -1), 2, [(0, 3), (4, 7)]),
            # The one-point run at 10^4 is too short to count, so it bridges nothing.
            ((-1, -1, 1, -1, 1, -1, -1), 2, [(0, 3), (5, 8)]),
            # At min_run 1 it counts, touches both neighbours and joins them.
            ((-1, -1, 1, -1, 1, -1, -1), 1, [(0, 8)]),
        ],
        ids=["touching", "two-apart", "short-run-between", "short-run-bridges"],
    )
    def test_touching_runs_merge_into_one_region(self, pattern, min_run, spans):
        # Second differences c * pattern on the grid n = 10^k, c = 1 / ln(10)^2;
        # spans are (first, last) grid indices of the expected regions.
        ns = [10**k for k in range(len(pattern) + 2)]
        log_err = [-10.0, -10.0]
        for d2 in pattern:
            log_err.append(2 * log_err[-1] - log_err[-2] + d2)
        curve = ScalingCurve(points=tuple((n, (math.exp(y),)) for n, y in zip(ns, log_err)))
        seconds = [v for _, v in loglog_second_differences(curve)]
        regions = detect_cliffs(curve, min_run=min_run)
        assert [(r.n_start, r.n_end) for r in regions] == [(ns[a], ns[b]) for a, b in spans]
        for region, (a, b) in zip(regions, spans):
            # seconds[k] sits at grid index k + 1, so a region [a, b] rests on seconds[a : b - 1].
            flagged = [v for v in seconds[a : b - 1] if v < 0]
            assert region.strength == pytest.approx(-sum(flagged))
            assert region.strength == pytest.approx(len(flagged) / math.log(10) ** 2)


@pytest.mark.parametrize(
    "analysis, kwargs, name",
    [
        (fit_power_law, dict(n_range=(8, 2)), "n_range"),
        (fit_power_law, dict(n_range=(0, 10)), "n_range"),
        (fit_power_law, dict(n_range=(1, 2**63)), "n_range"),
        (fit_power_law, dict(floor=0.0), "floor"),
        (fit_power_law, dict(floor=-1.0), "floor"),
        (loglog_second_differences, dict(floor=math.nan), "floor"),
        (detect_cliffs, dict(threshold=0.1), "threshold"),
        (detect_cliffs, dict(threshold=-math.inf), "threshold"),
        (detect_cliffs, dict(min_run=0), "min_run"),
        (detect_cliffs, dict(floor=math.inf), "floor"),
    ],
    ids=["n_range-inverted", "n_range-zero", "n_range-above-int64", "fit-floor-zero", "fit-floor-negative",
         "differences-floor-nan", "threshold-positive", "threshold-inf", "min_run-zero", "cliffs-floor-inf"],
)
def test_a_bad_parameter_is_refused_before_the_curve(analysis, kwargs, name):
    # A single zero error is too little data for every analysis; a bad
    # parameter is still named first, as a plain ValueError.
    with pytest.raises(ValueError) as refused:
        analysis(ScalingCurve(points=((1, (0.0,)),)), **kwargs)
    assert type(refused.value) is ValueError
    assert str(refused.value).startswith(f"{name}: ")


class TestLogSpacedNs:
    def test_endpoints_and_monotone(self):
        grid = log_spaced_ns(10, 1000, 10)
        assert grid[0] == 10 and grid[-1] == 1000
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert 50 in grid and 100 in grid

    def test_bad_spec_rejected(self):
        with pytest.raises(CurveError):
            log_spaced_ns(0, 100, 10)
        with pytest.raises(CurveError):
            log_spaced_ns(100, 100, 10)
        with pytest.raises(CurveError, match=r"2\*\*63"):
            log_spaced_ns(10, 2**63, 10)


POSITIVE_ERRORS = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


@given(
    st.lists(
        st.tuples(st.integers(1, 10**12), st.lists(POSITIVE_ERRORS, min_size=1, max_size=3)),
        min_size=1,
        max_size=10,
        unique_by=lambda point: point[0],
    )
)
def test_fit_power_law_returns_a_valid_fit_or_fit_error(points):
    curve = aggregate_trials([(n, t, e) for n, errs in points for t, e in enumerate(errs)])
    try:
        fit = fit_power_law(curve)
    except FitError:
        return
    assert all(math.isfinite(v) and v >= 0 for v in (fit.A, fit.alpha, fit.E, fit.residual))
    assert fit.n_range == (int(curve.ns[0]), int(curve.ns[-1]))


# Fits of extreme curves (errors at n = 2..5) as fit_power_law returned them
# while numpy still warned inside it; None is a FitError. Silencing the
# warnings must change none of them.
EXTREME_FITS = {
    "huge-first": ([[7.6e199], [1.0], [1.0], [1.0]], (1.787987301803083e308, 501.22068295357315, 0.999, 93.71099061437357)),
    "all-5e-324": ([[5e-324]] * 4, (5e-324, 1.7616292177500755e-13, 0.0, 0.0)),
    "down-to-5e-324": ([[1.0], [1e-100], [1e-300], [5e-324]], None),
    "drop-to-5e-324": ([[1.0], [0.5], [1e-300], [5e-324]], None),
    "median-overflows": ([[1e308, 1e308], [1.0], [1.0], [1.0]], None),
}


@pytest.mark.parametrize("errors, want", list(EXTREME_FITS.values()), ids=list(EXTREME_FITS))
def test_extreme_curves_fit_as_before_without_warnings(errors, want):
    curve = aggregate_trials([(n, t, e) for n, errs in zip(range(2, 6), errors) for t, e in enumerate(errs)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want is None:
            with pytest.raises(FitError):
                fit_power_law(curve)
            return
        fit = fit_power_law(curve)
    assert (fit.A, fit.alpha, fit.E, fit.residual, fit.n_range) == (*want, (2, 5))
