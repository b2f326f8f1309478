"""Span tracing for the benchmark's traced run, applied from outside the package.

A `Tracer` wraps public cliffscale functions at each layer boundary by
replacing the name in the namespace where its caller looks it up, and
restores every name when the run ends. Each call records one span
(id, name, start, end, parent id, thread id, failed) in memory; counters
computed from argument shapes ride along. Nothing under ``src/`` is
changed, and the wrappers call the original functions unchanged, so a
traced run writes the same bytes as an untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# One span: (span id, layer name, start, end, parent span id or -1,
# thread id, whether the call raised).
Span = tuple[int, str, float, float, int, int, bool]

# Counter hook: (bound arguments, result) -> {counter name: increment}.
Counter = Callable[[dict, object], dict]


@dataclass(frozen=True)
class Patch:
    """Replace ``owner.attr`` by a traced wrapper recording spans as ``name``."""

    owner: object
    attr: str
    name: str
    count: Counter | None = None


class Tracer:
    """In-memory span and counter recorder; create one per traced pipeline."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        # Spans opened by pool threads have no enclosing span of their own
        # thread; they belong to the span open in the thread that traces.
        self._root_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        try:
            return self._root_stack[-1]
        except IndexError:
            return -1

    def wrap(self, name: str, fn, count: Counter | None = None):
        """Return ``fn`` wrapped to record a span (and counters) per call."""
        signature = inspect.signature(fn) if count else None

        # updated=() keeps a wrapped class's attributes off the wrapper function.
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, threading.get_ident(), failed))
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.add(count(bound.arguments, result))
            return result

        return traced

    def add(self, increments: dict) -> None:
        with self._lock:
            for key, value in increments.items():
                self.counters[key] += value

    @contextlib.contextmanager
    def installed(self, patches: list[Patch]):
        """Apply every patch for the duration of the block, then restore."""
        saved = []
        try:
            for p in patches:
                original = getattr(p.owner, p.attr)
                saved.append((p.owner, p.attr, original))
                setattr(p.owner, p.attr, self.wrap(p.name, original, p.count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """Dump the recorded spans as CSV, one row per span."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start,end,parent,thread,failed\n")
            for sid, name, start, end, parent, tid, failed in self.spans:
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{tid},{int(failed)}\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children may run in other threads and overlap each other; their
    union is subtracted once, so a parent's self time is the time during
    which none of its children was running.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, []), start, end)
        for sid, _, start, end, _, _, _ in spans
    }


def layer_metrics(tracer: Tracer, names: list[str]) -> dict[str, float]:
    """Per-layer ``calls``, ``self_s`` and ``errors`` for every name, plus counters.

    Names that were never called report zeros, so every traced run
    yields the same metric set.
    """
    own = self_times(tracer.spans)
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.errors"] = 0
    for sid, name, _, _, _, _, failed in tracer.spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own[sid]
        out[f"{name}.errors"] += int(failed)
    out.update(tracer.counters)
    return out


def parallelism(spans: list[Span], name: str) -> float:
    """Summed duration of the direct children of ``name`` spans over their own duration.

    Above 1 only when children overlap in time, i.e. ran on several threads.
    """
    ids = {sid: end - start for sid, n, start, end, _, _, _ in spans if n == name}
    total = sum(ids.values())
    child = sum(end - start for _, _, start, end, parent, _, _ in spans if parent in ids)
    return child / total if total > 0 else 0.0


def _forward_flop(model, rows: int) -> float:
    return sum(2.0 * rows * w.shape[0] * w.shape[1] for w in model.weights)


def _count_forward(args: dict, result) -> dict:
    rows = len(args["xs"])
    return {
        "harmonic.network.mlp_forward_batch.rows": rows,
        "harmonic.network.mlp_forward_batch.gflop": _forward_flop(args["model"], rows) / 1e9,
    }


def _count_backward(args: dict, result) -> dict:
    # Weight gradients for every layer plus the delta product for all but the first.
    model, rows = args["model"], len(args["cache"][0])
    first = model.weights[0]
    flop = 2.0 * _forward_flop(model, rows) - 2.0 * rows * first.shape[0] * first.shape[1]
    return {"harmonic.network.mlp_backward.gflop": flop / 1e9}


def _count_nn(args: dict, result) -> dict:
    # The query-to-training distance product dominates; smaller terms are left out.
    return {"linreg.nn_test_mse.gflop": 2.0 * args["n_test"] * len(args["data"]) * args["task"].d / 1e9}


def _count_steps(args: dict, result) -> dict:
    return {"harmonic.training.steps": result.steps}


def _count_bytes(args: dict, result) -> dict:
    return {"curve_io.write_curve_csv.bytes": os.path.getsize(args["path"])}


def _count_rows(args: dict, result) -> dict:
    return {"curve_io.read_curve_csv.rows": sum(len(errs) for _, errs in result.points)}


def cliffscale_patches() -> list[Patch]:
    """Every wrapped layer boundary, at the name each caller looks up."""
    from cliffscale import cli, curve_io, gaussian, linreg, streams
    from cliffscale.harmonic import basis, training

    return [
        Patch(streams, "stream", "streams.stream"),
        Patch(gaussian, "sample_error_sufficient", "gaussian.sample_error_sufficient"),
        Patch(gaussian, "sample_chi_squared", "gaussian.sample_chi_squared"),
        Patch(gaussian, "simulate_error", "gaussian.simulate_error"),
        Patch(linreg, "sample_task", "linreg.sample_task"),
        Patch(linreg, "sample_dataset", "linreg.sample_dataset"),
        Patch(linreg, "fit_least_squares", "linreg.fit_least_squares"),
        Patch(linreg, "fit_ridge", "linreg.fit_ridge"),
        Patch(linreg, "nn_test_mse", "linreg.nn_test_mse", _count_nn),
        Patch(training, "sample_harmonic", "harmonic.basis.sample_harmonic"),
        Patch(training, "BandwidthRegularizer", "harmonic.basis.BandwidthRegularizer"),
        Patch(basis.BandwidthRegularizer, "residual", "harmonic.basis.residual"),
        Patch(training, "mlp_forward_batch", "harmonic.network.mlp_forward_batch", _count_forward),
        Patch(training, "mlp_backward", "harmonic.network.mlp_backward", _count_backward),
        Patch(training, "adam_step", "harmonic.network.adam_step"),
        Patch(training, "train", "harmonic.training.train", _count_steps),
        Patch(training, "_mse", "harmonic.training.validate"),
        *(Patch(m, "aggregate_trials", "curves.aggregate_trials") for m in (gaussian, linreg, training, curve_io)),
        Patch(cli, "fit_power_law", "curves.fit_power_law"),
        Patch(cli, "detect_cliffs", "curves.detect_cliffs"),
        Patch(cli, "write_curve_csv", "curve_io.write_curve_csv", _count_bytes),
        Patch(cli, "read_curve_csv", "curve_io.read_curve_csv", _count_rows),
        Patch(cli, "curve_to_json", "curve_io.curve_to_json"),
        Patch(cli, "render_svg", "svgplot.render_svg"),
        *(Patch(cli, f"run_{kind}_scaling", "cli.run") for kind in ("gaussian", "linreg", "harmonic")),
    ]


def layer_names(patches: list[Patch]) -> list[str]:
    """Distinct span names in patch order."""
    return list(dict.fromkeys(p.name for p in patches))


# Counters the patches above produce, with their units.
COUNTERS = {
    "linreg.nn_test_mse.gflop": "GFLOP",
    "harmonic.network.mlp_forward_batch.rows": "count",
    "harmonic.network.mlp_forward_batch.gflop": "GFLOP",
    "harmonic.network.mlp_backward.gflop": "GFLOP",
    "harmonic.training.steps": "count",
    "curve_io.write_curve_csv.bytes": "B",
    "curve_io.read_curve_csv.rows": "count",
}
