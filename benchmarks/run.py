"""cliffscale benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload gaussian-pool --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 35 --trace 0

One client drives ``cliffscale.cli.main`` in a closed loop: each CLI call
starts after the previous one returns, and one pipeline (run, analyze,
plot) is one repetition. Repetitions continue for ``--seconds`` (at least
three), and every repetition's outputs are checked.

``--trace 0`` prints the end-to-end metrics: wall and CPU time per
pipeline (medians), set-up time (median over fresh interpreters that
import ``cliffscale.cli``, one after each pipeline and at least five) and
peak RSS of this process. ``--trace 1``
alternates untraced and traced pipelines on the same seed (at least one
pair), requires
byte-identical outputs, and prints per-layer self times, call and error
counts and counters from the traced ones. The last line of output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, CheckFailed, H_REG_POINTS, H_WIDTH, H_GRID

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_STARTS = 5
MIN_REPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class PipelineFailed(Exception):
    """A CLI call returned a nonzero status or raised."""


def environment() -> dict:
    """Versions, CPU count, BLAS build and thread settings, as found."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def fresh_import_seconds() -> float:
    """Seconds from spawning a fresh interpreter until ``import cliffscale.cli`` has returned and it exits."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cliffscale.cli"], env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - started


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pipeline(workload, out: Path, seed: int, call) -> tuple[float, float]:
    """Run the workload's CLI calls into ``out``; return (wall, CPU) seconds."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    commands = workload.commands(out, seed)
    sink = io.StringIO()
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    with contextlib.redirect_stdout(sink):
        for argv in commands:
            try:
                status = call(argv)
            except Exception as exc:  # a raising call fails this repetition, not the benchmark
                raise PipelineFailed(f"{argv[0]} raised {type(exc).__name__}: {exc}") from exc
            if status != 0:
                raise PipelineFailed(f"{' '.join(argv[:3])} ... exited with status {status}")
    return time.perf_counter() - wall0, cpu_seconds() - cpu0


def checked_rep(workload, out: Path, seed: int, call) -> tuple[float, float] | None:
    """One checked repetition; None (with a message on stderr) when it failed."""
    try:
        times = run_pipeline(workload, out, seed, call)
        workload.check(out)
    except (PipelineFailed, CheckFailed) as exc:
        print(f"{workload.name}: repetition failed: {exc}", file=sys.stderr)
        return None
    return times


def keep_going(reps: int, elapsed: float, rep_seconds: list[float], seconds: float, min_reps: int) -> bool:
    """Start another repetition while it is expected to end within the budget."""
    return reps < min_reps or elapsed + statistics.median(rep_seconds) <= seconds


def measure(workload, seed: int, seconds: float, call) -> dict:
    """Untraced closed loop: end-to-end samples plus attempted/failed counts.

    A fresh-interpreter start follows every pipeline, so the set-up samples
    span the same stretch of time as the pipeline samples.
    """
    walls, cpus, all_walls, all_cpus, setup, cycles = [], [], [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        cycle_start, rep_cpu = time.perf_counter(), cpu_seconds()
        times = checked_rep(workload, OUT / workload.name / "plain", seed, call)
        all_walls.append(time.perf_counter() - cycle_start)
        all_cpus.append(cpu_seconds() - rep_cpu)
        setup.append(fresh_import_seconds())
        cycles.append(time.perf_counter() - cycle_start)
        attempted += 1
        if times is None:
            failed += 1
        else:
            walls.append(times[0])
            cpus.append(times[1])
        if not keep_going(attempted, time.perf_counter() - started, cycles, seconds, MIN_REPS):
            break
    while len(setup) < SETUP_STARTS:
        setup.append(fresh_import_seconds())
    # Failed repetitions are timed only when none succeeded, so the numbers stay defined.
    return {"walls": walls or all_walls, "cpus": cpus or all_cpus, "setup": setup,
            "attempted": attempted, "failed": failed}


def gemm_peak_gflops(rows: int, width: int, reps: int = 10) -> float:
    """Best float32 GEMM rate at the regularized arm's (rows x width) @ (width x width) shape."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((rows, width), dtype=np.float32)
    b = rng.standard_normal((width, width), dtype=np.float32)
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - started)
    return 2.0 * rows * width * width / best / 1e9


def same_outputs(workload, a: Path, b: Path) -> bool:
    for rel in workload.outputs:
        try:
            same = (a / rel).read_bytes() == (b / rel).read_bytes()
        except OSError as exc:
            print(f"{workload.name}: cannot compare {rel}: {exc}", file=sys.stderr)
            return False
        if not same:
            print(f"{workload.name}: traced {rel} differs from untraced", file=sys.stderr)
            return False
    return True


def measure_traced(workload, seed: int, seconds: float, call) -> dict:
    """Alternate untraced and traced pipelines; per-layer metrics from the traced ones."""
    patches = tracing.cliffscale_patches()
    names = tracing.layer_names(patches)
    plain, traced = OUT / workload.name / "plain", OUT / workload.name / "traced"
    samples: list[dict] = []
    plain_walls, traced_walls, pair_walls = [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        attempted += 1
        base = checked_rep(workload, plain, seed, call)
        tracer = tracing.Tracer()
        with tracer.installed(patches):
            times = checked_rep(workload, traced, seed, call)
        pair_walls.append(time.perf_counter() - pair_start)
        if base is None or times is None or not same_outputs(workload, plain, traced):
            failed += 1
        else:
            plain_walls.append(base[0])
            traced_walls.append(times[0])
            metrics = tracing.layer_metrics(tracer, names)
            metrics["cli.parallelism"] = tracing.parallelism(tracer.spans, "cli.run")
            spanned = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
            metrics["trace.unattributed_s"] = times[0] - spanned
            samples.append(metrics)
            tracer.write_spans(OUT / workload.name / "spans.csv")
        if not keep_going(attempted, time.perf_counter() - started, pair_walls, seconds, 1):
            break
    metrics = {}
    if samples:
        metrics = {key: statistics.median(s.get(key, 0.0) for s in samples) for key in samples[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["harmonic.network.gemm_peak_gflops"] = gemm_peak_gflops(max(H_GRID) + H_REG_POINTS, H_WIDTH)
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def per_layer_units(names: list[str]) -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    units = {}
    for name in names:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.errors": "count"})
    units.update(tracing.COUNTERS)
    units.update({
        "harmonic.network.gemm_peak_gflops": "GFLOP/s",
        "cli.parallelism": "ratio",
        "trace.overhead_s": "s",
        "trace.unattributed_s": "s",
    })
    return units


def _rounded(values: list[float]) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def end_to_end(workload, seed: int, seconds: float, call) -> tuple[dict, dict, list[str]]:
    result = measure(workload, seed, seconds, call)
    walls, cpus, setup = result["walls"], result["cpus"], result["setup"]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    n = len(result["walls"])
    lines = [
        f"wall_s       {metrics['wall_s']['value']:.4f} s    median of {n} pipelines {_rounded(walls)}",
        f"cpu_s        {metrics['cpu_s']['value']:.4f} s    median of {n} pipelines {_rounded(cpus)}",
        f"setup_s      {metrics['setup_s']['value']:.4f} s    median of {len(setup)} fresh interpreters "
        f"{_rounded(setup)}",
        f"peak_rss_mb  {peak:.1f} MiB",
        f"fail_frac    {result['failed'] / result['attempted']:.4f} ratio  "
        f"({result['failed']} of {result['attempted']} pipelines failed)",
    ]
    return metrics, result, lines


def per_layer(workload, seed: int, seconds: float, call) -> tuple[dict, dict, list[str]]:
    result = measure_traced(workload, seed, seconds, call)
    units = per_layer_units(tracing.layer_names(tracing.cliffscale_patches()))
    metrics = {name: {"value": result["metrics"].get(name, 0.0), "unit": unit} for name, unit in units.items()}
    lines = [f"{name:<52} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(
        f"fail_frac    {result['failed'] / result['attempted']:.4f} ratio  "
        f"({result['failed']} of {result['attempted']} traced/untraced pairs failed)"
    )
    return metrics, result, lines


def run_all(args) -> int:
    """Run every workload in its own process, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: benchmark process exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"][name] = result["metrics"]
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cliffscale" / "cli.py").is_file():
        print(f"benchmark: no cliffscale sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    from cliffscale import cli

    workload = WORKLOADS[args.workload]
    measure_fn = per_layer if args.trace else end_to_end
    metrics, result, lines = measure_fn(workload, args.seed, args.seconds, cli.main)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"(closed loop, one client; {workload.why})")
    print("\n".join(lines))
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
