"""Tests of the benchmark itself: span arithmetic, patching, checks and fail counting."""

import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
import tracing
import workloads
from cliffscale import cli

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def span(sid, name, start, end, parent=-1, tid=1, failed=False):
    return (sid, name, start, end, parent, tid, failed)


def test_self_time_subtracts_nested_children():
    spans = [
        span(0, "a", 0.0, 10.0),
        span(1, "b", 1.0, 4.0, parent=0),
        span(2, "c", 5.0, 6.0, parent=0),
        span(3, "d", 2.0, 3.0, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_takes_union_of_cross_thread_children():
    spans = [
        span(0, "cli.run", 0.0, 10.0),
        span(1, "x", 1.0, 6.0, parent=0, tid=2),
        span(2, "y", 3.0, 8.0, parent=0, tid=3),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(3.0)
    assert own[1] == own[2] == pytest.approx(5.0)
    assert tracing.parallelism(spans, "cli.run") == pytest.approx(1.0)


def test_pool_thread_spans_belong_to_the_tracing_threads_open_span():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda x: x * 2)

    def root():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(8)))

    assert tracer.wrap("root", root)() == [x * 2 for x in range(8)]
    root_id = next(s[0] for s in tracer.spans if s[1] == "root")
    leaves = [s for s in tracer.spans if s[1] == "leaf"]
    assert len(leaves) == 8
    assert all(s[4] == root_id for s in leaves)
    assert any(s[5] != threading.get_ident() for s in leaves)


def test_wrappers_restore_original_names():
    patches = tracing.cliffscale_patches()
    before = [getattr(p.owner, p.attr) for p in patches]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(patches):
            assert all(getattr(p.owner, p.attr) is not f for p, f in zip(patches, before))
            raise RuntimeError("abort the traced block")
    assert all(getattr(p.owner, p.attr) is f for p, f in zip(patches, before))


def test_raising_call_counts_an_error():
    def boom(x):
        raise ValueError(x)

    tracer = tracing.Tracer()
    wrapped = tracer.wrap("layer.boom", boom)
    with pytest.raises(ValueError):
        wrapped(1)
    metrics = tracing.layer_metrics(tracer, ["layer.boom"])
    assert metrics["layer.boom.calls"] == 1
    assert metrics["layer.boom.errors"] == 1
    assert tracer._stack() == []


def test_traced_run_writes_identical_bytes(tmp_path):
    argv = ["run", "--kind", "gaussian", "--d", "10", "--n-grid", "10,100,1000,10000",
            "--trials", "20", "--workers", "2", "--seed", "3", "--out"]
    assert cli.main(argv + [str(tmp_path / "plain")]) == 0
    tracer = tracing.Tracer()
    patches = tracing.cliffscale_patches()
    with tracer.installed(patches):
        assert cli.main(argv + [str(tmp_path / "traced")]) == 0
    for name in ("curve.csv", "curve.json", "plot.svg"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    metrics = tracing.layer_metrics(tracer, tracing.layer_names(patches))
    for name in ("streams.stream", "gaussian.sample_error_sufficient", "gaussian.sample_chi_squared"):
        assert metrics[f"{name}.calls"] == 80
    assert metrics["cli.run.calls"] == 1
    assert metrics["curve_io.write_curve_csv.bytes"] == (tmp_path / "traced" / "curve.csv").stat().st_size
    assert tracing.parallelism(tracer.spans, "cli.run") > 0


def write_gaussian_curve(path: Path, shift: float = 0.0) -> None:
    """A curve whose every cell sits on the closed form, plus ``shift`` at the largest n."""
    rows = ["n,trial,error"]
    for n in workloads.G_GRID:
        err = 0.5 * math.erfc(1.0 / math.sqrt(2.0 * (1.0 + workloads.G_D / n)))
        if n == workloads.G_GRID[-1]:
            err += shift
        rows.extend(f"{n},{t},{err!r}" for t in range(workloads.G_TRIALS))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


@pytest.mark.parametrize("corrupt", [
    lambda p: write_gaussian_curve(p, shift=0.01),
    lambda p: p.write_text(p.read_text().replace("100000,7,", "100000,7,nan,"), encoding="utf-8"),
    lambda p: p.write_text(p.read_text().replace("\n10,3,", "\n10,4,", 1), encoding="utf-8"),
])
def test_gaussian_check_rejects_corrupted_curve(tmp_path, corrupt):
    write_gaussian_curve(tmp_path / "curve.csv")
    (tmp_path / "analysis.json").write_text('{"fit": {}, "cliffs": []}', encoding="utf-8")
    for name in ("plot.svg", "overlay.svg"):
        (tmp_path / name).write_text("<svg></svg>\n", encoding="utf-8")
    workloads.WORKLOADS["gaussian-pool"].check(tmp_path)
    corrupt(tmp_path / "curve.csv")
    with pytest.raises(workloads.CheckFailed):
        workloads.WORKLOADS["gaussian-pool"].check(tmp_path)


class FakeHarmonicCli:
    """Writes plausible harmonic outputs; the ``corrupt_on``-th run call leaves a NaN cell."""

    def __init__(self, corrupt_on: int):
        self.runs = 0
        self.corrupt_on = corrupt_on

    def __call__(self, argv):
        out = Path(argv[argv.index("--out") + 1])
        if argv[0] == "plot":
            out.write_text("<svg></svg>\n", encoding="utf-8")
            return 0
        self.runs += 1
        out.mkdir(parents=True, exist_ok=True)
        err = "nan" if self.runs == self.corrupt_on else "0.5"
        rows = [f"{n},0,{err}" for n in workloads.H_GRID]
        (out / "curve.csv").write_text("n,trial,error\n" + "\n".join(rows) + "\n", encoding="utf-8")
        (out / "plot.svg").write_text("<svg></svg>\n", encoding="utf-8")
        return 0


def test_corrupted_curve_raises_fail_frac(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "fresh_import_seconds", lambda: 1.0)
    workload = workloads.WORKLOADS["harmonic-pair"]
    # Two run calls per pipeline: the third call is the first arm of the second pipeline.
    result = run.measure(workload, seed=1, seconds=0.0, call=FakeHarmonicCli(corrupt_on=3))
    assert result["attempted"] == run.MIN_REPS
    assert result["failed"] == 1
    clean = run.measure(workload, seed=1, seconds=0.0, call=FakeHarmonicCli(corrupt_on=0))
    assert clean["failed"] == 0


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    units = run.per_layer_units(tracing.layer_names(tracing.cliffscale_patches()))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
