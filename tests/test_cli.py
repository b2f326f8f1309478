"""End-to-end tests of the cliffscale command-line interface."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cliffscale
from cliffscale import cli
from cliffscale.cli import CHOICES, ExperimentConfig, build_parser, main
from cliffscale.curve_io import read_curve_csv
from cliffscale.curves import detect_cliffs, fit_power_law, log_spaced_ns
from cliffscale.gaussian import GaussianTask, approx_error


def run_cli(*argv):
    return main([str(a) for a in argv])


def run_cli_exit(*argv):
    """main's exit code, or argparse's where it refuses a flag's value."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


def names(err, name):
    """Whether stderr names a field or flag: in a config error, or as argparse's --name."""
    return f"config error: {name}:" in err or f"argument --{name.replace('_', '-')}:" in err


def modules_loaded_by(snippet):
    """The modules in sys.modules after a fresh interpreter runs the snippet."""
    src = str(Path(cliffscale.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = f"{snippet}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


class TestRun:
    def test_gaussian_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "g"
        code = run_cli(
            "run", "--kind", "gaussian", "--d", 50, "--s", 1, "--n-grid", "10,100,1000",
            "--trials", 20, "--seed", 7, "--out", out,
        )
        assert code == 0
        assert (out / "curve.csv").exists()
        assert (out / "curve.json").exists()
        assert (out / "plot.svg").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["kind"] == "gaussian"
        assert manifest["trial_counts"]["10"] == 20
        assert set(manifest["outputs"]) == {"curve.csv", "curve.json", "plot.svg"}
        assert manifest["peak_rss_mb"] > 0
        env = manifest["environment"]
        assert set(env) == {"python", "numpy", "scipy", "cpu_count", "blas_threads"}
        assert env["numpy"] == np.__version__
        assert env["cpu_count"] == os.cpu_count()
        assert env["blas_threads"] is None or env["blas_threads"] >= 1

    def test_repeat_runs_byte_identical(self, tmp_path):
        args = [
            "run", "--kind", "gaussian", "--d", 30, "--s", 1, "--n-grid", "10,100",
            "--trials", 10, "--seed", 3,
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", a) == 0
        assert run_cli(*args, "--out", b, "--workers", 4) == 0
        for name in ("curve.csv", "curve.json", "plot.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_duration_survives_a_clock_stepped_back(self, tmp_path, monkeypatch):
        # The wall clock steps back an hour while the run computes; the
        # manifest's duration is read from a monotonic clock.
        dispatch = cli._dispatch_run

        def dispatch_then_step_back(cfg):
            curve = dispatch(cfg)
            wall = time.time
            monkeypatch.setattr(time, "time", lambda: wall() - 3600.0)
            return curve

        monkeypatch.setattr(cli, "_dispatch_run", dispatch_then_step_back)
        out = tmp_path / "g"
        assert run_cli("run", "--kind", "gaussian", "--n-grid", "10,100", "--trials", 2, "--out", out) == 0
        assert json.loads((out / "manifest.json").read_text())["duration_seconds"] >= 0

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "kind": "linreg", "estimator": "lstsq", "d": 4, "sigma": 0.0,
            "n_grid": [2, 4, 8], "trials": 5, "seed": 1,
        }))
        out = tmp_path / "run"
        assert run_cli("run", "--config", cfg, "--trials", 7, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["trials"] == 7
        assert manifest["trial_counts"]["2"] == 7

    @pytest.mark.parametrize(
        "argv, config, field",
        [
            (["--trials", 0], None, "trials"),
            (["--trials", 2**32 + 1], None, "trials"),
            ([], {"d": "5"}, "d"),
            ([], {"trials": True}, "trials"),
            ([], {"workers": 2.5}, "workers"),
            ([], {"n_grid": [10, 100.0]}, "n_grid"),
            (["--estimator", "ridge", "--lambda", "nan"], None, "lam"),
            ([], {"estimator": "ridge", "lam": 0}, "lam"),
            (["--s", "nan"], None, "s"),
            (["--max-steps", -5], None, "max_steps"),
            (["--n-grid", "100,10"], None, "n_grid"),
            (["--n-grid", ","], None, "n_grid"),
            (["--n-grid", "1_0,20"], None, "n_grid"),
            (["--n-grid", "\u0663,5"], None, "n_grid"),
            (["--n-grid", "+5,7"], None, "n_grid"),
            (["--n-grid", "5,,7"], None, "n_grid"),
            (["--n-grid", "10,99999999999999999999"], None, "n_grid"),
            # int() and float() read these as 10, 3, 10 and 1; flags take ASCII digits without '_'.
            (["--d", "1_0"], None, "d"),
            (["--trials", "\u0663"], None, "trials"),
            (["--s", "1_0"], None, "s"),
            (["--sigma", "\u0661"], None, "sigma"),
            (["--n-max", "99999999999999999999"], None, "n_grid"),
            (["--reg-points", 0], None, "reg_points"),
            (["--kind", "harmonic", "--bandlimit", 1, "--reg-points", 3], None, "reg_points"),
            ([], {"estimator": "x"}, "estimator"),
            # sampler is no longer a field, so any value of it is refused as unknown.
            ([], {"sampler": "x"}, "config"),
            ([], {"arm": "x"}, "arm"),
            (["--d", 0], None, "d"),
            (["--sigma", -1], None, "sigma"),
            (["--s", -1], None, "s"),
            (["--bandlimit", -1], None, "bandlimit"),
            (["--width", 0], None, "width"),
            (["--seed", -1], None, "seed"),
            (["--seed", 2**64], None, "seed"),
            (["--workers", 0], None, "workers"),
            (["--kind", "import"], None, "input"),
            ([], [1, 2], "config"),
            ([], "{not json", "config"),
            # No file can lie below /dev/null, so this config is missing.
            (["--config", os.path.join(os.devnull, "exp.json")], None, "config"),
        ],
        ids=[
            "trials-zero", "trials-above-2**32", "d-string", "trials-bool", "workers-float", "n_grid-float",
            "lambda-nan", "lam-zero-ridge", "s-nan", "max_steps-negative", "n_grid-descending",
            "n_grid-no-integers", "n_grid-underscore", "n_grid-arabic-indic-digit", "n_grid-plus-sign",
            "n_grid-empty-entry", "n_grid-above-int64", "d-underscore", "trials-arabic-indic-digit", "s-underscore",
            "sigma-arabic-indic-digit", "n_max-above-int64", "reg_points-zero", "reg_points-below-basis", "estimator-unknown", "sampler-unknown", "arm-unknown",
            "d-zero", "sigma-negative", "s-negative", "bandlimit-negative", "width-zero", "seed-negative",
            "seed-2**64", "workers-zero", "import-without-input", "config-list", "config-not-json", "config-missing",
        ],
    )
    def test_invalid_field_names_offender(self, tmp_path, capsys, argv, config, field):
        if config is not None:
            cfg = tmp_path / "exp.json"
            # A string is written as it is, to make a file that is not JSON.
            cfg.write_text(config if isinstance(config, str) else json.dumps(config))
            argv = ["--config", cfg, *argv]
        code = run_cli_exit("run", "--kind", "gaussian", *argv, "--out", tmp_path / "o")
        assert code == 2
        assert names(capsys.readouterr().err, field)
        assert not (tmp_path / "o").exists()

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        # sampler and fix_task were fields once; a config that still sets one is refused.
        cfg = tmp_path / "exp.json"
        for key, value in (("zeal", 11), ("sampler", "full"), ("fix_task", True)):
            cfg.write_text(json.dumps({"kind": "gaussian", key: value}))
            assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
            assert f"config error: config: unknown field {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["analyze", "--statistic", "mean"], ["plot", "--title", "x"]], ids=["statistic", "title"]
    )
    def test_retired_analysis_flags_rejected(self, tmp_path, capsys, argv):
        # analyze --statistic and plot --title were options once; argparse now refuses them.
        src = tmp_path / "c.csv"
        src.write_text("n,trial,error\n10,0,0.5\n100,0,0.3\n")
        command, *flags = argv
        with pytest.raises(SystemExit) as exc:
            run_cli(command, src, *flags, "--out", tmp_path / "x")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_allocation_larger_than_memory_exits_2(self, tmp_path, capsys):
        # 10^14 regularizer points are 1.4 PiB of float64, past any address
        # space, so the allocation is refused at once and touches no memory.
        assert run_cli(
            "run", "--kind", "harmonic", "--reg-points", 10**14, "--n-grid", "10,20",
            "--trials", 1, "--max-steps", 1, "--out", tmp_path / "o",
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_import_kind_round_trips(self, tmp_path):
        src = tmp_path / "raw.csv"
        src.write_text("n,trial,error\n10,0,0.5\n10,1,0.3\n100,0,0.1\n")
        out = tmp_path / "imported"
        assert run_cli("run", "--kind", "import", "--input", src, "--out", out) == 0
        assert (out / "curve.csv").read_text().splitlines()[1:] == [
            "10,0,0.5", "10,1,0.3", "100,0,0.1",
        ]

    def test_import_ignores_the_simulation_choices(self, tmp_path):
        src = tmp_path / "raw.csv"
        src.write_text("n,trial,error\n10,0,0.5\n")
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"kind": "import", "input": str(src), "arm": "x"}))
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 0

    def test_import_malformed_row_exits_3(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        src.write_text("n,trial,error\n10,0,0.5\nten,0,0.5\n")
        assert run_cli("run", "--kind", "import", "--input", src, "--out", tmp_path / "o") == 3
        assert ":3:" in capsys.readouterr().err

    def test_noiseless_linreg_cliff_from_cli(self, tmp_path):
        out = tmp_path / "lin"
        assert run_cli(
            "run", "--kind", "linreg", "--estimator", "lstsq", "--d", 5, "--sigma", 0,
            "--n-grid", ",".join(str(n) for n in range(1, 13)),
            "--trials", 20, "--seed", 2, "--out", out,
        ) == 0
        curve_rows = (out / "curve.csv").read_text().splitlines()[1:]
        by_n = {}
        for row in curve_rows:
            n, _, err = row.split(",")
            by_n.setdefault(int(n), []).append(float(err))
        import numpy as np

        for n, errs in by_n.items():
            med = np.median(errs)
            assert med < 1e-15 if n >= 5 else med > 1e-2


def write_power_law(path):
    """One trial of 2 n^-0.5 + 0.1 at n = 10, 32, 100, ..., 10000."""
    rows = ["n,trial,error"]
    for n in (10, 32, 100, 316, 1000, 3162, 10000):
        rows.append(f"{n},0,{2.0 * n**-0.5 + 0.1!r}")
    path.write_text("\n".join(rows) + "\n")
    return path


def write_closed_form_gaussian(path):
    """One trial of the gaussian closed form at d=100, s=2, 10 points per decade from 1 to 10^4."""
    task = GaussianTask(d=100, s=2.0)
    rows = ["n,trial,error"]
    for n in log_spaced_ns(1, 10_000, 10):
        rows.append(f"{n},0,{approx_error(task, n)!r}")
    path.write_text("\n".join(rows) + "\n")
    return path


class TestAnalyze:
    def test_synthetic_power_law(self, tmp_path, capsys):
        src = write_power_law(tmp_path / "pl.csv")
        report = tmp_path / "report.json"
        assert run_cli("analyze", src, "--mode", "both", "--out", report) == 0
        payload = json.loads(report.read_text())
        assert payload["fit"]["A"] == pytest.approx(2.0, rel=0.01)
        assert payload["fit"]["alpha"] == pytest.approx(0.5, rel=0.01)
        assert payload["fit"]["E"] == pytest.approx(0.1, rel=0.01)
        assert payload["cliffs"] == []
        table = capsys.readouterr().out
        assert "median" in table and "cliff: none detected" in table

    def test_fit_range_flags_select_the_grid_points_inside(self, tmp_path):
        src = write_power_law(tmp_path / "pl.csv")
        report = tmp_path / "report.json"
        # On grid points and between them: either way the fit spans 32..3162.
        for lo, hi in ((32, 3162), (20, 5000)):
            argv = ("analyze", src, "--mode", "fit", "--n-min", lo, "--n-max", hi, "--out", report)
            assert run_cli(*argv) == 0
            fit = json.loads(report.read_text())["fit"]
            assert (fit["n_min"], fit["n_max"]) == (32, 3162)
            assert fit["alpha"] == pytest.approx(0.5, rel=0.01)

    def test_gaussian_closed_form_curve_has_one_cliff(self, tmp_path):
        src = write_closed_form_gaussian(tmp_path / "gauss.csv")
        report = tmp_path / "report.json"
        assert run_cli("analyze", src, "--mode", "cliffs", "--out", report) == 0
        cliffs = json.loads(report.read_text())["cliffs"]
        # One concave region, ending just below the knee n = d/s^2 = 25
        # (the closed form's log-log inflection sits at n ~ 20.4).
        assert len(cliffs) == 1
        assert cliffs[0]["n_start"] <= 2
        assert 16 <= cliffs[0]["n_end"] <= 25

    @pytest.mark.parametrize("mode", ["fit", "cliffs", "both"])
    def test_report_holds_the_library_results(self, tmp_path, mode):
        src = write_closed_form_gaussian(tmp_path / "gauss.csv")
        report = tmp_path / "report.json"
        assert run_cli("analyze", src, "--mode", mode, "--out", report) == 0
        curve = read_curve_csv(src)
        expected = {}
        if mode in ("fit", "both"):
            fit = fit_power_law(curve)
            expected["fit"] = {
                "A": fit.A, "alpha": fit.alpha, "E": fit.E, "residual": fit.residual,
                "n_min": fit.n_range[0], "n_max": fit.n_range[1],
            }
        if mode in ("cliffs", "both"):
            regions = detect_cliffs(curve)
            assert regions
            expected["cliffs"] = [{"n_start": r.n_start, "n_end": r.n_end, "strength": r.strength} for r in regions]
        payload = json.loads(report.read_text())
        assert set(payload) == {"fit": {"fit"}, "cliffs": {"cliffs"}, "both": {"fit", "cliffs"}}[mode]
        if "fit" in payload:
            assert set(payload["fit"]) == {"A", "alpha", "E", "residual", "n_min", "n_max"}
        for cliff in payload.get("cliffs", ()):
            assert set(cliff) == {"n_start", "n_end", "strength"}
        assert report.read_bytes() == (json.dumps(expected, sort_keys=True, indent=2) + "\n").encode()

    def test_negative_flag_in_exponent_form_is_a_value(self, tmp_path, capsys):
        # argparse read "-1e-3" after --threshold as an option and exited 2.
        src = write_closed_form_gaussian(tmp_path / "gauss.csv")
        outputs = []
        for argv in (["--threshold", "-1e-3"], ["--threshold=-1e-3"]):
            assert run_cli_exit("analyze", src, *argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_missing_file_exits_3(self, tmp_path):
        assert run_cli("analyze", tmp_path / "nope.csv") == 3

    def test_empty_file_exits_3(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("")
        assert run_cli("analyze", src) == 3

    def test_fit_degeneracy_exits_4(self, tmp_path, capsys):
        src = tmp_path / "zeros.csv"
        src.write_text("n,trial,error\n" + "".join(f"{n},0,0.0\n" for n in (1, 2, 4, 8, 16)))
        assert run_cli("analyze", src, "--mode", "fit") == 4
        assert "log" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["fit", "cliffs", "both"])
    def test_n_with_one_float64_value_exits_3_naming_them(self, tmp_path, capsys, mode):
        # --mode both exited 4 naming n = 2**63, which is not on the curve.
        src = tmp_path / "top.csv"
        src.write_text("n,trial,error\n" + "".join(f"{2**63 - k},0,0.5\n" for k in (4, 3, 2, 1)))
        assert run_cli("analyze", src, "--mode", mode) == 3
        assert f"data error: n = {2**63 - 4} and n = {2**63 - 3} have the same float64 value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--threshold", "nan"], "threshold"),
            (["--threshold", 1], "threshold"),
            (["--floor", -1], "floor"),
            (["--min-run", 0], "min-run"),
            (["--n-min", 100, "--n-max", 10], "n-min"),
            (["--n-max", 0, "--mode", "fit"], "n-max"),
            (["--n-min", -5], "n-min"),
            (["--min-run", "\u0663"], "min-run"),
            # argparse reads a bare "-0_1" as an option; float() reads it as -1.
            (["--threshold=-0_1"], "threshold"),
        ],
        ids=["threshold-nan", "threshold-positive", "floor-negative", "min_run-zero",
             "n_range-inverted", "n_max-zero", "n_min-negative", "min_run-arabic-indic-digit",
             "threshold-underscore"],
    )
    def test_bad_numeric_flag_exits_2_naming_it(self, tmp_path, capsys, argv, flag):
        # NaN found no cliff, n-max 0 fitted the whole curve and n-min -5 was
        # accepted; the others exited 3 or 4 without naming the flag.
        src = tmp_path / "pl.csv"
        src.write_text("n,trial,error\n" + "".join(f"{n},0,{1 / n!r}\n" for n in (1, 2, 4, 8, 16)))
        assert run_cli_exit("analyze", src, *argv) == 2
        assert names(capsys.readouterr().err, flag)


class TestPlot:
    def test_plot_two_curves_with_overlay(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(1)
        for name, alpha in (("a.csv", 0.5), ("b.csv", 1.0)):
            rows = ["n,trial,error"]
            for n in (10, 100, 1000):
                for t in range(3):
                    rows.append(f"{n},{t},{2.0 * n**-alpha + 0.05 * (1 + rng.uniform())!r}")
            (tmp_path / name).write_text("\n".join(rows) + "\n")
        out = tmp_path / "plot.svg"
        code = run_cli(
            "plot", tmp_path / "a.csv", tmp_path / "b.csv",
            "--overlay-powerlaw", "2,0.5,0.05", "--vline", 100, "--out", out,
        )
        assert code == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 3  # two medians + one overlay
        assert svg.count("<polygon") == 2  # two bands

    def test_gaussian_overlay_matches_fig8_structure(self, tmp_path):
        out_dir = tmp_path / "run"
        assert run_cli(
            "run", "--kind", "gaussian", "--d", 100, "--s", 1, "--n-min", 10,
            "--n-max", 10000, "--points-per-decade", 5, "--trials", 30,
            "--seed", 9, "--out", out_dir,
        ) == 0
        out = tmp_path / "fig8.svg"
        assert run_cli(
            "plot", out_dir / "curve.csv", "--overlay-gaussian", "100,1",
            "--vline", 100, "--out", out,
        ) == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 2  # empirical median + closed form
        assert svg.count("<polygon") == 1  # min-max band

    def test_single_point_curve_exits_3(self, tmp_path, capsys):
        # The check comes before the overlay grid, which needs n_min < n_max, at any n.
        for n in (1, 5, 10):
            src = tmp_path / f"one{n}.csv"
            src.write_text(f"n,trial,error\n{n},0,0.5\n{n},1,0.25\n")
            assert run_cli("plot", src, "--out", tmp_path / "x.svg") == 3
            err = capsys.readouterr().err
            assert f"data error: {src}: cannot draw a scaling line through a single-point curve" in err
        assert not (tmp_path / "x.svg").exists()

    def test_nonpositive_without_floor_exits_3_then_floor_ok(self, tmp_path, capsys):
        src = tmp_path / "zero.csv"
        src.write_text("n,trial,error\n1,0,1.0\n2,0,0.0\n4,0,0.5\n")
        assert run_cli("plot", src, "--out", tmp_path / "x.svg") == 3
        assert "floor" in capsys.readouterr().err
        assert run_cli("plot", src, "--floor", 1e-20, "--out", tmp_path / "x.svg") == 0

    def test_bad_overlay_spec_exits_2(self, tmp_path, capsys):
        src = tmp_path / "c.csv"
        src.write_text("n,trial,error\n10,0,0.5\n100,0,0.3\n")
        assert run_cli("plot", src, "--overlay-powerlaw", "nope", "--out", tmp_path / "x.svg") == 2
        assert "config error: overlay-powerlaw: expected A,alpha,E" in capsys.readouterr().err
        # Well-formed specs that GaussianTask refuses carry its reason, not a format complaint.
        for spec, reason in (("5,-1", "signal-to-noise ratio must be >= 0"), ("0,1", "dimension must be >= 1")):
            assert run_cli("plot", src, "--overlay-gaussian", spec, "--out", tmp_path / "x.svg") == 2
            assert f"config error: overlay-gaussian: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--overlay-powerlaw", "1,0.5,inf"], "overlay-powerlaw"),
            (["--overlay-gaussian", "10,nan"], "overlay-gaussian"),
            (["--floor", "nan"], "floor"),
            (["--vline", 0], "vline"),
            (["--vline", -3], "vline"),
            # int() and float() read these as d = 10 and (10, 0.5, 0.01).
            (["--overlay-gaussian", "1_0,1"], "overlay-gaussian"),
            (["--overlay-powerlaw", "1_0,0.5,0.0_1"], "overlay-powerlaw"),
            (["--vline", "1_0"], "vline"),
        ],
        ids=["powerlaw-inf", "gaussian-nan", "floor-nan", "vline-zero", "vline-negative",
             "gaussian-underscore", "powerlaw-underscore", "vline-underscore"],
    )
    def test_non_finite_flag_exits_2_naming_it(self, tmp_path, capsys, argv, flag):
        # Before these were checked: an OverflowError traceback, an SVG with
        # nan coordinates, a config error that named no flag, and (vline)
        # a data error.
        src = tmp_path / "c.csv"
        src.write_text("n,trial,error\n10,0,0.5\n100,0,0.3\n")
        assert run_cli_exit("plot", src, *argv, "--out", tmp_path / "x.svg") == 2
        assert names(capsys.readouterr().err, flag)
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("flag, spec", [("overlay-powerlaw", "1,0.5,inf"), ("overlay-gaussian", "10,nan")])
    def test_bad_overlay_is_named_before_any_curve_is_read(self, tmp_path, capsys, flag, spec):
        # The overlays were parsed after the curves, so a missing file exited 3 first.
        assert run_cli("plot", tmp_path / "nope.csv", f"--{flag}", spec, "--out", tmp_path / "x.svg") == 2
        assert f"config error: {flag}:" in capsys.readouterr().err


class TestBadCurveFiles:
    # Both used to escape CurveError: the decode error exited 2 as a config
    # error, and n >= 2**63 died with an OverflowError traceback.
    FILES = {
        "non-utf8": b"n,trial,error\n10,0,0.5\n2\xff0,0,0.1\n",
        "n-above-int64": b"n,trial,error\n10,0,0.5\n100000000000000000000000000000,0,0.1\n",
        # int() reads these as n = 10, 33 and 7; the format is ASCII decimal.
        "underscore": b"n,trial,error\n10,0,0.5\n1_0,0,0.5\n",
        "arabic-indic": "n,trial,error\n10,0,0.5\n٣٣,0,0.25\n".encode(),
        "spaces": b"n,trial,error\n10,0,0.5\n 7 ,0,0.1\n",
    }

    @pytest.mark.parametrize("command", ["analyze", "plot", "import"])
    @pytest.mark.parametrize("content", FILES.values(), ids=FILES.keys())
    def test_exits_3_naming_file_and_line(self, tmp_path, capsys, command, content):
        src = tmp_path / "raw.csv"
        src.write_bytes(content)
        argv = {
            "analyze": ["analyze", src],
            "plot": ["plot", src, "--out", tmp_path / "plot.svg"],
            "import": ["run", "--kind", "import", "--input", src, "--out", tmp_path / "out"],
        }[command]
        assert run_cli(*argv) == 3
        assert f"data error: {src}:3:" in capsys.readouterr().err


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the import time and only asymptotic_error needs
    # it. Importing the CLI loads no scipy module at all.
    loaded = modules_loaded_by("import cliffscale.cli")
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}


def test_gaussian_run_and_overlay_leave_scipy_special_unloaded(tmp_path):
    # scipy.special, which held the normal CDF's erfc, pulls in numpy.f2py,
    # numpy.testing and numpy.ma; every gaussian number now comes from math.
    out = tmp_path / "g"
    snippet = (
        "from cliffscale.cli import main\n"
        f"assert main(['run', '--kind', 'gaussian', '--d', '20', '--n-grid', '10,100', '--trials', '3', '--out', {str(out)!r}]) == 0\n"
        f"assert main(['plot', {str(out / 'curve.csv')!r}, '--overlay-gaussian', '20,1', '--out', {str(tmp_path / 'o.svg')!r}]) == 0"
    )
    loaded = modules_loaded_by(snippet)
    assert "scipy.special" not in loaded and "numpy.f2py" not in loaded


def run_parser_actions():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices["run"]._actions


def test_run_flags_set_the_config_fields_by_name():
    dests = {a.dest for a in run_parser_actions() if a.dest not in ("help", "config")}
    assert dests == {f.name for f in dataclasses.fields(ExperimentConfig)}


def test_run_flag_choices_come_from_the_choice_table():
    with_choices = {a.dest: a.choices for a in run_parser_actions() if a.choices is not None}
    assert with_choices == CHOICES
