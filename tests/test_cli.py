"""End-to-end tests of the cliffscale command-line interface."""

import argparse
import dataclasses
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

import cliffscale
from cliffscale import _parallel, cli
from cliffscale.cli import CHOICES, ExperimentConfig, build_parser, main
from cliffscale.curve_io import read_curve_csv
from cliffscale.curves import (
    DEFAULT_CLIFF_THRESHOLD, DEFAULT_MIN_RUN, MAX_N, ScalingCurve, detect_cliffs, fit_power_law, log_spaced_ns,
)
from cliffscale.gaussian import GaussianTask, approx_error, run_gaussian_scaling
from cliffscale.harmonic.training import TrainConfig, run_harmonic_scaling
from cliffscale.linreg import run_linreg_scaling
from cliffscale.svgplot import render_svg


# The grid, trial count and seed of the runs that the CLI and the library should refuse alike.
SMALL_RUN = {"n_grid": [2, 4], "trials": 2, "seed": 0}

# A curve no analysis or plot accepts: the library refuses a bad parameter before it looks at one.
ONE_ZERO_POINT = ScalingCurve(points=((1, (0.0,)),))


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


def package_env():
    """The environment for a fresh interpreter that imports this cliffscale."""
    src = str(Path(cliffscale.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def modules_loaded_by(snippet):
    """The modules in sys.modules after a fresh interpreter runs the snippet."""
    probe = f"{snippet}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=package_env(), capture_output=True, text=True, check=True)
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
        # An n_grid run does not echo n_min, n_max and points_per_decade, which chose nothing.
        assert manifest["config"] == {
            "kind": "gaussian", "out": str(out), "d": 50, "s": 1.0, "n_grid": [10, 100, 1000], "trials": 20,
            "seed": 7, "workers": 1,
        }
        assert manifest["processes"] >= 1
        assert manifest["trial_counts"]["10"] == 20
        assert set(manifest["outputs"]) == {"curve.csv", "curve.json", "plot.svg"}
        assert manifest["peak_rss_mb"] > 0
        assert manifest["forked_peak_rss_mb"] >= 0
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

    @pytest.mark.parametrize("config", [None, {"n_grid": None}], ids=["flags", "null-n_grid"])
    def test_range_run_echoes_the_range_fields_not_n_grid(self, tmp_path, config):
        # A JSON null n_grid is no grid, as if the field were left out.
        argv = []
        if config is not None:
            cfg = tmp_path / "exp.json"
            cfg.write_text(json.dumps(config))
            argv = ["--config", cfg]
        out = tmp_path / "g"
        assert run_cli("run", *argv, "--kind", "gaussian", "--n-min", 10, "--n-max", 40, "--trials", 2,
                       "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        config = manifest["config"]
        assert (config["n_min"], config["n_max"], config["points_per_decade"]) == (10, 40, 10)
        assert "n_grid" not in config
        assert list(manifest["trial_counts"]) == [str(n) for n in log_spaced_ns(10, 40, 10)]

    @pytest.mark.parametrize(
        "argv, cells",
        [
            (["--kind", "gaussian", "--d", 50, "--n-grid", "10,100,1000", "--trials", 20], 60),
            # lstsq and ridge at n >= d fit the triangular factor, on one BLAS thread.
            (["--kind", "linreg", "--estimator", "lstsq", "--d", 100, "--sigma", 0.1,
              "--n-grid", "100,200,1000", "--trials", 3], 9),
            (["--kind", "linreg", "--estimator", "ridge", "--d", 100, "--sigma", 0.1, "--lambda", 1,
              "--n-grid", "100,200,1000", "--trials", 3], 9),
            (["--kind", "linreg", "--estimator", "nn", "--d", 5, "--n-grid", "20,300,3000", "--trials", 2], 6),
            (["--kind", "linreg", "--estimator", "nn", "--d", 20, "--n-grid", "20,300,3000", "--trials", 2], 6),
            *((["--kind", "harmonic", "--bandlimit", 1, "--arm", arm, "--width", 16, "--max-steps", 5,
                "--reg-points", 100, "--n-grid", "10,20,40", "--trials", 2], 6) for arm in ("reg", "noreg")),
            # Passes over more than ROW_BLOCK rows, which the serial run spreads over
            # threads and the split run's pinned processes do not; width 128 splits
            # the weight gradients too.
            (["--kind", "harmonic", "--bandlimit", 1, "--arm", "reg", "--width", 128, "--max-steps", 2,
              "--reg-points", 4200, "--n-grid", "10,20,40", "--trials", 2], 6),
        ],
        ids=[
            "gaussian", "lstsq-d100", "ridge-d100", "nn-tree-d5", "nn-brute-d20", "harmonic-reg", "harmonic-noreg",
            "harmonic-reg-spread",
        ],
    )
    def test_split_run_writes_the_serial_bytes(self, tmp_path, monkeypatch, argv, cells):
        outputs, processes = {}, {}
        for label, serial_start in (("serial", math.inf), ("split", 0.0)):
            monkeypatch.setattr(_parallel, "SERIAL_START_S", serial_start)
            out = tmp_path / label
            assert run_cli("run", *argv, "--seed", 11, "--out", out) == 0
            outputs[label] = [(out / name).read_bytes() for name in ("curve.csv", "curve.json", "plot.svg")]
            manifest = json.loads((out / "manifest.json").read_text())
            processes[label] = manifest["processes"]
        assert outputs["split"] == outputs["serial"]
        assert processes == {"serial": 1, "split": min(len(_parallel.usable_cpus()), cells)}
        # A split run's forked processes were reaped before its manifest was written.
        if processes["split"] > 1:
            assert manifest["forked_peak_rss_mb"] > 0

    def test_forked_peak_rss_is_zero_without_a_fork(self, tmp_path):
        # In a fresh interpreter whose run stays serial, no child process was reaped.
        out = tmp_path / "serial"
        script = (
            "import math, sys\nfrom cliffscale import _parallel, cli\n_parallel.SERIAL_START_S = math.inf\n"
            "sys.exit(cli.main(sys.argv[1:]))"
        )
        argv = ["run", "--kind", "gaussian", "--d", "5", "--s", "1", "--n-grid", "10,20", "--trials", "3",
                "--seed", "3", "--out", str(out)]
        subprocess.run([sys.executable, "-c", script, *argv], env=package_env(), capture_output=True, check=True)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["processes"] == 1
        assert manifest["forked_peak_rss_mb"] == 0

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
            (["--kind", "linreg", "--estimator", "ridge", "--lambda", "nan"], None, "lam"),
            (["--kind", "linreg"], {"estimator": "ridge", "lam": 0}, "lam"),
            (["--s", "nan"], None, "s"),
            (["--kind", "harmonic", "--max-steps", -5], None, "max_steps"),
            (["--n-grid", "100,10"], None, "n_grid"),
            (["--n-grid", ","], None, "n_grid"),
            (["--n-grid", "1_0,20"], None, "n_grid"),
            (["--n-grid", "\u0663,5"], None, "n_grid"),
            (["--n-grid", "+5,7"], None, "n_grid"),
            (["--n-grid", "5,,7"], None, "n_grid"),
            (["--n-grid", "10,99999999999999999999"], None, "n_grid"),
            # An empty grid once ran the default range from 1 to 1000.
            ([], {"n_grid": []}, "n_grid"),
            # int() and float() read these as 10, 3, 10 and 1; flags take ASCII digits without '_'.
            (["--d", "1_0"], None, "d"),
            (["--trials", "\u0663"], None, "trials"),
            (["--s", "1_0"], None, "s"),
            (["--sigma", "\u0661"], None, "sigma"),
            (["--n-max", "99999999999999999999"], None, "n_grid"),
            (["--kind", "harmonic", "--reg-points", 0], None, "reg_points"),
            (["--kind", "harmonic", "--bandlimit", 1, "--reg-points", 3], None, "reg_points"),
            (["--kind", "harmonic", "--bandlimit", 1, "--reg-points", 9], None, "reg_points"),
            (["--kind", "linreg"], {"estimator": "x"}, "estimator"),
            # sampler is no longer a field, so any value of it is refused as unknown.
            ([], {"sampler": "x"}, "config"),
            (["--kind", "harmonic"], {"arm": "x"}, "arm"),
            (["--d", 0], None, "d"),
            (["--kind", "linreg", "--sigma", -1], None, "sigma"),
            (["--s", -1], None, "s"),
            (["--kind", "harmonic", "--bandlimit", -1], None, "bandlimit"),
            (["--kind", "harmonic", "--width", 0], None, "width"),
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
            "n_grid-empty-entry", "n_grid-above-int64", "n_grid-empty", "d-underscore", "trials-arabic-indic-digit",
            "s-underscore", "sigma-arabic-indic-digit", "n_max-above-int64", "reg_points-zero", "reg_points-below-basis",
            "reg_points-at-basis", "estimator-unknown", "sampler-unknown", "arm-unknown",
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
        # A case that passes another --kind overrides gaussian, so that the
        # field's own check runs on a kind that reads it.
        code = run_cli_exit("run", "--kind", "gaussian", *argv, "--out", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert names(err, field) and "not read by" not in err
        assert not (tmp_path / "o").exists()

    def test_every_numeric_run_field_has_a_refusal_case(self):
        # A numeric field that a simulated kind reads is checked by the library,
        # so it needs a case above that shows its refusal names it. The range
        # fields choose the grid, and their refusals name n_grid.
        (cases,) = [m.args[1] for m in self.test_invalid_field_names_offender.pytestmark if m.name == "parametrize"]
        covered = {field for _, _, field in cases}
        hints = typing.get_type_hints(ExperimentConfig)
        read = {name for kind, names in cli.KIND_FIELDS.items() if kind != "import" for name in names}
        numeric = {name for name in read if hints[name] in (int, float)}
        assert {"n_grid" if name in cli.RANGE_FIELDS else name for name in numeric} - covered == set()

    @pytest.mark.parametrize(
        "argv, library",
        [
            (["run", "--d", 0], lambda: run_gaussian_scaling(d=0, s=1.0, **SMALL_RUN)),
            (["run", "--s", "nan"], lambda: run_gaussian_scaling(d=3, s=math.nan, **SMALL_RUN)),
            (["run", "--kind", "linreg", "--d", 0],
             lambda: run_linreg_scaling(d=0, sigma=0.0, estimator="lstsq", **SMALL_RUN)),
            (["run", "--kind", "linreg", "--sigma", -1],
             lambda: run_linreg_scaling(d=3, sigma=-1.0, estimator="lstsq", **SMALL_RUN)),
            (["run", "--kind", "linreg", "--lambda", "inf"],
             lambda: run_linreg_scaling(d=3, sigma=0.0, estimator="lstsq", lam=math.inf, **SMALL_RUN)),
            (["run", "--kind", "linreg", "--estimator", "ridge", "--lambda", 0],
             lambda: run_linreg_scaling(d=3, sigma=0.0, estimator="ridge", lam=0.0, **SMALL_RUN)),
            (["run", "--kind", "harmonic", "--bandlimit", -1],
             lambda: run_harmonic_scaling(B=-1, arm="reg", **SMALL_RUN)),
            (["run", "--kind", "harmonic", "--width", 0], lambda: TrainConfig(width=0)),
            (["run", "--kind", "harmonic", "--max-steps", 0], lambda: TrainConfig(max_steps=0)),
            (["run", "--kind", "harmonic", "--reg-points", 0], lambda: TrainConfig(reg_points=0)),
            (["run", "--kind", "harmonic", "--bandlimit", 1, "--reg-points", 9],
             lambda: run_harmonic_scaling(B=1, arm="reg", config=TrainConfig(reg_points=9), **SMALL_RUN)),
            (["run", "--trials", 0], lambda: run_gaussian_scaling(d=3, s=1.0, **{**SMALL_RUN, "trials": 0})),
            (["run", "--kind", "linreg", "--trials", 2**32 + 1],
             lambda: run_linreg_scaling(d=3, sigma=0.0, estimator="lstsq", **{**SMALL_RUN, "trials": 2**32 + 1})),
            (["run", "--kind", "harmonic", "--seed", 2**64],
             lambda: run_harmonic_scaling(B=1, arm="noreg", **{**SMALL_RUN, "seed": 2**64})),
            (["run", "--seed", -1], lambda: run_gaussian_scaling(d=3, s=1.0, **{**SMALL_RUN, "seed": -1})),
            # A dict is written to a config file, whose path takes its place.
            (["run", "--kind", "linreg", "--config", {"estimator": "bogus"}],
             lambda: run_linreg_scaling(d=3, sigma=0.0, estimator="bogus", **SMALL_RUN)),
            (["run", "--kind", "harmonic", "--config", {"arm": "bogus"}],
             lambda: run_harmonic_scaling(B=1, arm="bogus", **SMALL_RUN)),
            (["analyze", "--threshold", "nan"], lambda: detect_cliffs(ONE_ZERO_POINT, threshold=math.nan)),
            (["analyze", "--threshold", 1], lambda: detect_cliffs(ONE_ZERO_POINT, threshold=1.0)),
            (["analyze", "--min-run", 0], lambda: detect_cliffs(ONE_ZERO_POINT, min_run=0)),
            (["analyze", "--floor", -1], lambda: fit_power_law(ONE_ZERO_POINT, floor=-1.0)),
            (["analyze", "--floor", 0], lambda: fit_power_law(ONE_ZERO_POINT, floor=0.0)),
            (["analyze", "--mode", "cliffs", "--floor", "nan"], lambda: detect_cliffs(ONE_ZERO_POINT, floor=math.nan)),
            (["analyze", "--n-min", 100, "--n-max", 10], lambda: fit_power_law(ONE_ZERO_POINT, n_range=(100, 10))),
            (["analyze", "--mode", "fit", "--n-max", 0], lambda: fit_power_law(ONE_ZERO_POINT, n_range=(1, 0))),
            (["analyze", "--n-min", -5], lambda: fit_power_law(ONE_ZERO_POINT, n_range=(-5, MAX_N))),
            (["analyze", "--n-max", "99999999999999999999"],
             lambda: fit_power_law(ONE_ZERO_POINT, n_range=(1, 99999999999999999999))),
            (["plot", "--floor", "nan"], lambda: render_svg([ONE_ZERO_POINT], floor=math.nan)),
            (["plot", "--floor", 0], lambda: render_svg([ONE_ZERO_POINT], floor=0.0)),
            (["plot", "--floor", -1], lambda: render_svg([ONE_ZERO_POINT], floor=-1.0)),
            (["plot", "--vline", 0], lambda: render_svg([ONE_ZERO_POINT], vline=0)),
            (["plot", "--vline", -3], lambda: render_svg([ONE_ZERO_POINT], vline=-3)),
        ],
        ids=[
            "gaussian-d", "s", "linreg-d", "sigma", "lam-lstsq", "lam-ridge", "bandlimit", "width", "max_steps",
            "reg_points-zero", "reg_points-basis", "trials-zero", "trials-above-2**32", "seed-2**64", "seed-negative",
            "estimator-config", "arm-config", "analyze-threshold-nan", "analyze-threshold-positive",
            "analyze-min_run-zero", "analyze-floor-negative", "analyze-floor-zero", "analyze-cliffs-floor-nan",
            "analyze-n_range-inverted", "analyze-n_max-zero", "analyze-n_min-negative", "analyze-n_max-above-int64",
            "plot-floor-nan", "plot-floor-zero", "plot-floor-negative", "plot-vline-zero", "plot-vline-negative",
        ],
    )
    def test_cli_and_library_refuse_alike(self, tmp_path, capsys, argv, library):
        # The CLI does not check these values itself: its message is the library's.
        with pytest.raises(ValueError) as refused:
            library()
        command, *flags = argv
        for i, flag in enumerate(flags):
            if isinstance(flag, dict):
                flags[i] = tmp_path / "exp.json"
                flags[i].write_text(json.dumps(flag))
        if command == "run":
            given = ["--kind", "gaussian", "--n-grid", "2,4", "--trials", SMALL_RUN["trials"],
                     "--seed", SMALL_RUN["seed"]]
        else:
            given = [write_power_law(tmp_path / "pl.csv")]
        assert run_cli(command, *given, *flags, "--out", tmp_path / "o") == 2
        assert capsys.readouterr() == ("", f"config error: {refused.value}\n")
        assert not (tmp_path / "o").exists()

    def test_every_analyze_and_plot_numeric_flag_has_a_refusal_case(self):
        # The library function that reads an analyze or plot number checks
        # it, so each such flag needs a case above.
        (cases,) = [m.args[1] for m in self.test_cli_and_library_refuse_alike.pytestmark if m.name == "parametrize"]
        covered = {(command, word) for (command, *flags), _ in cases for word in flags if str(word).startswith("--")}
        numeric = {
            (command, a.option_strings[0])
            for command in ("analyze", "plot")
            for a in parser_actions(command)
            if a.type in (cli._int_flag, cli._float_flag)
        }
        assert numeric - covered == set()

    def test_huge_signal_runs(self, tmp_path):
        # s = 1e200 overflowed the sufficient sampler's margin, and the run exited 3 on a nan error.
        out = tmp_path / "g"
        assert run_cli("run", "--kind", "gaussian", "--d", 3, "--s", "1e200", "--n-grid", "1,10", "--trials", 3,
                       "--out", out) == 0
        assert read_curve_csv(out / "curve.csv").points == ((1, (0.0, 0.0, 0.0)), (10, (0.0, 0.0, 0.0)))

    @pytest.mark.parametrize(
        "kind, argv, config, field",
        [
            ("linreg", ["--s", 2], None, "s"),
            ("linreg", [], {"bandlimit": 2}, "bandlimit"),
            ("gaussian", ["--sigma", 0.5], None, "sigma"),
            ("gaussian", [], {"estimator": "nn"}, "estimator"),
            ("harmonic", ["--d", 5], None, "d"),
            ("harmonic", [], {"lam": 3.0}, "lam"),
            ("import", ["--seed", 1], None, "seed"),
            ("import", [], {"trials": 2}, "trials"),
        ],
        ids=["linreg-flag", "linreg-config", "gaussian-flag", "gaussian-config", "harmonic-flag",
             "harmonic-config", "import-flag", "import-config"],
    )
    def test_field_the_kind_does_not_read_is_refused(self, tmp_path, capsys, monkeypatch, kind, argv, config, field):
        # Each value would pass its field's own check; the run never starts.
        monkeypatch.setattr(cli, "_dispatch_run", lambda cfg: pytest.fail("the run started"))
        if config is not None:
            cfg = tmp_path / "exp.json"
            cfg.write_text(json.dumps(config))
            argv = ["--config", cfg, *argv]
        if kind == "import":
            argv = ["--input", tmp_path / "raw.csv", *argv]
        assert run_cli("run", "--kind", kind, *argv, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"config error: {field}: not read by kind {kind}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, config, field",
        [
            (["--n-min", 500], None, "n_min"),
            (["--n-max", 600], None, "n_max"),
            (["--points-per-decade", 3], None, "points_per_decade"),
            ([], {"n_min": 500}, "n_min"),
        ],
        ids=["n_min", "n_max", "points_per_decade", "n_min-config"],
    )
    def test_n_grid_excludes_the_range_fields(self, tmp_path, capsys, argv, config, field):
        # With all three, --n-grid ran n = 10, 20 and 40, and the manifest recorded n_min 500.
        if config is not None:
            cfg = tmp_path / "exp.json"
            cfg.write_text(json.dumps(config))
            argv = ["--config", cfg, *argv]
        code = run_cli("run", "--kind", "gaussian", "--n-grid", "10,20,40", *argv, "--out", tmp_path / "o")
        assert code == 2
        assert capsys.readouterr().err == f"config error: {field}: not read when n_grid is set\n"
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
        # No cells ran, so no process count is recorded.
        assert json.loads((out / "manifest.json").read_text())["processes"] is None

    def test_import_renumbers_trials_in_order(self, tmp_path):
        # A curve keeps each n's errors in trial order, not the trial labels.
        src = tmp_path / "raw.csv"
        src.write_text("n,trial,error\n10,7,0.5\n10,3,0.3\n100,0,0.1\n")
        out = tmp_path / "imported"
        assert run_cli("run", "--kind", "import", "--input", src, "--out", out) == 0
        assert (out / "curve.csv").read_text().splitlines()[1:] == [
            "10,0,0.3", "10,1,0.5", "100,0,0.1",
        ]

    def test_import_that_sets_a_simulation_choice_exits_2(self, tmp_path, capsys):
        # An import read the CSV and recorded the arm it never used.
        src = tmp_path / "raw.csv"
        src.write_text("n,trial,error\n10,0,0.5\n")
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"kind": "import", "input": str(src), "arm": "noreg"}))
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == "config error: arm: not read by kind import\n"
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize(
        "mode, argv, flag",
        [
            ("cliffs", ["--n-min", 10], "n-min"),
            ("cliffs", ["--n-max", 20], "n-max"),
            ("fit", ["--threshold", "-0.1"], "threshold"),
            ("fit", ["--min-run", 3], "min-run"),
        ],
        ids=["cliffs-n_min", "cliffs-n_max", "fit-threshold", "fit-min_run"],
    )
    def test_flag_its_mode_does_not_read_exits_2(self, tmp_path, capsys, mode, argv, flag):
        # The range did nothing under --mode cliffs, nor the cliff flags under --mode fit.
        src = write_power_law(tmp_path / "pl.csv")
        assert run_cli_exit("analyze", src, "--mode", mode, *argv, "--out", tmp_path / "r.json") == 2
        assert capsys.readouterr().err == f"config error: {flag}: not read by --mode {mode}\n"
        assert not (tmp_path / "r.json").exists()

    def test_cliff_flags_at_their_defaults_change_nothing(self, tmp_path, capsys):
        src = write_closed_form_gaussian(tmp_path / "gauss.csv")
        assert run_cli("analyze", src) == 0
        unset = capsys.readouterr().out
        assert run_cli("analyze", src, "--threshold", DEFAULT_CLIFF_THRESHOLD, "--min-run", DEFAULT_MIN_RUN) == 0
        assert capsys.readouterr().out == unset

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
            (["--min-run", 0], "min_run"),
            (["--n-min", 100, "--n-max", 10], "n_range"),
            (["--n-max", 0, "--mode", "fit"], "n_range"),
            (["--n-min", -5], "n_range"),
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
        # accepted; the others exited 3 or 4 without naming the flag. A value
        # the library refuses is named by the parameter that reads it.
        src = tmp_path / "pl.csv"
        src.write_text("n,trial,error\n" + "".join(f"{n},0,{1 / n!r}\n" for n in (1, 2, 4, 8, 16)))
        assert run_cli_exit("analyze", src, *argv, "--out", tmp_path / "r.json") == 2
        out, err = capsys.readouterr()
        assert names(err, flag) and out == ""
        assert not (tmp_path / "r.json").exists()


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
        for spec, reason in (("5,-1", "s: signal-to-noise ratio must be >= 0"), ("0,1", "d: dimension must be >= 1")):
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
        out, err = capsys.readouterr()
        assert names(err, flag) and out == ""
        assert not (tmp_path / "x.svg").exists()

    def test_overflowing_overlay_exits_3_naming_it(self, tmp_path, capsys):
        # n^1000 overflows to inf: numpy's overflow warning escaped main
        # where warnings are errors, and was printed above the data error.
        src = tmp_path / "c.csv"
        src.write_text("n,trial,error\n10,0,0.5\n100,0,0.3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("plot", src, "--overlay-powerlaw", "1,-1000,0", "--out", tmp_path / "x.svg") == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: overlay 'A n^-a + E (1,-1000,0)': error values must be finite")
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


def parser_actions(command="run"):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]._actions


def test_run_flags_set_the_config_fields_by_name():
    dests = {a.dest for a in parser_actions() if a.dest not in ("help", "config")}
    assert dests == {f.name for f in dataclasses.fields(ExperimentConfig)}


def test_run_flag_choices_come_from_the_choice_table():
    with_choices = {a.dest: a.choices for a in parser_actions() if a.choices is not None}
    assert with_choices == CHOICES


def test_benchmark_run_commands_build_valid_configs(tmp_path, monkeypatch):
    # A field that the table refused in a benchmark command would end every
    # pipeline of that workload as a failed run.
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while the file runs.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    # Every repetition of a workload runs at one seed, and analyze and plot
    # commands are checked as far as the CLI checks them before reading a curve.
    parser = build_parser()
    counts = {"run": 0, "analyze": 0, "plot": 0}
    for workload in workloads.WORKLOADS.values():
        for seed in (1, 24, 102, 2**63):
            for argv in workload.commands(tmp_path, seed):
                args = parser.parse_args(argv)
                if argv[0] == "run":
                    cli._build_config(args)
                elif argv[0] == "analyze":
                    cli._check_mode_flags(args)
                else:
                    cli._parse_overlays(args)
                counts[argv[0]] += 1
    assert counts == {"run": 6 * 4, "analyze": 3 * 4, "plot": 3 * 4}
    assert not any(tmp_path.iterdir())


def readme_text():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_commands_and_flags_exist():
    # A flag or command retired from the CLI must leave README in the same change,
    # and a README run may set only fields its kind reads.
    text = readme_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    commands = [
        line for block in blocks for line in block.replace("\\\n", " ").splitlines() if line.startswith("cliffscale ")
    ]
    assert len(commands) >= 4
    parser = build_parser()
    for command in commands:
        args = parser.parse_args(shlex.split(command, comments=True)[1:])
        if args.command == "run":
            cli._build_config(args)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {flag for subparser in sub.choices.values() for flag in subparser._option_string_actions}
    named = set(re.findall(r"--[a-z][a-z-]*", text)) - {"--no-build-isolation"}
    assert named - options == set()


def readme_flag_fields(text):
    """The config field of each run flag named in the text."""
    options = {flag: a.dest for a in parser_actions() for flag in a.option_strings}
    return {options[flag] for flag in re.findall(r"--[a-z][a-z-]*", text)}


def test_readme_kind_table_matches_the_fields_each_kind_reads():
    rows = dict(re.findall(r"^\| `(\w+)` +\| (.*) \|$", readme_text(), flags=re.M))
    assert set(rows) == set(cli.KIND_FIELDS)
    shared = {"kind", "out", *cli.SIMULATION_FIELDS}
    for kind, flags in rows.items():
        assert readme_flag_fields(flags) == set(cli.KIND_FIELDS[kind]) - shared, kind


def test_readme_common_flags_are_the_simulation_fields():
    common = re.search(r"^Common: (.*?)\.\s", readme_text(), flags=re.M | re.S).group(1)
    assert readme_flag_fields(common) == set(cli.SIMULATION_FIELDS)


def test_readme_analysis_json_keys_match_the_report(tmp_path):
    # A field added to the report, such as a cliff region's, must reach README in the same change.
    text = readme_text()
    bullet = re.search(r"^- \*\*`analysis\.json`\*\*.*?`(\{.*?\})`", text, flags=re.M | re.S).group(1)
    documented = re.findall(r'"(\w+)"', bullet)
    src = write_closed_form_gaussian(tmp_path / "gauss.csv")
    report = tmp_path / "report.json"
    assert run_cli("analyze", src, "--mode", "both", "--out", report) == 0
    payload = json.loads(report.read_text())
    assert payload["cliffs"]
    written = [*payload, *payload["fit"], *payload["cliffs"][0]]
    assert sorted(documented) == sorted(written)
