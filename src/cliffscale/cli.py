"""Command-line harness: seeded experiment runs, curve analysis, SVG plots.

Subcommands:
  run      simulate a scaling experiment (or import a CSV) and write
           curve.csv, curve.json, plot.svg and manifest.json
  analyze  fit a power law and/or detect cliffs on a curve file's per-n median
  plot     render one or more curve files to SVG

Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import sys
import time
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, _blas
from .curves import (
    CurveError,
    FitError,
    ScalingCurve,
    check_n_grid,
    detect_cliffs,
    fit_power_law,
    log_spaced_ns,
    DEFAULT_CLIFF_THRESHOLD,
    DEFAULT_ERROR_FLOOR,
    DEFAULT_MIN_RUN,
    MAX_N,
)
# curve_to_json is not called here: run writes curve.json in write_curve_csv's
# pass. benchmarks/tracing.py wraps it at this name.
from .curve_io import _is_decimal, curve_to_json, read_curve_csv, write_curve_csv
from .gaussian import GaussianTask, approx_error, run_gaussian_scaling
from .harmonic.training import ARMS, DivergenceError, TrainConfig, run_harmonic_scaling
from .linreg import ESTIMATORS, run_linreg_scaling
from .svgplot import PlotError, render_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# The fields that choose a run's n grid when n_grid is not set.
RANGE_FIELDS = ("n_min", "n_max", "points_per_decade")

# The fields every simulated kind reads. workers selects nothing; it is still
# accepted and checked.
SIMULATION_FIELDS = ("n_grid", *RANGE_FIELDS, "trials", "seed", "workers")

# The config fields each kind reads. ExperimentConfig.validate refuses any
# other field that a config file or flag sets, and the manifest echoes only
# these, less the grid fields that did not choose the run's grid.
KIND_FIELDS = {
    "linreg": ("kind", "out", "d", "sigma", "lam", "estimator", *SIMULATION_FIELDS),
    "gaussian": ("kind", "out", "d", "s", *SIMULATION_FIELDS),
    "harmonic": ("kind", "out", "bandlimit", "arm", "width", "max_steps", "reg_points", *SIMULATION_FIELDS),
    "import": ("kind", "out", "input"),
}

# The allowed values of the config fields that name a choice; the parser and
# ExperimentConfig.validate both read them here. Each runner's choices are
# named by the module that implements them.
CHOICES = {
    "kind": tuple(KIND_FIELDS),
    "estimator": ESTIMATORS,
    "arm": ARMS,
}


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclass
class ExperimentConfig:
    kind: str = "linreg"
    d: int = 5
    sigma: float = 0.0
    lam: float = 1.0
    s: float = 1.0
    bandlimit: int = 2
    arm: str = "reg"
    width: int = TrainConfig.width
    estimator: str = "lstsq"
    n_grid: list[int] | None = None
    n_min: int = 1
    n_max: int = 1000
    points_per_decade: int = 10
    trials: int = 50
    seed: int = 0
    workers: int = 1
    max_steps: int = TrainConfig.max_steps
    reg_points: int = TrainConfig.reg_points
    input: str | None = None
    out: str = "."

    def validate(self, given) -> None:
        """Check what only the CLI knows; ``given`` names the fields a config file or flag set.

        A field that the kind does not read may not be given, so it keeps its
        default. Each value a runner reads is checked by the library module
        that uses it, whose ValueError names the field.
        """
        # kind is checked first, so that KIND_FIELDS has an entry for it.
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name}: expected one of {allowed}, got {value!r}")
        for name in given:
            if name not in KIND_FIELDS[self.kind]:
                raise ConfigError(f"{name}: not read by kind {self.kind}")
        if self.n_grid is not None:
            for name in RANGE_FIELDS:
                if name in given:
                    raise ConfigError(f"{name}: not read when n_grid is set")
        if self.kind == "import" and not self.input:
            raise ConfigError("input: import runs need an input CSV path")
        if self.workers < 1:
            raise ConfigError(f"workers: must be >= 1, got {self.workers}")
        self.resolve_n_grid()

    def resolve_n_grid(self) -> list[int]:
        try:
            if self.n_grid is not None:
                return check_n_grid(self.n_grid)
            return log_spaced_ns(self.n_min, self.n_max, self.points_per_decade)
        except CurveError as exc:
            raise ConfigError(f"n_grid: {exc}") from None


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"config: {path} must hold a JSON object")
    hints = typing.get_type_hints(ExperimentConfig)
    for key, value in payload.items():
        if key not in hints:
            raise ConfigError(f"config: unknown field {key!r} in {path}")
        if not _fits_annotation(value, hints[key]):
            expected = ExperimentConfig.__dataclass_fields__[key].type
            raise ConfigError(f"{key}: expected {expected}, got {value!r} in {path}")
    return payload


def _fits_annotation(value, hint) -> bool:
    """Whether a JSON value has a config field's annotated type; bools are not numbers."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits_annotation(v, args[0]) for v in value)
    if args:
        return any(_fits_annotation(value, h) for h in args)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    given = _load_config_file(args.config) if args.config else {}
    # Every run flag's dest is the name of the field it sets; an unset flag is None.
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name)
        if value is not None:
            given[f.name] = value
    cfg = ExperimentConfig(**given)
    cfg.validate(given)
    return cfg


def _int_flag(text: str) -> int:
    """An integer flag: ASCII decimal digits, as a curve CSV writes n, after an optional '-'."""
    if not _is_decimal(text.strip().removeprefix("-")):
        raise argparse.ArgumentTypeError(f"expected a decimal integer, got {text!r}")
    return int(text)


def _n_grid_flag(text: str) -> list[int]:
    """``--n-grid``: comma-separated integer entries; check_n_grid refuses those below 1."""
    return [_int_flag(part) for part in text.split(",")]


def _float_flag(text: str) -> float:
    """A float flag: ASCII without '_', as a curve CSV's error column; nan and inf parse."""
    try:
        if text.isascii() and "_" not in text:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an ASCII number without '_', got {text!r}")


# A negative number in decimal or exponent form: -1, -1.5, -.5, -1e-3, -.5E+1.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _dispatch_run(cfg: ExperimentConfig) -> ScalingCurve:
    if cfg.kind == "import":
        return read_curve_csv(cfg.input, metadata={"task": "import", "source": cfg.input})
    grid = cfg.resolve_n_grid()
    if cfg.kind == "linreg":
        return run_linreg_scaling(
            d=cfg.d,
            sigma=cfg.sigma,
            estimator=cfg.estimator,
            n_grid=grid,
            trials=cfg.trials,
            seed=cfg.seed,
            lam=cfg.lam,
        )
    if cfg.kind == "gaussian":
        return run_gaussian_scaling(
            d=cfg.d,
            s=cfg.s,
            n_grid=grid,
            trials=cfg.trials,
            seed=cfg.seed,
        )
    train_cfg = TrainConfig(width=cfg.width, max_steps=cfg.max_steps, reg_points=cfg.reg_points)
    return run_harmonic_scaling(
        B=cfg.bandlimit,
        arm=cfg.arm,
        n_grid=grid,
        trials=cfg.trials,
        seed=cfg.seed,
        config=train_cfg,
    )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _environment() -> dict:
    """Interpreter and library versions, CPU count and the BLAS thread count now in effect."""
    # scipy's top-level package alone: 0.8 MiB and ~15 ms where no cell
    # imports it, half the cost of reading importlib.metadata.
    import scipy

    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": _blas.thread_count(),
    }


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    environment = _environment()
    started = time.perf_counter()
    curve = _dispatch_run(cfg)
    duration = time.perf_counter() - started
    # Made only now, so that a run that fails leaves no empty directory behind.
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    csv_path = out_dir / "curve.csv"
    json_path = out_dir / "curve.json"
    svg_path = out_dir / "plot.svg"
    write_curve_csv(curve, csv_path, _json_path=json_path)
    outputs = {"curve.csv": _sha256(csv_path), "curve.json": _sha256(json_path)}
    if len(curve.points) >= 2:
        svg_path.write_text(
            render_svg([curve], floor=DEFAULT_ERROR_FLOOR), encoding="utf-8"
        )
        outputs["plot.svg"] = _sha256(svg_path)

    # The grid comes from n_grid when it is set, else from the range fields.
    unread = RANGE_FIELDS if cfg.n_grid is not None else ("n_grid",)
    manifest = {
        "config": {name: getattr(cfg, name) for name in KIND_FIELDS[cfg.kind] if name not in unread},
        "version": __version__,
        "environment": environment,
        "duration_seconds": duration,
        # None for an import, whose curve no cells computed.
        "processes": curve.processes,
        "trial_counts": {str(n): len(errs) for n, errs in curve.points},
        "outputs": outputs,
        # The process's peak resident set so far; Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # The largest peak among the child processes reaped so far, such as
        # those that computed cells; 0 when there were none.
        "forked_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {csv_path}, {json_path} and manifest ({len(curve.points)} n values)")
    return EXIT_OK


def _analysis_table(curve: ScalingCurve) -> str:
    med = curve.statistic("median")
    lo = curve.statistic("min")
    hi = curve.statistic("max")
    lines = [f"{'n':>8}  {'median':>12}  {'min':>12}  {'max':>12}  {'trials':>6}"]
    for (n, errs), m, a, b in zip(curve.points, med, lo, hi):
        lines.append(f"{n:>8}  {m:>12.5e}  {a:>12.5e}  {b:>12.5e}  {len(errs):>6}")
    return "\n".join(lines)


def _check_floor(floor: float | None) -> None:
    if floor is not None and not (math.isfinite(floor) and floor > 0):
        raise ConfigError(f"floor: must be finite and > 0, got {floor}")


# The analyze flags that only one mode reads; --mode both reads them all.
MODE_FLAGS = {"fit": ("n_min", "n_max"), "cliffs": ("threshold", "min_run")}


def cmd_analyze(args: argparse.Namespace) -> int:
    for mode, dests in MODE_FLAGS.items():
        for dest in dests:
            if args.mode not in (mode, "both") and getattr(args, dest) is not None:
                raise ConfigError(f"{dest.replace('_', '-')}: not read by --mode {args.mode}")
    _check_floor(args.floor)
    if args.threshold is not None and not (math.isfinite(args.threshold) and args.threshold <= 0):
        raise ConfigError(f"threshold: must be finite and <= 0, got {args.threshold}")
    if args.min_run is not None and args.min_run < 1:
        raise ConfigError(f"min-run: must be >= 1, got {args.min_run}")
    for flag, value in (("n-min", args.n_min), ("n-max", args.n_max)):
        if value is not None and value < 1:
            raise ConfigError(f"{flag}: must be >= 1, got {value}")
    if args.n_min is not None and args.n_max is not None and args.n_min >= args.n_max:
        raise ConfigError(f"n-min: must be < n-max = {args.n_max}, got {args.n_min}")
    curve = read_curve_csv(args.curve)
    print(_analysis_table(curve))
    report: dict = {}
    if args.mode in ("fit", "both"):
        fit = fit_power_law(curve, n_range=(args.n_min or 1, args.n_max or MAX_N), floor=args.floor)
        n_min, n_max = fit.n_range
        report["fit"] = {
            "A": fit.A, "alpha": fit.alpha, "E": fit.E, "residual": fit.residual, "n_min": n_min, "n_max": n_max
        }
        print(
            f"power law: A={fit.A:.6g} alpha={fit.alpha:.6g} E={fit.E:.6g} "
            f"residual={fit.residual:.3g} over n in [{n_min}, {n_max}]"
        )
    if args.mode in ("cliffs", "both"):
        regions = detect_cliffs(
            curve,
            threshold=DEFAULT_CLIFF_THRESHOLD if args.threshold is None else args.threshold,
            min_run=DEFAULT_MIN_RUN if args.min_run is None else args.min_run,
            floor=args.floor if args.floor is not None else DEFAULT_ERROR_FLOOR,
        )
        report["cliffs"] = [asdict(r) for r in regions]
        if regions:
            for r in regions:
                print(f"cliff: n in [{r.n_start}, {r.n_end}], strength {r.strength:.4g}")
        else:
            print("cliff: none detected")
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


def _parse_overlays(args) -> list[tuple[str, typing.Callable[[np.ndarray], np.ndarray]]]:
    """Each overlay flag as (label, its values at given n); checked before any curve is read."""
    overlays = []
    if args.overlay_powerlaw:
        try:
            a_, alpha_, e_ = (_float_flag(p) for p in args.overlay_powerlaw.split(","))
        except (ValueError, argparse.ArgumentTypeError):
            raise ConfigError(
                f"overlay-powerlaw: expected A,alpha,E, got {args.overlay_powerlaw!r}"
            ) from None
        if not all(map(math.isfinite, (a_, alpha_, e_))):
            raise ConfigError(f"overlay-powerlaw: A, alpha and E must be finite, got {args.overlay_powerlaw!r}")
        overlays.append((f"A n^-a + E ({a_:g},{alpha_:g},{e_:g})", lambda ns: a_ * ns**-alpha_ + e_))
    if args.overlay_gaussian:
        try:
            d_text, s_text = args.overlay_gaussian.split(",")
            d_, s_ = _int_flag(d_text), _float_flag(s_text)
        except (ValueError, argparse.ArgumentTypeError):
            raise ConfigError(
                f"overlay-gaussian: expected d,s, got {args.overlay_gaussian!r}"
            ) from None
        try:
            task = GaussianTask(d=d_, s=s_)
        except ValueError as exc:
            raise ConfigError(f"overlay-gaussian: {exc} in {args.overlay_gaussian!r}") from None
        overlays.append((
            f"closed form (d={task.d}, s={task.s:g})",
            lambda ns: np.array([approx_error(task, int(n)) for n in ns]),
        ))
    return overlays


def cmd_plot(args: argparse.Namespace) -> int:
    _check_floor(args.floor)
    if args.vline is not None and args.vline < 1:
        raise ConfigError(f"vline: must be >= 1, got {args.vline}")
    overlay_specs = _parse_overlays(args)
    curves = [read_curve_csv(path) for path in args.curves]
    for path, curve in zip(args.curves, curves):
        if len(curve.points) < 2:
            raise PlotError(f"{path}: cannot draw a scaling line through a single-point curve")
    # Every curve spans at least two n >= 1, so n_lo < n_hi.
    n_lo = min(int(c.ns[0]) for c in curves)
    n_hi = max(int(c.ns[-1]) for c in curves)
    ns = log_spaced_ns(n_lo, n_hi, 40)
    overlays = []
    for label, values in overlay_specs:
        # A closed form that overflows gives inf, which the curve refuses below.
        with np.errstate(over="ignore", invalid="ignore"):
            ys = values(np.array(ns, dtype=float))
        try:
            overlays.append(ScalingCurve(points=tuple((n, (y,)) for n, y in zip(ns, ys)), metadata={"task": label}))
        except CurveError as exc:
            raise PlotError(f"overlay {label!r}: {exc}") from None
    svg = render_svg(curves, overlays=overlays, vline=args.vline, floor=args.floor)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffscale",
        description="Simulate and analyze data-scaling cliffs.",
    )
    parser.add_argument("--version", action="version", version=f"cliffscale {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scaling experiment and write its outputs")
    run.add_argument("--config", help="JSON config file; flags override its fields")
    run.add_argument("--kind", choices=CHOICES["kind"])
    run.add_argument("--d", type=_int_flag, help="task dimension")
    run.add_argument("--sigma", type=_float_flag, help="observation noise")
    run.add_argument("--lambda", dest="lam", type=_float_flag, help="ridge penalty")
    run.add_argument("--estimator", choices=CHOICES["estimator"])
    run.add_argument("--s", type=_float_flag, help="signal-to-noise ratio")
    run.add_argument("--bandlimit", type=_int_flag, help="bandlimit B")
    run.add_argument("--arm", choices=CHOICES["arm"], help="regularized or not")
    run.add_argument("--width", type=_int_flag, help="network width")
    run.add_argument("--max-steps", type=_int_flag, help="optimizer step budget")
    run.add_argument("--reg-points", type=_int_flag, help="regularizer sample count m")
    run.add_argument("--n-grid", type=_n_grid_flag, help="explicit comma-separated n values")
    run.add_argument("--n-min", type=_int_flag)
    run.add_argument("--n-max", type=_int_flag)
    run.add_argument("--points-per-decade", type=_int_flag)
    run.add_argument("--trials", type=_int_flag)
    run.add_argument("--seed", type=_int_flag)
    run.add_argument("--workers", type=_int_flag, help="validated for compatibility; selects nothing")
    run.add_argument("--input", help="CSV to ingest")
    run.add_argument("--out", help="output directory")
    for action in run._actions:
        kinds = [kind for kind, names in KIND_FIELDS.items() if action.dest in names]
        if 0 < len(kinds) < len(KIND_FIELDS):
            action.help = f"{action.help or ''} (kind {', '.join(kinds)})".lstrip()
    run.set_defaults(func=cmd_run)

    analyze = sub.add_parser("analyze", help="fit and/or detect cliffs on a curve file")
    analyze.add_argument("curve", help="curve CSV file")
    analyze.add_argument("--mode", choices=("fit", "cliffs", "both"), default="both")
    analyze.add_argument("--n-min", type=_int_flag, help="restrict the fit range")
    analyze.add_argument("--n-max", type=_int_flag, help="restrict the fit range")
    analyze.add_argument("--threshold", type=_float_flag, help=f"cliff threshold (default {DEFAULT_CLIFF_THRESHOLD})")
    analyze.add_argument("--min-run", type=_int_flag, help=f"least cliff length (default {DEFAULT_MIN_RUN})")
    analyze.add_argument("--floor", type=_float_flag, help="clamp errors up to this before logs")
    analyze.add_argument("--out", help="write the analysis JSON here")
    analyze.set_defaults(func=cmd_analyze)

    plot = sub.add_parser("plot", help="render curve files to SVG")
    plot.add_argument("curves", nargs="+", help="curve CSV files")
    plot.add_argument("--out", default="plot.svg")
    plot.add_argument("--vline", type=_int_flag, help="dashed vertical marker at this n")
    plot.add_argument("--floor", type=_float_flag, help="clamp errors up to this before log axes")
    plot.add_argument("--overlay-powerlaw", help="overlay A,alpha,E closed form")
    plot.add_argument("--overlay-gaussian", help="overlay the gaussian closed form: d,s")
    plot.set_defaults(func=cmd_plot)
    # argparse reads only -12 and -1.5 as negative numbers, and takes any
    # other word after a dash, such as -1e-3, for an option.
    for subparser in sub.choices.values():
        subparser._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # The configuration asks for an array larger than memory.
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitError, DivergenceError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CurveError, PlotError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
