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
import resource
import sys
import time
import typing
from dataclasses import asdict, dataclass, field, fields
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
)
from .curve_io import (
    _is_decimal,
    cliffs_to_json,
    curve_to_json,
    fit_to_json,
    read_curve_csv,
    write_curve_csv,
)
from .gaussian import GaussianTask, approx_error, run_gaussian_scaling
from .harmonic.training import ARMS, INPUT_DIM, DivergenceError, TrainConfig, run_harmonic_scaling
from .linreg import ESTIMATORS, run_linreg_scaling
from .svgplot import Overlay, PlotError, render_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# The allowed values of the config fields that name a choice; the parser and
# ExperimentConfig.validate both read them here. Each runner's choices are
# named by the module that implements them.
CHOICES = {
    "kind": ("linreg", "gaussian", "harmonic", "import"),
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
    n_grid: list[int] = field(default_factory=list)
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

    def validate(self) -> None:
        # kind is checked first; an import run reads a CSV and uses no other choice.
        for name in ("kind",) if self.kind == "import" else CHOICES:
            value = getattr(self, name)
            if value not in CHOICES[name]:
                raise ConfigError(f"{name}: expected one of {CHOICES[name]}, got {value!r}")
        if self.kind == "import":
            if not self.input:
                raise ConfigError("input: import runs need an input CSV path")
            return
        for name in ("sigma", "lam", "s"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name}: must be finite, got {getattr(self, name)}")
        if self.d < 1:
            raise ConfigError(f"d: must be >= 1, got {self.d}")
        if self.sigma < 0:
            raise ConfigError(f"sigma: must be >= 0, got {self.sigma}")
        if self.s < 0:
            raise ConfigError(f"s: must be >= 0, got {self.s}")
        if self.estimator == "ridge" and self.lam <= 0:
            raise ConfigError(f"lam: ridge needs a positive value, got {self.lam}")
        if self.bandlimit < 0:
            raise ConfigError(f"bandlimit: must be >= 0, got {self.bandlimit}")
        if self.width < 1:
            raise ConfigError(f"width: must be >= 1, got {self.width}")
        if self.max_steps < 1:
            raise ConfigError(f"max_steps: must be >= 1, got {self.max_steps}")
        if self.reg_points < 1:
            raise ConfigError(f"reg_points: must be >= 1, got {self.reg_points}")
        if self.kind == "harmonic" and self.arm == "reg":
            # The regularizer projects onto (2B+1)^INPUT_DIM basis columns,
            # and fewer points than that leave no residual.
            n_basis = (2 * self.bandlimit + 1) ** INPUT_DIM
            if self.reg_points < n_basis:
                raise ConfigError(f"reg_points: the reg arm needs >= (2B+1)^{INPUT_DIM} = {n_basis}, got {self.reg_points}")
        if not 1 <= self.trials <= 2**32:
            # Each trial index is one 32-bit word of its stream key.
            raise ConfigError(f"trials: must be in [1, 2**32], got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed: must be a 64-bit unsigned integer, got {self.seed}")
        if self.workers < 1:
            raise ConfigError(f"workers: must be >= 1, got {self.workers}")
        self.resolve_n_grid()

    def resolve_n_grid(self) -> list[int]:
        try:
            if self.n_grid:
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
    cfg = ExperimentConfig()
    if args.config:
        for key, value in _load_config_file(args.config).items():
            setattr(cfg, key, value)
    # Every run flag's dest is the name of the field it sets; an unset flag is None.
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name)
        if f.name == "n_grid":
            value = _parse_n_grid(value) if value else None
        if value is not None:
            setattr(cfg, f.name, value)
    cfg.validate()
    return cfg


def _parse_n_grid(text: str) -> list[int]:
    """``--n-grid``: entries of ASCII decimal digits, as a curve CSV writes n."""
    parts = [part.strip() for part in text.split(",")]
    bad = next((part for part in parts if not _is_decimal(part)), None)
    if bad is not None:
        raise ConfigError(f"n_grid: expected comma-separated decimal integers, got {bad!r} in {text!r}")
    return [int(part) for part in parts]


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
            lam=cfg.lam if cfg.estimator == "ridge" else None,
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
    started = time.time()
    curve = _dispatch_run(cfg)
    duration = time.time() - started
    # Made only now, so that a run that fails leaves no empty directory behind.
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    csv_path = out_dir / "curve.csv"
    json_path = out_dir / "curve.json"
    svg_path = out_dir / "plot.svg"
    write_curve_csv(curve, csv_path)
    json_path.write_text(curve_to_json(curve), encoding="utf-8")
    outputs = {"curve.csv": _sha256(csv_path), "curve.json": _sha256(json_path)}
    if len(curve.points) >= 2:
        svg_path.write_text(
            render_svg([curve], floor=DEFAULT_ERROR_FLOOR), encoding="utf-8"
        )
        outputs["plot.svg"] = _sha256(svg_path)

    manifest = {
        "config": asdict(cfg),
        "version": __version__,
        "environment": environment,
        "duration_seconds": duration,
        "trial_counts": {str(n): len(errs) for n, errs in curve.points},
        "outputs": outputs,
        # The process's peak resident set so far; Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
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


def cmd_analyze(args: argparse.Namespace) -> int:
    _check_floor(args.floor)
    if not (math.isfinite(args.threshold) and args.threshold <= 0):
        raise ConfigError(f"threshold: must be finite and <= 0, got {args.threshold}")
    if args.min_run < 1:
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
        n_range = None
        if args.n_min is not None or args.n_max is not None:
            n_max = int(curve.ns[-1]) if args.n_max is None else args.n_max
            n_range = (1 if args.n_min is None else args.n_min, n_max)
        fit = fit_power_law(curve, n_range=n_range, floor=args.floor)
        report["fit"] = json.loads(fit_to_json(fit))
        print(
            f"power law: A={fit.A:.6g} alpha={fit.alpha:.6g} E={fit.E:.6g} "
            f"residual={fit.residual:.3g} over n in [{fit.n_range[0]}, {fit.n_range[1]}]"
        )
    if args.mode in ("cliffs", "both"):
        regions = detect_cliffs(
            curve,
            threshold=args.threshold,
            min_run=args.min_run,
            floor=args.floor if args.floor is not None else DEFAULT_ERROR_FLOOR,
        )
        report["cliffs"] = json.loads(cliffs_to_json(regions))
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
            a_, alpha_, e_ = (float(p) for p in args.overlay_powerlaw.split(","))
        except ValueError:
            raise ConfigError(
                f"overlay-powerlaw: expected A,alpha,E, got {args.overlay_powerlaw!r}"
            ) from None
        if not all(map(math.isfinite, (a_, alpha_, e_))):
            raise ConfigError(f"overlay-powerlaw: A, alpha and E must be finite, got {args.overlay_powerlaw!r}")
        overlays.append((f"A n^-a + E ({a_:g},{alpha_:g},{e_:g})", lambda ns: a_ * ns**-alpha_ + e_))
    if args.overlay_gaussian:
        try:
            d_text, s_text = args.overlay_gaussian.split(",")
            d_, s_ = int(d_text), float(s_text)
        except ValueError:
            raise ConfigError(
                f"overlay-gaussian: expected d,s, got {args.overlay_gaussian!r}"
            ) from None
        if not math.isfinite(s_):
            raise ConfigError(f"overlay-gaussian: s must be finite, got {args.overlay_gaussian!r}")
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
    n_lo = min(int(c.ns[0]) for c in curves)
    n_hi = max(int(c.ns[-1]) for c in curves)
    ns = np.array(log_spaced_ns(max(n_lo, 1), max(n_hi, 2), 40), dtype=float)
    overlays = [Overlay(label=label, ns=ns, values=values(ns)) for label, values in overlay_specs]
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
    run.add_argument("--d", type=int, help="task dimension (linreg, gaussian)")
    run.add_argument("--sigma", type=float, help="observation noise (linreg)")
    run.add_argument("--lambda", dest="lam", type=float, help="ridge penalty (linreg)")
    run.add_argument("--estimator", choices=CHOICES["estimator"])
    run.add_argument("--s", type=float, help="signal-to-noise ratio (gaussian)")
    run.add_argument("--bandlimit", type=int, help="harmonic bandlimit B")
    run.add_argument("--arm", choices=CHOICES["arm"], help="harmonic arm")
    run.add_argument("--width", type=int, help="harmonic network width")
    run.add_argument("--max-steps", type=int, help="harmonic optimizer step budget")
    run.add_argument("--reg-points", type=int, help="harmonic regularizer sample count m")
    run.add_argument("--n-grid", help="explicit comma-separated n values")
    run.add_argument("--n-min", type=int)
    run.add_argument("--n-max", type=int)
    run.add_argument("--points-per-decade", type=int)
    run.add_argument("--trials", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--workers", type=int, help="validated for compatibility; cells always run serially")
    run.add_argument("--input", help="CSV to ingest (kind=import)")
    run.add_argument("--out", help="output directory")
    run.set_defaults(func=cmd_run)

    analyze = sub.add_parser("analyze", help="fit and/or detect cliffs on a curve file")
    analyze.add_argument("curve", help="curve CSV file")
    analyze.add_argument("--mode", choices=("fit", "cliffs", "both"), default="both")
    analyze.add_argument("--n-min", type=int, help="restrict the fit range")
    analyze.add_argument("--n-max", type=int, help="restrict the fit range")
    analyze.add_argument("--threshold", type=float, default=DEFAULT_CLIFF_THRESHOLD)
    analyze.add_argument("--min-run", type=int, default=DEFAULT_MIN_RUN)
    analyze.add_argument("--floor", type=float, help="clamp errors up to this before logs")
    analyze.add_argument("--out", help="write the analysis JSON here")
    analyze.set_defaults(func=cmd_analyze)

    plot = sub.add_parser("plot", help="render curve files to SVG")
    plot.add_argument("curves", nargs="+", help="curve CSV files")
    plot.add_argument("--out", default="plot.svg")
    plot.add_argument("--vline", type=int, help="dashed vertical marker at this n")
    plot.add_argument("--floor", type=float, help="clamp errors up to this before log axes")
    plot.add_argument("--overlay-powerlaw", help="overlay A,alpha,E closed form")
    plot.add_argument("--overlay-gaussian", help="overlay the gaussian closed form: d,s")
    plot.set_defaults(func=cmd_plot)
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
    except (CurveError, PlotError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
