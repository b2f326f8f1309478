"""The benchmark's three workloads: CLI calls to make and checks on their outputs.

Each workload is a fixed sequence of ``cliffscale`` CLI calls (run, then
analyze and plot on the curves it produced) issued by one client in a
closed loop. The checks parse the output files independently of the
package and apply the tolerances of acceptance criteria 2-4, not stored
hashes, so a change that announces new random streams still passes.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """A workload's outputs are missing or violate its correctness check."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (output directory, seed) -> CLI argument lists, run in order.
    commands: Callable[[Path, int], list[list[str]]]
    check: Callable[[Path], None]
    # Files (relative to the output directory) that traced and untraced
    # runs of one seed must reproduce byte for byte.
    outputs: tuple[str, ...]


def log_grid(n_min: int, decades: int, per_decade: int = 10) -> list[int]:
    return [round(n_min * 10 ** (i / per_decade)) for i in range(decades * per_decade + 1)]


def _grid_arg(grid) -> str:
    return ",".join(str(n) for n in grid)


def read_curve(path: Path) -> dict[int, dict[int, float]]:
    """n -> {trial: error} from a curve CSV, rejecting malformed or non-finite rows."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CheckFailed(f"{path}: {exc}") from None
    if not lines or lines[0] != "n,trial,error":
        raise CheckFailed(f"{path}: missing header")
    curve: dict[int, dict[int, float]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            n_text, trial_text, err_text = line.split(",")
            n, trial, err = int(n_text), int(trial_text), float(err_text)
        except ValueError:
            raise CheckFailed(f"{path}:{lineno}: malformed row {line!r}") from None
        if not (math.isfinite(err) and err >= 0):
            raise CheckFailed(f"{path}:{lineno}: error {err} is not finite and >= 0")
        if trial in curve.setdefault(n, {}):
            raise CheckFailed(f"{path}:{lineno}: duplicate cell n={n} trial={trial}")
        curve[n][trial] = err
    return curve


def require_cells(curve: dict, grid, trials: int, where: str) -> None:
    if sorted(curve) != list(grid):
        raise CheckFailed(f"{where}: n values {sorted(curve)} != {list(grid)}")
    for n in grid:
        if sorted(curve[n]) != list(range(trials)):
            raise CheckFailed(f"{where}: n={n} has trials {len(curve[n])}, expected 0..{trials - 1}")


def medians(curve: dict) -> dict[int, float]:
    return {n: statistics.median(cells.values()) for n, cells in curve.items()}


def require_svg(path: Path) -> None:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckFailed(f"{path}: {exc}") from None
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        raise CheckFailed(f"{path}: not an SVG document")


def read_analysis(path: Path, keys: tuple[str, ...]) -> dict:
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path}: {exc}") from None
    missing = [k for k in keys if k not in report]
    if missing:
        raise CheckFailed(f"{path}: missing {missing}")
    return report


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# --- gaussian-pool: acceptance criterion 4 on a two-thread pool ---------------

G_D, G_S = 1000, 1.0
G_GRID = (10, 100, 1000, 10_000, 100_000)
G_TRIALS = 10_000
G_WORKERS = 2


def _gaussian_commands(out: Path, seed: int) -> list[list[str]]:
    curve = str(out / "curve.csv")
    return [
        ["run", "--kind", "gaussian", "--d", str(G_D), "--s", "1", "--n-grid", _grid_arg(G_GRID),
         "--trials", str(G_TRIALS), "--workers", str(G_WORKERS), "--seed", str(seed), "--out", str(out)],
        ["analyze", curve, "--mode", "both", "--out", str(out / "analysis.json")],
        ["plot", curve, "--overlay-gaussian", f"{G_D},1", "--out", str(out / "overlay.svg")],
    ]


def _gaussian_check(out: Path) -> None:
    curve = read_curve(out / "curve.csv")
    require_cells(curve, G_GRID, G_TRIALS, "gaussian curve")
    med = medians(curve)
    for n in G_GRID[:-1]:
        approx = _phi(-G_S / math.sqrt(1.0 + G_D / (n * G_S * G_S)))
        if not abs(med[n] - approx) < 0.01:
            raise CheckFailed(f"gaussian n={n}: median {med[n]:.5f} vs closed form {approx:.5f} (tol 0.01)")
    floor = _phi(-G_S)
    if not abs(med[G_GRID[-1]] - floor) < 0.005:
        raise CheckFailed(f"gaussian n={G_GRID[-1]}: median {med[G_GRID[-1]]:.5f} vs Phi(-s) {floor:.5f} (tol 0.005)")
    read_analysis(out / "analysis.json", ("fit", "cliffs"))
    require_svg(out / "plot.svg")
    require_svg(out / "overlay.svg")


# --- linreg-nn-ridge: criteria 2 and 3, serial --------------------------------

NN_GRID = tuple(log_grid(100, 2))
NN_TRIALS = 1
RIDGE_GRID = tuple(log_grid(10, 2))
RIDGE_TRIALS = 50
LSTSQ_GRID = (50, 100)
LSTSQ_TRIALS = 50


def _linreg_commands(out: Path, seed: int) -> list[list[str]]:
    common = ["--workers", "1", "--seed", str(seed)]
    runs = {
        "nn": ["--estimator", "nn", "--d", "5", "--n-grid", _grid_arg(NN_GRID), "--trials", str(NN_TRIALS)],
        "ridge": ["--estimator", "ridge", "--d", "100", "--sigma", "0.1", "--lambda", "1",
                  "--n-grid", _grid_arg(RIDGE_GRID), "--trials", str(RIDGE_TRIALS)],
        "lstsq": ["--estimator", "lstsq", "--d", "100", "--sigma", "0.1",
                  "--n-grid", _grid_arg(LSTSQ_GRID), "--trials", str(LSTSQ_TRIALS)],
    }
    cmds = []
    for name, flags in runs.items():
        cmds.append(["run", "--kind", "linreg", *flags, *common, "--out", str(out / name)])
        # The CLI needs at least four n values to fit or to look for cliffs.
        if name != "lstsq":
            cmds.append(["analyze", str(out / name / "curve.csv"), "--mode", "both",
                         "--out", str(out / name / "analysis.json")])
    cmds.append(["plot", *(str(out / name / "curve.csv") for name in runs), "--vline", "100",
                 "--out", str(out / "overlay.svg")])
    return cmds


def _linreg_check(out: Path) -> None:
    nn = read_curve(out / "nn" / "curve.csv")
    require_cells(nn, NN_GRID, NN_TRIALS, "nn curve")
    med = medians(nn)
    slope = float(np.polyfit(np.log(list(med)), np.log(list(med.values())), 1)[0])
    if not -0.55 <= slope <= -0.25:
        raise CheckFailed(f"nn log-log slope {slope:.3f} outside [-0.55, -0.25]")
    read_analysis(out / "nn" / "analysis.json", ("fit", "cliffs"))

    ridge = read_curve(out / "ridge" / "curve.csv")
    require_cells(ridge, RIDGE_GRID, RIDGE_TRIALS, "ridge curve")
    cliffs = read_analysis(out / "ridge" / "analysis.json", ("fit", "cliffs"))["cliffs"]
    if not any(r["n_start"] <= 100 <= r["n_end"] for r in cliffs):
        raise CheckFailed(f"ridge: no cliff region contains n=100: {cliffs}")

    lstsq = read_curve(out / "lstsq" / "curve.csv")
    require_cells(lstsq, LSTSQ_GRID, LSTSQ_TRIALS, "lstsq curve")
    med = medians(lstsq)
    if not med[100] > med[50]:
        raise CheckFailed(f"lstsq: median at n=100 {med[100]:.4g} not above n=50 {med[50]:.4g}")
    for name in ("nn", "ridge", "lstsq"):
        require_svg(out / name / "plot.svg")
    require_svg(out / "overlay.svg")


# --- harmonic-pair: one target grid, regularized and unregularized arms -------

H_B = 2
H_GRID = (10, 25, 60)
H_WIDTH = 256
H_TRIALS = 1
H_REG_POINTS = 20_000
# Both budgets stay below the default patience (1000 steps), so no run
# stops early and the work per run is fixed.
H_STEPS = {"reg": 4, "noreg": 200}


def _harmonic_commands(out: Path, seed: int) -> list[list[str]]:
    cmds = [
        ["run", "--kind", "harmonic", "--bandlimit", str(H_B), "--arm", arm, "--n-grid", _grid_arg(H_GRID),
         "--width", str(H_WIDTH), "--trials", str(H_TRIALS), "--max-steps", str(steps),
         "--reg-points", str(H_REG_POINTS), "--workers", "1", "--seed", str(seed), "--out", str(out / arm)]
        for arm, steps in H_STEPS.items()
    ]
    # Three n values are too few for analyze, which needs four; plot both arms instead.
    cmds.append(["plot", *(str(out / arm / "curve.csv") for arm in H_STEPS),
                 "--vline", str((2 * H_B + 1) ** 2), "--out", str(out / "overlay.svg")])
    return cmds


def _harmonic_check(out: Path) -> None:
    for arm in H_STEPS:
        require_cells(read_curve(out / arm / "curve.csv"), H_GRID, H_TRIALS, f"harmonic {arm} curve")
        require_svg(out / arm / "plot.svg")
    require_svg(out / "overlay.svg")


def _run_outputs(*dirs: str) -> tuple[str, ...]:
    return tuple(f"{d}/{f}" if d else f for d in dirs for f in ("curve.csv", "curve.json", "plot.svg"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gaussian-pool",
            why="50k tiny GIL-bound gaussian cells on a 2-thread pool; stream and chi-squared "
            "sampling dominate, and the 50k-row curve loads curve I/O, analysis and plotting",
            commands=_gaussian_commands,
            check=_gaussian_check,
            outputs=_run_outputs("") + ("analysis.json", "overlay.svg"),
        ),
        Workload(
            name="linreg-nn-ridge",
            why="serial 1-NN queries (BLAS distance products) dominate; ridge and lstsq "
            "solves in the same layer are the control for an NN-only change",
            commands=_linreg_commands,
            check=_linreg_check,
            outputs=_run_outputs("nn", "ridge", "lstsq")
            + ("nn/analysis.json", "ridge/analysis.json", "overlay.svg"),
        ),
        Workload(
            name="harmonic-pair",
            why="harmonic MLP training: the regularized arm is GEMM-bound on 20k points, "
            "the unregularized arm is per-call overhead on tiny batches",
            commands=_harmonic_commands,
            check=_harmonic_check,
            outputs=_run_outputs("reg", "noreg") + ("overlay.svg",),
        ),
    )
}
