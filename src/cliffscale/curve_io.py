"""File formats for curves, fits and cliff reports.

CSV carries raw per-trial records under the header ``n,trial,error``;
JSON carries the grouped curve, fit parameters and cliff regions. Both
writers emit byte-deterministic output (shortest round-trip float
representation, sorted keys), so a run is reproducible bit for bit.
"""

from __future__ import annotations

import json
from typing import Iterable

from .curves import CliffRegion, CurveError, PowerLawFit, ScalingCurve, aggregate_trials

__all__ = [
    "curve_records",
    "write_curve_csv",
    "read_curve_csv",
    "curve_to_json",
    "curve_from_json",
    "fit_to_json",
    "cliffs_to_json",
]

CSV_HEADER = "n,trial,error"
# Curves hold n as int64 (ScalingCurve.ns).
MAX_N = 2**63 - 1


def curve_records(curve: ScalingCurve) -> list[tuple[int, int, float]]:
    """Flatten a curve back into (n, trial, error) records."""
    return [
        (n, trial, err)
        for n, errs in curve.points
        for trial, err in enumerate(errs)
    ]


def write_curve_csv(curve: ScalingCurve, path) -> None:
    lines = [CSV_HEADER]
    lines.extend(f"{n},{t},{repr(e)}" for n, t, e in curve_records(curve))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_text(path) -> str:
    """The file decoded as UTF-8; a CurveError names the line of a bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Everything before the bad byte decodes; the "x" completes its line.
        lineno = len((raw[: exc.start].decode("utf-8") + "x").splitlines())
        raise CurveError(f"{path}:{lineno}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def read_curve_csv(path, metadata: dict | None = None) -> ScalingCurve:
    """Parse a ``n,trial,error`` CSV; malformed rows name their line number."""
    lines = _read_text(path).splitlines()
    if not lines:
        raise CurveError(f"{path}: empty file")
    if lines[0].strip() != CSV_HEADER:
        raise CurveError(f"{path}:1: expected header {CSV_HEADER!r}, got {lines[0]!r}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise CurveError(f"{path}:{lineno}: expected 3 comma-separated fields, got {len(parts)}")
        try:
            n = int(parts[0])
            trial = int(parts[1])
            error = float(parts[2])
        except ValueError as exc:
            raise CurveError(f"{path}:{lineno}: {exc}") from None
        if not 1 <= n <= MAX_N or trial < 0 or not error >= 0 or error != error or error == float("inf"):
            raise CurveError(
                f"{path}:{lineno}: need 1 <= n < 2**63, trial >= 0 and a finite nonnegative error, "
                f"got ({parts[0]}, {parts[1]}, {parts[2]})"
            )
        records.append((n, trial, error))
    if not records:
        raise CurveError(f"{path}: no data rows")
    try:
        return aggregate_trials(records, metadata=metadata)
    except CurveError as exc:
        raise CurveError(f"{path}: {exc}") from None


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def curve_to_json(curve: ScalingCurve) -> str:
    return _dumps(
        {
            "points": [{"n": n, "errors": list(errs)} for n, errs in curve.points],
            "metadata": dict(curve.metadata),
        }
    )


def curve_from_json(text: str) -> ScalingCurve:
    payload = json.loads(text)
    points = tuple(
        (int(p["n"]), tuple(float(e) for e in p["errors"])) for p in payload["points"]
    )
    return ScalingCurve(points=points, metadata=dict(payload.get("metadata", {})))


def fit_to_json(fit: PowerLawFit) -> str:
    return _dumps(
        {
            "A": fit.A,
            "alpha": fit.alpha,
            "E": fit.E,
            "residual": fit.residual,
            "n_min": fit.n_range[0],
            "n_max": fit.n_range[1],
        }
    )


def cliffs_to_json(regions: Iterable[CliffRegion]) -> str:
    return _dumps(
        [
            {"n_start": r.n_start, "n_end": r.n_end, "strength": r.strength}
            for r in regions
        ]
    )
