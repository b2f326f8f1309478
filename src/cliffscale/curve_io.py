"""File formats for curves.

CSV carries raw per-trial records under the header ``n,trial,error``;
JSON carries the grouped curve. Both writers emit byte-deterministic
output (shortest round-trip float representation, sorted keys), so a
run is reproducible bit for bit.
"""

from __future__ import annotations

import json
import operator

import numpy as np

from .curves import MAX_N, CurveError, ScalingCurve, aggregate_trials

__all__ = [
    "write_curve_csv",
    "read_curve_csv",
    "curve_to_json",
]

CSV_HEADER = "n,trial,error"
# Every byte after the header of a file write_curve_csv emits: decimal
# digits, commas, newlines, and the ".", "e" and exponent signs of float
# reprs.
_CANONICAL_BYTES = b"0123456789,.e+-\n"
_CANONICAL_COLUMNS = np.dtype([("n", np.int64), ("trial", np.int64), ("error", np.float64)])


def write_curve_csv(curve: ScalingCurve, path, *, _json_path=None) -> None:
    """Write the curve's ``n,trial,error`` records to path, trials numbered from 0 at each n.

    With ``_json_path`` it also writes ``curve_to_json(curve)`` there, in
    the same pass over the points: each point's errors are formatted once,
    for both files, and only one point's text is held at a time. ``cli``'s
    run writes its two curve files this way.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as csv_file:
        if _json_path is None:
            _write_points(curve, csv_file, None)
        else:
            # Default newlines, as Path.write_text(curve_to_json(curve)) writes.
            with open(_json_path, "w", encoding="utf-8") as json_file:
                _write_points(curve, csv_file, json_file)


def _write_points(curve: ScalingCurve, csv_file, json_file) -> None:
    csv_file.write(CSV_HEADER + "\n")
    if json_file is not None:
        json_file.write(_json_head(curve))
    trial_heads: list[str] = []
    for i, (n, errs) in enumerate(curve.points):
        texts = _error_texts(errs)
        if len(trial_heads) < len(texts):
            trial_heads = [f"{t}," for t in range(len(texts))]
        csv_file.write(_csv_rows(n, texts, trial_heads))
        if json_file is not None:
            json_file.write((",\n" if i else "\n") + _json_point(n, texts))
    if json_file is not None:
        json_file.write(_json_tail(curve))


def _error_texts(errs) -> list[str]:
    """The errors as both files write them: json formats an int or a float as repr does."""
    return list(map(repr, errs))


def _csv_rows(n: int, texts: list[str], trial_heads: list[str]) -> str:
    """One point's CSV rows, newline-terminated: "n," + "trial," + the error's text."""
    head = f"{n},"
    return head + f"\n{head}".join(map(operator.add, trial_heads, texts)) + "\n"


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


def _is_decimal(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _read_canonical(path, metadata: dict | None) -> ScalingCurve | None:
    """The curve of a file as write_curve_csv emits it, parsed in C; else None.

    A file qualifies when it is the exact header and then rows of digits,
    commas, float reprs and single newlines, with signs only in exponents,
    and its rows parse as int64, int64 and float64 columns that pass the
    line loop's range checks in strictly increasing (n, trial) order.
    numpy parses floats with the same correctly rounded conversion as
    ``float``, so the values are the line loop's, grouped at n boundaries
    as ``aggregate_trials`` groups them. Any other file is left to the line
    loop, which also words every error.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    head = CSV_HEADER.encode() + b"\n"
    body = raw[len(head):]
    if (
        not raw.startswith(head)
        or not body
        or body.translate(None, _CANONICAL_BYTES)
        or b"\n\n" in raw
        # A sign anywhere but in an exponent; the counts only run on files
        # that have a sign at all.
        or (
            (b"+" in body or b"-" in body)
            and body.count(b"+") + body.count(b"-") != body.count(b"e+") + body.count(b"e-")
        )
    ):
        return None
    # loadtxt reads the file again in chunks; holding these copies of it
    # through the parse would raise the peak memory of a large import.
    del raw, body
    try:
        ns, trials, errors = np.loadtxt(
            path, dtype=_CANONICAL_COLUMNS, delimiter=",", comments=None, skiprows=1, ndmin=1, unpack=True
        )
    except ValueError:
        return None
    # With signs only in exponents, no field is negative and none is NaN.
    if ns.min() < 1 or not np.isfinite(errors).all():
        return None
    dn = np.diff(ns)
    if not ((dn > 0) | ((dn == 0) & (np.diff(trials) > 0))).all():
        return None
    starts = np.flatnonzero(np.concatenate(([True], dn != 0)))
    bounds = [*starts.tolist(), len(ns)]
    errs = errors.tolist()
    points = tuple(
        (n, tuple(errs[a:b])) for n, a, b in zip(ns[starts].tolist(), bounds, bounds[1:])
    )
    return ScalingCurve(points=points, metadata=metadata or {})


def read_curve_csv(path, metadata: dict | None = None) -> ScalingCurve:
    """Parse a ``n,trial,error`` CSV; malformed rows name their line number.

    n and trial are ASCII decimal digits; the error is a float literal
    without whitespace, underscores or non-ASCII characters.
    """
    curve = _read_canonical(path, metadata)
    return curve if curve is not None else _read_lines(path, metadata)


def _read_lines(path, metadata: dict | None) -> ScalingCurve:
    """read_curve_csv line by line: the reference parser, and the one that words errors."""
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
        if not (_is_decimal(parts[0]) and _is_decimal(parts[1])):
            raise CurveError(
                f"{path}:{lineno}: n and trial must be ASCII decimal digits, got {parts[0]!r}, {parts[1]!r}"
            )
        if not parts[2].isascii() or "_" in parts[2] or parts[2].strip() != parts[2]:
            raise CurveError(
                f"{path}:{lineno}: the error must be ASCII, without whitespace or '_', got {parts[2]!r}"
            )
        try:
            n = int(parts[0])
            trial = int(parts[1])
            error = float(parts[2])
        except ValueError as exc:
            raise CurveError(f"{path}:{lineno}: {exc}") from None
        if not 1 <= n <= MAX_N or not error >= 0 or error != error or error == float("inf"):
            raise CurveError(
                f"{path}:{lineno}: need 1 <= n < 2**63 and a finite nonnegative error, "
                f"got ({parts[0]}, {parts[1]}, {parts[2]})"
            )
        records.append((n, trial, error))
    if not records:
        raise CurveError(f"{path}: no data rows")
    try:
        return aggregate_trials(records, metadata=metadata)
    except CurveError as exc:
        raise CurveError(f"{path}: {exc}") from None


# json.dumps(indent=2) puts each error of curve_to_json on its own line, 8
# spaces deep.
_ERROR_SEPARATOR = ",\n        "


def _json_head(curve: ScalingCurve) -> str:
    """curve_to_json's text up to the points' opening bracket."""
    # One level deeper than on its own; json escapes newlines inside strings.
    metadata = json.dumps(curve.metadata, sort_keys=True, indent=2).replace("\n", "\n  ")
    return f'{{\n  "metadata": {metadata},\n  "points": ['


def _json_point(n: int, texts: list[str]) -> str:
    return f'    {{\n      "errors": [\n        {_ERROR_SEPARATOR.join(texts)}\n      ],\n      "n": {n}\n    }}'


def _json_tail(curve: ScalingCurve) -> str:
    """curve_to_json's text after the last point."""
    return ("\n  ]" if curve.points else "]") + "\n}\n"


def curve_to_json(curve: ScalingCurve) -> str:
    """The text of ``json.dumps(payload, sort_keys=True, indent=2)`` and a newline, laid out directly.

    The payload is ``{"points": [{"n": n, "errors": [...]}, ...], "metadata": {...}}``.
    The error lists are most of a large curve, and json's indenting encoder
    formats them one number at a time in Python.
    """
    points = ",\n".join(_json_point(n, _error_texts(errs)) for n, errs in curve.points)
    return _json_head(curve) + (f"\n{points}" if points else "") + _json_tail(curve)
