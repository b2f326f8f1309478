"""Deterministic SVG rendering of scaling curves.

Log-log axes, one median polyline per curve with a translucent min-max
band, an optional dashed vertical marker (for thresholds like n = d),
and optional overlay curves, such as closed forms as one-trial curves,
each a dashed polyline through its medians. Output bytes depend only on
the inputs: data polylines are the only ``<polyline>`` elements and
bands the only ``<polygon>`` elements, so plots are easy to check
structurally.
"""

from __future__ import annotations

import math

import numpy as np

from .curves import ScalingCurve, check_floor

__all__ = ["PlotError", "render_svg"]

PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2"]

WIDTH, HEIGHT = 760, 500
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 64, 18, 20, 46


class PlotError(ValueError):
    """Inputs cannot be drawn (too few points, nonpositive values on log axes)."""


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _curve_label(curve: ScalingCurve, index: int) -> str:
    md = curve.metadata
    parts = [md[k] for k in ("task", "estimator", "arm") if k in md]
    extras = [f"{k}={md[k]}" for k in ("d", "s", "B") if k in md]
    label = " ".join(parts + extras)
    return label or f"curve {index + 1}"


def render_svg(
    curves: list[ScalingCurve],
    overlays: list[ScalingCurve] | None = None,
    vline: int | None = None,
    floor: float | None = None,
) -> str:
    """Render curves (and overlays) to an SVG 1.1 document string.

    Every line is read the same way, floor clamp and checks included; an
    overlay is drawn dashed through its medians, with no band. The x axis
    spans every curve's and overlay's n values, and vline. floor and
    vline are checked before any curve.
    """
    check_floor(floor)
    if vline is not None and not 1 <= vline < math.inf:
        raise ValueError(f"vline: must be a finite n >= 1, got {vline}")
    if not curves:
        raise PlotError("nothing to plot: no curves given")
    lines = curves + (overlays or [])

    xs_all: list[np.ndarray] = []
    ys_all: list[np.ndarray] = []
    prepared = []
    for i, curve in enumerate(lines):
        if len(curve.points) < 2:
            raise PlotError("cannot draw a scaling line through a single-point curve")
        ns = curve.ns.astype(float)
        med = curve.statistic("median")
        lo = curve.statistic("min")
        hi = curve.statistic("max")
        if floor is not None:
            med, lo, hi = (np.maximum(v, floor) for v in (med, lo, hi))
        if np.any(lo <= 0):
            raise PlotError(
                f"{_curve_label(curve, i)!r} has nonpositive error values; log axes undefined "
                "(rerun with an error floor, e.g. --floor 1e-20)"
            )
        prepared.append((ns, med, lo, hi))
        xs_all.append(ns)
        ys_all.extend([lo, hi])
    if vline is not None:
        xs_all.append(np.array([vline], dtype=float))

    x_lo = math.floor(math.log10(min(x.min() for x in xs_all)))
    x_hi = math.ceil(math.log10(max(x.max() for x in xs_all)))
    y_lo = math.floor(math.log10(min(y.min() for y in ys_all)))
    y_hi = math.ceil(math.log10(max(y.max() for y in ys_all)))
    if x_hi == x_lo:
        x_hi += 1
    if y_hi == y_lo:
        y_hi += 1

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(n: float) -> float:
        return MARGIN_LEFT + (math.log10(n) - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return MARGIN_TOP + (y_hi - math.log10(v)) / (y_hi - y_lo) * plot_h

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')

    # Axes frame and decade ticks (lines only; polylines are reserved for data).
    ax_color = "#333333"
    x0, x1 = MARGIN_LEFT, MARGIN_LEFT + plot_w
    y0, y1 = MARGIN_TOP, MARGIN_TOP + plot_h
    out.append(f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="{ax_color}"/>')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="{ax_color}"/>')
    for k in range(x_lo, x_hi + 1):
        x = px(10.0**k)
        out.append(f'<line x1="{_fmt(x)}" y1="{y1}" x2="{_fmt(x)}" y2="{y1 + 5}" stroke="{ax_color}"/>')
        out.append(f'<line x1="{_fmt(x)}" y1="{y0}" x2="{_fmt(x)}" y2="{y1}" stroke="#dddddd"/>')
        out.append(
            f'<text x="{_fmt(x)}" y="{y1 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">1e{k}</text>'
        )
    for k in range(y_lo, y_hi + 1):
        y = py(10.0**k)
        out.append(f'<line x1="{x0 - 5}" y1="{_fmt(y)}" x2="{x0}" y2="{_fmt(y)}" stroke="{ax_color}"/>')
        out.append(f'<line x1="{x0}" y1="{_fmt(y)}" x2="{x1}" y2="{_fmt(y)}" stroke="#dddddd"/>')
        out.append(
            f'<text x="{x0 - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{k}</text>'
        )
    out.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.0f}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">training samples n</text>'
    )
    out.append(
        f'<text x="14" y="{MARGIN_TOP + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {MARGIN_TOP + plot_h / 2:.0f})">test error</text>'
    )

    if vline is not None:
        x = px(vline)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{y0}" x2="{_fmt(x)}" y2="{y1}" '
            f'stroke="#555555" stroke-dasharray="5,4"/>'
        )

    legend: list[tuple[str, str]] = []
    for i, (curve, (ns, med, lo, hi)) in enumerate(zip(lines, prepared)):
        color = PALETTE[i % len(PALETTE)]
        line = " ".join(f"{_fmt(px(n))},{_fmt(py(v))}" for n, v in zip(ns, med))
        if i < len(curves):
            band = " ".join(f"{_fmt(px(n))},{_fmt(py(v))}" for n, v in zip(ns, lo))
            band += " " + " ".join(
                f"{_fmt(px(n))},{_fmt(py(v))}" for n, v in zip(ns[::-1], hi[::-1])
            )
            out.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.18" stroke="none"/>')
            out.append(f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        else:
            out.append(
                f'<polyline points="{line}" fill="none" stroke="{color}" '
                f'stroke-width="1.4" stroke-dasharray="7,3"/>'
            )
        legend.append((_curve_label(curve, i), color))

    ly = MARGIN_TOP + 12
    for label, color in legend:
        lx = x1 - 180
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="11">{_escape(label)}</text>'
        )
        ly += 16

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
