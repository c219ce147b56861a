"""Deterministic SVG scatter of point sets with circular-region outlines.

Output bytes depend only on the input geometry: coordinates are printed
with a fixed format and colors come from a fixed palette, so identical
input produces identical files.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InvalidInput
from .regions import DISK, EXTERIOR, CircularRegion

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_SIZE = 480.0
_MARGIN = 0.1


def _fmt(x: float) -> str:
    """A coordinate of the image; one that is not finite (the frame's span
    or origin, or a half-plane's boundary, overflows a float) is invalid
    input, raised before anything is written."""
    if not math.isfinite(x):
        raise InvalidInput(f"plot coordinate {x} is not finite: the points or "
                           f"regions span more than a float holds")
    return f"{x:.4f}"


def _bounds(point_sets, regions):
    xs, ys = [], []
    for _, pts in point_sets:
        for z in pts:
            xs.append(z.real)
            ys.append(z.imag)
    for r in regions:
        if r.kind in (DISK, EXTERIOR):
            xs += [r.center.real - r.radius, r.center.real + r.radius]
            ys += [r.center.imag - r.radius, r.center.imag + r.radius]
        else:
            foot = r.direction * r.offset
            xs.append(foot.real)
            ys.append(foot.imag)
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-6)
    pad = _MARGIN * span
    return lo_x - pad, lo_y - pad, span + 2 * pad


def emit_svg(
    point_sets: Sequence[tuple[str, Sequence[complex]]],
    regions: Sequence[CircularRegion],
    path: str,
) -> None:
    """Write a scatter plot; point_sets is a list of (label, points)."""
    x0, y0, span = _bounds(point_sets, regions)
    scale = _SIZE / span

    def sx(x: float) -> float:
        return (x - x0) * scale

    def sy(y: float) -> float:
        # SVG y axis points down
        return _SIZE - (y - y0) * scale

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_SIZE)}" '
        f'height="{int(_SIZE)}" viewBox="0 0 {int(_SIZE)} {int(_SIZE)}">',
        f'<rect width="{int(_SIZE)}" height="{int(_SIZE)}" fill="white"/>',
    ]

    for r in regions:
        if r.kind in (DISK, EXTERIOR):
            dash = ' stroke-dasharray="6,4"' if r.kind == EXTERIOR else ""
            lines.append(
                f'<circle cx="{_fmt(sx(r.center.real))}" cy="{_fmt(sy(r.center.imag))}" '
                f'r="{_fmt(r.radius * scale)}" fill="none" stroke="#555555"'
                f'{dash} stroke-width="1.5"/>'
            )
        else:
            # boundary line Re(z conj(u)) = offset, drawn across the frame
            foot = r.direction * r.offset
            tang = r.direction * 1j
            a = foot - tang * (2 * span)
            b = foot + tang * (2 * span)
            lines.append(
                f'<line x1="{_fmt(sx(a.real))}" y1="{_fmt(sy(a.imag))}" '
                f'x2="{_fmt(sx(b.real))}" y2="{_fmt(sy(b.imag))}" '
                f'stroke="#555555" stroke-width="1.5"/>'
            )

    for i, (label, pts) in enumerate(point_sets):
        color = _PALETTE[i % len(_PALETTE)]
        for z in pts:
            lines.append(
                f'<circle cx="{_fmt(sx(z.real))}" cy="{_fmt(sy(z.imag))}" '
                f'r="3.5" fill="{color}"><title>{label}</title></circle>'
            )

    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
