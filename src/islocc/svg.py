"""Minimal hand-rolled SVG rendering for quick visual inspection of sweeps.

CSV remains the authoritative artifact; these plots carry no styling
dependencies and are deterministic for identical inputs.  Both renderers
read a sweep's ``ROW_DTYPE`` table (or a list of its rows) as whole columns:
each coordinate column is scaled in one call, and the only work done row by
row is formatting that row's text.
"""

from __future__ import annotations

import numpy as np

from .sweeps import ROW_DTYPE

__all__ = ["sweep_svg", "bell_region_svg"]

_WIDTH, _HEIGHT = 640, 420
_MARGIN = 56
_FRAME = (_MARGIN, _WIDTH - _MARGIN, _HEIGHT - _MARGIN, _MARGIN)  # x0, x1, y0 (bottom), y1
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")
_EMPTY = "<svg xmlns='http://www.w3.org/2000/svg'/>"


def _scale(values, lo: float, hi: float, out_lo: float, out_hi: float):
    """``values`` (a float or a column) mapped from [lo, hi] onto [out_lo,
    out_hi]; an empty range (a one-point grid) maps to the middle."""
    if hi <= lo:
        return np.full_like(values, 0.5 * (out_lo + out_hi), dtype=float)
    return out_lo + (values - lo) / (hi - lo) * (out_hi - out_lo)


def _axes(title: str, x_label: str, y_label: str,
          x_range: tuple[float, float], y_range: tuple[float, float]) -> list[str]:
    x0, x1, y0, y1 = _FRAME
    parts = [
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.0f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="16" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.0f})">{y_label}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_range[0] + frac * (x_range[1] - x_range[0])
        yv = y_range[0] + frac * (y_range[1] - y_range[0])
        xp = _scale(xv, *x_range, x0, x1)
        yp = _scale(yv, *y_range, y0, y1)
        parts.append(f'<line x1="{xp:.1f}" y1="{y0}" x2="{xp:.1f}" y2="{y0 + 4}" stroke="black"/>')
        parts.append(f'<text x="{xp:.1f}" y="{y0 + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{xv:.2f}</text>')
        parts.append(f'<line x1="{x0 - 4}" y1="{yp:.1f}" x2="{x0}" y2="{yp:.1f}" stroke="black"/>')
        parts.append(f'<text x="{x0 - 8}" y="{yp + 3:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{yv:.2f}</text>')
    return parts


def sweep_svg(rows) -> str:
    """Line plot of concurrence against noise probability, one polyline per
    family.  A family is a run of rows with one (l, lprime) along which p does
    not fall, as ``run_sweep`` lays out each family's ascending p grid; a
    family that recurs later, as in concatenated sweeps, draws again."""
    table = np.asarray(rows, dtype=ROW_DTYPE)
    if not len(table):
        return _EMPTY
    p, l, lprime = table["p"], table["l"], table["lprime"]
    new_family = (l[1:] != l[:-1]) | (lprime[1:] != lprime[:-1]) | (p[1:] < p[:-1])
    bounds = np.flatnonzero(np.r_[True, new_family, True])  # family starts, then the end
    x_range = (float(p.min()), float(p.max()))
    y_range = (0.0, max(float(table["concurrence"].max()), 1.0))
    x0, x1, y0, y1 = _FRAME
    xs = _scale(p, *x_range, x0, x1)
    ys = _scale(table["concurrence"], *y_range, y0, y1)
    parts = _axes("concurrence vs noise probability", "noise probability p", "concurrence",
                  x_range, y_range)
    for idx, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join("%.2f,%.2f" % point for point in zip(xs[start:stop], ys[start:stop]))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{x1 - 150}" y="{y1 + 14 + 14 * idx}" fill="{color}" '
                     f'font-family="sans-serif" font-size="10">'
                     f'l={l[start]:.4f}, l&apos;={lprime[start]:.4f} '
                     f'(I={table["indist"][start]:.3f})</text>')
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}">' + "".join(parts) + "</svg>\n")


def bell_region_svg(rows) -> str:
    """Cell map of CHSH violation over the (noise, indistinguishability) grid;
    violating cells are filled red."""
    table = np.asarray(rows, dtype=ROW_DTYPE)
    if not len(table):
        return _EMPTY
    p, indist = table["p"], table["indist"]
    # each grid sorted, its distinct values counted by the nonzero steps between them;
    # np.unique would import numpy.ma on its first call (12 ms: numpy 2.4, 2 vCPU)
    ps, degrees = np.sort(p), np.sort(indist)
    x_range = (float(ps[0]), float(ps[-1]))
    y_range = (float(degrees[0]), float(degrees[-1]))
    x0, x1, y0, y1 = _FRAME
    cell_w = (x1 - x0) / (1 + np.count_nonzero(np.diff(ps)))
    cell_h = (y0 - y1) / (1 + np.count_nonzero(np.diff(degrees)))
    xs = _scale(p, *x_range, x0, x1 - cell_w)
    ys = _scale(indist, *y_range, y0 - cell_h, y1)
    fills = np.where(table["violated"], "#d62728", "#ededed")
    cell = f'<rect x="%.2f" y="%.2f" width="{cell_w:.2f}" height="{cell_h:.2f}" fill="%s"/>'
    parts = _axes("CHSH violation region (B > 2)", "noise probability p",
                  "indistinguishability degree", x_range, y_range)
    parts.extend(cell % row for row in zip(xs, ys, fills))
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}">' + "".join(parts) + "</svg>\n")
