"""Minimal hand-rolled SVG rendering for quick visual inspection of sweeps.

CSV remains the authoritative artifact; these plots carry no styling
dependencies and are deterministic for identical inputs.  Both renderers
read the columns of a sweep's ``ROW_DTYPE`` table and never iterate its rows.
"""

from __future__ import annotations

import numpy as np

from .sweeps import ROW_DTYPE

__all__ = ["sweep_svg", "bell_region_svg"]

_WIDTH, _HEIGHT = 640, 420
_MARGIN = 56
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")


def _scale(value: float, lo: float, hi: float, out_lo: float, out_hi: float) -> float:
    if hi <= lo:
        return 0.5 * (out_lo + out_hi)
    return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)


def _read(rows, *fields: str) -> list[list]:
    """The named columns of sweep rows (a ``ROW_DTYPE`` table, or a list of
    its rows) as lists of Python values."""
    table = np.asarray(rows, dtype=ROW_DTYPE)
    return [table[name].tolist() for name in fields]


def _axes(title: str, x_label: str, y_label: str,
          x_range: tuple[float, float], y_range: tuple[float, float]) -> list[str]:
    x0, x1 = _MARGIN, _WIDTH - _MARGIN
    y0, y1 = _HEIGHT - _MARGIN, _MARGIN
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
    (l, lprime) family in first-appearance order."""
    p, l, lprime, concurrence, indist = _read(rows, "p", "l", "lprime", "concurrence",
                                              "indist")
    if not p:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
    families: dict[tuple[float, float], list[int]] = {}
    for k, family in enumerate(zip(l, lprime)):
        families.setdefault(family, []).append(k)
    x_range = (min(p), max(p))
    top = max(max(concurrence), 1.0)
    y_range = (0.0, top)
    x0, x1 = _MARGIN, _WIDTH - _MARGIN
    y0, y1 = _HEIGHT - _MARGIN, _MARGIN
    parts = _axes("concurrence vs noise probability", "noise probability p", "concurrence",
                  x_range, y_range)
    for idx, ((fl, flprime), members) in enumerate(families.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{_scale(p[k], *x_range, x0, x1):.2f},"
            f"{_scale(concurrence[k], *y_range, y0, y1):.2f}"
            for k in members)
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{x1 - 150}" y="{y1 + 14 + 14 * idx}" fill="{color}" '
                     f'font-family="sans-serif" font-size="10">'
                     f'l={fl:.4f}, l&apos;={flprime:.4f} (I={indist[members[0]]:.3f})</text>')
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}">' + "".join(parts) + "</svg>\n")


def bell_region_svg(rows) -> str:
    """Cell map of CHSH violation over the (noise, indistinguishability) grid;
    violating cells are filled red."""
    p, indist, violated = _read(rows, "p", "indist", "violated")
    if not p:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
    ps = sorted(set(p))
    degrees = sorted(set(indist))
    x_range = (min(ps), max(ps))
    y_range = (min(degrees), max(degrees))
    x0, x1 = _MARGIN, _WIDTH - _MARGIN
    y0, y1 = _HEIGHT - _MARGIN, _MARGIN
    cell_w = (x1 - x0) / max(len(ps), 1)
    cell_h = (y0 - y1) / max(len(degrees), 1)
    parts = _axes("CHSH violation region (B > 2)", "noise probability p",
                  "indistinguishability degree", x_range, y_range)
    for pv, degree, hit in zip(p, indist, violated):
        cx = _scale(pv, *x_range, x0, x1 - cell_w)
        cy = _scale(degree, *y_range, y0 - cell_h, y1)
        fill = "#d62728" if hit else "#ededed"
        parts.append(f'<rect x="{cx:.2f}" y="{cy:.2f}" width="{cell_w:.2f}" '
                     f'height="{cell_h:.2f}" fill="{fill}"/>')
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}">' + "".join(parts) + "</svg>\n")
