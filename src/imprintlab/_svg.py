"""Tiny dependency-free SVG line charts for sweep output."""

from __future__ import annotations

import itertools
import math
import sys

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 64, 16, 32, 44  # margins


def _ticks(lo: float, hi: float, n: int = 5):
    """n evenly spaced (tick, label) pairs, labelled at 6 significant digits or
    at the fewest more that tell the ticks apart (17 tell any two floats apart)."""
    step = (hi - lo) / (n - 1)
    ticks = [lo + i * step for i in range(n)]
    for digits in range(6, 18):
        labels = [f"{v:.{digits}g}" for v in ticks]
        if len(set(labels)) == n:
            break
    return list(zip(ticks, labels))


def _span(lo: float, hi: float, pad: float):
    """The axis range: a one-value range widened by 1.0, padded by `pad` of its
    width on each side, then widened one float at a time until its ticks are
    distinct floats (past 2**53, adding 1.0 rounds away)."""
    if hi == lo:
        hi = lo + 1.0
    pad *= hi - lo
    lo, hi = lo - pad, hi + pad
    while len(set(_ticks(lo, hi))) < 5:
        if hi < sys.float_info.max:
            hi = math.nextafter(hi, math.inf)
        else:  # the largest float widens downward
            lo = math.nextafter(lo, -math.inf)
    return lo, hi


def line_chart(series, *, title: str, x_label: str, y_label: str) -> str:
    """series: list of (name, xs, ys); points with a None y are skipped.

    Returns a complete standalone SVG document as a string.
    """
    pts = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys) if y is not None]
    if not pts:
        raise ValueError("nothing to plot: every y value is missing")
    xs_all, ys_all = zip(*pts)
    x_lo, x_hi = _span(min(xs_all), max(xs_all), 0.0)
    y_lo, y_hi = _span(min(ys_all), max(ys_all), 0.05)

    inner_w = _W - _ML - _MR
    inner_h = _H - _MT - _MB

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * inner_w

    def py(y):
        return _MT + (1.0 - (y - y_lo) / (y_hi - y_lo)) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{inner_w}" height="{inner_h}" '
        f'fill="none" stroke="#999"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for tx, label in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(tx):.1f}" y1="{_MT + inner_h}" x2="{px(tx):.1f}" '
                     f'y2="{_MT + inner_h + 4}" stroke="#333"/>')
        parts.append(f'<text x="{px(tx):.1f}" y="{_MT + inner_h + 18}" '
                     f'text-anchor="middle">{label}</text>')
    for ty, label in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{_ML - 4}" y1="{py(ty):.1f}" x2="{_ML}" '
                     f'y2="{py(ty):.1f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py(ty) + 4:.1f}" '
                     f'text-anchor="end">{label}</text>')
    parts.append(f'<text x="{_ML + inner_w / 2:.1f}" y="{_H - 8}" '
                 f'text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="14" y="{_MT + inner_h / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 14 {_MT + inner_h / 2:.1f})">{y_label}</text>')

    legend_y = _MT + 14
    for idx, (name, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        for drawn, run in itertools.groupby(zip(xs, ys), key=lambda p: p[1] is not None):
            run = list(run)
            if drawn and len(run) > 1:
                parts.append(_polyline([(px(x), py(y)) for x, y in run], color))
        for x, y in zip(xs, ys):
            if y is not None:
                parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="2.5" '
                             f'fill="{color}"/>')
        parts.append(f'<rect x="{_ML + 10}" y="{legend_y - 9}" width="18" height="3" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{_ML + 34}" y="{legend_y}">{name}</text>')
        legend_y += 16
    parts.append("</svg>\n")
    return "\n".join(parts)


def _polyline(points, color: str) -> str:
    coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    return f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
