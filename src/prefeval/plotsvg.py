"""Minimal SVG line charts for sweep outputs.

One polyline per series, with axis ticks and a legend; no external
plotting dependency is needed for that.  ``sweep --plot`` draws each
grid chart from the full-precision PIRs and each summary chart from the
four-decimal values printed in its TSV file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence, Union

_COLORS = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_WIDTH, _HEIGHT = 640, 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 150, 30, 45


def _ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def write_line_chart(
    path: Union[str, Path],
    title: str,
    x_label: str,
    y_label: str,
    series: Mapping[str, Sequence[tuple[float, float]]],
) -> None:
    points = [p for pts in series.values() for p in pts]
    if not points:
        raise ValueError("nothing to plot")
    xs, ys = zip(*points)
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.05, y_hi + 0.05
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_MARGIN_L}" y="18" font-family="sans-serif" font-size="13">{title}</text>',
    ]
    axis_style = 'stroke="#333" stroke-width="1"'
    parts.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
                 f'y2="{_MARGIN_T + plot_h}" {axis_style}/>')
    parts.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" '
                 f'x2="{_MARGIN_L + plot_w}" y2="{_MARGIN_T + plot_h}" {axis_style}/>')
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<text x="{sx(tx):.1f}" y="{_MARGIN_T + plot_h + 16}" font-family="sans-serif"'
            f' font-size="10" text-anchor="middle">{tx:.2f}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{sy(ty):.1f}" font-family="sans-serif"'
            f' font-size="10" text-anchor="end" dominant-baseline="middle">{ty:.3f}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 8}" font-family="sans-serif"'
        f' font-size="11" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{_MARGIN_T + plot_h / 2:.1f}" font-family="sans-serif" font-size="11"'
        f' text-anchor="middle" transform="rotate(-90 14 {_MARGIN_T + plot_h / 2:.1f})">{y_label}</text>'
    )

    # series usually share their x values (a sweep's thresholds or cut-offs)
    x_texts = {x: f"{sx(x):.1f}" for x in set(xs)}
    for i, (name, pts) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{x_texts[x]},{sy(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 14 + i * 16
        lx = _MARGIN_L + plot_w + 10
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 22}" y="{ly}" font-family="sans-serif" font-size="10">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
