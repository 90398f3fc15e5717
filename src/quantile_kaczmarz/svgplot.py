"""Minimal deterministic SVG line charts (no plotting dependency).

Fixed 800x600 viewport, one polyline per series, relative error on a log
y-axis.  Identical input produces identical bytes.
"""
from __future__ import annotations

import math
from pathlib import Path

from .errors import DomainError

WIDTH, HEIGHT = 800, 600
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 80, 30, 40, 60

PALETTE = ("#1f6f8b", "#d1495b", "#66a182", "#edae49", "#55505c", "#8d6a9f")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if math.isinf(hi - lo):  # a span past the largest float: inner ticks from the halves
        return [lo, *(2.0 * tick for tick in _ticks(lo / 2, hi / 2, count)[1:-1]), hi]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _text(x, y, size: int, body: str, anchor: str = "middle", extra: str = "") -> str:
    """A monospace ``<text>`` element; ``x`` and ``y`` are written as given,
    ``body`` with ``&``, ``<`` and ``>`` escaped, and an empty ``anchor``
    leaves out ``text-anchor``."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    # the replacements of xml.sax.saxutils.escape, whose import loads urllib.request
    body = body.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    return (f'<text x="{x}" y="{y}"{anchor} font-family="monospace" '
            f'font-size="{size}"{extra}>{body}</text>')


def emit_svg(series, path, title: str = "", x_label: str = "") -> Path:
    """Write a standalone SVG line chart of relative error on a log axis.

    ``series`` is a list of ``(label, xs, ys)`` triples; every value must be
    finite and every y value strictly positive.
    """
    series = [(str(label), list(map(float, xs)), list(map(float, ys))) for label, xs, ys in series]
    if not series:
        raise DomainError("at least one series is required")
    for label, xs, ys in series:
        if len(xs) != len(ys) or not xs:
            raise DomainError(f"series {label!r} must have matching nonempty x and y")
        if not all(map(math.isfinite, xs + ys)):
            raise DomainError(f"series {label!r} has non-finite values")
        if min(ys) <= 0.0:
            raise DomainError(f"series {label!r} has nonpositive values on a log axis")

    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [math.log10(y) for _, _, ys in series for y in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:  # widened by 1, or by one ulp where that is more, downward at the top
        pad = max(1.0, math.ulp(x_lo))
        x_lo, x_hi = (x_lo, x_lo + pad) if x_lo + pad < math.inf else (x_lo - pad, x_lo)
    half = 0.5 if math.isinf(x_hi - x_lo) else 1.0  # a span past the largest float is halved
    if y_hi == y_lo:  # a log10 lies within 400 of 0, so adding 1 widens it
        y_hi = y_lo + 1.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    bottom = MARGIN_TOP + plot_h
    legend_x = WIDTH - MARGIN_RIGHT - 150

    def px(x: float) -> float:
        return MARGIN_LEFT + (x * half - x_lo * half) / (x_hi * half - x_lo * half) * plot_w

    def py(log_y: float) -> float:
        return MARGIN_TOP + (y_hi - log_y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    if title:
        out.append(_text(WIDTH // 2, 24, 16, title))
    if x_label:
        out.append(_text(WIDTH // 2, HEIGHT - 16, 13, x_label))
    out.append(_text(18, HEIGHT // 2, 13, "relative error",
                     extra=f' transform="rotate(-90 18 {HEIGHT // 2})"'))

    for tick in _ticks(x_lo, x_hi):
        x = f"{px(tick):.2f}"
        out.append(f'<line x1="{x}" y1="{bottom}" x2="{x}" y2="{bottom + 5}" stroke="#444444"/>')
        out.append(_text(x, bottom + 20, 11, f"{tick:.4g}"))
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        out.append(f'<line x1="{MARGIN_LEFT - 5}" y1="{y:.2f}" x2="{MARGIN_LEFT}" '
                   f'y2="{y:.2f}" stroke="#444444"/>')
        out.append(_text(MARGIN_LEFT - 8, f"{y + 4:.2f}", 11, f"1e{tick:.2f}", anchor="end"))

    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(math.log10(y)):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        ly = MARGIN_TOP + 16 + 16 * idx
        out.append(f'<line x1="{legend_x}" y1="{ly - 4}" x2="{legend_x + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(_text(legend_x + 28, ly, 12, label, anchor=""))

    out.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return path
