"""ASCII, JSON, and SVG output for lattice views and curves.

All output here is a pure function of its inputs -- SVG documents are
byte-identical across runs for the same window, which the tests rely on.
"""

from __future__ import annotations

from .lattice import LatticeView, NonZeroCurve, NonZeroRegion, Window
from .surgery import SurgeryParams

_CELL = 20
_MARGIN = 10
# strip shading alternates by translate parity; curves cycle the palette
_STRIP_FILLS = ("#ececec", "#d7d7d7")
_CURVE_COLORS = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085")


def _cell_char(v: int) -> str:
    if v > 0:
        return "+"
    if v < 0:
        return "-"
    return "."


def ascii_view(view: LatticeView) -> str:
    """One character per cell ('+', '-', '.'), rows printed top (j1) down to j0."""
    if view.window.is_empty():
        return ""
    lines = []
    for row in reversed(view.rows):
        lines.append(" ".join(_cell_char(v) for v in row))
    return "\n".join(lines)


def ascii_curves(window: Window, curves: list[NonZeroCurve]) -> str:
    """Arrow overlay: '>' for +1 arrows, '<' for -1 arrows, '.' elsewhere."""
    if window.is_empty():
        return ""
    width = window.i1 - window.i0 + 1
    height = window.j1 - window.j0 + 1
    grid = [["."] * width for _ in range(height)]
    for curve in curves:
        for i, j, sign in curve.arrows:
            grid[j - window.j0][i - window.i0] = ">" if sign > 0 else "<"
    return "\n".join(" ".join(row) for row in reversed(grid))


def view_to_json(view: LatticeView) -> dict:
    """{"kind", "i0", "j0", "rows"} with rows listed by increasing j."""
    return {
        "kind": view.kind,
        "i0": view.window.i0,
        "j0": view.window.j0,
        "rows": [list(row) for row in view.rows],
    }


def _svg_coords(window: Window, i: int, j: int) -> tuple[int, int]:
    # lattice j grows upward, SVG y grows downward
    cx = _MARGIN + (i - window.i0) * _CELL + _CELL // 2
    cy = _MARGIN + (window.j1 - j) * _CELL + _CELL // 2
    return cx, cy


def svg_curves(
    params: SurgeryParams,
    window: Window,
    curves: list[NonZeroCurve],
    region: NonZeroRegion | None,
) -> str:
    """SVG 1.1 document: shaded region strips, one polyline per component,
    and an oriented arrow segment on every nonzero entry."""
    width = (window.i1 - window.i0 + 1) * _CELL + 2 * _MARGIN if not window.is_empty() else 2 * _MARGIN
    height = (window.j1 - window.j0 + 1) * _CELL + 2 * _MARGIN if not window.is_empty() else 2 * _MARGIN
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<!-- p={params.p} k={params.k} window i=[{window.i0},{window.i1}] '
        f'j=[{window.j0},{window.j1}] -->',
    ]
    if region is not None and not window.is_empty():
        for j in range(window.j0, window.j1 + 1):
            for i in range(window.i0, window.i1 + 1):
                tr = region.translate_index((i, j))
                if tr is None:
                    continue
                fill = _STRIP_FILLS[tr % 2]
                x = _MARGIN + (i - window.i0) * _CELL
                y = _MARGIN + (window.j1 - j) * _CELL
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" fill="{fill}"/>'
                )
    for curve in curves:
        color = _CURVE_COLORS[curve.id % len(_CURVE_COLORS)]
        points = " ".join(
            "{},{}".format(*_svg_coords(window, i, j)) for i, j, _ in curve.arrows
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
    for curve in curves:
        for i, j, sign in curve.arrows:
            cx, cy = _svg_coords(window, i, j)
            head = cx + 7 if sign > 0 else cx - 7
            back = 4 if sign > 0 else -4
            parts.append(
                f'<line x1="{cx - 7 if sign > 0 else cx + 7}" y1="{cy}" '
                f'x2="{head}" y2="{cy}" stroke="#000000" stroke-width="1"/>'
            )
            parts.append(
                f'<path d="M {head} {cy} L {head - back} {cy - 3} L {head - back} {cy + 3} Z" '
                f'fill="#000000"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
