"""ASCII, JSON, and SVG output for lattice views and curves.

All output here is a pure function of its inputs -- SVG documents are
byte-identical across runs for the same window, which the tests rely on.
"""

from __future__ import annotations

from itertools import accumulate, cycle, islice
from typing import Iterator

from .lattice import LatticeView, NonZeroCurve, Window
from .surgery import SurgeryParams

_CELL = 20
_MARGIN = 10
# strip shading alternates by translate parity; curves cycle the palette
_STRIP_FILLS = ("#ececec", "#d7d7d7")
_CURVE_COLORS = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085")
# Elements an SVG piece gathers before svg_pieces yields it: a writer
# holds one piece at a time, never the whole document.  A piece of 1,024
# elements is about 150 KB of text; larger pieces raise the peak memory of
# a writer and measured no faster.
_SVG_PIECE_ELEMENTS = 1024


def ascii_view(view: LatticeView) -> str:
    """One character per cell ('+', '-', '.'), rows printed top (j1) down to j0.

    The period is drawn once, a character per distinct value looked up,
    cell n at offset 2n, so each row is one slice of it; rows p apart are
    the same row, so each distinct row is sliced once and its text repeated.
    """
    if view.window.is_empty():
        return ""
    chars = {v: "+" if v > 0 else "-" if v < 0 else "." for v in set(view.period)}
    text = " ".join(map(chars.__getitem__, view.period))
    w = view.window.width()
    rows = [text[2 * s:2 * (s + w) - 1] for s in view.starts]
    return "\n".join(reversed(list(islice(cycle(rows), view.window.height()))))


def ascii_curves(window: Window, curves: list[NonZeroCurve]) -> str:
    """Arrow overlay: '>' for positive entries, '<' for negative ones, '.' elsewhere."""
    if window.is_empty():
        return ""
    grid = [["."] * window.width() for _ in range(window.height())]
    for curve in curves:
        for i, j, sign in curve.arrows:
            grid[j - window.j0][i - window.i0] = ">" if sign > 0 else "<"
    return "\n".join(" ".join(row) for row in reversed(grid))


def view_to_json(view: LatticeView) -> str:
    """The compact JSON text of {"kind", "i0", "j0", "rows"}, rows listed by
    increasing j.

    The period is encoded once, each cell after a comma, from a table of
    the distinct values' texts: cell n is text[pos[n]:pos[n + 1]], so each
    row's cells are one slice of that text (empty for a window without
    columns, as no bound is negative).  Rows p apart are the same row, so
    each distinct row is sliced once and its slice repeated.

    >>> import json
    >>> from lenspoly.lattice import build_view
    >>> view = build_view(SurgeryParams(7, 2), "A", Window(-1, 2, 0, 7))
    >>> rows = json.loads(view_to_json(view))["rows"]
    >>> len(rows), rows[7] == rows[0], rows[1] == rows[0]
    (8, True, False)
    """
    texts = {v: f",{v}" for v in set(view.period)}
    cells = list(map(texts.__getitem__, view.period))
    text = "".join(cells)
    pos = list(accumulate(map(len, cells), initial=0))
    w = view.window.width()
    rows = [text[pos[s] + 1:pos[s + w]] for s in view.starts]
    rows = "],[".join(islice(cycle(rows), view.window.height()))
    rows = f"[{rows}]" if view.starts else ""  # a window without rows has no brackets
    i0, j0 = view.window.i0, view.window.j0
    return f'{{"kind":"{view.kind}","i0":{i0},"j0":{j0},"rows":[{rows}]}}'


def svg_pieces(
    params: SurgeryParams,
    window: Window,
    curves: list[NonZeroCurve],
    cell_translates: tuple[tuple[int | None, ...], ...] | None,
) -> Iterator[str]:
    """SVG 1.1 document, in pieces of about ``_SVG_PIECE_ELEMENTS``
    elements: one shaded square per region cell, filled by translate
    parity, one polyline per component, and an oriented arrow on every
    nonzero entry.  ``curves`` are those :func:`trace_curves` returns for
    ``window``, and ``cell_translates`` is the region's
    :meth:`NonZeroRegion.window_translates` of it, or None for no
    shading (a trivial polynomial has no region).

    Every element ends in its own newline, and a piece is cut only after
    a shading row or a curve, so the pieces joined are the document and
    a writer holds one piece at a time."""
    i0, i1, j0, j1 = window.i0, window.i1, window.j0, window.j1
    empty = window.is_empty()
    width = 2 * _MARGIN + (0 if empty else window.width() * _CELL)
    height = 2 * _MARGIN + (0 if empty else window.height() * _CELL)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n',
        f'<!-- p={params.p} k={params.k} window i=[{i0},{i1}] j=[{j0},{j1}] -->\n',
    ]
    if cell_translates is not None:
        rect_x = [f'<rect x="{_MARGIN + n * _CELL}" y="' for n in range(window.width())]
        for j, translates in zip(range(j0, j1 + 1), cell_translates):
            y = _MARGIN + (j1 - j) * _CELL
            tails = [f'{y}" width="{_CELL}" height="{_CELL}" fill="{fill}"/>\n'
                     for fill in _STRIP_FILLS]
            parts += [x + tails[tr % 2] for x, tr in zip(rect_x, translates) if tr is not None]
            if len(parts) >= _SVG_PIECE_ELEMENTS:
                yield "".join(parts)
                parts = []
        del cell_translates  # not held while the curves are drawn
    if curves:  # the maps below span the window: none without a curve to draw
        # cell centres; lattice j grows upward, SVG y grows downward
        cx = {i: _MARGIN + (i - i0) * _CELL + _CELL // 2 for i in range(i0, i1 + 1)}
        cy = {j: _MARGIN + (j1 - j) * _CELL + _CELL // 2 for j in range(j0, j1 + 1)}
        xs, ys = {i: str(x) for i, x in cx.items()}, {j: str(y) for j, y in cy.items()}
        for curve in curves:
            color = _CURVE_COLORS[curve.id % len(_CURVE_COLORS)]
            points = " ".join([f"{xs[i]},{ys[j]}" for i, j, _ in curve.arrows])
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>\n'
            )
            if len(parts) >= _SVG_PIECE_ELEMENTS:
                yield "".join(parts)
                parts = []
        # arrow tail, head and barb x per column and direction; cy, cy - 3, cy + 3 per row
        right = {i: (str(x - 7), str(x + 7), str(x + 3)) for i, x in cx.items()}
        left = {i: (str(x + 7), str(x - 7), str(x - 3)) for i, x in cx.items()}
        rows = {j: (ys[j], str(y - 3), str(y + 3)) for j, y in cy.items()}
        for curve in curves:
            for i, j, sign in curve.arrows:
                (tail, head, barb), (y, up, down) = (right if sign > 0 else left)[i], rows[j]
                parts.append(f'<line x1="{tail}" y1="{y}" x2="{head}" y2="{y}" stroke="#000000" '
                             f'stroke-width="1"/>\n'
                             f'<path d="M {head} {y} L {barb} {up} L {barb} {down} Z" '
                             'fill="#000000"/>\n')
            if len(parts) >= _SVG_PIECE_ELEMENTS:
                yield "".join(parts)
                parts = []
    parts.append("</svg>\n")
    yield "".join(parts)
