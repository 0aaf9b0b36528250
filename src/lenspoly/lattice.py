"""Lattice matrices, the non-zero region, curve tracing, and the dichotomy check.

The A-matrix spreads the periodic coefficients over Z^2 via
``A[i, j] = abar_{k2*(i + j*e*k - c)}`` (:func:`a_entry`); dA is its
horizontal difference, also a three-case split of ``(q2*i + k2*j) mod p``.
With u = e*k = k2^-1 (mod p), so that q2*u = k2, every cell reads row 0:
``A[i, j] = A[(i + u*j) mod p, 0]`` (likewise dA), so a view keeps row 0,
repeated, and the starts of one period of rows.  All nonzero A entries
lie in a region of (2g+1)-cell columns repeating under ``v = (1, -k2)``
and ``(0, p)``.

Index identity.  abar_x is ``period[(x + g) mod p]``, where ``period =
(coeffs + (0,) * p)[:p]`` (at 2g = p both ends read a_g = a_-g).  With
i* the column of alpha_0 in row 0, cell (i, j) has the coordinate
``t = j + (i - i*)*k2``, constant along v, and t = k2*(i + j*e*k - c) + g
(mod p) exactly when the anchor ``k2*(i* - c) + g = 0 (mod p)`` holds.
Proof: k*k2 = e and e^2 = 1 give k2*j*e*k = j (mod p), so the right side
is j + k2*i - k2*c + g = t + (k2*(i* - c) + g).  So A[i, j] is
``period[t mod p]``: the cell is in the region iff ``t mod p <= 2g``, in
translate ``t // p``.  Views gather row 0 at the paper's index.
:meth:`NonZeroRegion.window_translates` checks the anchor and states this
rule once: the tracer, the SVG shading and :func:`covered_translates` all
read their translates off its table.

>>> params, gen = SurgeryParams(19, 7), generate(SurgeryParams(19, 7))
>>> view = build_view(params, "A", Window(0, 18, 0, 0), gen)
>>> start = next(view.row_starts())
>>> view.period[start:start + 19] == tuple(a_entry(params, params.inv, gen.poly, y, 0)
...                                       for y in range(19))
True
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import chain, compress, cycle, islice, pairwise, repeat
from operator import itemgetter, mod, sub
from typing import Iterator, NamedTuple

from .alexander import (
    GeneratedPolynomial,
    IntegrityError,
    SymmetricLaurentPolynomial,
    generate,
)
from .surgery import DerivedInvariants, SurgeryParams, reduce_mod


class Window(NamedTuple):
    """Inclusive lattice rectangle i0..i1 x j0..j1.  May be empty (i0 > i1)."""

    i0: int
    i1: int
    j0: int
    j1: int

    def is_empty(self) -> bool:
        return self.i0 > self.i1 or self.j0 > self.j1

    def width(self) -> int:
        """Cells per row (columns i0..i1), 0 when i0 > i1."""
        return max(self.i1 - self.i0 + 1, 0)

    def height(self) -> int:
        """Rows (j0..j1), 0 when j0 > j1."""
        return max(self.j1 - self.j0 + 1, 0)


def fundamental_window(params: SurgeryParams) -> Window:
    """Default window: i in [-1, k2+1], j in [-p, p].

    Wide enough to show one full region translate around the anchor row
    plus both vertical neighbours.
    """
    return Window(i0=-1, i1=params.inv.k2 + 1, j0=-params.p, j1=params.p)


def a_entry(
    params: SurgeryParams,
    inv: DerivedInvariants,
    poly: SymmetricLaurentPolynomial,
    i: int,
    j: int,
) -> int:
    """A[i, j] = abar at index k2*(i + j*e*k - c), reduced mod p before multiplying."""
    p = params.p
    idx = (inv.k2 * ((i + j * inv.e * params.k - inv.c) % p)) % p
    return poly.coefficient(reduce_mod(idx, p))


def da_entry(params: SurgeryParams, inv: DerivedInvariants, i: int, j: int) -> int:
    """dA[i, j] by the case split on r = (q2*i + k2*j) mod p.

    +1 when r = 0 or r > p - k2, -1 when 1 <= r <= k2, 0 otherwise (the
    ranges are disjoint because k2 <= p/2).  Equals A[i, j] - A[i-1, j]
    identically; dA views check that.
    """
    r = (inv.q2 * i + inv.k2 * j) % params.p
    if r == 0 or r > params.p - inv.k2:
        return 1
    if r <= inv.k2:
        return -1
    return 0


class LatticeView(NamedTuple):
    """Immutable window snapshot of A or dA entries: row 0 repeated, and
    one period of row starts.

    Row j0+m is the slice ``period[s:s + width]``, s = ``starts[m % p]``:
    its start (i0 + u*(j0 + m)) mod p repeats every p rows, so ``starts``
    holds the first min(height, p) of them (none when the window has no
    rows), and ``period`` repeats row 0 over max(starts) + width cells, as
    far as the slices reach: entry n of row j0+m is the cell (i0+n, j0+m).
    """

    kind: str
    window: Window
    period: tuple[int, ...]
    starts: tuple[int, ...]

    def row_starts(self) -> Iterator[int]:
        """The start of every row, j0 up to j1: ``starts`` over and over."""
        return islice(cycle(self.starts), self.window.height())


def build_view(
    params: SurgeryParams, kind: str, window: Window, gen: GeneratedPolynomial | None = None
) -> LatticeView:
    """A window of A or dA entries, as row 0 repeated and one period of
    row starts.

    Row 0 of A is one gather at the paper's index (the index identity,
    module docstring); row j is the slice of row 0, repeated, from
    (i0 + u*j) mod p.  A views use the raw generator output, so anomalous
    parameters remain inspectable.  dA views run :func:`da_entry` on each
    cell (y, 0) and check it against A[y, 0] - A[y-1, 0], which covers
    every cell, refusing to return on any mismatch.  ``gen`` may be passed
    when the caller has already run :func:`generate`.
    """
    if kind not in ("A", "dA"):
        raise ValueError(f"kind must be 'A' or 'dA', got {kind!r}")
    if gen is None:
        gen = generate(params)
    inv, p = params.inv, params.p
    period = (gen.poly.coeffs + (0,) * p)[:p]
    start = (gen.poly.g - inv.k2 * inv.c) % p  # the index g + k2*(y - c) at y = 0
    row = [period[x % p] for x in range(start, start + inv.k2 * p, inv.k2)]
    if kind == "dA":
        a_row, row = row, [da_entry(params, inv, y, 0) for y in range(p)]
        diff = list(map(sub, a_row, [a_row[-1], *a_row]))  # A[y, 0] - A[y-1, 0]
        if row != diff:
            y = next(y for y, (val, d) in enumerate(zip(row, diff)) if val != d)
            raise IntegrityError(p, params.k, f"dA case split gives {row[y]} but "
                                 f"A-difference gives {diff[y]} at ({y}, 0)", index=y)
    u = inv.e * params.k
    first = window.i0 + u * window.j0
    starts = tuple(map(mod, range(first, first + min(window.height(), p) * u, u), repeat(p)))
    reach = max(starts) + window.width() if starts else 0  # the last row slice's end
    return LatticeView(kind=kind, window=window, period=tuple(islice(cycle(row), reach)),
                       starts=starts)


class NonZeroRegion(NamedTuple):
    """The staircase region containing every nonzero A entry, read by the
    coordinate t of the index identity (see the module docstring)."""

    params: SurgeryParams
    g: int
    istar: int

    def window_translates(self, window: Window) -> tuple[tuple[int | None, ...], ...]:
        """Translate index of every cell of ``window``, None outside the region.

        Row m holds the cells (i0..i1, j0 + m).  Consecutive t (module
        docstring) run through blocks of p: min(2g, p - 1) + 1 in
        translate t // p, the rest outside.  Column x is one run of t.
        When k2 <= height those runs overlap into one, of no more entries
        than cells, and each row is a stride-k2 slice of it; otherwise the
        columns are laid down apart, one after another, and row m takes
        every h-th cell from m.  Either way time and memory are O(cells).
        An anchor i* that breaks the index identity is an IntegrityError.

        >>> region = non_zero_region(SurgeryParams(11, 2))
        >>> region.window_translates(Window(-1, 6, 0, 0))
        ((None, 0, None, None, 1, None, 2, None),)
        """
        p, inv, istar = self.params.p, self.params.inv, self.istar
        if (inv.k2 * (istar - inv.c) + self.g) % p:
            raise IntegrityError(p, self.params.k, f"anchor i* = {istar} puts nonzero "
                                 "entries outside the non-zero region", index=istar)
        w, h, k2, cap = window.width(), window.height(), inv.k2, min(2 * self.g, p - 1)
        if not w or not h:  # no empty run per column when there is no row
            return ((),) * h
        t0 = window.j0 + (window.i0 - istar) * k2
        if k2 <= h:
            run = tuple(_translate_run(t0, h + (w - 1) * k2, p, cap))
            return tuple(run[m:m + (w - 1) * k2 + 1:k2] for m in range(h))
        columns = map(_translate_run, range(t0, t0 + w * k2, k2), repeat(h), repeat(p), repeat(cap))
        cells = tuple(chain.from_iterable(columns))
        return tuple(cells[m::h] for m in range(h))


def _translate_run(t: int, n: int, p: int, cap: int) -> list[int | None]:
    """Translate index of t, t + 1, ..., t + n - 1, laid down block by
    block: offsets 0..cap of block r lie in translate r, the rest outside."""
    r, s = divmod(t, p)
    run: list[int | None] = []
    while n > 0:
        size = p - s if p - s < n else n  # cells of the run in block r
        inside = cap + 1 - s if s <= cap else 0
        if inside > size:
            inside = size
        run += [r] * inside + [None] * (size - inside)
        r, s, n = r + 1, 0, n - size
    return run


def non_zero_region(
    params: SurgeryParams, gen: GeneratedPolynomial | None = None
) -> NonZeroRegion:
    """The region of a nontrivial polynomial, ``gen`` as in :func:`build_view`,
    anchored at the column i*, 0 <= i* < p, that carries alpha_0 in row 0:
    the anchor of the index identity (module docstring) and k2^{-1} = e*k
    mod p give i* = c - g*e*k mod p.

    >>> [non_zero_region(SurgeryParams(p, k)).istar for p, k in ((11, 2), (19, 7))]
    [0, 2]
    """
    if gen is None:
        gen = generate(params)
    g, inv, p = gen.poly.g, params.inv, params.p
    if g < 1:
        raise ValueError("trivial polynomial has no non-zero region")
    istar = (inv.c - g * inv.e * params.k) % p
    return NonZeroRegion(params=params, g=g, istar=istar)


def region_contains(region: NonZeroRegion, point: tuple[int, int]) -> bool:
    x, y = point
    return region.window_translates(Window(x, x, y, y))[0][0] is not None


class NonZeroCurve(NamedTuple):
    """One connected component of linked arrows, in region translate ``translate``.

    arrows is a tuple of (i, j, A[i, j]): each arrow carries its nonzero entry,
    whose sign is its direction; sorted by non-increasing j (ties by increasing i).
    """

    id: int
    translate: int
    arrows: tuple[tuple[int, int, int], ...]


def trace_curves(
    params: SurgeryParams,
    window: Window,
    gen: GeneratedPolynomial | None = None,
    cell_translates: tuple[tuple[int | None, ...], ...] | None = None,
) -> list[NonZeroCurve]:
    """Arrows on nonzero A entries, grouped into curve components.

    Every arrow links to each arrow of its region translate in the row
    below, and to a horizontal neighbour of its translate with an equal
    entry.  Within one translate the components are therefore:

    * a maximal run of two or more consecutive non-empty rows, whole;
    * in a run of a single row, each stretch of consecutive i with one
      entry (the row splits at every gap in i and every entry change).

    Components come back ordered by translate index, then by first arrow.

    Memory: each row of the A view is sliced out of its period when the
    loop reaches it, every arrow of a column holds that column's one int,
    and each translate's arrow list is released once it is cut, so no
    list outlives the components cut from it.

    Window boundaries can cut a translate's arrow set: the curve is
    monotone in j but jogs horizontally around zero coefficients, so a
    clipped translate may show more than one component.  Checks that
    need "exactly one component per translate" should count only the
    translates :func:`covered_translates` returns.  ``gen`` as in
    :func:`build_view`; ``cell_translates``, the region's
    :meth:`NonZeroRegion.window_translates` of ``window``, may be passed
    likewise by a caller that reads the table too (the SVG shading).
    """
    if window.is_empty():
        return []
    if gen is None:
        gen = generate(params)
    if gen.poly.g == 0:
        return []
    if cell_translates is None:
        cell_translates = non_zero_region(params, gen).window_translates(window)
    view = build_view(params, "A", window, gen)

    # each translate's arrows, rows top down, i increasing; every nonzero
    # entry has a translate, since window_translates checks the anchor
    translates: defaultdict[int, list[tuple[int, int, int]]] = defaultdict(list)
    cols = tuple(range(window.i0, window.i1 + 1))  # one int per column, shared by its arrows
    period, width = view.period, window.width()
    rows = zip(range(window.j1, window.j0 - 1, -1), reversed(list(view.row_starts())),
               reversed(cell_translates))
    for j, start, row_translates in rows:
        row = period[start:start + width]
        if any(row):
            lists = map(translates.__getitem__, compress(row_translates, row))
            arrows = zip(compress(cols, row), repeat(j), filter(None, row))
            deque(map(list.append, lists, arrows), maxlen=0)  # runs the appends

    components = []
    for tr in sorted(translates):
        arrows = translates.pop(tr)  # freed once cut into components
        js = list(map(itemgetter(1), arrows))
        # a curve ends at every empty row between the top and bottom rows
        ends = [len(arrows)]
        if len(set(js)) < js[0] - js[-1] + 1:
            ends = [n for n in range(1, len(js)) if js[n] < js[n - 1] - 1] + ends
        for c, d in zip([0, *ends], ends):
            if js[c] != js[d - 1]:
                components.append((tr, tuple(arrows[c:d])))
                continue
            # a lone row splits at every gap in i and every change of entry
            row = arrows[c:d]
            cuts = [n for n, ((i, _, v), (i2, _, v2)) in enumerate(zip(row, row[1:]), 1)
                    if i2 != i + 1 or v2 != v]
            components += [(tr, tuple(row[e:f])) for e, f in pairwise([0, *cuts, len(row)])]
    components.sort()  # by translate, then first arrow: no two components share one
    return [NonZeroCurve(id=n, translate=tr, arrows=arr)
            for n, (tr, arr) in enumerate(components)]


def covered_translates(
    params: SurgeryParams, window: Window, gen: GeneratedPolynomial | None = None
) -> list[int]:
    """Region translates with a cell in the window whose region cells in
    rows j0..j1, zero entries included, all lie in columns i0..i1.

    Only these translates are guaranteed a complete, uncut curve piece;
    see :func:`trace_curves` on boundary clipping.  The columns of one
    translate that meet rows j0..j1 are consecutive, so they are read off
    :meth:`NonZeroRegion.window_translates` of the window widened by one
    column on each side: a translate is covered when it occurs in the
    table but in neither edge column.  ``gen`` as in :func:`build_view`.
    """
    if gen is None:
        gen = generate(params)
    if gen.poly.g == 0 or window.is_empty():
        return []
    rows = non_zero_region(params, gen).window_translates(
        window._replace(i0=window.i0 - 1, i1=window.i1 + 1))
    edges = set(map(itemgetter(0), rows)) | set(map(itemgetter(-1), rows))
    return sorted(set(chain.from_iterable(rows)) - edges - {None})


def check_lemma(params: SurgeryParams) -> bool:
    """Whether the (-1, +1) vertical dA pattern occurs, decided in O(1).

    In column i, dA[i, j] depends only on r = (q2*i + k2*j) mod p, by the
    case split of :func:`da_entry`.  Stepping j by one adds
    k2 to r, and gcd(k2, p) = 1, so over one vertical period each column
    meets every residue exactly once, and with it every step r -> r + k2.
    Both columns i = 0, 1 therefore show the same patterns:

    * -1 directly below +1 needs 1 <= r <= k2 with r + k2 (at most
      2*k2 <= p) equal to p or above p - k2.  Some such r exists iff
      2*k2 > p - k2, that is iff p < 3*k2 (r + k2 = p forces p <= 2*k2).
    * Two adjacent zeros need k2 < r and r + k2 <= p - k2.  Some such r
      exists iff k2 + 1 <= p - 2*k2, that is iff p > 3*k2.

    So the hypothesis is exactly the bound p < 3*k2, which rules out
    adjacent zeros: the lemma's two conclusions hold for every pair.

    >>> check_lemma(SurgeryParams(11, 2)), check_lemma(SurgeryParams(11, 1))
    (True, False)
    """
    return params.p < 3 * params.inv.k2
