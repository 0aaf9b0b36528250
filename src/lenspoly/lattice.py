"""Lattice matrices, the non-zero region, curve tracing, and the dichotomy check.

The A-matrix spreads the periodic coefficients over Z^2 via
``A[i, j] = abar_{k2*(i + j*e*k - c)}`` and dA is its horizontal
difference, which also has a direct three-case formula on the residue
``[q2*i + k2*j]_p``.  Since k2*e*k = 1 and q2 = k2^2 (mod p), every cell
reads column 0: ``A[i, j] = A[0, t]`` and ``dA[i, j] = dA[0, t]`` with
``t = (j + k2*i) mod p``.  With u = e*k = k2^-1 (mod p) and
``strided[y] = A[y, 0]`` this reads ``A[i, j] = strided[(i + u*j) mod p]``
(likewise dA), so a window row is one slice of ``strided`` repeated.  All
nonzero A entries live in a staircase region made of columns of 2g+1
cells, repeating under the translation ``v = (1, -k2)`` and the vertical
period ``(0, p)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby
from typing import NamedTuple

from .alexander import (
    GeneratedPolynomial,
    IntegrityError,
    SymmetricLaurentPolynomial,
    generate,
)
from .surgery import (
    DerivedInvariants,
    SurgeryParams,
    derive_invariants,
    interval_contains,
    reduce_mod,
)


@dataclass(frozen=True)
class Window:
    """Inclusive lattice rectangle i0..i1 x j0..j1.  May be empty (i0 > i1)."""

    i0: int
    i1: int
    j0: int
    j1: int

    def is_empty(self) -> bool:
        return self.i0 > self.i1 or self.j0 > self.j1


def fundamental_window(params: SurgeryParams, inv: DerivedInvariants | None = None) -> Window:
    """Default window: i in [-1, k2+1], j in [-p, p].

    Wide enough to show one full region translate around the anchor row
    plus both vertical neighbours.
    """
    if inv is None:
        inv = derive_invariants(params)
    return Window(i0=-1, i1=inv.k2 + 1, j0=-params.p, j1=params.p)


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
    """dA[i, j] by the case split on r = [q2*i + k2*j]_p.

    +1 when r is in I_{-k2}, -1 when r is in I_{k2}, 0 otherwise.  Equals
    A[i, j] - A[i-1, j] identically; views assert that.
    """
    r = reduce_mod((inv.q2 * i + inv.k2 * j) % params.p, params.p)
    if interval_contains(-inv.k2, r):
        return 1
    if interval_contains(inv.k2, r):
        return -1
    return 0


@dataclass(frozen=True)
class LatticeView:
    """Immutable window snapshot of A or dA entries.

    rows[m] holds the entries of row j0+m (rows listed by increasing j),
    rows[m][n] the entry at (i0+n, j0+m).
    """

    kind: str
    window: Window
    rows: tuple[tuple[int, ...], ...]


def build_view(
    params: SurgeryParams, kind: str, window: Window, gen: GeneratedPolynomial | None = None
) -> LatticeView:
    """Materialize a window of A or dA entries.

    Cell (i, j) equals the column-0 entry at t = (j + k2*i) mod p (see
    the module docstring), so :func:`a_entry`, and for dA :func:`da_entry`,
    run once per residue t.  That column is reordered to strided[y] =
    column[k2*y mod p], and row j is the slice of it, repeated, from
    (i0 + u*j) mod p: A[i, j] = strided[(i + u*j) mod p], u = e*k.  A
    views use the raw generator output, so anomalous parameters remain
    inspectable.  dA views check the case split against A[0, t] - A[-1, t]
    on every residue, which covers every cell, refusing to return on any
    mismatch.  ``gen`` may be passed when the caller has already run
    :func:`generate`.
    """
    if kind not in ("A", "dA"):
        raise ValueError(f"kind must be 'A' or 'dA', got {kind!r}")
    if gen is None:
        gen = generate(params)
    inv, poly, p = gen.inv, gen.poly, params.p
    column = [a_entry(params, inv, poly, 0, t) for t in range(p)]
    if kind == "dA":
        a_column, column = column, [da_entry(params, inv, 0, t) for t in range(p)]
        for t, val in enumerate(column):
            diff = a_column[t] - a_column[(t - inv.k2) % p]
            if val != diff:
                raise IntegrityError(p, params.k, f"dA case split gives {val} but "
                                     f"A-difference gives {diff} at (0, {t})", index=0)
    width, u = max(window.i1 - window.i0 + 1, 0), inv.e * params.k
    strided = [column[inv.k2 * y % p] for y in range(p)]
    ext = tuple(strided * -(-(p - 1 + width) // p))  # every row start s < p fits
    rows = tuple(ext[s:s + width] for s in
                 ((window.i0 + u * j) % p for j in range(window.j0, window.j1 + 1)))
    return LatticeView(kind=kind, window=window, rows=rows)


def region_anchor(params: SurgeryParams, inv: DerivedInvariants, g: int) -> tuple[int, int]:
    """The anchor (i*, 0), 0 <= i* < p, where the column carries alpha_0.

    Solves k2*(i* - c) = -g mod p; since k2^{-1} = e*k mod p this is
    i* = c - g*e*k mod p.
    """
    if g < 1:
        raise ValueError("trivial polynomial has no non-zero region")
    p = params.p
    istar = (inv.c - g * inv.e * params.k) % p
    assert (inv.k2 * (istar - inv.c) + g) % p == 0
    return (istar, 0)


@dataclass(frozen=True)
class NonZeroRegion:
    """The staircase region containing every nonzero A entry.

    Cell (x, y) belongs iff s = (y + (x - i*)*k2) mod p satisfies
    s <= 2g; the quotient of that same expression by p numbers the
    vertical-period translate the cell lies in.
    """

    params: SurgeryParams
    inv: DerivedInvariants
    g: int
    anchor: tuple[int, int]

    def contains(self, point: tuple[int, int]) -> bool:
        return self.translate_index(point) is not None

    def translate_index(self, point: tuple[int, int]) -> int | None:
        """Index n' of the (0, p)-translate containing the point, or None
        when the point is outside the region."""
        x, y = point
        n, s = divmod(y + (x - self.anchor[0]) * self.inv.k2, self.params.p)
        return n if s <= 2 * self.g else None

    def row_spans(self, j: int, i0: int, i1: int) -> list[tuple[int, int, int]]:
        """The (translate, lo, hi) i-ranges of the region in row j, columns
        i0..i1, in ascending i.

        Cell (i, j) lies in translate n iff p*n <= j + (i - i*)*k2 <=
        p*n + min(2g, p - 1); the cap keeps overlapping columns (2g >= p)
        in the one translate that :meth:`translate_index` gives them.
        """
        p, k2, istar = self.params.p, self.inv.k2, self.anchor[0]
        top = min(2 * self.g, p - 1) - j
        spans = []
        for n in range((j + (i0 - istar) * k2) // p, (j + (i1 - istar) * k2) // p + 1):
            lo = max(i0, istar - (j - p * n) // k2)  # i* + ceil((p*n - j)/k2)
            hi = min(i1, istar + (p * n + top) // k2)
            if lo <= hi:
                spans.append((n, lo, hi))
        return spans

    def column_span(self, translate: int, j0: int, j1: int) -> tuple[int, int]:
        """Inclusive x-range of this translate's columns meeting rows j0..j1.

        Column x = i* + n of translate r covers y in
        [-n*k2 + p*r, -n*k2 + p*r + 2g]; intersecting with [j0, j1]
        bounds n on both sides.  Returns (lo, hi); empty when lo > hi.
        """
        p, k2 = self.params.p, self.inv.k2
        n_lo = -((j1 - p * translate) // k2)  # ceil((p*r - j1)/k2)
        n_hi = (p * translate + 2 * self.g - j0) // k2
        return (self.anchor[0] + n_lo, self.anchor[0] + n_hi)


def non_zero_region(
    params: SurgeryParams, gen: GeneratedPolynomial | None = None
) -> NonZeroRegion:
    """The region of a nontrivial polynomial; ``gen`` as in :func:`build_view`."""
    if gen is None:
        gen = generate(params)
    g = gen.poly.g
    return NonZeroRegion(params=params, inv=gen.inv, g=g,
                         anchor=region_anchor(params, gen.inv, g))


def region_contains(region: NonZeroRegion, point: tuple[int, int]) -> bool:
    return region.contains(point)


@dataclass(frozen=True)
class NonZeroCurve:
    """One connected component of linked arrows.

    arrows is a tuple of (i, j, sign) sorted by non-increasing j (ties by
    increasing i); translate is the region translate the component lives in.
    """

    id: int
    translate: int
    arrows: tuple[tuple[int, int, int], ...]


def trace_curves(
    params: SurgeryParams, window: Window, gen: GeneratedPolynomial | None = None
) -> list[NonZeroCurve]:
    """Arrows on nonzero A entries, grouped into curve components.

    Every arrow links to each arrow of its region translate in the row
    below, and to an equal-sign horizontal neighbour of its translate.
    Within one translate the components are therefore:

    * a maximal run of two or more consecutive non-empty rows, whole;
    * in a run of a single row, each stretch of consecutive i with one
      sign (the row splits at every gap in i and every sign change).

    Components come back ordered by translate index, then by first arrow.

    Window boundaries can cut a translate's arrow set: the curve is
    monotone in j but jogs horizontally around zero coefficients, so a
    clipped translate may show more than one component.  Checks that
    need "exactly one component per translate" should count only the
    translates :func:`covered_translates` returns.  ``gen`` as in
    :func:`build_view`.
    """
    if window.is_empty():
        return []
    if gen is None:
        gen = generate(params)
    if gen.poly.g == 0:
        return []
    region = non_zero_region(params, gen)
    view = build_view(params, "A", window, gen)

    # translate -> j -> arrows (i, j, sign), rows by decreasing j, i increasing
    translates: dict[int, dict[int, list[tuple[int, int, int]]]] = {}
    p, k2, cap = params.p, gen.inv.k2, 2 * gen.poly.g
    cols = range(window.i0, window.i1 + 1)
    for j, row in zip(range(window.j1, window.j0 - 1, -1), reversed(view.rows)):
        base = j - region.anchor[0] * k2  # translate_index divides base + i*k2 by p
        for i, v in zip(cols, row):
            if v == 0:
                continue
            tr, s = divmod(base + i * k2, p)
            if s > cap:
                raise IntegrityError(
                    params.p, params.k,
                    f"nonzero entry at ({i}, {j}) outside the non-zero region",
                    index=i,
                )
            translates.setdefault(tr, {}).setdefault(j, []).append((i, j, v))

    components = []
    for tr, rows in translates.items():
        # position + j is constant exactly along a run of consecutive rows
        for _, run in groupby(enumerate(rows), key=lambda nj: nj[0] + nj[1]):
            run_rows = [rows[j] for _, j in run]
            if len(run_rows) > 1:
                components.append((tr, tuple(chain.from_iterable(run_rows))))
                continue
            # in a lone row, i - position and the sign are constant exactly along a piece
            for _, piece in groupby(enumerate(run_rows[0]),
                                    key=lambda na: (na[1][0] - na[0], na[1][2])):
                components.append((tr, tuple(arrow for _, arrow in piece)))
    components.sort(key=lambda c: (c[0], c[1][0]))
    return [NonZeroCurve(id=n, translate=tr, arrows=arr)
            for n, (tr, arr) in enumerate(components)]


def covered_translates(
    params: SurgeryParams, window: Window, gen: GeneratedPolynomial | None = None
) -> list[int]:
    """Region translates whose arrows in rows j0..j1 all fit inside the window.

    Only these translates are guaranteed a complete, uncut curve piece;
    see :func:`trace_curves` on boundary clipping.  ``gen`` as in
    :func:`build_view`.
    """
    if gen is None:
        gen = generate(params)
    if gen.poly.g == 0 or window.is_empty():
        return []
    region = non_zero_region(params, gen)
    istar = region.anchor[0]
    k2, p = region.inv.k2, params.p
    r_lo = (window.j0 + (window.i0 - istar) * k2) // p - 1
    r_hi = (window.j1 + (window.i1 - istar) * k2) // p + 1
    out = []
    for r in range(r_lo, r_hi + 1):
        lo, hi = region.column_span(r, window.j0, window.j1)
        if lo <= hi and window.i0 <= lo and hi <= window.i1:
            out.append(r)
    return out


class LemmaReport(NamedTuple):
    """Outcome of the dichotomy check over one vertical period.

    hypothesis_found: some column i in {0, 1} shows dA = -1 directly
    below dA = +1.  When the hypothesis is absent, bound_ok and
    no_adjacent_zeros are vacuously true.
    """

    p: int
    k: int
    k2: int
    hypothesis_found: bool
    bound_ok: bool
    no_adjacent_zeros: bool


def check_lemma(params: SurgeryParams, inv: DerivedInvariants | None = None) -> LemmaReport:
    """Decide the (-1, +1) vertical pattern and its promised consequences in O(1).

    In column i, dA[i, j] depends only on r = (q2*i + k2*j) mod p: it is
    +1 when r = 0 or r > p - k2, -1 when 1 <= r <= k2, and 0 otherwise
    (the ranges are disjoint because k2 <= p/2).  Stepping j by one adds
    k2 to r, and gcd(k2, p) = 1, so over one vertical period each column
    meets every residue exactly once, and with it every step r -> r + k2.
    Both columns i = 0, 1 therefore show the same patterns:

    * -1 directly below +1 needs 1 <= r <= k2 with r + k2 (at most
      2*k2 <= p) equal to p or above p - k2.  Some such r exists iff
      2*k2 > p - k2, that is iff p < 3*k2 (r + k2 = p forces p <= 2*k2).
    * Two adjacent zeros need k2 < r and r + k2 <= p - k2.  Some such r
      exists iff k2 + 1 <= p - 2*k2, that is iff p > 3*k2.

    ``inv`` may be passed when the caller has already derived it.

    >>> check_lemma(SurgeryParams(11, 2))
    LemmaReport(p=11, k=2, k2=5, hypothesis_found=True, bound_ok=True, no_adjacent_zeros=True)
    """
    if inv is None:
        inv = derive_invariants(params)
    p, k2 = params.p, inv.k2
    hypothesis = p < 3 * k2
    zeros = p > 3 * k2
    return LemmaReport(
        p=p,
        k=params.k,
        k2=k2,
        hypothesis_found=hypothesis,
        bound_ok=(p < 3 * k2) if hypothesis else True,
        no_adjacent_zeros=(not zeros) if hypothesis else True,
    )
