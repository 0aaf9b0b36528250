"""Lattice matrices, the non-zero region, curve tracing, and the dichotomy check.

The A-matrix spreads the periodic coefficients over Z^2 via
``A[i, j] = abar_{k2*(i + j*e*k - c)}`` and dA is its horizontal
difference, which also has a direct three-case formula on the residue
``[q2*i + k2*j]_p``.  All nonzero A entries live in a staircase region
made of columns of 2g+1 cells, repeating under the translation
``v = (1, -k2)`` and the vertical period ``(0, p)``.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    params: SurgeryParams
    inv: DerivedInvariants
    kind: str
    window: Window
    rows: tuple[tuple[int, ...], ...]

    def entry(self, i: int, j: int) -> int:
        w = self.window
        if not (w.i0 <= i <= w.i1 and w.j0 <= j <= w.j1):
            raise IndexError(f"({i}, {j}) outside window")
        return self.rows[j - w.j0][i - w.i0]


def build_view(params: SurgeryParams, kind: str, window: Window) -> LatticeView:
    """Materialize a window of A or dA entries.

    A views use the raw generator output, so anomalous parameters remain
    inspectable.  dA views evaluate both the case-split formula and the
    horizontal A-difference on every cell and refuse to return on any
    mismatch.
    """
    if kind not in ("A", "dA"):
        raise ValueError(f"kind must be 'A' or 'dA', got {kind!r}")
    gen = generate(params)
    inv, poly = gen.inv, gen.poly
    rows = []
    for j in range(window.j0, window.j1 + 1):
        row = []
        for i in range(window.i0, window.i1 + 1):
            if kind == "A":
                row.append(a_entry(params, inv, poly, i, j))
            else:
                val = da_entry(params, inv, i, j)
                diff = a_entry(params, inv, poly, i, j) - a_entry(params, inv, poly, i - 1, j)
                if val != diff:
                    raise IntegrityError(
                        params.p, params.k,
                        f"dA case split gives {val} but A-difference gives {diff} at ({i}, {j})",
                        index=i,
                    )
                row.append(val)
        rows.append(tuple(row))
    return LatticeView(params=params, inv=inv, kind=kind, window=window, rows=tuple(rows))


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
        x, y = point
        s = (y + (x - self.anchor[0]) * self.inv.k2) % self.params.p
        return s <= 2 * self.g

    def translate_index(self, point: tuple[int, int]) -> int:
        """Index n' of the (0, p)-translate containing the point."""
        x, y = point
        s_raw = y + (x - self.anchor[0]) * self.inv.k2
        if s_raw % self.params.p > 2 * self.g:
            raise ValueError(f"{point} is not in the region")
        return s_raw // self.params.p

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


def non_zero_region(params: SurgeryParams) -> NonZeroRegion:
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


def trace_curves(params: SurgeryParams, window: Window) -> list[NonZeroCurve]:
    """Arrows on nonzero A entries, linked into curve components.

    Two arrows are linked when (a) they are horizontal neighbours with
    equal sign in the same region translate, or (b) they sit at (i, j)
    and (i', j-1) within the same region translate -- the vertical
    staircase step.  Components come back ordered by translate index.

    Window boundaries can cut a translate's arrow set: the curve is
    monotone in j but jogs horizontally around zero coefficients, so a
    clipped translate may show more than one component.  Checks that
    need "exactly one component per translate" should build the window
    with :func:`window_for_translates`.
    """
    if window.is_empty():
        return []
    gen = generate(params)
    g = gen.poly.g
    if g == 0:
        return []
    inv = gen.inv
    region = NonZeroRegion(params=params, inv=inv, g=g,
                           anchor=region_anchor(params, inv, g))
    poly = gen.poly

    arrows: dict[tuple[int, int], tuple[int, int]] = {}  # (i,j) -> (sign, translate)
    rows: dict[int, list[int]] = {}
    for j in range(window.j0, window.j1 + 1):
        for i in range(window.i0, window.i1 + 1):
            v = a_entry(params, inv, poly, i, j)
            if v == 0:
                continue
            if not region.contains((i, j)):
                raise IntegrityError(
                    params.p, params.k,
                    f"nonzero entry at ({i}, {j}) outside the non-zero region",
                    index=i,
                )
            arrows[(i, j)] = (v, region.translate_index((i, j)))
            rows.setdefault(j, []).append(i)

    parent: dict[tuple[int, int], tuple[int, int]] = {pt: pt for pt in arrows}

    def find(x: tuple[int, int]) -> tuple[int, int]:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: tuple[int, int], b: tuple[int, int]) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for (i, j), (sign, tr) in arrows.items():
        right = (i + 1, j)
        if right in arrows and arrows[right] == (sign, tr):
            union((i, j), right)
        for i2 in rows.get(j - 1, ()):
            if arrows[(i2, j - 1)][1] == tr:
                union((i, j), (i2, j - 1))

    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for pt in arrows:
        groups.setdefault(find(pt), []).append(pt)

    components = []
    for members in groups.values():
        ordered = sorted(members, key=lambda pt: (-pt[1], pt[0]))
        tr = arrows[ordered[0]][1]
        components.append((tr, tuple((i, j, arrows[(i, j)][0]) for i, j in ordered)))
    components.sort(key=lambda c: (c[0], c[1][0]))
    return [NonZeroCurve(id=n, translate=tr, arrows=arr)
            for n, (tr, arr) in enumerate(components)]


def covered_translates(params: SurgeryParams, window: Window) -> list[int]:
    """Region translates whose arrows in rows j0..j1 all fit inside the window.

    Only these translates are guaranteed a complete, uncut curve piece;
    see :func:`trace_curves` on boundary clipping.
    """
    gen = generate(params)
    if gen.poly.g == 0 or window.is_empty():
        return []
    region = non_zero_region(params)
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


def window_for_translates(
    params: SurgeryParams, translates: list[int], j0: int, j1: int
) -> Window:
    """Smallest window over rows j0..j1 fully covering the given translates."""
    region = non_zero_region(params)
    spans = [region.column_span(r, j0, j1) for r in translates]
    spans = [(lo, hi) for lo, hi in spans if lo <= hi]
    if not spans:
        return Window(0, -1, j0, j1)
    return Window(min(lo for lo, _ in spans), max(hi for _, hi in spans), j0, j1)


@dataclass(frozen=True)
class LemmaReport:
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
