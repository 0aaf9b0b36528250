"""A/dA windows, the non-zero region, curve tracing, and the dichotomy scan."""

import json
import math
import os
import pathlib
import random
import re
import runpy
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lenspoly.lattice
import lenspoly.render
from lenspoly.alexander import IntegrityError, generate
from lenspoly.cli import main
from lenspoly.lattice import (
    NonZeroCurve,
    Window,
    a_entry,
    build_view,
    check_lemma,
    covered_translates,
    da_entry,
    fundamental_window,
    non_zero_region,
    region_contains,
    trace_curves,
)
from lenspoly.render import ascii_curves, ascii_view, svg_pieces, view_to_json
from lenspoly.surgery import SurgeryParams, derive_invariants, reduce_mod
from lenspoly.sweep import _records_for_p, enumerate_params
from test_sweep import is_alternating_full, is_flat_full

SVG_NS = "{http://www.w3.org/2000/svg}"


def _pk(p, k):
    params = SurgeryParams(p, k)
    return params, derive_invariants(params)


# ------------------------------------------------------------------- entries


def test_a_entry_examples():
    params, inv = _pk(11, 2)
    poly = generate(params).poly
    assert a_entry(params, inv, poly, 0, 0) == 1
    assert a_entry(params, inv, poly, 0, 2) == 1
    assert a_entry(params, inv, poly, -1, 0) == 0


def test_da_entry_examples():
    params, inv = _pk(11, 2)
    assert da_entry(params, inv, 0, 0) == 1
    assert da_entry(params, inv, 1, 0) == -1
    # residue class [3i + 5j]_11 = 6 is the unique zero class: i=2, j=0
    assert (3 * 2 + 5 * 0) % 11 == 6
    assert da_entry(params, inv, 2, 0) == 0


def test_difference_identity_random_params():
    rng = random.Random(1234)
    pool = list(enumerate_params(120))
    for params in rng.sample(pool, 40):
        inv = derive_invariants(params)
        poly = generate(params).poly
        for j in range(-3, 4):
            for i in range(-2, params.p + 2):
                assert da_entry(params, inv, i, j) == (
                    a_entry(params, inv, poly, i, j) - a_entry(params, inv, poly, i - 1, j)
                ), (params, i, j)


def test_da_periodicity():
    for p, k in [(11, 2), (19, 7), (23, 5), (8, 3)]:
        params, inv = _pk(p, k)
        for i in range(-2, 5):
            for j in range(-2, 5):
                v = da_entry(params, inv, i, j)
                assert da_entry(params, inv, i, j + p) == v
                assert da_entry(params, inv, i + p, j) == v


def test_da_zero_count_per_period():
    """Exactly max(p - 2*k2, 0) residue classes map to 0."""
    for params in enumerate_params(60):
        inv = derive_invariants(params)
        zeros = sum(1 for j in range(params.p) if da_entry(params, inv, 0, j) == 0)
        assert zeros == max(params.p - 2 * inv.k2, 0), params


def da_by_signed_intervals(params, inv, i, j):
    """The paper's form of dA: with the balanced residue r = [q2*i + k2*j]_p,
    +1 when r is in I_{-k2} = {-k2+1, ..., 0}, -1 when r is in
    I_{k2} = {1, ..., k2}, 0 otherwise."""
    r = reduce_mod(inv.q2 * i + inv.k2 * j, params.p)
    if -inv.k2 < r <= 0:
        return 1
    if 1 <= r <= inv.k2:
        return -1
    return 0


@given(st.integers(2, 200), st.integers(1, 200), st.integers(-50, 50), st.integers(-50, 50))
def test_da_case_split_matches_interval_tests(p, k, i, j):
    if math.gcd(p, k) != 1 or 2 * k > p:
        return
    try:
        params = SurgeryParams(p, k)
    except ValueError:
        return
    inv = derive_invariants(params)
    assert da_entry(params, inv, i, j) == da_by_signed_intervals(params, inv, i, j)


def test_da_case_split_matches_interval_tests_on_every_residue():
    """Every residue class of every canonical pair with p <= 200: q2 is a
    unit, so the cells (i, 0), 0 <= i < p, meet every r once."""
    for params in enumerate_params(200):
        p, inv = params.p, params.inv
        assert sorted(inv.q2 * i % p for i in range(p)) == list(range(p))
        for i in range(p):
            assert da_entry(params, inv, i, 0) == da_by_signed_intervals(params, inv, i, 0), (params, i)


def view_rows(view):
    """Every row of a view, j0 up to j1, each sliced out of its period:
    row m's entry n is the cell (i0 + n, j0 + m)."""
    width = view.window.width()
    return tuple(view.period[s:s + width] for s in view.row_starts())


def view_windows(params, rng):
    """Fundamental, negative, wider-than-p and empty windows, windows at
    least 3p + 1 wide (the repeated row slice must reach the last column
    from any start), windows starting at i0 >= 2p, single-column and
    single-row windows, windows p - 1, p, p + 1 and 2p + 1 + r rows high
    with i0 < 0 (the rows p apart that a view keeps one start for, on each
    side of every period boundary), and two random ones drawn from ``rng``."""
    p = params.p
    windows = [fundamental_window(params), Window(-p - 2, p + 1, -2, 1),
               Window(0, -1, 0, 2), Window(0, 2, 1, 0),
               Window(-p, 2 * p + 1, 0, p - 1),  # 3p + 2 wide, every row start
               Window(2 * p, 2 * p + 3, -1, p + 1), Window(3 * p + 1, 5 * p, 2 * p, 2 * p + 2),
               Window(3, 3, -p - 1, p + 1), Window(-p - 1, p + 1, 5, 5), Window(-1, -1, 7, 7)]
    r = p // 2 + 1
    windows += [Window(-3, 4, j0, j0 + height - 1)
                for j0, height in ((-p - 1, p - 1), (-2, p), (3, p + 1), (-p + 2, 2 * p + 1 + r))]
    for _ in range(2):
        i0, j0 = rng.randint(-3 * p, -1), rng.randint(-3 * p, -1)
        windows.append(Window(i0, i0 + rng.randint(0, 8), j0, j0 + rng.randint(0, 2 * p)))
    return windows


def test_build_view_da_equals_difference():
    """Every A and dA cell equals its per-cell formula, and dA is the A
    difference, on every window of :func:`view_windows`; p = 2 and p = 3
    included.  There the tracer handed the region's table, as ``curve
    --svg`` hands it, traces the curves it traces alone."""
    rng = random.Random(7)
    seen_p = set()
    for params in enumerate_params(50):
        gen = generate(params)
        inv, poly = params.inv, gen.poly
        seen_p.add(params.p)
        for w in view_windows(params, rng):
            a = build_view(params, "A", w, gen)
            da = build_view(params, "dA", w, gen)  # internally cross-checks both definitions
            if poly.g and not w.is_empty():
                table = non_zero_region(params, gen).window_translates(w)
                assert trace_curves(params, w, gen, table) == trace_curves(params, w), (params, w)
            width, height = max(0, w.i1 - w.i0 + 1), max(0, w.j1 - w.j0 + 1)
            for view in (a, da):
                assert [len(row) for row in view_rows(view)] == [width] * height, (params, w)
            for j, a_row, da_row in zip(range(w.j0, w.j1 + 1), view_rows(a), view_rows(da)):
                for n, i in enumerate(range(w.i0, w.i1 + 1)):
                    assert a_row[n] == a_entry(params, inv, poly, i, j), (params, i, j)
                    assert da_row[n] == da_entry(params, inv, i, j), (params, i, j)
                    if n:
                        assert da_row[n] == a_row[n] - a_row[n - 1]
    assert {2, 3} <= seen_p


def test_build_view_rejects_unknown_kind():
    params = SurgeryParams(11, 2)
    with pytest.raises(ValueError):
        build_view(params, "B", fundamental_window(params))


@pytest.mark.parametrize("cell", [(-1, -11), (3, 4)], ids=["corner", "interior"])
def test_build_view_da_self_check(capsys, monkeypatch, cell):
    """A dA case split that disagrees with the A difference on one cell of
    row 0 is an integrity failure at that cell, exit 4.  The view evaluates
    only (y, 0), and cell (i, j) reads (y, 0) with y = (i + u*j) mod p,
    u = e*k, so the fault is injected at the y of each window cell: 10 and
    6 on (11, 2)."""
    params, inv = _pk(11, 2)
    y = (cell[0] + inv.e * params.k * cell[1]) % params.p
    assert y == {(-1, -11): 10, (3, 4): 6}[cell]
    case_split = lenspoly.lattice.da_entry

    def flipped(params, inv, i, j):
        return case_split(params, inv, i, j) + ((i, j) == (y, 0))

    monkeypatch.setattr(lenspoly.lattice, "da_entry", flipped)
    with pytest.raises(IntegrityError, match=rf"at \({y}, 0\)$") as exc_info:
        build_view(params, "dA", fundamental_window(params))  # i -1..6, j -11..11
    assert (exc_info.value.p, exc_info.value.k, exc_info.value.index) == (11, 2, y)
    assert main(["matrix", "-p", "11", "-k", "2", "--kind", "dA"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"at ({y}, 0)" in captured.err


def test_view_json_shape():
    params = SurgeryParams(11, 2)
    view = build_view(params, "dA", Window(0, 2, 0, 1))
    blob = json.loads(view_to_json(view))
    assert blob["kind"] == "dA"
    assert blob["i0"] == 0 and blob["j0"] == 0
    assert blob["rows"] == [[1, -1, 0], [-1, 1, 1]]  # increasing j


def test_index_identity():
    """The index identity of the lattice module docstring.  Row 0 of the
    A view equals :func:`a_entry` at every y, on every canonical pair with
    p <= 200 and every flat and alternating pair with p <= 600.  On the
    fundamental window of every pair with p <= 60, with i* solving the
    anchor k2*(i* - c) + g = 0 (mod p) and t = j + (i - i*)*k2, A is
    coeffs[t mod p] when t mod p <= 2g and 0 otherwise."""
    lspace = [SurgeryParams(r.p, r.k) for p in range(2, 601)
              for r in _records_for_p(p)[0] if r.flat and r.alternating]
    assert len(lspace) == 3422
    for params in [*enumerate_params(200), *(q for q in lspace if q.p > 200)]:
        gen = generate(params)
        p, inv = params.p, params.inv
        row = view_rows(build_view(params, "A", Window(0, p - 1, 0, 0), gen))[0]
        assert row == tuple(a_entry(params, inv, gen.poly, y, 0) for y in range(p)), params

    for params in enumerate_params(60):
        gen = generate(params)
        p, inv, g = params.p, params.inv, gen.poly.g
        istar = (inv.c - g * pow(inv.k2, -1, p)) % p
        if g:
            assert non_zero_region(params, gen).istar == istar, params
        w = fundamental_window(params)
        view = build_view(params, "A", w, gen)
        for j, row in zip(range(w.j0, w.j1 + 1), view_rows(view)):
            for i, v in zip(range(w.i0, w.i1 + 1), row):
                s = (j + (i - istar) * inv.k2) % p
                expected = gen.poly.coeffs[s] if s <= 2 * g else 0
                assert v == expected == a_entry(params, inv, gen.poly, i, j), (params, i, j)


@pytest.mark.parametrize("p, k, window", [
    (101, 30, []),
    (100003, 2, ["--i0", "0", "--i1", "1", "--j0", "0", "--j1", "1"]),
], ids=["101-30-fundamental", "100003-2-2x2"])
def test_views_and_curves_never_call_a_entry(capsys, monkeypatch, tmp_path, p, k, window):
    """``matrix --kind A``, ``matrix --kind dA`` and ``curve --svg`` read
    every cell off the gathered row 0: with :func:`a_entry` raising they
    print and write the same bytes as without."""
    args = ["-p", str(p), "-k", str(k), *window]

    def outputs(tag):
        out = []
        for kind in ("A", "dA"):
            assert main(["matrix", *args, "--kind", kind]) == 0
            out.append(capsys.readouterr().out)
        svg = tmp_path / f"{tag}.svg"
        assert main(["curve", *args, "--svg", str(svg)]) == 0
        return [*out, capsys.readouterr().out, svg.read_bytes()]

    expected = outputs("plain")

    def refuse(*_):
        raise AssertionError("a_entry called")

    monkeypatch.setattr(lenspoly.lattice, "a_entry", refuse)
    assert outputs("patched") == expected


# -------------------------------------------------------------------- region


def test_region_anchor_11_2():
    params, inv = _pk(11, 2)
    assert non_zero_region(params).istar == 0
    poly = generate(params).poly
    column = [a_entry(params, inv, poly, 0, 0 + s) for s in range(5)]
    assert column == [1, -1, 1, -1, 1]
    # one v = (1, -k2) translate carries the same bottom coefficient
    assert a_entry(params, inv, poly, 1, -5) == 1


def translate_index(region, point):
    """Index n' of the (0, p)-translate containing the point, or None
    when the point is outside the region."""
    x, y = point
    n, s = divmod(y + (x - region.istar) * region.params.inv.k2, region.params.p)
    return n if s <= 2 * region.g else None


def test_region_contains_examples():
    region = non_zero_region(SurgeryParams(11, 2))
    assert region_contains(region, (0, 3))
    assert region_contains(region, (1, -5))
    assert not region_contains(region, (-1, 0))


def test_region_contains_matches_translated_columns():
    region = non_zero_region(SurgeryParams(19, 7))
    g = region.g
    i_star = region.istar
    for n in range(-3, 4):
        for n2 in range(-2, 3):
            for s in range(2 * g + 1):
                point = (i_star + n, s - n * region.params.inv.k2 + n2 * 19)
                assert region_contains(region, point), (n, n2, s)


def test_nonzero_entries_lie_in_region():
    for params in enumerate_params(80):
        out = generate(params)
        if out.poly.g == 0:
            continue
        inv = derive_invariants(params)
        region = non_zero_region(params)
        w = fundamental_window(params)
        for j in range(w.j0, w.j1 + 1):
            for i in range(w.i0, w.i1 + 1):
                if a_entry(params, inv, out.poly, i, j) != 0:
                    assert region_contains(region, (i, j)), (params, i, j)


def test_region_trivial_polynomial():
    with pytest.raises(ValueError):
        non_zero_region(SurgeryParams(7, 1))


# -------------------------------------------------------------------- curves


def column_span(region, translate, j0, j1):
    """Inclusive x-range of this translate's columns meeting rows j0..j1.

    Column x = i* + n of translate r covers y in
    [-n*k2 + p*r, -n*k2 + p*r + min(2g, p - 1)]: the residue s is at most
    p - 1, so when 2g >= p the column is cut after p cells and
    window_translates puts the rest in translate r + 1.  Intersecting
    with [j0, j1] bounds n on both sides.  Returns (lo, hi); empty when
    lo > hi.
    """
    p, k2 = region.params.p, region.params.inv.k2
    n_lo = -((j1 - p * translate) // k2)  # ceil((p*r - j1)/k2)
    n_hi = (p * translate + min(2 * region.g, p - 1) - j0) // k2
    return (region.istar + n_lo, region.istar + n_hi)


def covered_translates_spans(region, window):
    """Oracle for covered_translates by the column_span algebra: the
    translates near the window's corners whose columns meeting rows
    j0..j1 form a non-empty span inside i0..i1."""
    if window.is_empty():
        return []
    istar, k2, p = region.istar, region.params.inv.k2, region.params.p
    r_lo = (window.j0 + (window.i0 - istar) * k2) // p - 1
    r_hi = (window.j1 + (window.i1 - istar) * k2) // p + 1
    spans = {r: column_span(region, r, window.j0, window.j1) for r in range(r_lo, r_hi + 1)}
    return [r for r, (lo, hi) in spans.items() if window.i0 <= lo <= hi <= window.i1]


def window_for_translates(params, translates, j0, j1):
    """Smallest window over rows j0..j1 fully covering the given translates."""
    region = non_zero_region(params)
    spans = [column_span(region, r, j0, j1) for r in translates]
    spans = [(lo, hi) for lo, hi in spans if lo <= hi]
    if not spans:
        return Window(0, -1, j0, j1)
    return Window(min(lo for lo, _ in spans), max(hi for _, hi in spans), j0, j1)


def trace_curves_union_find(params, window):
    """Oracle for trace_curves: link the arrows pairwise and take the
    connected components with a union-find.

    Two arrows are linked when (a) they are horizontal neighbours with
    equal entry in the same region translate, or (b) they sit at (i, j)
    and (i', j-1) within the same region translate.
    """
    if window.is_empty():
        return []
    gen = generate(params)
    if gen.poly.g == 0:
        return []
    region = non_zero_region(params, gen)
    inv, poly = params.inv, gen.poly

    arrows = {}  # (i, j) -> (sign, translate)
    rows = {}  # (j, translate) -> [i]
    for j in range(window.j0, window.j1 + 1):
        for i in range(window.i0, window.i1 + 1):
            v = a_entry(params, inv, poly, i, j)
            if v == 0:
                continue
            tr = translate_index(region, (i, j))
            assert tr is not None, (params, i, j)
            arrows[(i, j)] = (v, tr)
            rows.setdefault((j, tr), []).append(i)

    parent = {pt: pt for pt in arrows}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for (i, j), (sign, tr) in arrows.items():
        right = (i + 1, j)
        if right in arrows and arrows[right] == (sign, tr):
            union((i, j), right)
        for i2 in rows.get((j - 1, tr), ()):
            union((i, j), (i2, j - 1))

    groups = {}
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


def test_trace_curves_11_2_window():
    params = SurgeryParams(11, 2)
    window = Window(-1, 6, -6, 5)
    curves = trace_curves(params, window)
    region = non_zero_region(params)
    assert curves, "expected nonzero curves"
    for curve in curves:
        for i, j, sign in curve.arrows:
            assert sign in (-1, 1)
            assert region_contains(region, (i, j)), (curve.id, i, j)
    # fully covered translates carry exactly one component each
    full = covered_translates(params, window)
    assert full == [0, 1, 2]
    assert covered_translates(params, window, generate(params)) == full
    for translate in full:
        assert sum(1 for c in curves if c.translate == translate) == 1


def covered_translates_cells(params, window):
    """Translates with a region cell in the window whose cells in rows
    j0..j1 all lie in columns i0..i1, read off translate_index cell by
    cell.  The columns of one translate that meet those rows are
    consecutive, so a translate leaves the window exactly when column
    i0 - 1 or i1 + 1 meets it."""
    region = non_zero_region(params)
    rows = range(window.j0, window.j1 + 1)

    def translates(cols):
        return {translate_index(region, (i, j)) for i in cols for j in rows} - {None}

    inside = translates(range(window.i0, window.i1 + 1))
    return sorted(inside - translates((window.i0 - 1, window.i1 + 1)))


def window_translates_cells(region, window):
    """Oracle for NonZeroRegion.window_translates: translate_index of every
    cell, rows by increasing j."""
    return [[translate_index(region, (i, j)) for i in range(window.i0, window.i1 + 1)]
            for j in range(window.j0, window.j1 + 1)]


def test_covered_translates_match_translate_index():
    """covered_translates equals the cell-by-cell reading and the
    column_span algebra, and window_translates equals translate_index
    cell by cell, on the fundamental window and two seeded windows of
    every nontrivial pair with p <= 60, the pairs with 2g >= p
    (overlapping columns) included, and on one-row windows wider than p
    and windows empty in i and in j."""
    assert covered_translates(SurgeryParams(16, 7), Window(7, 19, 4, 36)) == [5, 6, 7, 8]
    assert -3 in covered_translates(SurgeryParams(26, 5), Window(-22, 16, -12, 46))
    rng = random.Random(14)
    checked = wide = 0
    laid = {True: 0, False: 0}  # windows by whether k2 <= height (one run for all columns)
    for params in enumerate_params(60):
        p, gen = params.p, generate(params)
        if gen.poly.g == 0:
            continue
        wide += 2 * gen.poly.g >= p
        windows = [fundamental_window(params)]
        for _ in range(2):
            i0, j0 = rng.randint(-p, p), rng.randint(-2 * p, 2 * p)
            windows.append(Window(i0, i0 + rng.randint(0, p), j0, j0 + rng.randint(0, 3 * p)))
        for window in windows:
            laid[params.inv.k2 <= window.height()] += 1
            checked += 1
        i0, j0 = rng.randint(-2 * p, p), rng.randint(-2 * p, 2 * p)
        windows += [Window(i0, i0 + p + rng.randint(1, 2 * p), j0, j0),
                    Window(i0, i0 - rng.randint(1, 3), j0, j0 + rng.randint(0, 2 * p)),
                    Window(i0, i0 + rng.randint(0, 2 * p), j0, j0 - rng.randint(1, 3))]
        region = non_zero_region(params, gen)
        for window in windows:
            expected = covered_translates_cells(params, window)
            assert covered_translates(params, window, gen) == expected, (params, window)
            assert covered_translates_spans(region, window) == expected, (params, window)
            assert list(map(list, region.window_translates(window))) == \
                window_translates_cells(region, window), (params, window)
    assert checked == 810 and wide > 1
    assert min(laid.values()) >= 60


def test_window_translates_without_rows_at_any_width():
    """A window with no rows has an empty table at once, whatever its
    width: 10^12 columns would take hours one empty run at a time.  Run
    in a subprocess with a timeout, so such a regression fails fast."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = ("from lenspoly.lattice import Window, non_zero_region\n"
            "from lenspoly.surgery import SurgeryParams\n"
            "region = non_zero_region(SurgeryParams(11, 2))\n"
            "print(region.window_translates(Window(0, 10**12, 1, 0)),\n"
            "      region.window_translates(Window(-10**12, 10**12, 5, -5)))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=20, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "() ()\n", "")


def test_trace_curves_arrows_j_monotone():
    for p, k in [(11, 2), (19, 7), (31, 12)]:
        params = SurgeryParams(p, k)
        for curve in trace_curves(params, fundamental_window(params)):
            js = [j for _, j, _ in curve.arrows]
            assert js == sorted(js, reverse=True), (p, k, curve.id)


def test_trace_curves_ordered_by_translate():
    params = SurgeryParams(19, 7)
    curves = trace_curves(params, fundamental_window(params))
    translates = [c.translate for c in curves]
    assert translates == sorted(translates)
    assert [c.id for c in curves] == list(range(len(curves)))


def test_trace_curves_trivial_and_empty():
    """A trivial pair, and a window empty in i or in j, has no curve and
    no covered translate."""
    assert trace_curves(SurgeryParams(13, 1), Window(-5, 5, -5, 5)) == []
    assert trace_curves(SurgeryParams(11, 2), Window(3, 2, 0, 1)) == []
    assert covered_translates(SurgeryParams(7, 1), Window(-3, 3, -7, 7)) == []
    assert covered_translates(SurgeryParams(11, 2), Window(3, 2, -6, 5)) == []
    assert covered_translates(SurgeryParams(11, 2), Window(-1, 6, 0, -1)) == []


def test_trace_curves_share_one_int_per_column():
    """Every arrow of a column holds the same int object for its i, even
    above 256, where CPython caches no int."""
    params = SurgeryParams(101, 30)
    window = Window(1000, 1040, -101, 101)
    curves = trace_curves(params, window)
    arrows = [arrow for curve in curves for arrow in curve.arrows]
    assert len({i for i, _, _ in arrows}) == window.width()
    assert len({id(i) for i, _, _ in arrows}) <= window.width()


def test_trace_curves_peak_near_their_result():
    """At (251, 2), the fundamental window traced under tracemalloc
    peaks below 1.4 times the memory its curves hold: rows are sliced
    one at a time and each translate's list is released once cut (1.27
    times under Python 3.11; building every row first and keeping every
    list to the end peaked at 1.6 times)."""
    params = SurgeryParams(251, 2)
    gen = generate(params)
    window = fundamental_window(params)
    tracemalloc.start()
    try:
        curves = trace_curves(params, window, gen)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert curves
    assert peak < 1.4 * held


def test_single_component_per_covered_translate():
    """One curve per fully-visible region translate, on parameters whose
    polynomial looks realizable (flat, alternating, unit sum)."""
    checked = 0
    for params in enumerate_params(100):
        out = generate(params)
        if out.poly.g == 0 or out.delta_one != 1:
            continue
        if not (is_flat_full(out.poly.coeffs) and is_alternating_full(out.poly.coeffs)):
            continue
        window = window_for_translates(params, [-2, -1, 0, 1, 2], -3 * params.p, 3 * params.p)
        curves = trace_curves(params, window, out)
        assert curves == trace_curves_union_find(params, window), params
        for translate in covered_translates(params, window, out):
            if not -2 <= translate <= 2:
                continue
            count = sum(1 for c in curves if c.translate == translate)
            assert count == 1, (params, translate, count)
            checked += 1
    assert checked > 1000  # the property must not pass vacuously


def test_trace_curves_match_union_find_fundamental():
    for params in [*enumerate_params(60), SurgeryParams(101, 30)]:
        window = fundamental_window(params)
        assert trace_curves(params, window) == trace_curves_union_find(params, window), params


def test_trace_curves_match_union_find_on_span_windows():
    """The tracer against the union-find oracle on every window of
    :func:`span_windows` for p <= 40: narrow, wide and empty windows,
    with fewer rows than k2 (columns laid down apart) and with more."""
    rng = random.Random(29)
    shapes = set()
    for params in enumerate_params(40):
        for window in span_windows(params, rng):
            assert trace_curves(params, window) == \
                trace_curves_union_find(params, window), (params, window)
            if not window.is_empty():
                shapes.add(params.inv.k2 <= window.height())
    assert shapes == {True, False}


def test_trace_curves_nonzero_outside_region(capsys, monkeypatch):
    """A region that misses a nonzero entry is an integrity failure, exit 4."""
    region_of = lenspoly.lattice.non_zero_region

    def shifted(params, gen=None):
        region = region_of(params, gen)
        return region._replace(istar=region.istar + 1)

    monkeypatch.setattr(lenspoly.lattice, "non_zero_region", shifted)
    params = SurgeryParams(11, 2)
    with pytest.raises(IntegrityError, match="outside the non-zero region"):
        trace_curves(params, fundamental_window(params))
    assert main(["curve", "-p", "11", "-k", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "outside the non-zero region" in captured.err


@pytest.mark.parametrize("p, k", [(11, 2), (8, 3)], ids=["2g<p", "2g=p"])
def test_shifted_anchor_refused_by_every_region_reader(monkeypatch, p, k):
    """An anchor that breaks the index identity is an integrity failure
    wherever region cells are read: the SVG shading and region_contains
    as well as the tracer, also at 2g = p, where every cell is in the
    region and no entry can fall outside it."""
    params = SurgeryParams(p, k)
    window = fundamental_window(params)
    curves = trace_curves(params, window)
    region = non_zero_region(params)
    shifted = region._replace(istar=region.istar + 1)
    with pytest.raises(IntegrityError, match="outside the non-zero region"):
        svg_curves(params, window, curves, shifted)
    with pytest.raises(IntegrityError, match="outside the non-zero region"):
        region_contains(shifted, (region.istar, 0))
    monkeypatch.setattr(lenspoly.lattice, "non_zero_region", lambda params, gen=None: shifted)
    with pytest.raises(IntegrityError, match="outside the non-zero region"):
        trace_curves(params, window)


# --------------------------------------------------------------------- lemma


def test_check_lemma_examples():
    assert check_lemma(SurgeryParams(11, 2)) is True
    assert check_lemma(SurgeryParams(7, 2)) is True
    assert check_lemma(SurgeryParams(11, 1)) is False  # p = 11 > 3 = 3*k2


def _da_from_residue(r, p, k2):
    if r == 0 or r > p - k2:
        return 1
    if r <= k2:
        return -1
    return 0


def _lemma_scan(p, k2, q2):
    """Oracle for check_lemma: (hypothesis_found, adjacent_zeros_found)
    by an O(p) scan of columns i = 0, 1 over one vertical period.

    Works on raw residues r = (q2*i + k2*j) mod p; j steps add k2 mod p.
    """
    hypothesis = zeros = False
    k2m = k2 % p
    for i in (0, 1):
        r = (q2 * i) % p
        first = prev = _da_from_residue(r, p, k2)
        for _ in range(p - 1):
            r = (r + k2m) % p
            cur = _da_from_residue(r, p, k2)
            if prev == -1 and cur == 1:
                hypothesis = True
            if prev == 0 and cur == 0:
                zeros = True
            prev = cur
        if prev == -1 and first == 1:  # wrap: the sequence is p-periodic in j
            hypothesis = True
        if prev == 0 and first == 0:
            zeros = True
    return hypothesis, zeros


def test_lemma_hypothesis_iff_bound():
    """The closed-form check agrees with the O(p) scan, whose -1/+1 pattern
    appears exactly when p < 3*k2 and adjacent zeros exactly when p > 3*k2."""
    for params in enumerate_params(600):
        inv = derive_invariants(params)
        hypothesis, zeros = _lemma_scan(params.p, inv.k2, inv.q2 % params.p)
        assert (hypothesis, zeros) == (params.p < 3 * inv.k2, params.p > 3 * inv.k2), params
        assert check_lemma(params) == hypothesis, params
        assert not (hypothesis and zeros), params


def test_lemma_scan_against_direct_window_scan():
    """Redo the scan with da_entry directly over a 2 x (2p) window."""
    for params in enumerate_params(120):
        inv = derive_invariants(params)
        found = False
        adjacent_zeros = False
        for i in (0, 1):
            col = [da_entry(params, inv, i, j) for j in range(2 * params.p)]
            for j in range(len(col) - 1):
                if col[j] == -1 and col[j + 1] == 1:
                    found = True
                if col[j] == 0 and col[j + 1] == 0:
                    adjacent_zeros = True
        assert check_lemma(params) == found, params
        assert not (found and adjacent_zeros), params


# ----------------------------------------------------------------- rendering


def test_ascii_view_golden():
    params = SurgeryParams(11, 2)
    view = build_view(params, "A", Window(0, 2, 0, 4))
    assert ascii_view(view) == "+ . -\n- . +\n+ . -\n- . +\n+ . ."


def test_ascii_view_empty():
    params = SurgeryParams(11, 2)
    assert ascii_view(build_view(params, "A", Window(2, 1, 0, 4))) == ""


def test_ascii_curves_overlay():
    params = SurgeryParams(11, 2)
    window = Window(0, 2, 0, 4)
    art = ascii_curves(window, trace_curves(params, window))
    lines = art.splitlines()
    assert len(lines) == 5
    # j=0 row: only A(0,0)=+1 is nonzero; j=4 row has +1 at i=0, -1 at i=2
    assert lines[-1] == "> . ."
    assert lines[0] == "> . <"
    assert lines[-2] == "< . >"


def test_svg_structure_and_polyline_count():
    params = SurgeryParams(11, 2)
    window = Window(-1, 6, -6, 5)
    curves = trace_curves(params, window)
    doc = svg_curves(params, window, curves, non_zero_region(params))
    root = ET.fromstring(doc)
    assert root.tag == f"{SVG_NS}svg"
    assert root.attrib["version"] == "1.1"
    polylines = root.findall(f".//{SVG_NS}polyline")
    assert len(polylines) == len(curves)
    # deterministic byte output
    assert doc == svg_curves(params, window, trace_curves(params, window), non_zero_region(params))


_STRIP_FILLS = ("#ececec", "#d7d7d7")
_CURVE_COLORS = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085")


def _svg_coords(window, i, j):
    # lattice j grows upward, SVG y grows downward
    return 10 + (i - window.i0) * 20 + 10, 10 + (window.j1 - j) * 20 + 10


def svg_curves(params, window, curves, region):
    """The whole SVG document: the pieces of svg_pieces joined, shaded by
    region's translate table of window (no shading for no region or an
    empty window)."""
    cells = None if region is None or window.is_empty() else region.window_translates(window)
    return "".join(svg_pieces(params, window, curves, cells))


def svg_curves_per_cell(params, window, curves, region):
    """Oracle for svg_curves: asks translate_index for every window cell and
    formats every <rect>, polyline point and arrow one by one."""
    width = (window.i1 - window.i0 + 1) * 20 + 20 if not window.is_empty() else 20
    height = (window.j1 - window.j0 + 1) * 20 + 20 if not window.is_empty() else 20
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
                tr = translate_index(region, (i, j))
                if tr is None:
                    continue
                fill = _STRIP_FILLS[tr % 2]
                x = 10 + (i - window.i0) * 20
                y = 10 + (window.j1 - j) * 20
                parts.append(f'<rect x="{x}" y="{y}" width="20" height="20" fill="{fill}"/>')
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


def span_windows(params, rng):
    """The fundamental window and seeded windows: negative i and j, wider
    than p, and empty in either direction."""
    p = params.p
    i0, j0 = rng.randint(-2 * p, 0), rng.randint(-3 * p, 0)
    wide = rng.randint(-p, p)
    return [
        fundamental_window(params),
        Window(i0, i0 + rng.randint(0, 12), j0, j0 + rng.randint(0, 2 * p)),
        Window(wide, wide + p + rng.randint(1, 5), -rng.randint(0, p), rng.randint(0, 6)),
        Window(i0, i0 - rng.randint(1, 3), j0, j0 + 5),
        Window(i0, i0 + 5, j0, j0 - rng.randint(1, 3)),
    ]


def test_svg_curves_match_per_cell():
    """svg_curves against the per-cell oracle, with and without a region,
    on every window of :func:`span_windows`; pairs with 2g >= p, whose
    columns overlap, included."""
    rng = random.Random(11)
    overlapping = 0
    for params in enumerate_params(60):
        gen = generate(params)
        region = non_zero_region(params, gen) if gen.poly.g else None
        overlapping += 2 * gen.poly.g >= params.p
        for window in span_windows(params, rng):
            curves = trace_curves(params, window, gen)
            for reg in (region, None):
                assert svg_curves(params, window, curves, reg) == \
                    svg_curves_per_cell(params, window, curves, reg), (params, window)
    assert overlapping > 0  # (8, 3) and the other pairs with 2g >= p are covered


def test_svg_pieces_cut_after_rows_and_curves(monkeypatch):
    """With pieces of one element, svg_pieces cuts after every shading
    row, every polyline and every curve's arrows, and nowhere else; the
    pieces joined are the per-cell document."""
    monkeypatch.setattr(lenspoly.render, "_SVG_PIECE_ELEMENTS", 1)
    params = SurgeryParams(19, 7)
    window = fundamental_window(params)
    gen = generate(params)
    curves = trace_curves(params, window, gen)
    region = non_zero_region(params, gen)
    pieces = list(svg_pieces(params, window, curves, region.window_translates(window)))
    assert "".join(pieces) == svg_curves_per_cell(params, window, curves, region)
    assert all(piece.endswith("\n") for piece in pieces)
    rows = [set(re.findall(r'<rect x="\d+" y="(\d+)"', piece)) for piece in pieces]
    shaded = [ys for ys in rows if ys]
    assert all(len(ys) == 1 for ys in shaded) and len(set.union(*shaded)) == len(shaded)
    assert [piece.count("<polyline") for piece in pieces if "<polyline" in piece] == \
        [1] * len(curves)
    assert [piece.count("<line") for piece in pieces if "<line" in piece] == \
        [len(curve.arrows) for curve in curves]
    assert len(pieces) == len(shaded) + 2 * len(curves) + 1 and pieces[-1] == "</svg>\n"


def test_wide_one_row_window_stays_small():
    """A one-row window of 2^14 columns at p = 100003, k2 = 50001 is
    traced and drawn in memory linear in its cells.  Its cells' t
    spread over (w - 1)*k2 + 1 = 8.2e8 values, so one table over all of
    them would need gigabytes; reading the region row by row peaked at
    22.7 MiB under Python 3.11."""
    params = SurgeryParams(100003, 2)
    gen = generate(params)
    window = Window(-2**13, 2**13 - 1, 3, 3)
    assert params.inv.k2 == 50001
    tracemalloc.start()
    try:
        curves = trace_curves(params, window, gen)
        doc = svg_curves(params, window, curves, non_zero_region(params, gen))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curves) == 2**13 and doc.endswith("</svg>\n")
    assert peak < 32 * 2**20


def test_svg_without_curves_or_region_stays_small():
    """With no curves and no region, the document is its frame alone, and
    no per-column or per-row coordinate map is built for it: for the
    one-row window of 2^14 columns at (100003, 2), maps over every column
    peaked at 11.2 MiB for these 204 bytes."""
    params = SurgeryParams(100003, 2)
    window = Window(-2**13, 2**13 - 1, 3, 3)
    tracemalloc.start()
    try:
        doc = svg_curves(params, window, [], None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="327700" height="40" viewBox="0 0 327700 40">\n'
        '<!-- p=100003 k=2 window i=[-8192,8191] j=[3,3] -->\n'
        '</svg>\n'
    )
    assert doc == svg_curves_per_cell(params, window, [], None)
    assert peak < 2**20


def cell_char(v):
    """Per-cell oracle for the characters of ascii_view."""
    if v > 0:
        return "+"
    if v < 0:
        return "-"
    return "."


def test_view_encoders_match_per_cell():
    """view_to_json and ascii_view against json.dumps and cell_char of
    rows built by one a_entry or da_entry call per cell, on every window
    of :func:`view_windows`; p = 2, p = 3 and (8, 3), whose entries reach
    +-2, included."""
    rng = random.Random(7)
    largest = {}  # (p, k) -> largest |entry| seen
    for params in enumerate_params(50):
        gen = generate(params)
        inv, poly = params.inv, gen.poly
        pk = (params.p, params.k)
        entries = {"A": lambda i, j: a_entry(params, inv, poly, i, j),
                   "dA": lambda i, j: da_entry(params, inv, i, j)}
        for w in view_windows(params, rng):
            for kind, entry in entries.items():
                rows = [[entry(i, j) for i in range(w.i0, w.i1 + 1)]
                        for j in range(w.j0, w.j1 + 1)]
                largest[pk] = max([largest.get(pk, 0), *(abs(v) for row in rows for v in row)])
                view = build_view(params, kind, w, gen)
                expected = json.dumps({"kind": kind, "i0": w.i0, "j0": w.j0, "rows": rows},
                                      separators=(",", ":"))
                assert view_to_json(view) == expected, (params, kind, w)
                expected = "" if w.is_empty() else "\n".join(
                    " ".join(map(cell_char, row)) for row in reversed(rows))
                assert ascii_view(view) == expected, (params, kind, w)
    assert largest[(2, 1)] == largest[(3, 1)] == 1 and largest[(8, 3)] == 2


def test_ascii_view_matches_per_cell():
    """ascii_view against one cell_char call per cell, on A and dA views
    (non-flat pairs such as (8, 3) included, whose entries reach 2)."""
    rng = random.Random(12)
    for params in enumerate_params(50):
        gen = generate(params)
        for window in span_windows(params, rng):
            for kind in ("A", "dA"):
                view = build_view(params, kind, window, gen)
                expected = "" if window.is_empty() else "\n".join(
                    " ".join(cell_char(v) for v in row) for row in reversed(view_rows(view)))
                assert ascii_view(view) == expected, (params, kind, window)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_trace_windows_never_crash(seed):
    rng = random.Random(seed)
    pool = list(enumerate_params(60))
    params = rng.choice(pool)
    i0 = rng.randint(-10, 10)
    j0 = rng.randint(-30, 30)
    window = Window(i0, i0 + rng.randint(0, 12), j0, j0 + rng.randint(0, 40))
    curves = trace_curves(params, window)
    for curve in curves:
        for i, j, sign in curve.arrows:
            assert window.i0 <= i <= window.i1
            assert window.j0 <= j <= window.j1
            assert sign != 0
    assert curves == trace_curves_union_find(params, window)


def test_render_examples_script(tmp_path):
    """scripts/render_examples.py exits 0 and writes each example's SVG
    exactly as svg_curves renders it."""
    root = pathlib.Path(__file__).resolve().parents[1]
    script = root / "scripts" / "render_examples.py"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script), "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    examples = runpy.run_path(str(script))["EXAMPLES"]
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
        f"curves_{params.p}_{params.k}.svg" for params, _ in examples
    )
    for params, window in examples:
        expected = svg_curves(params, window, trace_curves(params, window),
                              non_zero_region(params))
        assert (tmp_path / f"curves_{params.p}_{params.k}.svg").read_text() == expected
    # the lines around the ASCII art, covered translates included
    assert [line for line in proc.stdout.splitlines()
            if line.startswith(("===", "polynomial:", "curves:", "wrote"))] == [
        "=== (p, k) = (11, 2) ===",
        "polynomial: t^2 - t + 1 - t^-1 + t^-2",
        "curves: 5 components, translates [-1, 0, 1, 2, 3] (fully covered: [0, 1, 2])",
        f"wrote {tmp_path / 'curves_11_2.svg'}",
        "=== (p, k) = (19, 7) ===",
        "polynomial: t^5 - t^4 + t^2 - t + 1 - t^-1 + t^-2 - t^-4 + t^-5",
        "curves: 10 components, translates [-2, -2, -1, -1, 0, 1, 2, 2, 3, 3]"
        " (fully covered: [0, 1])",
        f"wrote {tmp_path / 'curves_19_7.svg'}",
    ]
