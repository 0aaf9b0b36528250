"""A/dA windows, the non-zero region, curve tracing, and the dichotomy scan."""

import math
import random
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenspoly.alexander import generate, is_alternating, is_flat
from lenspoly.lattice import (
    Window,
    a_entry,
    build_view,
    check_lemma,
    covered_translates,
    da_entry,
    fundamental_window,
    non_zero_region,
    region_anchor,
    region_contains,
    trace_curves,
    window_for_translates,
)
from lenspoly.render import ascii_curves, ascii_view, svg_curves, view_to_json
from lenspoly.surgery import (
    SurgeryParams,
    derive_invariants,
    interval_contains,
    reduce_mod,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def _pk(p, k):
    params = SurgeryParams(p, k)
    return params, derive_invariants(params)


def canonical_params(max_p):
    out = []
    for p in range(2, max_p + 1):
        for k in range(1, p // 2 + 1):
            if math.gcd(p, k) != 1:
                continue
            try:
                out.append(SurgeryParams(p, k))
            except ValueError:
                pass
    return out


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
    pool = canonical_params(120)
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
    for params in canonical_params(60):
        inv = derive_invariants(params)
        zeros = sum(1 for j in range(params.p) if da_entry(params, inv, 0, j) == 0)
        assert zeros == max(params.p - 2 * inv.k2, 0), params


@given(st.integers(2, 200), st.integers(1, 200), st.integers(-50, 50), st.integers(-50, 50))
def test_da_case_split_matches_interval_tests(p, k, i, j):
    if math.gcd(p, k) != 1 or 2 * k > p:
        return
    try:
        params = SurgeryParams(p, k)
    except ValueError:
        return
    inv = derive_invariants(params)
    r = reduce_mod(inv.q2 * i + inv.k2 * j, p)
    if interval_contains(-inv.k2, r):
        expected = 1
    elif interval_contains(inv.k2, r):
        expected = -1
    else:
        expected = 0
    assert da_entry(params, inv, i, j) == expected


def test_build_view_da_equals_difference():
    for p, k in [(11, 2), (19, 7), (14, 3), (23, 5)]:
        params = SurgeryParams(p, k)
        w = fundamental_window(params)
        a = build_view(params, "A", w)
        da = build_view(params, "dA", w)  # internally cross-checks both definitions
        for j in range(w.j0, w.j1 + 1):
            for i in range(w.i0 + 1, w.i1 + 1):
                assert da.entry(i, j) == a.entry(i, j) - a.entry(i - 1, j)


def test_build_view_rejects_unknown_kind():
    params = SurgeryParams(11, 2)
    with pytest.raises(ValueError):
        build_view(params, "B", fundamental_window(params))


def test_view_json_shape():
    params = SurgeryParams(11, 2)
    view = build_view(params, "dA", Window(0, 2, 0, 1))
    blob = view_to_json(view)
    assert blob["kind"] == "dA"
    assert blob["i0"] == 0 and blob["j0"] == 0
    assert blob["rows"] == [[1, -1, 0], [-1, 1, 1]]  # increasing j


# -------------------------------------------------------------------- region


def test_region_anchor_11_2():
    params, inv = _pk(11, 2)
    assert region_anchor(params, inv, 2) == (0, 0)
    poly = generate(params).poly
    column = [a_entry(params, inv, poly, 0, 0 + s) for s in range(5)]
    assert column == [1, -1, 1, -1, 1]
    # one v = (1, -k2) translate carries the same bottom coefficient
    assert a_entry(params, inv, poly, 1, -5) == 1


def test_region_anchor_requires_positive_genus():
    params, inv = _pk(7, 1)
    with pytest.raises(ValueError):
        region_anchor(params, inv, 0)


def test_region_contains_examples():
    region = non_zero_region(SurgeryParams(11, 2))
    assert region_contains(region, (0, 3))
    assert region_contains(region, (1, -5))
    assert not region_contains(region, (-1, 0))


def test_region_contains_matches_translated_columns():
    region = non_zero_region(SurgeryParams(19, 7))
    g = region.g
    i_star, _ = region.anchor
    for n in range(-3, 4):
        for n2 in range(-2, 3):
            for s in range(2 * g + 1):
                point = (i_star + n, s - n * region.inv.k2 + n2 * 19)
                assert region_contains(region, point), (n, n2, s)


def test_nonzero_entries_lie_in_region():
    for params in canonical_params(80):
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
    for translate in full:
        assert sum(1 for c in curves if c.translate == translate) == 1


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
    assert trace_curves(SurgeryParams(13, 1), Window(-5, 5, -5, 5)) == []
    assert trace_curves(SurgeryParams(11, 2), Window(3, 2, 0, 1)) == []


def test_single_component_per_covered_translate():
    """One curve per fully-visible region translate, on parameters whose
    polynomial looks realizable (flat, alternating, unit sum)."""
    checked = 0
    for params in canonical_params(100):
        out = generate(params)
        if out.poly.g == 0 or out.delta_one != 1:
            continue
        if not (is_flat(out.poly) and is_alternating(out.poly)):
            continue
        window = window_for_translates(params, [-2, -1, 0, 1, 2], -3 * params.p, 3 * params.p)
        curves = trace_curves(params, window)
        for translate in covered_translates(params, window):
            if not -2 <= translate <= 2:
                continue
            count = sum(1 for c in curves if c.translate == translate)
            assert count == 1, (params, translate, count)
            checked += 1
    assert checked > 1000  # the property must not pass vacuously


# --------------------------------------------------------------------- lemma


def test_check_lemma_examples():
    report = check_lemma(SurgeryParams(11, 2))
    assert report.hypothesis_found
    assert report.bound_ok
    assert report.no_adjacent_zeros
    report = check_lemma(SurgeryParams(7, 2))
    assert report.hypothesis_found
    assert report.bound_ok


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
    for params in canonical_params(600):
        inv = derive_invariants(params)
        hypothesis, zeros = _lemma_scan(params.p, inv.k2, inv.q2 % params.p)
        assert (hypothesis, zeros) == (params.p < 3 * inv.k2, params.p > 3 * inv.k2), params
        report = check_lemma(params)
        assert report.hypothesis_found == hypothesis, params
        assert report.bound_ok == ((params.p < 3 * inv.k2) if hypothesis else True), params
        assert report.no_adjacent_zeros == ((not zeros) if hypothesis else True), params


def test_lemma_scan_against_direct_window_scan():
    """Redo the scan with da_entry directly over a 2 x (2p) window."""
    for params in canonical_params(120):
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
        report = check_lemma(params)
        assert report.hypothesis_found == found, params
        if found:
            assert report.no_adjacent_zeros == (not adjacent_zeros), params


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


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_trace_windows_never_crash(seed):
    rng = random.Random(seed)
    pool = canonical_params(60)
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
