"""The counting-formula generator against the torus closed-form oracle."""

import itertools
import json
import math
import pickle
import sys
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lenspoly.alexander
from lenspoly.alexander import (
    GeneratedPolynomial,
    IntegrityError,
    SymmetricLaurentPolynomial,
    _alternation,
    _is_flat,
    _period,
    _residue_values,
    _step_marks,
    _top_terms,
    format_polynomial,
    generate,
    polynomial,
    polynomial_to_json,
    top_coefficient,
    torus_polynomial,
)
from lenspoly.surgery import (
    SurgeryParams,
    _canonical_params,
    canonicalize_dual_class,
    derive_invariants,
)
from lenspoly.sweep import enumerate_params
from test_sweep import is_alternating_full, is_flat_full


def coefficient_naive(p, k, i):
    """Literal restatement of the counting formula, independent of the
    library's arithmetic (own balanced reduction, own interval test)."""
    # balanced representative of k^{-1}
    r = pow(k, -1, p)
    r = r if 2 * r <= p else r - p
    k2 = abs(r)
    e = 1 if (k * k2) % p == 1 else -1
    m = (k * k2 - e) // p
    q2 = (k2 * k2) % p
    q2 = q2 if 2 * q2 <= p else q2 - p
    c = (k - 1) * (k + 1 - p) // 2
    count = 0
    for j in range(1, k + 1):
        v = (q2 * (j + k * i + c)) % p
        v = v if 2 * v <= p else v - p
        if e == 1:
            inside = 1 <= v <= k2
        else:
            inside = -k2 < v <= 0
        if inside:
            count += 1
    return -e * (m - count)


def residue_table_loop(params, inv):
    """The generator table by one pass per index over prefix sums of the
    residue bitmap: the kernel's arithmetic, one Python step at a time."""
    p = params.p
    k2, e, m, q2, c = inv.k2, inv.e, inv.m, inv.q2 % p, inv.c
    bitmap = [0] * p
    r = 0
    for _ in range(params.k):
        r = (r + q2) % p
        bitmap[r] = 1
    prefix = [0] * p
    acc = 0
    for idx in range(p):
        acc += bitmap[idx]
        prefix[idx] = acc
    # I_{k2} covers residues 1..k2; I_{-k2} covers 0 and p-k2+1..p-1.
    arc_start = 1 if e > 0 else (1 - k2) % p
    table = [0] * p
    step = (q2 * params.k) % p
    shift = (q2 * c) % p
    for i in range(p):
        lo = (arc_start - shift) % p
        hi = (lo + k2 - 1) % p
        if lo <= hi:
            count = prefix[hi] - (prefix[lo - 1] if lo else 0)
        else:
            count = (prefix[p - 1] - (prefix[lo - 1] if lo else 0)) + prefix[hi]
        table[i] = -e * (m - count)
        shift = (shift + step) % p
    return table


def full_period_table(params):
    """abar_i for i = 0..p-1, gathered from the kernel's window counts
    over the whole period."""
    w, step, e, m = _residue_values(params)
    p = params.p
    return [e * (w[-i * step % p] - m) for i in range(p)]


def generate_full_period(params):
    """The generator read off the whole period of the loop oracle's table:
    a_i = a_-i checked index by index, the coefficients gathered from both
    halves, and the value at t=1 summed over all of them."""
    inv = derive_invariants(params)
    p, h = params.p, params.p // 2
    table = residue_table_loop(params, inv)
    bad = next((i for i in range(1, h + 1) if table[i] != table[p - i]), None)
    if bad is not None:
        raise IntegrityError(p, params.k, "a_i != a_-i", index=bad)
    g = max((i for i in range(1, h + 1) if table[i]), default=0)
    coeffs = tuple(table[p - g:] + table[:g + 1])
    poly = SymmetricLaurentPolynomial(g=g, coeffs=coeffs)
    return GeneratedPolynomial(poly=poly, delta_one=sum(coeffs))


def torsion_identity_holds(params, poly):
    """Whether poly passes the Reidemeister-torsion condition of a lens
    space surgery (Fintushel-Stern): in Z[t]/(t^p - 1),

        Delta(t) * (t^k - 1) * (t^k2 - 1) = s * t^n * (1 - t)^2 + c * N

    for a sign s = +-1, some n, some integer c and N = 1 + t + ... + t^(p-1).
    Derived from the torsion, not from the counting formula, in O(p):
    reduce Delta mod t^p - 1, multiply by the two binomials as shifted
    differences, and find c as the most common value, since at most three
    residues differ from it.  For p <= 5 no majority finds c: try every n.
    """
    p = params.p
    f = [0] * p
    for i, a in enumerate(poly.coeffs, -poly.g):
        f[i % p] += a
    for shift in (params.k, params.inv.k2):
        f = [f[(x - shift) % p] - f[x] for x in range(p)]  # times t^shift - 1

    def fits(n, s):
        rest = [0] * p  # s * t^n * (1 - 2t + t^2)
        for d, b in enumerate((s, -2 * s, s)):
            rest[(n + d) % p] += b
        c = f[0] - rest[0]
        return all(v - r == c for v, r in zip(f, rest))

    if p <= 5:
        starts = range(p)
    else:
        c = Counter(f).most_common(1)[0][0]
        starts = [x for x, v in enumerate(f) if v != c]
        if len(starts) > 3:
            return False
    return any(fits(n, s) for n in starts for s in (1, -1))


# ------------------------------------------------ the table against the formula


def test_bulk_table_matches_naive_formula():
    """Every coefficient the generator returns, |i| <= p/2, equals the
    literal counting formula on every canonical pair with p <= 60."""
    for params in enumerate_params(60):
        p, k = params.p, params.k
        poly = generate(params).poly
        for i in range(-(p // 2), p // 2 + 1):
            assert poly.coefficient(i) == coefficient_naive(p, k, i), (p, k, i)


@settings(max_examples=60)
@given(st.integers(2, 900))
def test_bulk_table_matches_naive_random_p(p):
    ks = [k for k in range(1, p // 2 + 1) if math.gcd(p, k) == 1]
    for k in ks[:3] + ks[-3:]:
        try:
            params = SurgeryParams(p, k)
        except ValueError:
            continue
        poly = generate(params).poly
        for i in (-(p // 2), -1, 0, 1, p // 2, p // 3):
            from_table = poly.coefficient(i) if abs(i) <= poly.g else 0
            assert from_table == coefficient_naive(p, k, i), (p, k, i)


# ----------------------------------------------- the torsion identity oracle


def test_torsion_identity_iff_normalized_up_to_300():
    """The torsion condition, which never restates the counting formula,
    holds exactly on the pairs whose generated polynomial is 1 at t = 1,
    on every canonical pair with p <= 300."""
    held = checked = 0
    for params in enumerate_params(300):
        gen = generate(params)
        holds = torsion_identity_holds(params, gen.poly)
        assert holds == (gen.delta_one == 1), (params.p, params.k, gen.delta_one)
        held += holds
        checked += 1
    assert (checked, held) == (7189, 5872)


def test_torsion_identity_examples():
    """t - 1 + t^-1, the (2, 3) torus knot's polynomial, passes for
    (7, 2) and fails once its middle term is 0; the unknot's polynomial 1
    passes for (5, 1), the lens space its 5-surgery gives, and fails for
    (5, 2)."""
    params = SurgeryParams(7, 2)
    trefoil = SymmetricLaurentPolynomial(g=1, coeffs=(1, -1, 1))
    assert torsion_identity_holds(params, trefoil)
    assert not torsion_identity_holds(params, SymmetricLaurentPolynomial(1, (1, 0, 1)))
    assert torsion_identity_holds(SurgeryParams(5, 1), SymmetricLaurentPolynomial(0, (1,)))
    assert not torsion_identity_holds(SurgeryParams(5, 2), SymmetricLaurentPolynomial(0, (1,)))


# -------------------------------------------------------------- polynomial()


def test_polynomial_7_2():
    poly = polynomial(SurgeryParams(7, 2))
    assert poly.g == 1
    assert poly.coeffs == (1, -1, 1)


def test_polynomial_19_7():
    poly = polynomial(SurgeryParams(19, 7))
    assert poly.g == 5
    assert poly.coeffs == (1, -1, 0, 1, -1, 1, -1, 1, 0, -1, 1)


def test_polynomial_11_2():
    poly = polynomial(SurgeryParams(11, 2))
    assert poly.coeffs == (1, -1, 1, -1, 1)


def test_polynomial_k1_trivial():
    for p in range(2, 101):
        poly = polynomial(SurgeryParams(p, 1))
        assert poly.g == 0
        assert poly.coeffs == (1,)


def test_polynomial_rejects_nonunit_evaluation():
    with pytest.raises(IntegrityError) as exc_info:
        polynomial(SurgeryParams(8, 3))
    err = exc_info.value
    assert err.p == 8
    assert err.k == 3
    with pytest.raises(IntegrityError):
        polynomial(SurgeryParams(10, 3))


def test_integrity_error_survives_pickling():
    """A pool worker's IntegrityError crosses to the caller by pickle."""
    err = pickle.loads(pickle.dumps(IntegrityError(13, 5, "a_i != a_-i", index=1)))
    assert (err.p, err.k, err.index, err.detail) == (13, 5, 1, "a_i != a_-i")
    assert str(err) == "(p=13, k=5, i=1): a_i != a_-i"
    err = pickle.loads(pickle.dumps(IntegrityError(8, 3, "Delta(1) = 3")))
    assert (err.index, str(err)) == (None, "(p=8, k=3): Delta(1) = 3")


def test_generate_is_permissive_where_polynomial_is_strict():
    out = generate(SurgeryParams(8, 3))
    assert out.delta_one == 3  # the anomaly the strict layer rejects
    assert sum(out.poly.coeffs) == 3


def test_strict_gate_matches_delta_one_up_to_300():
    for params in enumerate_params(300):
        out = generate(params)
        if out.delta_one == 1:
            assert polynomial(params).coeffs == out.poly.coeffs
        else:
            with pytest.raises(IntegrityError):
                polynomial(params)


def test_generated_symmetry_up_to_300():
    """The kernel's residue-ordered values, gathered over the whole period,
    equal the loop oracle's table, and the half-period generate equals the
    whole-period one, on every canonical pair with p <= 300: even p, (8, 3)
    and the other pairs with 2g >= p included."""
    wide = []
    for params in enumerate_params(300):
        inv = derive_invariants(params)
        assert full_period_table(params) == residue_table_loop(params, inv), params
        out = generate(params)
        assert out == generate_full_period(params), params
        assert out.poly.g <= params.p // 2
        if 2 * out.poly.g >= params.p:
            wide.append((params.p, params.k))
    assert wide[0] == (8, 3) and len(wide) > 1


def slot_bytes(w):
    """The bytes per window count of a period: 1 for ``bytes``."""
    return 1 if isinstance(w, bytes) else w.itemsize


def slot_size(k):
    """The kernel's bytes per slot: the least of 1, 2, 4, 8 that holds k."""
    return next(size for size in (1, 2, 4, 8) if k < 256 ** size)


def residue_values_loop(params):
    """The kernel's (w, step, e, m) as it was before the doubling: all k
    residues of S marked by one Python step each, and the period's first
    k2 - 1 slots copied after it in place of the fold; the oracle of both."""
    p, k, inv = params.p, params.k, params.inv
    k2, e, q2 = inv.k2, inv.e, inv.q2 % p
    arc_start = 1 if e > 0 else (1 - k2) % p
    first = (q2 * (inv.c + 1) - arc_start) % p
    size = slot_size(k)
    n = p * size
    slots = bytearray(n + (k2 - 1) * size)
    for r in range(first * size, (first + q2 * k) * size, q2 * size):
        slots[r % n] = 1
    slots[n:] = slots[:(k2 - 1) * size]
    box = int.from_bytes(slots, "little")
    box = ((box << 8 * size * k2) - box) // ((1 << 8 * size) - 1)
    w = box.to_bytes((p + 2 * k2 - 1) * size, "little")[(k2 - 1) * size:(k2 - 1 + p) * size]
    if size > 1:
        w = array({2: "H", 4: "I", 8: "Q"}[size], w)
        if sys.byteorder == "big":
            w.byteswap()
    return w, q2 * k % p, e, inv.m


# (p, k) -> bytes per slot, on each side of the slot boundaries (see
# test_kernel_slot_widths)
SLOT_WIDTH_CASES = {(561, 254): 1, (571, 254): 1, (512, 255): 1, (555, 256): 2, (771, 256): 2,
                    (516, 257): 2, (571, 273): 2, (607, 267): 2, (705, 278): 2,
                    (131076, 65537): 4}


def canonical_ps(k, count, start=2):
    """The first count p >= max(start, 2k) with (p, k) canonical: coprime,
    and k no larger than k2 = |[k^-1]_p|."""
    found = []
    for p in itertools.count(max(start, 2 * k)):
        if math.gcd(p, k) == 1:
            r = pow(k, -1, p)
            if min(r, p - r) >= k:
                found.append(p)
                if len(found) == count:
                    return found


def doubling_steps(p, k):
    """How many times _residue_values doubles the marks of (p, k)."""
    h, least, steps = k, _step_marks(p * slot_size(k)), 0
    while h + 1 >> 1 >= least:
        h, steps = h + 1 >> 1, steps + 1
    return steps


def doubling_edge_pairs():
    """Canonical pairs with k at a doubling cutoff or next to it: for
    s = 1, 2, 3, the least k whose marks double s times on its period,
    2^s*(L - 1) + 1 with L = _step_marks(period bytes), and that k +- 1,
    in 1- and 2-byte slots, and in 2-byte periods past 128 KiB, where each
    step's temporaries are mapped afresh.  Then k = 2^n - 1, 2^n and
    2^n + 1, where the halving rounds up on every step or on none."""
    pairs = set()
    for s in (1, 2, 3):
        for d in (-1, 0, 1):
            for size, ps in ((1, range(100, 700)), (2, range(3860, 4600)),
                             (2, range(65600, 66000))):
                hits = 0
                for p in ps:
                    k = 2 ** s * (_step_marks(p * size) - 1) + 1 + d
                    if slot_size(k) == size and canonical_ps(k, 1, p) == [p]:
                        pairs.add((p, k))
                        hits += 1
                        if hits == 2:
                            break
    for n in (5, 6, 7, 8, 9, 10, 15):
        for k in (2 ** n - 1, 2 ** n, 2 ** n + 1):
            pairs.update((p, k) for p in canonical_ps(k, 2))
    return sorted(pairs)


def test_kernel_matches_marking_loop():
    """_residue_values, which marks a prefix of S and doubles it, returns
    the tuple of the loop that marks every residue, slot width included,
    on every canonical pair with p <= 300, on the slot-boundary pairs and
    on pairs with k at the doubling cutoffs, next to them and at 2^n +- 1."""
    edges = doubling_edge_pairs()
    steps = Counter(doubling_steps(p, k) for p, k in edges)
    assert {0, 1, 2, 3} <= set(steps), steps
    assert any(p * 2 > 1 << 17 and doubling_steps(p, k) for p, k in edges)
    cases = [(params.p, params.k) for params in enumerate_params(300)]
    for p, k in cases + list(SLOT_WIDTH_CASES) + edges:
        params = SurgeryParams(p, k)
        got, want = _residue_values(params), residue_values_loop(params)
        assert got == want and slot_bytes(got[0]) == slot_bytes(want[0]), (p, k)


def test_largest_cli_pair_never_doubles():
    """At (4000037, 685377), the pair whose CLI memory the README quotes,
    a doubling step would cost more than the marks it adds and add tens
    of MB of temporaries: the kernel marks all k residues one by one
    there, though a k of twice the cutoff on that period doubles once."""
    assert doubling_steps(4000037, 685377) == 0
    assert doubling_steps(4000037, 2 * _step_marks(4 * 4000037)) == 1


def test_kernel_slot_widths():
    """The window counts equal the loop oracle's table over the whole
    period, generate (gathering a_0..a_g from them) equals the generator
    read off that table, and flatness read off them equals the
    full-coefficient oracle's, on each side of the slot boundaries: k =
    254 and 255 in 1-byte slots, k = 256..278 in 2-byte slots and k =
    65,537 in 4-byte slots.  (512, 255), (771, 256), (516, 257) and
    (131076, 65537) have q2 = 1, so S is one run of k residues and some
    window holds all k: the largest count that fits its slot, and the
    smallest that does not fit the narrower one.  (571, 273) is flat;
    (607, 267) and (705, 278) miss it by one count, m + 2 and m - 2."""
    for (p, k), size in SLOT_WIDTH_CASES.items():
        params = SurgeryParams(p, k)
        w, step, e, m = _residue_values(params)
        assert slot_bytes(w) == size, (p, k)
        assert full_period_table(params) == residue_table_loop(params, params.inv), (p, k)
        gen = generate(params)
        assert gen == generate_full_period(params), (p, k)
        flat = is_flat_full(gen.poly.coeffs)
        assert _is_flat(w, m) == flat == ((p, k) == (571, 273)), (p, k)
        if params.inv.q2 == 1:
            assert max(w) == k, (p, k)


def test_flat_one_byte_periods_match_oracle():
    """_is_flat on hand-made 1-byte periods agrees with the flatness of
    their coefficients count - m, for every m a 1-byte period can have;
    at m = 0 the flat counts are 0 and 1 alone."""
    for m in range(128):
        near = [c for c in (m - 2, m - 1, m, m + 1, m + 2) if c >= 0]
        periods = [bytes([m]), bytes(near), bytes([m + 1, m, m + 1]), bytes([255, m]),
                   bytes([0, m, 0]), bytes(range(max(m - 1, 0), m + 2)) * 3]
        periods += [bytes([m, c, m]) for c in near]
        for w in periods:
            assert _is_flat(w, m) == is_flat_full([c - m for c in w]), (m, w)
    assert [_is_flat(bytes([c]), 0) for c in range(4)] == [True, True, False, False]


def test_flat_two_byte_periods_match_oracle():
    """_is_flat on hand-made 2-byte periods agrees with the flatness of
    their coefficients count - m, at m = 0, 1, 255, 256, 257, 511 and
    512: where m - 1, m and m + 1 share a high byte (the test on raw
    bytes) and where they straddle two (min and max), with counts that
    share m's low byte but not its high byte among them; and on every
    canonical pair with k >= 256 (2-byte slots) and p <= 700, nine of
    them flat, it agrees with the flatness of the generated polynomial."""
    for m in (0, 1, 255, 256, 257, 511, 512):
        near = [c for c in range(m - 2, m + 3) if c >= 0]
        far = [c for d in (255, 256, 257) for c in (m - d, m + d) if c >= 0]
        periods = [[m], near, [m + 1, m, m + 1], [65535, m], [0, m, 0],
                   list(range(max(m - 1, 0), m + 2)) * 3]
        periods += [[m, c, m] for c in near + far]
        for counts in periods:
            assert _is_flat(array("H", counts), m) == is_flat_full([c - m for c in counts]), (
                m, counts)
    flat = 0
    for params in enumerate_params(700):
        if params.k >= 256:
            w, step, e, m = _period(params)
            assert slot_bytes(w) == 2, params
            assert _is_flat(w, m) == is_flat_full(generate(params).poly.coeffs), params
            flat += _is_flat(w, m)
    assert flat == 9


def alternation_scan(w, step, e, m, g):
    """The per-coefficient oracle of _alternation: a_g, a_{g-1}, ..., a_0
    read one at a time, up to the first two nonzero terms in a row with
    one sign."""
    p, prev, strictly = len(w), 0, True
    for x in range(-g * step, step, step):  # a_i sits at -i*step, i = g..0
        a = e * (w[x % p] - m)
        if a:
            if a * prev > 0:
                return False, False
            prev = a
        else:
            strictly = False
    return w[0] != m or not g, strictly


def test_alternation_matches_scan_up_to_640():
    """_alternation equals the per-coefficient scan on every canonical
    pair with p <= 640, where the stride copy reads a_0..a_g of the
    pairs whose top terms alternate."""
    copied = 0
    for params in enumerate_params(640):
        period = _period(params)
        g = _top_terms(*period)[0]
        assert _alternation(*period, g) == alternation_scan(*period, g), params
        w, step = period[:2]
        copied += g > lenspoly.alexander._TOP and isinstance(w, bytes)
    assert copied > 10000


def test_alternation_matches_scan_near_1200():
    """_alternation equals the per-coefficient scan on every canonical
    pair with 1190 <= p <= 1200, with 1- and 2-byte slots."""
    widths = Counter()
    for p in range(1190, 1201):
        for params in _canonical_params(p):
            period = _period(params)
            g = _top_terms(*period)[0]
            assert _alternation(*period, g) == alternation_scan(*period, g), params
            widths[slot_bytes(period[0])] += 1
    assert widths.keys() == {1, 2}


def counts_period(half, p, step, e, m):
    """A symmetric 1-byte period with a_0, a_1, ... = ``half`` and 0 past
    it: a_i's count is m + e*a_i, at -i*step and i*step mod p."""
    w = bytearray([m]) * p
    for i, a in enumerate(half):
        w[i * step % p] = w[-i * step % p] = m + e * a
    return bytes(w)


def test_alternation_hand_made_periods_match_oracle():
    """On hand-made periods a_0..a_g, around the top window of _TOP terms
    that the scan reads before the stride copy: alternating ones, each
    with one term zeroed, with one same-sign pair at each place, and with
    a same-sign pair on either side of a zero; the seam between the scan
    and the copy, (a_{g-_TOP+1}, a_{g-_TOP}), is among those places, and
    a_0 = 0 among the zeros.  _alternation, the scan oracle and the
    full-coefficient oracles agree, for steps below and above p/2."""
    top = lenspoly.alexander._TOP
    seams = 0
    for g in (1, 2, top - 1, top, top + 1, top + 2, 3 * top):
        signs = [(-1) ** (g - i) for i in range(g + 1)]  # a_0..a_g, a_g = 1
        halves = [signs, [2 * a for a in signs]]
        for j in range(g):
            halves.append(signs[:j] + [0] + signs[j + 1:])
            halves.append(signs[:j] + [signs[j + 1]] + signs[j + 1:])  # a_j, a_{j+1} alike
            if j:
                halves.append(signs[:j - 1] + [signs[j + 1], 0] + signs[j + 1:])
        seams += g > top
        for half in halves:
            coeffs = half[:0:-1] + half
            alternating = is_alternating_full(coeffs)
            want = alternating, alternating and 0 not in coeffs
            p = 2 * g + 7
            for step in (2, p - 2):  # p is odd
                for e in (1, -1):
                    w = counts_period(half, p, step, e, 2)
                    got = _alternation(w, step, e, 2, g)
                    assert got == alternation_scan(w, step, e, 2, g) == want, (half, step, e)
    assert seams == 3


def test_wide_slots_report_first_asymmetric_index(monkeypatch):
    """A break planted in the 2-byte counts of (555, 256) is found at its
    first bad index, as in 1-byte slots."""
    params = SurgeryParams(555, 256)
    w, step, e, m = _residue_values(params)
    assert slot_bytes(w) == 2
    w[-9 * step % 555] += 1  # a_9 != a_-9
    w[3 * step % 555] -= 1  # a_-3 != a_3: the first bad index
    monkeypatch.setattr(lenspoly.alexander, "_residue_values", lambda params: (w, step, e, m))
    with pytest.raises(IntegrityError) as exc_info:
        generate(params)
    assert (exc_info.value.p, exc_info.value.k, exc_info.value.index) == (555, 256, 3)


# --------------------------------------------------------- torus closed form


def test_torus_examples():
    assert torus_polynomial(2, 3).coeffs == (1, -1, 1)
    assert torus_polynomial(2, 5).coeffs == (1, -1, 1, -1, 1)
    assert torus_polynomial(3, 4).coeffs == (1, -1, 0, 1, 0, -1, 1)


def test_torus_rejects_noncoprime():
    with pytest.raises(ValueError):
        torus_polynomial(2, 4)
    with pytest.raises(ValueError):
        torus_polynomial(6, 9)
    with pytest.raises(ValueError):
        torus_polynomial(1, 5)


def test_torus_a2_family_alternating():
    for g in range(1, 51):
        poly = torus_polynomial(2, 2 * g + 1)
        assert poly.g == g
        assert poly.coeffs == tuple((-1) ** (g - abs(i)) for i in range(-g, g + 1))


def poly_mul_dense(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_torus_remultiplication_oracle():
    """(t^a - 1)(t^b - 1) * Delta_unshifted == (t^ab - 1)(t - 1)."""
    pairs = [(2, 3), (2, 7), (3, 4), (3, 5), (4, 7), (5, 6), (2, 21)]
    pairs += [(a, b) for a in range(2, 16) for b in range(a + 1, 16) if math.gcd(a, b) == 1]
    for a, b in pairs:
        poly = torus_polynomial(a, b)
        g = poly.g
        assert 2 * g == (a - 1) * (b - 1)
        delta = list(poly.coeffs)  # ascending, t^{-g}..t^{g}; shift by g
        lhs_a = [-1] + [0] * (a - 1) + [1]
        lhs_b = [-1] + [0] * (b - 1) + [1]
        lhs = poly_mul_dense(poly_mul_dense(lhs_a, lhs_b), delta)
        rhs_ab = [-1] + [0] * (a * b - 1) + [1]
        rhs = poly_mul_dense(rhs_ab, [-1, 1])
        assert lhs == rhs, (a, b)


def test_surgery_polynomials_with_k2_match_torus():
    """Both p = 4g+1 and p = 4g+3 with k = 2 give the (2, 2g+1) polynomial.

    Berge's type I: for every coprime 2 <= a < 40 and a < b < 80, both
    p = ab - 1 and p = ab + 1 with k = a give the (a, b) torus polynomial,
    and k = a and k = b canonicalize to one pair.
    """
    for g in range(1, 51):
        for p in (4 * g + 1, 4 * g + 3):
            assert polynomial(SurgeryParams(p, 2)).coeffs == torus_polynomial(2, 2 * g + 1).coeffs
    checked = 0
    for a in range(2, 40):
        for b in range(a + 1, 80):
            if math.gcd(a, b) != 1:
                continue
            torus = torus_polynomial(a, b)
            for p in (a * b - 1, a * b + 1):
                params = canonicalize_dual_class(p, a)
                assert generate(params).poly == torus, (p, a, b)
                assert canonicalize_dual_class(p, b) == params, (p, a, b)
                checked += 1
    assert checked == 2724


# ------------------------------------------------- accessors and predicates


def test_top_coefficient():
    t25 = torus_polynomial(2, 5)
    assert top_coefficient(t25, 0) == 1
    assert top_coefficient(t25, 1) == -1
    assert top_coefficient(t25, 2) == 1
    assert top_coefficient(polynomial(SurgeryParams(19, 7)), 2) == 0
    trivial = polynomial(SurgeryParams(5, 1))
    assert top_coefficient(trivial, 0) == 1
    assert top_coefficient(trivial, 1) == 0
    assert top_coefficient(t25, 99) == 0  # far past the bottom end
    with pytest.raises(ValueError, match="non-negative"):
        top_coefficient(t25, -1)


def test_top_terms_match_top_coefficient_up_to_300():
    """The period reader's (g, a_g, a_{g-1}, a_{g-2}) equals the g and
    top_coefficient(poly, n) for n = 0, 1, 2 of the loop oracle's
    polynomial, whose g is found by its own scan, on every canonical pair
    with p <= 300, where g = 0 (k = 1), g = 1 and g = 2 all occur."""
    genera = set()
    for params in enumerate_params(300):
        poly = generate_full_period(params).poly
        top = _top_terms(*_period(params))
        assert top == (poly.g, *(top_coefficient(poly, n) for n in range(3))), params
        genera.add(top[0])
    assert {0, 1, 2} <= genera
    # g = 1: a_{g-2} is a_-1 = a_1 = 1, not 0
    assert _top_terms(*_period(SurgeryParams(5, 2))) == (1, 1, -1, 1)


def test_predicates():
    """The full-coefficient oracles on hand-made polynomials, and the
    period scan on each one's period (step 1, p = 2g + 1): rot lists
    a_0..a_g, then a_g..a_1, read as counts with e = 1 and m = 0."""
    cases = [  # coefficients, flat, alternating
        (torus_polynomial(2, 5).coeffs, True, True),
        (polynomial(SurgeryParams(19, 7)).coeffs, True, True),
        ((1, -1, -1, -1, 1), True, False),  # bumpy
        ((2, -3, 2), False, True),  # tall
        ((1, -1, 0, -1, 1), True, False),  # hollow: a_0 = 0 puts a_-1 = a_1 side by side
        ((0,), True, True),
    ]
    for coeffs, flat, alternating in cases:
        assert (is_flat_full(coeffs), is_alternating_full(coeffs)) == (flat, alternating), coeffs
        g = len(coeffs) // 2
        rot = list(coeffs[g:] + coeffs[:g:-1])
        strictly = alternating and 0 not in coeffs
        assert _alternation(rot, 1, 1, 0, g) == (alternating, strictly), coeffs


# ------------------------------------------------------------ serialization


def test_format_polynomial_goldens():
    assert format_polynomial(polynomial(SurgeryParams(7, 2))) == "t - 1 + t^-1"
    assert format_polynomial(torus_polynomial(2, 5)) == "t^2 - t + 1 - t^-1 + t^-2"
    assert format_polynomial(polynomial(SurgeryParams(4, 1))) == "1"
    assert format_polynomial(polynomial(SurgeryParams(19, 7))) == (
        "t^5 - t^4 + t^2 - t + 1 - t^-1 + t^-2 - t^-4 + t^-5"
    )


def test_polynomial_json_round_trip():
    poly = torus_polynomial(2, 5)
    blob = polynomial_to_json(poly)
    assert blob == {"g": 2, "coeffs": [1, -1, 1, -1, 1]}
    assert json.loads(json.dumps(blob)) == blob
    assert SymmetricLaurentPolynomial(blob["g"], tuple(blob["coeffs"])) == poly


def test_symmetric_type_validation():
    with pytest.raises(ValueError, match="at index 1$"):
        SymmetricLaurentPolynomial(g=1, coeffs=(1, 0, 2))   # not symmetric
    with pytest.raises(ValueError, match="at index 2$"):
        SymmetricLaurentPolynomial(g=3, coeffs=(1, 0, 5, 7, 5, 1, 1))
    with pytest.raises(ValueError):
        SymmetricLaurentPolynomial(g=1, coeffs=(0, 1, 0))   # zero top
    with pytest.raises(ValueError):
        SymmetricLaurentPolynomial(g=1, coeffs=(1, 1))      # wrong length
    with pytest.raises(ValueError, match="genus must be non-negative"):
        SymmetricLaurentPolynomial(g=-1, coeffs=())
    SymmetricLaurentPolynomial(g=0, coeffs=(1,))


def test_generate_reports_first_asymmetric_index(monkeypatch):
    params = SurgeryParams(19, 7)
    w, step, e, m = _residue_values(params)
    w = bytearray(w)
    w[-4 * step % 19] += 1  # a_4 != a_-4
    w[2 * step % 19] += 1  # a_-2 != a_2: the first bad index
    monkeypatch.setattr(lenspoly.alexander, "_residue_values", lambda params: (w, step, e, m))
    with pytest.raises(IntegrityError) as exc_info:
        generate(params)
    err = exc_info.value
    assert (err.p, err.k, err.index) == (19, 7, 2)
    assert str(err) == "(p=19, k=7, i=2): a_i != a_-i"


@given(st.integers(2, 60), st.integers(1, 60))
def test_generate_never_breaks_symmetry(p, k):
    if math.gcd(p, k) != 1 or 2 * k > p:
        return
    try:
        params = SurgeryParams(p, k)
    except ValueError:
        return
    out = generate(params)
    assert out.poly.coeffs == tuple(reversed(out.poly.coeffs))
    assert out.delta_one == sum(out.poly.coeffs)
