"""The counting-formula generator against the torus closed-form oracle."""

import json
import math
import pickle

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
    _top_terms,
    format_polynomial,
    generate,
    polynomial,
    polynomial_to_json,
    top_coefficient,
    torus_polynomial,
)
from lenspoly.surgery import SurgeryParams, derive_invariants
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
    for p in range(2, 301):
        for k in range(1, p // 2 + 1):
            if math.gcd(p, k) != 1:
                continue
            try:
                params = SurgeryParams(p, k)
            except ValueError:
                continue
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


def test_kernel_slot_widths():
    """The window counts equal the loop oracle's table over the whole
    period, and flatness read off them equals the full-coefficient
    oracle's, on each side of the slot boundaries: k = 254 and 255 in
    1-byte slots, k = 256..278 in 2-byte slots and k = 65,537 in 4-byte
    slots.  (512, 255), (771, 256), (516, 257) and (131076, 65537) have
    q2 = 1, so S is one run of k residues and some window holds all k:
    the largest count that fits its slot, and the smallest that does not
    fit the narrower one.  (571, 273) is flat; (607, 267) and (705, 278)
    miss it by one count, m + 2 and m - 2."""
    cases = {(561, 254): 1, (571, 254): 1, (512, 255): 1, (555, 256): 2, (771, 256): 2,
             (516, 257): 2, (571, 273): 2, (607, 267): 2, (705, 278): 2, (131076, 65537): 4}
    for (p, k), size in cases.items():
        params = SurgeryParams(p, k)
        w, step, e, m = _residue_values(params)
        assert slot_bytes(w) == size, (p, k)
        assert full_period_table(params) == residue_table_loop(params, params.inv), (p, k)
        flat = is_flat_full(generate(params).poly.coeffs)
        assert _is_flat(w, m) == flat == ((p, k) == (571, 273)), (p, k)
        if params.inv.q2 == 1:
            assert max(w) == k, (p, k)


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
    """Both p = 4g+1 and p = 4g+3 with k = 2 give the (2, 2g+1) polynomial."""
    for g in range(1, 51):
        for p in (4 * g + 1, 4 * g + 3):
            assert polynomial(SurgeryParams(p, 2)).coeffs == torus_polynomial(2, 2 * g + 1).coeffs


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


def test_top_terms_match_top_coefficient_up_to_300():
    """The period reader's (g, a_g, a_{g-1}, a_{g-2}) equals generate's g
    and top_coefficient(poly, n) for n = 0, 1, 2 on every canonical pair
    with p <= 300, where g = 0 (k = 1), g = 1 and g = 2 all occur."""
    genera = set()
    for params in enumerate_params(300):
        poly = generate(params).poly
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
