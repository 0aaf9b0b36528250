"""Balanced residues and parameter canonicalization."""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lenspoly.surgery import (
    InvalidParameterError,
    SurgeryParams,
    _canonical_ks,
    _canonical_params,
    canonicalize_dual_class,
    derive_invariants,
    reduce_mod,
)
from lenspoly.sweep import enumerate_params


def coprime_pairs(max_p):
    for p in range(2, max_p + 1):
        for k in range(1, p):
            if math.gcd(k, p) == 1:
                yield p, k


# ---------------------------------------------------------------- reduce_mod


def test_reduce_mod_examples():
    assert reduce_mod(6, 11) == -5
    assert reduce_mod(-9, 11) == 2
    assert reduce_mod(5, 10) == 5
    assert reduce_mod(0, 7) == 0
    assert reduce_mod(7, 7) == 0


def test_reduce_mod_rejects_bad_modulus():
    with pytest.raises(ValueError):
        reduce_mod(3, 0)
    with pytest.raises(ValueError):
        reduce_mod(3, -5)


@given(st.integers(-10**9, 10**9), st.integers(2, 10**6))
def test_reduce_mod_congruent_and_in_range(i, p):
    r = reduce_mod(i, p)
    assert (i - r) % p == 0
    assert -p / 2 < r <= p / 2


@given(st.integers(-10**6, 10**6), st.integers(2, 10**4))
def test_reduce_mod_idempotent(i, p):
    assert reduce_mod(reduce_mod(i, p), p) == reduce_mod(i, p)


# ------------------------------------------------------------- SurgeryParams


def test_params_validation():
    SurgeryParams(7, 2)
    SurgeryParams(2, 1)
    with pytest.raises(InvalidParameterError):
        SurgeryParams(6, 2)  # not coprime
    with pytest.raises(InvalidParameterError):
        SurgeryParams(1, 1)  # p too small
    with pytest.raises(InvalidParameterError):
        SurgeryParams(7, 0)
    with pytest.raises(InvalidParameterError):
        SurgeryParams(7, 4)  # 2k > p, not canonical
    with pytest.raises(InvalidParameterError):
        SurgeryParams(19, 8)  # canonical rep is 7


def test_canonicalize_examples():
    assert canonicalize_dual_class(19, 8) == SurgeryParams(19, 7)
    assert canonicalize_dual_class(19, 7) == SurgeryParams(19, 7)
    assert canonicalize_dual_class(11, 6) == SurgeryParams(11, 2)
    assert canonicalize_dual_class(11, 9) == SurgeryParams(11, 2)
    assert canonicalize_dual_class(2, 1) == SurgeryParams(2, 1)
    assert canonicalize_dual_class(7, 12) == SurgeryParams(7, 2)  # reduced mod 7 first


def test_canonicalize_rejects_noncoprime():
    with pytest.raises(InvalidParameterError):
        canonicalize_dual_class(10, 4)
    with pytest.raises(InvalidParameterError):
        canonicalize_dual_class(7, 7)


def brute_force_canonical_k(p, k):
    """Smallest |[x]_p| over the orbit {k, -k, k^-1, -k^-1} mod p."""
    kinv = pow(k, -1, p)
    candidates = []
    for x in (k, -k, kinv, -kinv):
        r = abs(reduce_mod(x, p))
        if 0 < r:
            candidates.append(r)
    return min(candidates)


def test_params_store_their_invariants():
    """SurgeryParams(p, k) validates exactly the brute-force canonical k
    in (0, p/2], keeps derive_invariants(params) as inv, and leaves inv
    out of repr, == and hash."""
    for p, k in coprime_pairs(200):
        if 2 * k > p:
            with pytest.raises(InvalidParameterError, match=rf"^k = {k} is not in \(0, {p}/2\]$"):
                SurgeryParams(p, k)
            continue
        expected = brute_force_canonical_k(p, k)
        if k != expected:
            with pytest.raises(InvalidParameterError, match=f"expected k = {expected}$"):
                SurgeryParams(p, k)
            continue
        params = SurgeryParams(p, k)
        assert params.inv == derive_invariants(params), (p, k)
        other = SurgeryParams(p, k)
        object.__setattr__(other, "inv", None)
        assert repr(other) == repr(params) == f"SurgeryParams(p={p}, k={k})"
        assert other == params and hash(other) == hash(params)


def test_canonical_params_against_brute_force_orbit():
    """For every p <= 400, the enumeration and the k walk yield exactly
    the brute-force canonical k of the coprime classes, ascending, the
    enumeration each with the invariants derive_invariants gives, which
    match reduce_mod."""
    self_paired = set()
    for p in range(2, 401):
        pairs = _canonical_params(p)
        expected = sorted({brute_force_canonical_k(p, k) for k in range(1, p) if math.gcd(k, p) == 1})
        assert [params.k for params in pairs] == expected, p
        assert _canonical_ks(p) == expected, p
        for params in pairs:
            k, inv = params.k, params.inv
            assert (params.p, inv) == (p, derive_invariants(params)), params
            assert (inv.e, inv.q, inv.q2) == (
                reduce_mod(k * inv.k2, p), reduce_mod(k * k, p), reduce_mod(inv.k2 * inv.k2, p)
            ), params
            if inv.k2 == k:
                self_paired.add((p, k))
    # the smallest p have the one class k = 1, and a self-paired orbit
    # (k2 = k) marks its own k
    assert [[params.k for params in _canonical_params(p)] for p in (2, 3, 4, 6)] == [[1]] * 4
    assert {(5, 2), (10, 3)} <= self_paired


def test_enumerated_params_equal_validated_params():
    """The enumeration builds each SurgeryParams without validating it
    again, as its walk has checked what validation checks; every pair
    with p <= 700 is still equal to the validated SurgeryParams(p, k),
    with the same invariants, hash and repr, and is still frozen."""
    for params in enumerate_params(700):
        checked = SurgeryParams(params.p, params.k)
        assert params == checked and params.inv == checked.inv, checked
        assert hash(params) == hash(checked) and repr(params) == repr(checked)
    for name, value in (("p", 8), ("k", 3), ("inv", None), ("other", 0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(params, name, value)
    assert (params.p, params.k) == (700, 349) and params.inv == checked.inv
    assert vars(params).keys() == {"p", "k", "inv"}


def test_canonicalize_against_brute_force_orbit():
    for p, k in coprime_pairs(60):
        expected = brute_force_canonical_k(p, k)
        got = canonicalize_dual_class(p, k)
        assert got.p == p
        assert got.k == expected, (p, k)


@given(st.integers(2, 400), st.integers(1, 400))
def test_canonicalize_orbit_closure(p, k):
    if math.gcd(p, k % p if k % p else p) != 1:
        return
    params = canonicalize_dual_class(p, k)
    inv = derive_invariants(params)
    # the dual representative lands on the same canonical pair
    assert canonicalize_dual_class(p, inv.k2) == params
    assert canonicalize_dual_class(p, p - params.k) == params


# --------------------------------------------------------- derive_invariants


def test_derive_invariants_19_7():
    inv = derive_invariants(SurgeryParams(19, 7))
    assert (inv.k2, inv.e, inv.m, inv.q, inv.q2, inv.c) == (8, -1, 3, -8, 7, -33)


def test_derive_invariants_7_2():
    inv = derive_invariants(SurgeryParams(7, 2))
    assert (inv.k2, inv.e, inv.m, inv.q, inv.q2, inv.c) == (3, -1, 1, -3, 2, -2)


def test_derive_invariants_11_2():
    inv = derive_invariants(SurgeryParams(11, 2))
    assert (inv.k2, inv.e, inv.m, inv.q, inv.q2, inv.c) == (5, -1, 1, 4, 3, -4)


def test_derive_invariants_degenerate():
    inv = derive_invariants(SurgeryParams(2, 1))
    assert inv.k2 == 1
    assert inv.e == 1
    assert inv.m == 0


@given(st.integers(2, 1200), st.integers(1, 1200))
def test_derived_identities(p, k0):
    k = k0 % p
    if k == 0 or math.gcd(p, k) != 1:
        return
    params = canonicalize_dual_class(p, k)
    inv = derive_invariants(params)
    # defining congruences
    assert inv.e in (1, -1)
    assert (params.k * inv.k2 - inv.e) % p == 0
    assert params.k * inv.k2 == inv.m * p + inv.e
    assert inv.m >= 0
    assert inv.q == reduce_mod(params.k * params.k, p)
    assert inv.q2 == reduce_mod(inv.k2 * inv.k2, p)
    # c is an exact integer: (k-1)(k+1-p) is always even
    assert 2 * inv.c == (params.k - 1) * (params.k + 1 - p)
    # canonical window
    assert 0 < params.k
    assert 2 * params.k <= p
    assert 0 < inv.k2 < p
