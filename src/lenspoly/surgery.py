"""Exact arithmetic on lens surgery parameters.

A lens surgery parameter is a coprime pair (p, k) with p >= 2.  The class
k lives in (Z/p)^* and has four equivalent representatives k, -k, k^-1,
-k^-1; we normalize to the smallest positive representative below p/2.
Everything in this module is plain, exact integer arithmetic -- Python
integers are unbounded, so there is no overflow to worry about even far
beyond p = 10^6.

Conventions used throughout the package:

* ``[i]_p`` denotes the balanced residue of i mod p, the unique
  representative in the half-open interval (-p/2, p/2].  See
  :func:`reduce_mod`.
* ``I_ell`` denotes the signed interval {1, ..., ell} for ell > 0 and
  {ell+1, ..., 0} for ell < 0.  See :func:`interval_contains`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple


class InvalidParameterError(ValueError):
    """The given pair is not a valid lens surgery parameter."""


def reduce_mod(i: int, p: int) -> int:
    """Balanced residue [i]_p: the representative of i mod p in (-p/2, p/2].

    >>> reduce_mod(6, 11)
    -5
    >>> reduce_mod(-9, 11)
    2
    >>> reduce_mod(5, 10)   # boundary: p/2 itself is included
    5
    """
    if p < 1:
        raise ValueError(f"modulus must be positive, got {p}")
    r = i % p
    return r if 2 * r <= p else r - p


def interval_contains(ell: int, x: int) -> bool:
    """Membership test for the signed interval I_ell.

    I_ell = {1, ..., ell} when ell > 0 and {ell+1, ..., 0} when ell < 0.
    Two comparisons decide membership; ell = 0 names no interval and is
    rejected.
    """
    if ell == 0:
        raise ValueError("signed interval I_0 is undefined (ell must be nonzero)")
    if ell > 0:
        return 1 <= x <= ell
    return ell < x <= 0


@dataclass(frozen=True)
class SurgeryParams:
    """A canonical lens surgery parameter (p, k).

    Invariants enforced on construction: gcd(p, k) = 1, and k is the
    minimal representative of its class orbit {±k, ±k^-1 mod p} within
    (0, p/2).  The single degenerate case is (2, 1).
    """

    p: int
    k: int

    def __post_init__(self) -> None:
        p, k = self.p, self.k
        if p < 2:
            raise InvalidParameterError(f"p must be >= 2, got {p}")
        if k < 1:
            raise InvalidParameterError(f"k must be positive, got {k}")
        if gcd(p, k) != 1:
            raise InvalidParameterError(f"gcd({p}, {k}) != 1: not a surgery parameter")
        if p == 2:
            if k != 1:
                raise InvalidParameterError("p = 2 admits only k = 1")
            return
        if 2 * k >= p:
            raise InvalidParameterError(f"k = {k} is not in (0, {p}/2)")
        canonical = _orbit_minimum(p, k)
        if k != canonical:
            raise InvalidParameterError(
                f"k = {k} is not canonical for p = {p}; expected k = {canonical}"
            )


class DerivedInvariants(NamedTuple):
    """The auxiliary integers attached to a surgery parameter.

    k2 is the absolute balanced residue of the inverse class k' (k·k' ≡ 1
    mod p); e = [k·k2]_p is ±1; m = (k·k2 − e)/p; q = [k²]_p;
    q2 = [k2²]_p; c = (k−1)(k+1−p)/2.
    """

    k2: int
    e: int
    m: int
    q: int
    q2: int
    c: int


def _orbit_minimum(p: int, k0: int) -> int:
    # The orbit {±k0, ±k0^-1} meets (0, p/2) in at most the two values
    # |[k0]_p| and |[k0^-1]_p|; negation does not change absolute values.
    inv = pow(k0, -1, p)
    return min(abs(reduce_mod(k0, p)), abs(reduce_mod(inv, p)))


def canonicalize_dual_class(p: int, k0: int) -> SurgeryParams:
    """Normalize any coprime class representative k0 to canonical (p, k).

    >>> canonicalize_dual_class(19, 8)
    SurgeryParams(p=19, k=7)
    >>> canonicalize_dual_class(11, 6)
    SurgeryParams(p=11, k=2)
    """
    if p < 2:
        raise InvalidParameterError(f"p must be >= 2, got {p}")
    if gcd(p, k0) != 1:
        raise InvalidParameterError(f"gcd({p}, {k0}) != 1: not a surgery parameter")
    if p == 2:
        return SurgeryParams(2, 1)
    return SurgeryParams(p, _orbit_minimum(p, k0))


def derive_invariants(params: SurgeryParams) -> DerivedInvariants:
    """Compute (k2, e, m, q, q2, c) from a canonical parameter.

    >>> derive_invariants(SurgeryParams(19, 7))
    DerivedInvariants(k2=8, e=-1, m=3, q=-8, q2=7, c=-33)
    """
    p, k = params.p, params.k
    kprime = pow(k, -1, p)
    k2 = abs(reduce_mod(kprime, p))
    e = reduce_mod(k * k2, p)
    assert e in (-1, 1)
    m = (k * k2 - e) // p
    assert m >= 0 and m * p == k * k2 - e
    q = reduce_mod(k * k, p)
    q2 = reduce_mod(k2 * k2, p)
    # (k-1)(k+1-p) is even: k-1 and k+1 have equal parity, and when both
    # are even we are done; when both are odd, k is even, hence p is odd
    # (coprimality), so k+1-p is even.
    c = (k - 1) * (k + 1 - p) // 2
    assert 2 * c == (k - 1) * (k + 1 - p)
    return DerivedInvariants(k2=k2, e=e, m=m, q=q, q2=q2, c=c)
