"""Exact arithmetic on lens surgery parameters.

A lens surgery parameter is a coprime pair (p, k) with p >= 2.  The class
k lives in (Z/p)^* and has four equivalent representatives k, -k, k^-1,
-k^-1; we normalize to the smallest positive representative in (0, p/2].
:class:`SurgeryParams` checks that and derives (k2, e, m, q, q2, c) once,
as ``params.inv``.  :func:`_canonical_walk` yields the canonical k of one
p, each with its invariants, which the sweeps take as plain ints.
Everything in this module is plain, exact integer arithmetic -- Python
integers are unbounded, so there is no overflow to worry about even far
beyond p = 10^6.

Conventions used throughout the package:

* ``[i]_p`` denotes the balanced residue of i mod p, the unique
  representative in the half-open interval (-p/2, p/2].  See
  :func:`reduce_mod`.
* ``I_ell`` denotes the signed interval {1, ..., ell} for ell > 0 and
  {ell+1, ..., 0} for ell < 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterator, NamedTuple


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


@dataclass(frozen=True)
class SurgeryParams:
    """A canonical lens surgery parameter (p, k) and its derived invariants.

    Invariants enforced on construction: gcd(p, k) = 1, and k is the
    minimal representative of its class orbit {±k, ±k^-1 mod p} within
    (0, p/2], that is 2k <= p and k <= k2 (see :func:`_canonical_walk`).
    Validation derives the invariants once and keeps them as ``inv``;
    ``repr``, ``==`` and ``hash`` ignore it.
    """

    p: int
    k: int
    inv: DerivedInvariants = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p, k = self.p, self.k
        if p < 2:
            raise InvalidParameterError(f"p must be >= 2, got {p}")
        if k < 1:
            raise InvalidParameterError(f"k must be positive, got {k}")
        if gcd(p, k) != 1:
            raise InvalidParameterError(f"gcd({p}, {k}) != 1: not a surgery parameter")
        if 2 * k > p:
            raise InvalidParameterError(f"k = {k} is not in (0, {p}/2]")
        inv = derive_invariants(self)
        # for k in (0, p/2] the orbit minimum is min(k, k2)
        if inv.k2 < k:
            raise InvalidParameterError(
                f"k = {k} is not canonical for p = {p}; expected k = {inv.k2}"
            )
        object.__setattr__(self, "inv", inv)


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


def _canonical_walk(p: int) -> Iterator[tuple[int, DerivedInvariants]]:
    """The canonical k of one p, ascending, each with its invariants:
    gcd(p, k) = 1, 1 <= k <= p/2 and k <= k2, one per class orbit
    {±k, ±k^-1 mod p}.

    The orbit meets (0, p/2] in at most k and k2 = |[k^-1]_p|, so as k
    walks upward, a coprime k is canonical unless a smaller k marked it
    as its k2.  The sweeps' pairs and the resume's all come from here.

    >>> [(k, inv.k2) for k, inv in _canonical_walk(11)]
    [(1, 1), (2, 5), (3, 4)]
    """
    partnered = bytearray(p // 2 + 1)
    for k in range(1, p // 2 + 1):
        if not partnered[k] and gcd(k, p) == 1:
            inv = _invariants(p, k)
            assert k <= inv[0]
            partnered[inv[0]] = 1  # k2
            yield k, inv


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
    k = abs(reduce_mod(k0, p))
    return SurgeryParams(p, min(k, _invariants(p, k).k2))


def derive_invariants(params: SurgeryParams) -> DerivedInvariants:
    """Compute (k2, e, m, q, q2, c) from a coprime (p, k) with 1 <= k <= p/2.

    >>> derive_invariants(SurgeryParams(19, 7))
    DerivedInvariants(k2=8, e=-1, m=3, q=-8, q2=7, c=-33)
    """
    return _invariants(params.p, params.k)


def _invariants(p: int, k: int) -> DerivedInvariants:
    """:func:`derive_invariants` of (p, k): k2 and e from one inverse r of
    k mod p, as k2 = r, e = 1 when 2r <= p, else k2 = p - r, e = -1."""
    k2, e = pow(k, -1, p), 1
    if 2 * k2 > p:
        k2, e = p - k2, -1
    m = (k * k2 - e) // p
    assert m >= 0 and m * p == k * k2 - e
    half = (p - 1) // 2  # [i]_p = (i + half) % p - half
    q = (k * k + half) % p - half
    q2 = (k2 * k2 + half) % p - half
    # (k-1)(k+1-p) is even: k-1 and k+1 have equal parity, and when both
    # are even we are done; when both are odd, k is even, hence p is odd
    # (coprimality), so k+1-p is even.
    c = (k - 1) * (k + 1 - p) // 2
    assert 2 * c == (k - 1) * (k + 1 - p)
    # tuple.__new__ skips the Python frame of the generated __new__
    return tuple.__new__(DerivedInvariants, (k2, e, m, q, q2, c))
