"""Lens surgery polynomials via the residue-counting generator.

The generator produces, for a canonical parameter (p, k), the symmetric
integer Laurent polynomial whose i-th coefficient is

    a_i = -e * (m - #{ j in I_k : [q2*(j + k*i + c)]_p in I_{e*k2} })

for |i| <= p/2, extended periodically as abar_i = a_{[i]_p}.

Two access layers exist on purpose:

* :func:`generate` runs the counting formula on any canonical parameter
  and reports the raw outcome, including the value at t = 1.  Some
  parameters (they never correspond to actual lens surgeries; the first
  is (8, 3)) yield output that is not normalized to 1 at t = 1.  Sweeps
  and lattice views work on this layer so anomalies stay observable.
* :func:`polynomial` is the strict layer: it refuses, with
  :class:`IntegrityError`, any output that is asymmetric or not
  normalized, and is what the `poly` command and the oracle tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress
from math import gcd
from typing import NamedTuple

from .surgery import SurgeryParams


class IntegrityError(Exception):
    """A generated polynomial failed a structural self-check.

    Signals either an implementation bug or a parameter outside the
    counting formula's hypotheses; never silently patched.  Carries the
    offending parameter and, for symmetry failures, the index.
    """

    def __init__(self, p: int, k: int, detail: str, index: int | None = None):
        self.p = p
        self.k = k
        self.index = index
        self.detail = detail
        where = f"(p={p}, k={k}" + (f", i={index})" if index is not None else ")")
        super().__init__(f"{where}: {detail}")


@dataclass(frozen=True)
class SymmetricLaurentPolynomial:
    """Symmetric Laurent polynomial sum a_i t^i, i = -g..g.

    coeffs[j] is a_{j-g}.  Construction enforces symmetry a_i = a_{-i}
    and a nonzero top coefficient unless g = 0.  Normalization at t = 1
    is *not* a type invariant (see module docstring); the strict
    :func:`polynomial` layer enforces it for its outputs.
    """

    g: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.g < 0:
            raise ValueError(f"genus must be non-negative, got {self.g}")
        if len(self.coeffs) != 2 * self.g + 1:
            raise ValueError(
                f"expected {2 * self.g + 1} coefficients for g={self.g}, "
                f"got {len(self.coeffs)}"
            )
        if self.coeffs != self.coeffs[::-1]:
            g, c = self.g, self.coeffs
            i = next(i for i in range(g + 1) if c[g + i] != c[g - i])
            raise ValueError(f"coefficients not symmetric at index {i}")
        if self.g > 0 and self.coeffs[-1] == 0:
            raise ValueError("top coefficient is zero but g > 0")

    def coefficient(self, i: int) -> int:
        """a_i, zero outside -g..g."""
        if abs(i) > self.g:
            return 0
        return self.coeffs[i + self.g]


class GeneratedPolynomial(NamedTuple):
    """Raw generator outcome: the symmetrized polynomial plus its t=1 value."""

    poly: SymmetricLaurentPolynomial
    delta_one: int


def _residue_values(params: SurgeryParams) -> tuple[list[int], int, int]:
    """(values, l0, step) with abar_i = values[(l0 - i*step) mod p], in O(p + k) total.

    The membership test asks whether q2*j + q2*(k*i + c) mod p lands in a
    fixed cyclic arc of k2 consecutive residues (the residue image of
    I_{e*k2}: 1..k2 when e = 1, 0 and p-k2+1..p-1 when e = -1).  Moving
    the shift onto the arc, a_i = e*(W(l_i) - m), where W(l) counts the
    residues S = {q2*j mod p : j = 1..k} in the arc l..l+k2-1 (cyclic)
    and l_i = arc_start - q2*(k*i + c) mod p: values[l] = e*(W(l) - m).

    * W over all starts: W(l+1) - W(l) = [l+k2 in S] - [l in S], so one
      loop over S writes the steps of e*(W - m) and counts W(0), and one
      ``accumulate`` sums them.
    * The starts: l_i = l0 - i*step with step = q2*k mod p.  Since
      q2 = k2^2 and k*k2 = e (mod p), step = e*k2 (mod p), a unit, never
      0: the starts l_i run through every residue once, so a_i = a_-i for
      all i says exactly that ``values`` is symmetric about l0.

    >>> _residue_values(SurgeryParams(7, 2))
    ([0, 0, -1, 0, 0, 1, 1], 2, 4)
    """
    p, inv = params.p, params.inv
    k2, e = inv.k2, inv.e
    q2 = inv.q2 % p
    steps = [0] * p  # steps[l] = values[l+1] - values[l], cyclic
    first = 0  # W(0)
    r = 0
    for _ in range(params.k):
        r = (r + q2) % p
        steps[r] -= e
        steps[r - k2] += e  # r - k2 > -p wraps as an index
        first += r < k2
    values = list(accumulate(steps[:p - 1], initial=e * (first - inv.m)))
    arc_start = 1 if e > 0 else (1 - k2) % p
    return values, (arc_start - q2 * inv.c) % p, q2 * params.k % p


def _period(params: SurgeryParams) -> tuple[list[int], int]:
    """(rot, step) with a_i = rot[-i*step mod p] for every i, once
    a_i = a_{-i} is checked across the whole period.

    The check runs on the residue order; a failure would be an
    implementation bug: IntegrityError at the first bad i.

    >>> _period(SurgeryParams(7, 2))
    ([-1, 0, 0, 1, 1, 0, 0], 4)
    """
    p = params.p
    values, l0, step = _residue_values(params)
    rot = values[l0:] + values[:l0]  # rot[x] = values[l0 + x]
    if rot[1:] != rot[:0:-1]:
        bad = next(i for i in range(1, p // 2 + 1) if rot[-i * step % p] != rot[i * step % p])
        raise IntegrityError(p, params.k, "a_i != a_-i", index=bad)
    return rot, step


def _gather(rot: list[int], step: int) -> GeneratedPolynomial:
    """The polynomial of a checked period, from a_0..a_{p/2} alone, with
    its value at t = 1."""
    p, h = len(rot), len(rot) // 2
    # a comprehension gathers faster than map(rot.__getitem__, map(mod, ...))
    half = [rot[x % p] for x in range(0, -step * (h + 1), -step)]  # a_0..a_h
    g = next(compress(range(h, 0, -1), reversed(half)), 0)  # the last nonzero a_i, i >= 1
    poly = SymmetricLaurentPolynomial(g=g, coeffs=tuple(half[g:0:-1] + half[:g + 1]))
    return GeneratedPolynomial(poly, 2 * sum(half) - half[0])  # sum(poly.coeffs)


def _top_terms(rot: list[int], step: int) -> tuple[int, int, int, int]:
    """(g, a_g, a_{g-1}, a_{g-2}) of a checked period, scanning down from
    a_{p/2} to the first nonzero term.  As in :func:`top_coefficient`,
    a_{g-n} is a_{|g-n|} when |g-n| <= g and 0 otherwise.

    >>> _top_terms(*_period(SurgeryParams(7, 2)))  # t - 1 + t^-1: a_{g-2} = a_-1
    (1, 1, -1, 1)
    >>> _top_terms(*_period(SurgeryParams(19, 7)))
    (5, 1, -1, 0)
    """
    p = len(rot)
    g = next((i for i in range(p // 2, 0, -1) if rot[-i * step % p]), 0)
    return (g, *(rot[-abs(g - n) * step % p] if abs(g - n) <= g else 0 for n in range(3)))


def generate(params: SurgeryParams) -> GeneratedPolynomial:
    """Run the generator and symmetrize, without the normalization gate:
    the checked period (:func:`_period`), gathered, with the t = 1 value
    reported verbatim."""
    return _gather(*_period(params))


def polynomial(params: SurgeryParams) -> SymmetricLaurentPolynomial:
    """Strict generator: returns the polynomial or raises IntegrityError.

    >>> polynomial(SurgeryParams(7, 2)).coeffs
    (1, -1, 1)
    """
    out = generate(params)
    if out.delta_one != 1:
        raise IntegrityError(
            params.p,
            params.k,
            f"value at t=1 is {out.delta_one}, not 1 "
            "(parameter outside the formula's hypotheses)",
        )
    return out.poly


def torus_polynomial(a: int, b: int) -> SymmetricLaurentPolynomial:
    """Closed form for the (a, b) torus knot, from the gaps of the
    semigroup <a, b>:

        t^g * Delta = 1 + sum over gaps n of (t^{n+1} - t^n),

    with g = (a-1)(b-1)/2.  The gaps lie in 1..2g-1, and n is one exactly
    when a * (n * a^{-1} mod b) > n, i.e. n is not i*a + j*b with i, j >= 0.
    """
    if a < 2 or b < 2:
        raise ValueError(f"torus parameters must be >= 2, got ({a}, {b})")
    if gcd(a, b) != 1:
        raise ValueError(f"torus parameters must be coprime, got ({a}, {b})")
    g = (a - 1) * (b - 1) // 2
    a_inv = pow(a, -1, b)
    coeffs = [1] + [0] * (2 * g)
    for n in range(1, 2 * g):
        if a * (n * a_inv % b) > n:
            coeffs[n] -= 1
            coeffs[n + 1] += 1
    return SymmetricLaurentPolynomial(g=g, coeffs=tuple(coeffs))


def top_coefficient(poly: SymmetricLaurentPolynomial, n: int) -> int:
    """The coefficient of t^{g-n}: n = 0, 1, 2 give the top three terms."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return poly.coefficient(poly.g - n)


def is_trivial(poly: SymmetricLaurentPolynomial) -> bool:
    return poly.g == 0 and poly.coeffs == (1,)


def is_flat(poly: SymmetricLaurentPolynomial) -> bool:
    half = poly.coeffs[poly.g:]  # a_0..a_g decide it: the type is symmetric
    return -1 <= min(half) and max(half) <= 1


def is_alternating(poly: SymmetricLaurentPolynomial) -> bool:
    """Consecutive nonzero coefficients have opposite signs: the nonzero
    ones at even positions share the first one's sign, the rest the other.
    a_0..a_g decide it, by symmetry, but for one pair: a_0 = 0 puts the two
    copies of the first nonzero a_i (i > 0) side by side, with one sign."""
    half = poly.coeffs[poly.g:]
    if not half[0]:
        return not any(half)
    nonzero = list(filter(None, half))
    evens, odds = nonzero[0::2], nonzero[1::2]
    if nonzero[0] > 0:
        return min(evens) > 0 and max(odds, default=-1) < 0
    return max(evens) < 0 and min(odds, default=1) > 0


def format_polynomial(poly: SymmetricLaurentPolynomial) -> str:
    """Render as text, highest power first, e.g. ``t^2 - t + 1 - t^-1 + t^-2``."""
    parts: list[str] = []
    for i in range(poly.g, -poly.g - 1, -1):
        c = poly.coefficient(i)
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            power = "t" if i == 1 else f"t^{i}"
            body = power if abs(c) == 1 else f"{abs(c)}{power}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts) if parts else "0"


def polynomial_to_json(poly: SymmetricLaurentPolynomial) -> dict:
    """JSON form: {"g": g, "coeffs": [a_-g, ..., a_g]}."""
    return {"g": poly.g, "coeffs": list(poly.coeffs)}

