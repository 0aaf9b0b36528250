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

    def __reduce__(self):
        # args holds only the message, so rebuild from the fields: a pool
        # worker's error must unpickle in the caller
        return (type(self), (self.p, self.k, self.detail, self.index))


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


def _residue_values(params: SurgeryParams) -> tuple[list[int], int]:
    """(rot, step) with abar_i = rot[-i*step mod p], in O(p + k) total.

    The membership test asks whether q2*j + q2*(k*i + c) mod p lands in a
    fixed cyclic arc of k2 consecutive residues starting at arc_start
    (the residue image of I_{e*k2}: 1..k2 when e = 1, 0 and
    p-k2+1..p-1 when e = -1).  Moving the rest onto the arc,
    a_i = e*(W(x_i) - m), where W(x) counts the residues
    S = {q2*(j + c) - arc_start mod p : j = 1..k} in the arc x..x+k2-1
    (cyclic) and x_i = -i*step mod p with step = q2*k mod p:
    rot[x] = e*(W(x) - m).

    * W over all starts: W(x+1) - W(x) = [x+k2 in S] - [x in S], so one
      loop over S writes the steps of e*(W - m) and counts W(0), and one
      ``accumulate`` sums them.
    * Since q2 = k2^2 and k*k2 = e (mod p), step = e*k2 (mod p), a unit,
      never 0: the starts x_i run through every residue once, so
      a_i = a_-i for all i says exactly that ``rot`` is symmetric about 0.

    >>> _residue_values(SurgeryParams(7, 2))
    ([-1, 0, 0, 1, 1, 0, 0], 4)
    """
    p, inv = params.p, params.inv
    k2, e = inv.k2, inv.e
    q2 = inv.q2 % p
    arc_start = 1 if e > 0 else (1 - k2) % p
    steps = [0] * p  # steps[x] = rot[x+1] - rot[x], cyclic
    first = 0  # W(0)
    r = (q2 * inv.c - arc_start) % p  # the walk runs over S
    for _ in range(params.k):
        r = (r + q2) % p
        steps[r] -= e
        steps[r - k2] += e  # r - k2 > -p wraps as an index
        first += r < k2
    rot = list(accumulate(steps[:p - 1], initial=e * (first - inv.m)))
    return rot, q2 * params.k % p


def _period(params: SurgeryParams) -> tuple[list[int], int]:
    """(rot, step) of :func:`_residue_values`, once a_i = a_{-i} is
    checked across the whole period.

    A failure would be an implementation bug: IntegrityError at the
    first bad i.

    >>> _period(SurgeryParams(7, 2))
    ([-1, 0, 0, 1, 1, 0, 0], 4)
    """
    rot, step = _residue_values(params)
    if rot[1:] != rot[:0:-1]:
        p = params.p
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


def _alternation(rot: list[int], step: int, g: int) -> tuple[bool, bool]:
    """(alternating, strictly) for a checked period of genus g: whether
    consecutive nonzero coefficients have opposite signs, and whether
    moreover none of a_{-g}..a_g is 0.  The scan reads a_g, a_{g-1}, ...,
    a_0 and stops at the first two nonzero terms in a row with one sign.
    a_0..a_g decide it, by symmetry, but for one case: a_0 = 0 puts the
    two copies of the first nonzero a_i (i > 0) side by side, with one sign.

    >>> _alternation(*_period(SurgeryParams(7, 2)), 1)  # t - 1 + t^-1
    (True, True)
    >>> _alternation(*_period(SurgeryParams(8, 3)), 4)  # a_4..a_0 = 2, -1, 0, 1, -1
    (True, False)
    >>> _alternation(*_period(SurgeryParams(11, 3)), 3)  # a_3..a_0 = 1, -1, 0, 1
    (True, False)
    >>> _alternation(*_period(SurgeryParams(19, 7)), 5)  # a_5..a_0 = 1, -1, 0, 1, -1, 1
    (True, False)
    >>> _alternation(*_period(SurgeryParams(15, 4)), 7)  # stops at a_5: 1, -1, -1
    (False, False)

    Hand-made periods, step a unit: t^2 - t - t^-1 + t^-2 (a_0 = 0), and
    the constants 0, 1 and 2.

    >>> _alternation([0, 1, -1, -1, 1], 2, 2)
    (False, False)
    >>> [_alternation([a0, 0, 0], 1, 0) for a0 in (0, 1, 2)]
    [(True, False), (True, True), (True, True)]
    """
    p, prev, strictly = len(rot), 0, True
    for x in range(-g * step, step, step):  # a_i sits at -i*step, i = g..0
        a = rot[x % p]
        if a:
            if a * prev > 0:
                return False, False
            prev = a
        else:
            strictly = False
    return bool(rot[0]) or not g, strictly


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

