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

from .surgery import DerivedInvariants, SurgeryParams, derive_invariants


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


@dataclass(frozen=True)
class GeneratedPolynomial:
    """Raw generator outcome: the symmetrized polynomial plus its t=1 value,
    with the invariants the generator derived on the way."""

    inv: DerivedInvariants
    poly: SymmetricLaurentPolynomial
    delta_one: int


def _residue_table(params: SurgeryParams, inv: DerivedInvariants) -> list[int]:
    """abar_i for i = 0..p-1, computed in O(p + k) total.

    The membership test asks whether q2*j + q2*(k*i + c) mod p lands in a
    fixed cyclic arc of k2 consecutive residues (the residue image of
    I_{e*k2}: 1..k2 when e = 1, 0 and p-k2+1..p-1 when e = -1).  Moving
    the shift onto the arc, a_i = e*(W(l_i) - m), where W(l) counts the
    residues S = {q2*j mod p : j = 1..k} in the arc l..l+k2-1 (cyclic)
    and l_i = arc_start - q2*(k*i + c) mod p.

    * W over all starts: W(l+1) - W(l) = [l+k2 in S] - [l in S], so one
      loop over S writes the steps of e*(W - m) and counts W(0), and one
      ``accumulate`` sums them.
    * The gather: l_i = l_0 - i*step with step = q2*k mod p.  Since
      q2 = k2^2 and k*k2 = e (mod p), step = e*k2 (mod p), a unit, never
      0: the starts l_i run through every residue once.

    >>> _residue_table(SurgeryParams(7, 2), derive_invariants(SurgeryParams(7, 2)))
    [-1, 1, 0, 0, 0, 0, 1]
    """
    p, k2, e = params.p, inv.k2, inv.e
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
    l0 = (arc_start - q2 * inv.c) % p
    step = q2 * params.k % p
    # a comprehension gathers faster than map(values.__getitem__, map(mod, ...))
    return [values[x % p] for x in range(l0, l0 - step * p, -step)]


def generate(params: SurgeryParams, inv: DerivedInvariants | None = None) -> GeneratedPolynomial:
    """Run the generator and symmetrize, without the normalization gate.

    Checks symmetry a_i = a_{-i} across the whole period (a failure here
    would be an implementation bug and raises IntegrityError) and reports
    the t = 1 value verbatim.  ``inv`` may be passed when the caller has
    already derived it.
    """
    if inv is None:
        inv = derive_invariants(params)
    p, h = params.p, params.p // 2
    table = _residue_table(params, inv)
    upper = table[1:h + 1]
    if upper != table[p - 1:p - h - 1:-1]:
        bad = next(i for i in range(1, h + 1) if table[i] != table[p - i])
        raise IntegrityError(p, params.k, "a_i != a_-i", index=bad)
    g = max(compress(range(1, h + 1), upper), default=0)
    coeffs = tuple(table[p - g:] + table[:g + 1])
    poly = SymmetricLaurentPolynomial(g=g, coeffs=coeffs)
    return GeneratedPolynomial(inv=inv, poly=poly, delta_one=sum(coeffs))


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


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    # Long division, ascending coefficients, exact (monic-leading divisor).
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    assert den[dd] == 1
    quot = [0] * (dn - dd + 1)
    for i in range(dn - dd, -1, -1):
        coef = num[i + dd]
        quot[i] = coef
        if coef:
            for j, dj in enumerate(den):
                num[i + j] -= coef * dj
    if any(num):
        raise ArithmeticError("division was not exact")
    return quot


def torus_polynomial(a: int, b: int) -> SymmetricLaurentPolynomial:
    """Closed form for the (a, b) torus knot:

        (t^{ab} - 1)(t - 1) / ((t^a - 1)(t^b - 1)),

    computed by exact integer polynomial division and recentered by
    t^{-g} with g = (a-1)(b-1)/2.
    """
    if a < 2 or b < 2:
        raise ValueError(f"torus parameters must be >= 2, got ({a}, {b})")
    if gcd(a, b) != 1:
        raise ValueError(f"torus parameters must be coprime, got ({a}, {b})")

    def t_power_minus_one(n: int) -> list[int]:
        out = [0] * (n + 1)
        out[0], out[n] = -1, 1
        return out

    num = _poly_mul(t_power_minus_one(a * b), t_power_minus_one(1))
    den = _poly_mul(t_power_minus_one(a), t_power_minus_one(b))
    quot = _poly_divexact(num, den)
    g = (a - 1) * (b - 1) // 2
    assert len(quot) == 2 * g + 1
    return SymmetricLaurentPolynomial(g=g, coeffs=tuple(quot))


def top_coefficient(poly: SymmetricLaurentPolynomial, n: int) -> int:
    """The coefficient of t^{g-n}: n = 0, 1, 2 give the top three terms."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return poly.coefficient(poly.g - n)


def is_trivial(poly: SymmetricLaurentPolynomial) -> bool:
    return poly.g == 0 and poly.coeffs == (1,)


def is_flat(poly: SymmetricLaurentPolynomial) -> bool:
    return -1 <= min(poly.coeffs) and max(poly.coeffs) <= 1


def is_alternating(poly: SymmetricLaurentPolynomial) -> bool:
    """Consecutive nonzero coefficients have opposite signs: the nonzero
    ones at even positions share the first one's sign, the rest the other."""
    nonzero = list(filter(None, poly.coeffs))
    if not nonzero:
        return True
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

