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
from math import gcd

from .surgery import (
    DerivedInvariants,
    SurgeryParams,
    derive_invariants,
    interval_contains,
    reduce_mod,
)


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
        for i in range(self.g + 1):
            if self.coeffs[self.g + i] != self.coeffs[self.g - i]:
                raise ValueError(f"coefficients not symmetric at index {i}")
        if self.g > 0 and self.coeffs[-1] == 0:
            raise ValueError("top coefficient is zero but g > 0")

    def coefficient(self, i: int) -> int:
        """a_i, zero outside -g..g."""
        if abs(i) > self.g:
            return 0
        return self.coeffs[i + self.g]

    def evaluate_at_one(self) -> int:
        return sum(self.coeffs)


@dataclass(frozen=True)
class GeneratedPolynomial:
    """Raw generator outcome: the symmetrized polynomial plus its t=1 value,
    with the invariants the generator derived on the way."""

    params: SurgeryParams
    inv: DerivedInvariants
    poly: SymmetricLaurentPolynomial
    delta_one: int


def coefficient(params: SurgeryParams, inv: DerivedInvariants, i: int) -> int:
    """a_i by direct evaluation of the counting formula.  O(k) per call.

    Only valid for |i| <= p/2; other indices are rejected (use the
    periodic extension for anything beyond).
    """
    p, k = params.p, params.k
    if 2 * abs(i) > p:
        raise ValueError(f"index {i} outside |i| <= {p}/2")
    count = 0
    shift = (k * i + inv.c) % p
    for j in range(1, k + 1):
        if interval_contains(inv.e * inv.k2, reduce_mod(inv.q2 * ((j + shift) % p), p)):
            count += 1
    return -inv.e * (inv.m - count)


def _residue_table(params: SurgeryParams, inv: DerivedInvariants) -> list[int]:
    """abar_i for i = 0..p-1, computed in O(p + k) total.

    The membership test asks whether q2*j + q2*(k*i + c) mod p lands in a
    fixed cyclic arc of k2 consecutive residues (the residue image of
    I_{e*k2}).  Build the residue set S = {q2*j : j = 1..k} once as a
    bitmap with prefix sums; then each i needs one shifted-arc query,
    O(1), with the shift advancing by q2*k per step.
    """
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


def generate(params: SurgeryParams) -> GeneratedPolynomial:
    """Run the generator and symmetrize, without the normalization gate.

    Checks symmetry a_i = a_{-i} across the whole period (a failure here
    would be an implementation bug and raises IntegrityError) and reports
    the t = 1 value verbatim.
    """
    inv = derive_invariants(params)
    p = params.p
    table = _residue_table(params, inv)
    for i in range(1, p // 2 + 1):
        if table[i] != table[p - i]:
            raise IntegrityError(p, params.k, "a_i != a_-i", index=i)
    g = 0
    for i in range(p // 2, 0, -1):
        if table[i] != 0:
            g = i
            break
    coeffs = tuple(table[i % p] for i in range(-g, g + 1))
    poly = SymmetricLaurentPolynomial(g=g, coeffs=coeffs)
    return GeneratedPolynomial(params=params, inv=inv, poly=poly, delta_one=sum(coeffs))


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
    return all(abs(c) <= 1 for c in poly.coeffs)


def is_alternating(poly: SymmetricLaurentPolynomial) -> bool:
    nonzero = [c for c in poly.coeffs if c]
    return all(x * y < 0 for x, y in zip(nonzero, nonzero[1:]))


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


def polynomial_from_json(data: dict) -> SymmetricLaurentPolynomial:
    if not isinstance(data, dict) or set(data) != {"g", "coeffs"}:
        raise ValueError("expected an object with exactly the keys 'g' and 'coeffs'")
    g, coeffs = data["g"], data["coeffs"]
    if not isinstance(g, int) or not all(isinstance(c, int) for c in coeffs):
        raise ValueError("polynomial JSON must contain integers only")
    return SymmetricLaurentPolynomial(g=g, coeffs=tuple(coeffs))
