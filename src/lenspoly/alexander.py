"""Lens surgery polynomials via the residue-counting generator.

The generator produces, for a canonical parameter (p, k), the symmetric
integer Laurent polynomial whose i-th coefficient is

    a_i = -e * (m - #{ j in I_k : [q2*(j + k*i + c)]_p in I_{e*k2} })

for |i| <= p/2, extended periodically as abar_i = a_{[i]_p}.

Two access layers exist on purpose:

* :func:`generate` runs the counting formula on any canonical parameter
  and reports the raw outcome, including the value at t = 1,
  Delta(1) = 1 + [2g = p]*a_g: the window counts sum to k*k2 = p*m + e,
  so the a_i over one period Z/p sum to e*(k*k2 - p*m) = 1, and a_-g..a_g
  cover Z/p once, but for 2g = p, which counts the residue p/2 twice
  (none is a lens surgery; the first is (8, 3)).  Sweeps and lattice
  views work on this layer so anomalies stay observable.
* :func:`polynomial` is the strict layer: it refuses, with
  :class:`IntegrityError`, any output that is asymmetric or not
  normalized, and is what the `poly` command and the oracle tests use.

Under both, the kernel :func:`_period` takes a pair as plain ints, p, k
and its invariants, and hands back its checked window counts with g and
the top terms a_g, a_{g-1}, a_{g-2}: the one place they are read off the
counts.

Symmetry.  The counts w of :func:`_residue_values` give a_i at
x_i = -i*step mod p, and step = e*k2 (mod p), as q2 = k2^2 and
k*k2 = e: a unit, never 0.  So the x_i run through every residue once,
a_i = a_{-i} for all i says exactly that w is symmetric about 0, and
a_i's count is also w[i*s mod p] for s = min(step, p - step).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from math import gcd
from typing import Iterator, NamedTuple

from .surgery import DerivedInvariants, SurgeryParams


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
        # args holds only the message, so rebuild from the fields: a worker
        # process's error must unpickle in the caller
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
    """Raw generator outcome: the symmetrized polynomial and its t=1 value (module docstring)."""

    poly: SymmetricLaurentPolynomial
    delta_one: int


_ARRAY_CODES = {array(code).itemsize: code for code in "QLIHB"}  # slot bytes -> typecode
_FLAT_COUNTS = [bytes(range(max(m - 1, 0), m + 2)) for m in range(128)]  # m -> m - 1, m, m + 1
_SIGNS = [bytes(m + 1) + b"\1" * (255 - m) for m in range(128)]  # m -> count c to [c > m]
_TOP = 16  # the alternation scan's top window


def _step_marks(n: int) -> int:
    """How many residue marks, set one at a time, one doubling step of
    :func:`_residue_values` may cost on a period of n bytes: 8 + n/32, at
    or above every cost measured (2-vCPU x86-64, CPython 3.11): a step
    cost 7 marks at 640 B, 36 at 6 KB, 440 at 60 KB, 1,500-3,500 at
    128-260 KB, 6,000-11,500 at 330-600 KB, 20,000 at 1 MB, 92,000 at
    4 MB and 390,000-430,000 at 16 MB, each step's temporaries past glibc's
    128 KiB mmap threshold costing page faults."""
    return 8 + (n >> 5)


def _residue_values(p: int, k: int, inv: DerivedInvariants) -> tuple[bytes | array, int, int, int]:
    """(w, step, e, m) of (p, k) with invariants inv: abar_i = e*(w[-i*step
    mod p] - m), in h <= k Python steps and O(p log(k/h)) big-int work.

    The membership test asks whether q2*j + q2*(k*i + c) mod p lands in a
    fixed cyclic arc of k2 consecutive residues ending at arc_end (the
    residue image of I_{e*k2}: 1..k2 when e = 1, p-k2+1..p-1 and 0 when
    e = -1).  Moving the rest onto the arc, a_i = e*(W(x_i) - m), where
    W(x) counts the residues S = {q2*(j + c) - arc_end mod p : j = 1..k}
    in the arc x-k2+1..x (cyclic) and x_i = -i*step mod p with
    step = q2*k mod p: w[x] = W(x).

    * Every W at once, in C: with slots of b bits and I = the sum of
      2^(b*x) over the x in S, ((I << b*k2) - I) // (2^b - 1) holds in
      slot y the count of S in y-k2+1..y, within 0..p-1; a window that
      wraps round has the rest of its count in slot y + p, which is
      added back.  A window of k2 <= p/2 residues holds at most k < 2^b
      of S, so no slot carries.  Slots have 1, 2, 4 or 8 bytes, from
      k.bit_length(); w is ``bytes`` for 1-byte slots and an ``array``
      otherwise.
    * I from a prefix of S: S is the progression first + q2*j, j < k, so
      the marks of j < h turned round the period by t*q2 slots are those
      of j = t..t+h-1.  The first h are marked one Python step each, then
      each doubling step ORs in the marks turned by t = min(h, k - h)
      terms, until h = k.  h is k, halved (rounding up) while that stays
      at or above :func:`_step_marks` of the period's bytes, so every
      step adds more marks than it costs.  The CLI's largest pair,
      (4000037, 685377), has k/2 < _step_marks(16 MB) and never doubles:
      a step there would add temporaries of tens of MB.

    >>> _residue_values(7, 2, SurgeryParams(7, 2).inv)  # a_0 = -(2 - 1), a_1 = -(w[3] - 1)
    (b'\\x02\\x01\\x01\\x00\\x00\\x01\\x01', 4, -1, 1)
    """
    k2, e, m, _, q2, c = inv
    q2 %= p
    first = (q2 * (c + 1) - (k2 if e > 0 else 0)) % p  # j = 1
    size = 1 << ((k.bit_length() - 1) >> 3).bit_length()  # bytes per slot
    b, n = 8 * size, p * size
    bits = b * p
    h, least = k, _step_marks(n)
    while h + 1 >> 1 >= least:
        h = h + 1 >> 1
    slots = bytearray(n)
    for r in range(first * size, (first + q2 * h) * size, q2 * size):
        slots[r % n] = 1  # slot x holds [x in S], for the first h of S
    box = int.from_bytes(slots, "little")
    del slots  # at the CLI's largest p, each intermediate is tens of MB
    if h < k:
        period = (1 << bits) - 1
        while h < k:  # the marks j < h, moved on by t terms of S, add j = h..h+t-1
            t = h if 2 * h <= k else k - h
            x = box << b * (t * q2 % p)
            box |= (x & period) | (x >> bits)
            h += t
    box = (box << b * k2) - box
    box //= (1 << b) - 1
    top = box >> bits  # the counts past the period, of the windows that wrap round
    box -= top << bits
    box += top
    w = box.to_bytes(n, "little")
    if size > 1:
        w = array(_ARRAY_CODES[size], w)
        if sys.byteorder == "big":
            w.byteswap()
    return w, q2 * k % p, e, m


def _period(p: int, k: int, inv: DerivedInvariants) -> tuple:
    """(w, step, e, m) of :func:`_residue_values`, once a_i = a_{-i} is
    checked across the whole period (module docstring), then its
    :func:`_top_terms` (g, a_g, a_{g-1}, a_{g-2}).

    A failure would be an implementation bug: IntegrityError at the
    first bad i.

    >>> _period(7, 2, SurgeryParams(7, 2).inv)  # t - 1 + t^-1
    (b'\\x02\\x01\\x01\\x00\\x00\\x01\\x01', 4, -1, 1, 1, 1, -1, 1)
    """
    w, step, e, m = _residue_values(p, k, inv)
    if w[1:(p + 1) // 2] != w[:p // 2:-1]:  # w[x] against w[p - x]
        bad = next(i for i in range(1, p // 2 + 1) if w[-i * step % p] != w[i * step % p])
        raise IntegrityError(p, k, "a_i != a_-i", index=bad)
    return (w, step, e, m) + _top_terms(w, step, e, m)


def _gather(w: bytes | array, step: int, e: int, m: int, g: int) -> GeneratedPolynomial:
    """The polynomial of a checked period of genus g, from a_0..a_g
    alone, with its value at t = 1."""
    p = len(w)
    # a comprehension gathers faster than map(w.__getitem__, map(mod, ...))
    half = [e * (w[x % p] - m) for x in range(0, -step * (g + 1), -step)]  # a_0..a_g
    delta_one = 2 * sum(half) - half[0]  # sum(coeffs)
    # one list grown in place, then only the tuple: at the CLI's largest p
    # each is tens of MB, and the symmetry check copies the tuple once more
    coeffs = half[:0:-1]
    coeffs += half
    del half
    coeffs = tuple(coeffs)
    return GeneratedPolynomial(SymmetricLaurentPolynomial(g=g, coeffs=coeffs), delta_one)


def _top_terms(w: bytes | array, step: int, e: int, m: int) -> tuple[int, int, int, int]:
    """(g, a_g, a_{g-1}, a_{g-2}) of a checked period, scanning down from
    a_{p/2} to the first nonzero term, where the count is not m.  As in
    :func:`top_coefficient`, a_{g-n} is a_{|g-n|} when |g-n| <= g and 0
    otherwise.  A period with m = 0 (k = 1) whose counts are all 0 but
    w[0] is the constant a_0, found by one ``count`` and no scan.

    >>> _top_terms(*_period(7, 2, SurgeryParams(7, 2).inv)[:4])  # a_{g-2} = a_-1
    (1, 1, -1, 1)
    >>> _top_terms(*_period(19, 7, SurgeryParams(19, 7).inv)[:4])
    (5, 1, -1, 0)
    >>> _top_terms(*_period(13, 1, SurgeryParams(13, 1).inv)[:4])  # the constant 1
    (0, 1, 0, 0)
    """
    p = len(w)
    if not m and w.count(0) == p - 1 and (a0 := w[0]):  # every a_i = 0 but a_0
        return 0, e * a0, 0, 0
    g = p // 2
    while g and w[-g * step % p] == m:
        g -= 1
    top = e * (w[-g * step % p] - m)
    if g < 2:  # g = 1: a_{g-1} = a_0 and a_{g-2} = a_1 = a_g; g = 0: both 0
        return (1, top, e * (w[0] - m), top) if g else (0, top, 0, 0)
    return g, top, e * (w[(1 - g) * step % p] - m), e * (w[(2 - g) * step % p] - m)


def _is_flat(w: bytes | array, m: int) -> bool:
    """Whether every a_i of a period is -1, 0 or 1: every count is m - 1,
    m or m + 1.  In 1-byte slots ``translate`` deletes those counts and
    must leave nothing; wider slots are read by ``min`` and ``max``."""
    if isinstance(w, bytes):  # m <= k/2 < 128, as k2 <= p/2
        return not w.translate(None, _FLAT_COUNTS[m])
    return m - 1 <= min(w) and max(w) <= m + 1


def _alternation(w: bytes | array, step: int, e: int, m: int, g: int) -> tuple[bool, bool]:
    """(alternating, strictly) for a checked period of genus g: whether
    consecutive nonzero coefficients have opposite signs, and whether
    moreover none of a_{-g}..a_g is 0.  The scan reads a_g, a_{g-1}, ...,
    a_0 and stops at the first two nonzero terms in a row with one sign.
    a_0..a_g decide it, by symmetry, but for one case: a_0 = 0 puts the
    two copies of the first nonzero a_i (i > 0) side by side, with one sign.

    a_i's count is w[i*s mod p] (module docstring), so a stride of s
    through g*s bytes of copies of w reads a_0..a_g.  For a 1-byte period
    with g > _TOP the scan stops after the top _TOP terms, and
    ``translate`` deletes the zero terms of a_0..a_g and marks the others
    by sign: two marks in a row alike are two nonzero terms in a row with
    one sign.

    >>> _alternation(*_period(7, 2, SurgeryParams(7, 2).inv)[:5])  # t - 1 + t^-1
    (True, True)
    >>> _alternation(*_period(8, 3, SurgeryParams(8, 3).inv)[:5])  # a_4..a_0 = 2, -1, 0, 1, -1
    (True, False)
    >>> _alternation(*_period(11, 3, SurgeryParams(11, 3).inv)[:5])  # a_3..a_0 = 1, -1, 0, 1
    (True, False)
    >>> _alternation(*_period(19, 7, SurgeryParams(19, 7).inv)[:5])  # a_5..a_0 = 1, -1, 0, 1, -1, 1
    (True, False)
    >>> _alternation(*_period(15, 4, SurgeryParams(15, 4).inv)[:5])  # stops at a_5: 1, -1, -1
    (False, False)

    Hand-made periods, step a unit: t^2 - t - t^-1 + t^-2 (a_0 = 0) as
    counts with e = 1 and m = 1, and the constants 0, 1 and 2 as counts
    with e = -1 and m = 2.

    >>> _alternation(bytes([1, 2, 0, 0, 2]), 2, 1, 1, 2)
    (False, False)
    >>> [_alternation(bytes([2 - a0, 2, 2]), 1, -1, 2, 0) for a0 in (0, 1, 2)]
    [(True, False), (True, True), (True, True)]
    """
    p, prev, strictly = len(w), 0, True
    s = step if 2 * step <= p else p - step
    copy = g > _TOP and isinstance(w, bytes)
    for x in range(-g * step, (_TOP - g) * step if copy else step, step):  # a_i at -i*step
        a = e * (w[x % p] - m)
        if a:
            if a * prev > 0:
                return False, False
            prev = a
        else:
            strictly = False
    if copy:  # the top terms passed: read a_0..a_g, deleting the count m
        signs = (w * (g * s // p + 1))[:g * s + 1:s].translate(_SIGNS[m], bytes((m,)))
        if b"\0\0" in signs or b"\1\1" in signs:
            return False, False
        strictly = len(signs) == g + 1
    return w[0] != m or not g, strictly


def generate(params: SurgeryParams) -> GeneratedPolynomial:
    """Run the generator and symmetrize, without the normalization gate:
    the checked period (:func:`_period`), gathered, with the t = 1 value
    reported verbatim."""
    return _gather(*_period(params.p, params.k, params.inv)[:5])


def polynomial(params: SurgeryParams) -> SymmetricLaurentPolynomial:
    """Strict generator: the polynomial, or IntegrityError if Delta(1) != 1 (2g = p).

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


def _format_terms(poly: SymmetricLaurentPolynomial) -> Iterator[str]:
    """The terms of :func:`format_polynomial`, highest power first, each
    with its sign: ``-`` glued to a negative first term, ``- `` or ``+ ``
    before every later one; the zero polynomial yields ``0`` alone."""
    first = True
    for i, c in zip(range(poly.g, -poly.g - 1, -1), reversed(poly.coeffs)):
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            power = "t" if i == 1 else f"t^{i}"
            body = power if abs(c) == 1 else f"{abs(c)}{power}"
        if first:
            yield f"-{body}" if c < 0 else body
            first = False
        else:
            yield f"- {body}" if c < 0 else f"+ {body}"
    if first:
        yield "0"


def format_polynomial(poly: SymmetricLaurentPolynomial) -> str:
    """Render as text, highest power first, e.g. ``t^2 - t + 1 - t^-1 + t^-2``."""
    return " ".join(_format_terms(poly))


def polynomial_to_json(poly: SymmetricLaurentPolynomial) -> dict:
    """JSON form: {"g": g, "coeffs": [a_-g, ..., a_g]}."""
    return {"g": poly.g, "coeffs": list(poly.coeffs)}

