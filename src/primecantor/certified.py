"""Exact rational arithmetic and certified enclosures for powers and roots.

Exponents are exact ``fractions.Fraction`` values, which makes floors and
ceilings of q**e decidable: q**(n/d) is compared against integers by
clearing the denominator, entirely in integer arithmetic.  ``scaled_pow`` is
the one place that clears an exponent: every floor or ceiling of a rational
power in the package is a single call to it, and through it a single call
to the root primitive ``introot``.  Enclosure endpoints are dyadic rationals
(integer mantissa over a power of two), so arithmetic on them never
accumulates rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

Rational = Fraction


def introot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, in exact integer arithmetic."""
    if n < 0:
        raise ValueError("introot requires n >= 0")
    if k == 1 or n in (0, 1):
        return n
    if k == 2:
        return math.isqrt(n)
    # Precision doubling, as math.isqrt does for k = 2 (Brent & Zimmermann,
    # Modern Computer Arithmetic, 1.5): shrink the root's bit count until it
    # fits a float, then widen it back by one shift h per level.  A loop over
    # the shifts rather than self-calls, so one call is one root.  Each h
    # leaves the coarser root b >= h + g bits, which one Newton step needs.
    g = (k - 1).bit_length()
    shifts = []
    bits = -(-n.bit_length() // k)
    while bits > 32:
        shifts.append(max((bits - g) // 2, 1))
        bits -= shifts[-1]
    total = sum(shifts)
    m = n >> (k * total)
    # The root of m has at most 32 bits: the float estimate is off by at
    # most one.
    x = int(2.0 ** (math.log2(m) / k))
    while (x + 1) ** k <= m:
        x += 1
    while x ** k > m:
        x -= 1
    for h in reversed(shifts):
        total -= h
        m = n >> (k * total)
        # x is the floor root of m >> (k*h), so (x + 1) << h exceeds the root
        # rho of m by at most 2**h.  One Newton step from there stays at or
        # above floor(rho) and leaves an error of at most
        # (k - 1) * 2**(h - b) < 1, so the check subtracts at most one.
        x = (x + 1) << h
        x = ((k - 1) * x + m // x ** (k - 1)) // k
        while x ** k > m:
            x -= 1
    return x


def dyadic(mantissa: int, scale: int) -> Fraction:
    """The dyadic rational mantissa / 2**scale, for scale >= 0 (every scale
    in the package is a count of binary places)."""
    return Fraction(mantissa, 1 << scale)


@dataclass(frozen=True)
class Bracket:
    """The closed interval [lo, hi] with dyadic endpoints, a certified
    enclosure of a real number or of an interval."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("Bracket endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def scaled_pow(q: Rational, e: Rational, scale: int = 1) -> Tuple[int, int]:
    """floor and ceiling of scale * q**e, for rational q > 0, rational e >= 0
    and integer scale >= 1 (q and e given as int or Fraction).

    With q = u/v and e = n/d, scale * q**e = (t / w) ** (1/d) for
    t = scale**d * u**n and w = v**n, and m**d <= t/w <=> m**d <= t // w for
    integer m: one ``introot`` gives the floor f, exact iff f**d * w == t.
    """
    u, v, n, d = q.numerator, q.denominator, e.numerator, e.denominator
    if u <= 0 or n < 0 or scale < 1:
        raise ValueError("scaled_pow requires q > 0, e >= 0 and scale >= 1")
    t, w = scale ** d * u ** n, v ** n
    f = introot(t // w, d)
    return f, (f if f ** d * w == t else f + 1)


def pow_floor(q: Rational, c: Rational) -> int:
    """floor(q ** c) exactly, for rational q > 0 and rational c >= 1."""
    q, c = Fraction(q), Fraction(c)
    if q <= 0 or c < 1:
        raise ValueError("pow_floor requires q > 0 and c >= 1")
    return scaled_pow(q, c)[0]


def pow_ceil(a: int, c: Rational) -> int:
    """ceil(a ** c) exactly, for integer a >= 1 and rational c >= 1."""
    c = Fraction(c)
    if a < 1 or c < 1:
        raise ValueError("pow_ceil requires a >= 1 and c >= 1")
    return scaled_pow(a, c)[1]


def slope_scale(x: int, e: Fraction) -> int:
    """About -log2 of e * x**(e - 1), the slope of y**e near x for e = 1/C,
    from the bit length of x; callers add their own guard bits."""
    c_f = e.denominator / e.numerator  # float(C), correctly rounded
    return int(math.log2(c_f) - (1.0 / c_f - 1.0) * (x.bit_length() - 1))


def root_enclosure(a: int, big_c: Rational, max_width: Rational) -> Bracket:
    """A Bracket containing a ** (1/C) with width <= max_width.

    Exact roots come back as degenerate closed brackets; otherwise the
    endpoints are outward-rounded dyadics at the coarsest scale meeting
    the width request.
    """
    if a < 1:
        raise ValueError("root_enclosure requires a >= 1")
    big_c, max_width = Fraction(big_c), Fraction(max_width)
    if big_c < 1:
        raise ValueError("root_enclosure requires C >= 1")
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    # The smallest s with 2**-s <= p/q, that is 2**s >= ceil(q/p).  An exact
    # root gives equal floor and ceiling.
    p, q = max_width.numerator, max_width.denominator
    s = (-(-q // p) - 1).bit_length()
    f, c = scaled_pow(a, 1 / big_c, 1 << s)
    return Bracket(dyadic(f, s), dyadic(c, s))
