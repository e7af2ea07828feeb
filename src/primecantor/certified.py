"""Exact rational arithmetic and certified enclosures for powers and roots.

Exponents are exact ``fractions.Fraction`` values, which makes floors and
ceilings of q**e decidable: q**(n/d) is compared against integers by
clearing the denominator, entirely in integer arithmetic.  ``scaled_pow`` is
the one place that clears an exponent: every floor or ceiling of a rational
power in the package is a single call to it.  When the cleared power would
be large, as for the digits of a Mills constant (a degree d in the hundreds
or thousands times the bits of the result), it first tries to settle the
floor from powers truncated to a little more than the result's size and
rounded outward, and returns only what strict integer comparisons of those
bounds prove (Ziv's strategy; Brent & Zimmermann, Modern Computer
Arithmetic, 1.5 and 3).  Exact roots and undecided cases go through the
root primitive ``introot`` on the full-size power.  Both paths take their
root from the one Newton iteration, ``_root_estimate`` (``math.isqrt`` for
square roots), and differ only in how they check it: ``introot`` with exact
powers, the bounded path with truncated powers rounded outward.  A power of
more than 2**30 bits raises ResourceBudgetError instead.  Enclosure endpoints
are dyadic rationals, so arithmetic on them never accumulates rounding error.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple

from .errors import ResourceBudgetError


def introot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, in exact integer arithmetic."""
    if n < 0:
        raise ValueError("introot requires n >= 0")
    if k < 1:
        raise ValueError("introot requires k >= 1")
    if k == 1 or n in (0, 1):
        return n
    if k == 2:
        return math.isqrt(n)
    # With 8 bits more than the root, the estimate has come within one of
    # the floor in every case tried; the exact powers below decide it.
    x = _root_estimate(n, 0, k, -(-n.bit_length() // k) + 8)
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def dyadic(mantissa: int, scale: int) -> Fraction:
    """The dyadic rational mantissa / 2**scale, for scale >= 0 (every scale
    in the package is a count of binary places)."""
    return Fraction(mantissa, 1 << scale)


class Bracket:
    """The closed interval [lo, hi] with dyadic endpoints, a certified
    enclosure of a real number or of an interval."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("Bracket endpoints out of order")
        self.lo, self.hi = lo, hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


# scaled_pow tries the bounded path for d >= 4 when d times the result's
# bits exceeds this.  Near 2**14 bits both paths take 0.03-0.4 ms (Python
# 3.11, 2-vCPU Xeon), the bounded one no longer for d >= 4; at d <= 3 the
# exact root is the cheaper one at every size.
_BOUNDED_MIN_BITS = 1 << 14
_POWER_BUDGET_BITS = 1 << 30  # 128 MiB: its integer root would take minutes


def _pow_bounds(x: int, k: int, p: int) -> Tuple[int, int, int]:
    """(lo, hi, s) with lo * 2**s <= x**k <= hi * 2**s, for x >= 0, k >= 1.

    Left-to-right binary powering that keeps the top p bits after each
    step, rounding lo down and hi up; each step at most doubles the relative
    error, so the bounds lose about log2(k) + 2 of their p bits.
    """
    s = max(x.bit_length() - p, 0)
    x_lo, x_hi = x >> s, -(-x >> s)
    lo, hi, t = x_lo, x_hi, s
    for bit in bin(k)[3:]:
        lo, hi, t = lo * lo, hi * hi, 2 * t
        if bit == "1":
            lo, hi, t = lo * x_lo, hi * x_hi, t + s
        cut = max(hi.bit_length() - p, 0)
        lo, hi, t = lo >> cut, -(-hi >> cut), t + cut
    return lo, hi, t


def _below(a: int, s: int, b: int, t: int) -> bool:
    """a * 2**s < b * 2**t, for integers a, b >= 0, by bit lengths first."""
    if not (a and b):
        return a < b
    la, lb = a.bit_length() + s, b.bit_length() + t
    return la < lb if la != lb else a << max(s - t, 0) < b << max(t - s, 0)


def _root_estimate(a: int, sa: int, d: int, p: int) -> int:
    """An estimate of floor(A ** (1/d)) for A = a * 2**sa, a >= 1 and
    d >= 2, to a relative error near 2**-p.  It is not checked here:
    introot checks it with exact powers, _bounded_floor with outward-rounded
    truncated ones.

    Newton's step x <- ((d - 1) x + A / x**(d - 1)) / d on x * 2**e, with
    x**(d - 1) truncated by _pow_bounds, from a float start of about 50
    good bits.  Each step doubles the good bits less about log2(d), so the
    working precisions run up to p through halves plus log2(d).
    """
    drop = max(a.bit_length() - 60, 0)
    j, r = divmod(drop + sa, d)
    x, e = int(2.0 ** ((r + math.log2(a >> drop)) / d + 50)), j - 50
    steps = []
    while p > 48:
        steps.append(p)
        p = min(p // 2 + d.bit_length(), p - 1)
    for q in reversed(steps):
        shift = q - x.bit_length()
        x, e = (x << shift if shift >= 0 else x >> -shift), e - shift
        m, _, s = _pow_bounds(x, d - 1, q + 8)
        # A / x**(d - 1) in units of 2**e, from the top 2q + 16 bits of a.
        c = max(a.bit_length() - 2 * q - 16, 0)
        k = sa + c - s - e * d
        x = ((d - 1) * x + (a >> c << max(k, 0)) // (m << max(-k, 0))) // d
    return x << e if e >= 0 else x >> -e


def _bounded_floor(u: int, v: int, n: int, d: int, scale: int, bits: int) -> Optional[int]:
    """f with f < scale * (u/v)**(n/d) < f + 1, proven by comparing outward
    rounded powers of p = bits + 2 log2(d) + 40 bits, or None when they do
    not decide it (an exact root, a result within about 2**-30 of an
    integer, or a wrong estimate)."""
    p = bits + 2 * d.bit_length() + 40
    sc, up, vp = _pow_bounds(scale, d, p), _pow_bounds(u, n, p), _pow_bounds(v, n, p)
    top, s = sc[0] * up[0], sc[2] + up[2]
    f = _root_estimate((top << p) // vp[1], s - vp[2] - p, d, p)
    fp, gp = _pow_bounds(f, d, p), _pow_bounds(f + 1, d, p)
    # f**d * v**n < scale**d * u**n < (f + 1)**d * v**n
    if (_below(fp[1] * vp[1], fp[2] + vp[2], top, s)
            and _below(sc[1] * up[1], s, gp[0] * vp[0], gp[2] + vp[2])):
        return f
    return None


def scaled_pow(q: Fraction, e: Fraction, scale: int = 1) -> Tuple[int, int]:
    """floor and ceiling of scale * q**e, for rational q > 0, rational e >= 0
    and integer scale >= 1 (q and e given as int or Fraction).

    With q = u/v and e = n/d, scale * q**e = (t / w) ** (1/d) for
    t = scale**d * u**n and w = v**n, and m**d <= t/w <=> m**d <= t // w for
    integer m: one ``introot`` gives the floor f, exact iff f**d * w == t.
    When 4 <= d < 2**32 (past that, a float start cannot seed Newton) and t
    would have more than _BOUNDED_MIN_BITS bits, _bounded_floor first tries
    to prove f < scale * q**e < f + 1 from truncated powers; every case it
    leaves open takes the exact path, unless t or w would pass the budget.
    """
    u, v, n, d = q.numerator, q.denominator, e.numerator, e.denominator
    if u <= 0 or n < 0 or scale < 1:
        raise ValueError("scaled_pow requires q > 0, e >= 0 and scale >= 1")
    bits = scale.bit_length() + n * (u.bit_length() - v.bit_length()) // d
    if 4 <= d < 1 << 32 and _BOUNDED_MIN_BITS // d < bits <= _POWER_BUDGET_BITS:
        f = _bounded_floor(u, v, n, d, scale, bits)
        if f is not None:
            return f, f + 1
    if d * scale.bit_length() + n * max(u, v).bit_length() > _POWER_BUDGET_BITS:
        raise ResourceBudgetError(f"the exponent {e} needs a power over 2**30 bits")
    t, w = scale ** d * u ** n, v ** n
    f = introot(t // w, d)
    return f, (f if f ** d * w == t else f + 1)


def pow_floor(q: Fraction, c: Fraction) -> int:
    """floor(q ** c) exactly, for rational q > 0 and rational c >= 1."""
    q, c = Fraction(q), Fraction(c)
    if q <= 0 or c < 1:
        raise ValueError("pow_floor requires q > 0 and c >= 1")
    return scaled_pow(q, c)[0]


def pow_ceil(a: int, c: Fraction) -> int:
    """ceil(a ** c) exactly, for integer a >= 1 and rational c >= 1."""
    c = Fraction(c)
    if a < 1 or c < 1:
        raise ValueError("pow_ceil requires a >= 1 and c >= 1")
    return scaled_pow(a, c)[1]


def root_enclosure(a: int, big_c: Fraction, max_width: Fraction) -> Bracket:
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
