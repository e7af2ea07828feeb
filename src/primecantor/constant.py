"""Certified enclosures and digit output for the constant behind a chain.

Every chain (a_1, ..., a_k) determines the half-open level interval
[a_k ** (1/C_k), (a_k + 1) ** (1/C_k)); all constants A in it satisfy
floor(A ** C_j) = a_j for j <= k.  Digits are emitted only when the whole
interval agrees on them, so printed output is machine-checkable rather
than speculative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from . import primality
from .certified import Bracket, Rational, dyadic, floor_scaled_root, introot
from .chains import PrimeChain, admissible_interval
from .errors import NeedMoreDepthError


def _initial_scale(chain: PrimeChain) -> int:
    """Starting dyadic scale from the mean-value width estimate."""
    k = len(chain)
    c_k = float(chain.exponents.C(k))
    a = chain.last
    # width <= (1/C_k) * a ** (1/C_k - 1)
    log2_width = -math.log2(c_k) + (1.0 / c_k - 1.0) * (a.bit_length() - 1)
    return max(8, int(-log2_width) + 8)


def bracket_for_chain(
    chain: PrimeChain, target_width: Optional[Rational] = None
) -> Bracket:
    """Outward-rounded dyadic enclosure of the chain's level interval.

    The returned bracket contains [a**(1/C), (a+1)**(1/C)); precision is
    escalated until the rounding slack per endpoint is below 1/8 of the
    enclosed width (and below target_width/4 when a target is given), so
    digit decisions downstream stay stable.
    """
    if len(chain) == 0:
        raise ValueError("bracket_for_chain requires a nonempty chain")
    k = len(chain)
    big_c = chain.exponents.C(k)
    num, den = big_c.numerator, big_c.denominator
    a = chain.last

    s = _initial_scale(chain)
    while True:
        m_lo = floor_scaled_root(a ** den, num, s)
        m_hi = floor_scaled_root((a + 1) ** den, num, s) + 1
        lo, hi = dyadic(m_lo, s), dyadic(m_hi, s)
        slack = dyadic(1, s)
        width = hi - lo
        slack_ok = 8 * slack < width
        target_ok = target_width is None or 4 * slack <= Fraction(target_width)
        if slack_ok and target_ok:
            return Bracket(lo, hi, closed_lo=True, closed_hi=False)
        s *= 2


def max_determined_digits(chain: PrimeChain, limit: int = 64) -> int:
    """Largest significant-digit count the level interval pins down."""
    n = 0
    while n < limit and _digits_or_none(chain, n + 1) is not None:
        n += 1
    return n


def digits(chain: PrimeChain, n: int) -> str:
    """First n significant decimal digits shared by the whole level interval.

    Raises NeedMoreDepthError (carrying the supported count) when a decimal
    boundary of that granularity crosses the interval.
    """
    if n < 1:
        raise ValueError("digit count must be positive")
    out = _digits_or_none(chain, n)
    if out is None:
        raise NeedMoreDepthError(n, max_determined_digits(chain, limit=n))
    return out


def _digits_or_none(chain: PrimeChain, n: int) -> Optional[str]:
    if len(chain) == 0:
        raise ValueError("digits requires a nonempty chain")
    k = len(chain)
    big_c = chain.exponents.C(k)
    num, den = big_c.numerator, big_c.denominator
    a = chain.last

    int_part = introot(a ** den, num)
    g = len(str(int_part))
    m = n - g  # digits after the decimal point
    if m < 0:
        return None

    # floor(10**m * lo) and the largest integer below 10**m * hi, exactly.
    f_lo = introot((a ** den) * 10 ** (m * num), num)
    # The largest integer strictly below t ** (1/num) is floor((t - 1) ** (1/num)).
    g_hi = introot(((a + 1) ** den) * 10 ** (m * num) - 1, num)
    if f_lo != g_hi:
        return None
    text = str(f_lo)
    if m == 0:
        return text
    return text[:-m] + "." + text[-m:]


@dataclass(frozen=True)
class LevelCheck:
    """Verification record for one chain prefix."""

    level: int
    element: int
    is_prime: bool
    probable_prime: bool
    nesting_ok: bool

    @property
    def passed(self) -> bool:
        return self.is_prime and self.nesting_ok


@dataclass(frozen=True)
class RepresentationReport:
    levels: List[LevelCheck]

    @property
    def all_passed(self) -> bool:
        return all(level.passed for level in self.levels)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "levels": [
                {
                    "level": c.level,
                    "element": str(c.element),
                    "prime": c.is_prime,
                    "probable_prime": c.probable_prime,
                    "nesting_ok": c.nesting_ok,
                    "passed": c.passed,
                }
                for c in self.levels
            ],
        }


def verify_representation(
    chain: PrimeChain,
    primality_config: primality.PrimalityConfig = primality.DEFAULT_PRIMALITY,
) -> RepresentationReport:
    """Certify floor(A ** C_j) = a_j for every prefix, exactly.

    Each step checks the admissible-interval membership of a_{j+1} under
    a_j by integer comparison (no floating point); chained together these
    imply the floor identity for every constant in the level interval.
    """
    if len(chain) == 0:
        raise ValueError("verify_representation requires a nonempty chain")
    checks: List[LevelCheck] = []
    for j, a in enumerate(chain.elements, start=1):
        if j == 1:
            nesting = True
        else:
            lo, hi = admissible_interval(
                chain.elements[j - 2], chain.exponents.c(j)
            )
            nesting = lo <= a <= hi
        checks.append(
            LevelCheck(
                level=j,
                element=a,
                is_prime=primality.is_prime(a, primality_config),
                probable_prime=primality.is_probable_only(a),
                nesting_ok=nesting,
            )
        )
    return RepresentationReport(checks)

