"""Certified digits of the constant behind a chain, and its verification.

Every chain (a_1, ..., a_k) determines the half-open level interval
[a_k ** (1/C_k), (a_k + 1) ** (1/C_k)); all constants A in it satisfy
floor(A ** C_j) = a_j for j <= k.  Digits are emitted only when the whole
interval agrees on them, so printed output is machine-checkable rather
than speculative.
"""

from __future__ import annotations

from os.path import commonprefix
from typing import List, NamedTuple, Optional, Tuple

from . import primality
from .certified import scaled_pow
from .chains import PrimeChain, admissible_interval
from .errors import NeedMoreDepthError


def max_determined_digits(chain: PrimeChain, limit: int = 64) -> int:
    """Largest significant-digit count (<= limit) the level interval pins down."""
    return certified_prefix(chain, limit)[0]


def digits(chain: PrimeChain, n: int) -> str:
    """First n significant decimal digits shared by the whole level interval.

    Raises NeedMoreDepthError (carrying the supported count) when a decimal
    boundary of that granularity crosses the interval.
    """
    supported, text = certified_prefix(chain, n)
    if supported < n:
        raise NeedMoreDepthError(n, supported)
    return text


def check_digit_count(limit: int, chain: Optional[PrimeChain] = None) -> None:
    """Raise ValueError unless limit, a requested digit count, is positive
    and, given a chain, at least the g integer digits of the constant when
    both ends of the chain's level interval have g of them: the constant
    of every longer chain lies in that interval too."""
    if limit < 1:
        raise ValueError("digit count must be positive")
    if chain is not None:
        big_c, a = chain.exponents.C(len(chain)), chain.last
        g = len(str(scaled_pow(a, 1 / big_c)[0]))
        if limit < g and g == len(str(scaled_pow(a + 1, 1 / big_c)[1] - 1)):
            raise _too_few_digits(g)


def _too_few_digits(g: int) -> ValueError:
    return ValueError(f"the constant has {g} integer digits; request at least {g} digits")


def certified_prefix(chain: PrimeChain, limit: int) -> Tuple[int, str]:
    """Count and text of the longest significant-digit prefix (<= limit
    digits) shared by the whole level interval [lo, hi) = [a**e, (a+1)**e),
    e = 1/C; (0, "") unless the g integer digits are pinned down, and a
    ValueError for limit < g.

    F = floor(10**m * lo) and G = the largest integer below 10**m * hi are
    read once; floor(floor(y) / 10**j) = floor(y / 10**j), and likewise for
    G, so their common leading digits are the certified ones.  y**e is
    concave, so hi - lo >= (a + 1)**(e - 1) / C, and D certified decimals
    need hi - lo <= 10**-D: D <= log10(numerator of C) + log10(a + 1) < M =
    (bits(a + 1) + bits(numerator of C)) // 3 + 1.  So m = min(limit, M)
    decimals lose no certified digit, however large limit is.
    """
    check_digit_count(limit)
    big_c, a = chain.exponents.C(len(chain)), chain.last
    m = min(limit, ((a + 1).bit_length() + big_c.numerator.bit_length()) // 3 + 1)
    lo = str(scaled_pow(a, 1 / big_c, 10 ** m)[0])
    hi = str(scaled_pow(a + 1, 1 / big_c, 10 ** m)[1] - 1)
    g = len(lo) - m
    if limit < g:
        raise _too_few_digits(g)
    n = min(len(commonprefix([lo, hi])), limit) if len(lo) == len(hi) else 0
    if n < g:
        return 0, ""
    return n, (lo[:g] + "." + lo[g:n] if n > g else lo[:g])


class LevelCheck(NamedTuple):
    """Verification record for one chain prefix."""

    level: int
    element: int
    is_prime: bool
    probable_prime: bool
    nesting_ok: bool

    @property
    def passed(self) -> bool:
        return self.is_prime and self.nesting_ok


class RepresentationReport(NamedTuple):
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


def verify_representation(chain: PrimeChain) -> RepresentationReport:
    """Certify floor(A ** C_j) = a_j for every prefix, exactly.

    Each step checks the admissible-interval membership of a_{j+1} under
    a_j by integer comparison (no floating point); chained together these
    imply the floor identity for every constant in the level interval.
    Every element also goes through is_prime.  Above DETERMINISTIC_LIMIT
    that reruns the strong base-2 test and then reads the rest of the
    Baillie-PSW verdict from is_prime's cache when the chain's search has
    just proved the element: the verdict is a pure function of the element,
    so the remembered one is the one a fresh test would give.
    """
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
                is_prime=primality.is_prime(a),
                probable_prime=primality.is_probable_only(a),
                nesting_ok=nesting,
            )
        )
    return RepresentationReport(checks)

