"""Empirical short-interval prime density measurements.

The chain construction leans on short intervals [x, x + x**gamma] and
[p**c, p**c + p**(c-1)] holding their expected share of primes.  The
theory guarantees this only for sufficiently large x with unspecified
constants, so this module measures: it reports counts and density ratios
and leaves thresholds to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import primality
from .certified import Rational, scaled_pow
from .chains import counting_subinterval
from .errors import EmptyCensusError


@dataclass(frozen=True)
class SurveyRecord:
    """One short-interval observation."""

    anchor: int
    lo: int
    hi: int
    count: int
    density_ratio: float

    def csv_row(self) -> str:
        return (
            f"{self.anchor},{self.lo},{self.hi},{self.count},"
            f"{self.density_ratio:.6f}"
        )


CSV_HEADER = "anchor,lo,hi,count,density_ratio"


def _gamma_record(x: int, gamma: Fraction) -> SurveyRecord:
    length = scaled_pow(x, gamma)[0]
    lo, hi = x, x + length
    count = primality.count_primes_in_range(lo, hi)
    ratio = count * math.log(x) / math.exp(float(gamma) * math.log(x))
    return SurveyRecord(x, lo, hi, count, ratio)


def gamma_survey(x_values: Sequence[int], gamma: Rational) -> List[SurveyRecord]:
    """Count primes in [x, x + floor(x**gamma)] for each anchor x.

    density_ratio = count * ln x / x**gamma, the empirical counterpart of
    the density constant the short-interval lemmas postulate (close to 1
    under the usual prime-counting heuristics).
    """
    gamma = Fraction(gamma)
    if not Fraction(1, 2) <= gamma <= 1:
        raise ValueError("gamma must lie in [1/2, 1]")
    for x in x_values:
        if x < 2:
            raise ValueError("anchors must be >= 2")
    return [_gamma_record(x, gamma) for x in x_values]


def _anchor_upper_bound(X: int, c: Fraction) -> int:
    """floor(X * (3/2) ** (1/c))."""
    return scaled_pow(Fraction(3, 2), 1 / c, X)[0]


def matomaki_fraction(
    X: int, c: Rational, d_threshold: float
) -> Tuple[int, int, float]:
    """Fraction of anchor primes whose counting window is prime-rich.

    Enumerates primes p in [X, (3/2)**(1/c) * X] and tests whether
    [p**c, p**c + p**(c-1)] holds more than
    d_threshold * p**(c-1) / (c * ln p) primes.  Returns (total, good,
    fraction); an empty anchor census is an error since the fraction
    would be undefined.
    """
    c = Fraction(c)
    if X < 2:
        raise ValueError("X must be >= 2")
    if c < 2:
        raise ValueError("c must be >= 2")
    if not 0 <= d_threshold < 1:
        raise ValueError("d_threshold must lie in [0, 1)")
    anchors = primality.primes_in_range(X, _anchor_upper_bound(X, c))
    if not anchors:
        raise EmptyCensusError(
            f"no primes in [{X}, (3/2)**(1/{c}) * {X}]"
        )
    total = len(anchors)
    good = sum(_window_is_good(p, c, d_threshold) for p in anchors)
    return total, good, good / total


def _window_is_good(p: int, c: Fraction, d_threshold: float) -> bool:
    lo, hi = counting_subinterval(p, c)
    count = primality.count_primes_in_range(lo, hi)
    c_f = float(c)
    expected = math.exp((c_f - 1.0) * math.log(p)) / (c_f * math.log(p))
    return count > d_threshold * expected

