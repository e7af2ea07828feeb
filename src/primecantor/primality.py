"""Exact primality decisions and prime enumeration over big-integer intervals.

Primality is deterministic below ``DETERMINISTIC_LIMIT`` (a known exact
Miller-Rabin witness set) and strong-probable beyond it: a Baillie-PSW style
combination of a strong base-2 test and a strong Lucas test, plus
``EXTRA_ROUNDS`` Miller-Rabin rounds whose bases are derived from the fixed
recorded seed ``RNG_SEED``.  Listing and counting read their width budget
from ``PRIMECANTOR_WIDTH_LIMIT`` at each call (default
``DEFAULT_SIEVE.width_limit``); besides that, the only shared state is a
lazily built read-only table of small base primes.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from itertools import compress
from typing import Iterator, List

from .errors import NoPrimeInIntervalError, RangeTooLargeError

# Smallest composite that fools the first 13 prime bases is
# 3317044064679887385961981; below it the witness set is exact.
DETERMINISTIC_LIMIT = 3317044064679887385961981
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Above the threshold, EXTRA_ROUNDS random-base Miller-Rabin rounds follow
# Baillie-PSW; the bases depend only on RNG_SEED and the tested integer, so
# verdicts are stable across calls and threads.
EXTRA_ROUNDS = 2
RNG_SEED = 20240229


@dataclass(frozen=True)
class SieveConfig:
    """Work and memory budget for interval enumeration (DEFAULT_SIEVE only)."""

    base_prime_limit: int = 1_000_000
    width_limit: int = 200_000_000


DEFAULT_SIEVE = SieveConfig()

# Integers per sieved segment, for enumeration and first-hit search alike.
SEGMENT_SIZE = 1 << 18
# Base-prime cap of the first-hit search, below enumeration's
# base_prime_limit of 10**6: a search that stops at its first prime tests
# only the few survivors in front of it, while enumeration confirms every
# survivor, so only there do more base primes pay for themselves.
_FIRST_HIT_BASE_LIMIT = 1 << 14

_BASE_PRIME_CACHE: dict[int, List[int]] = {}


def small_primes(limit: int) -> List[int]:
    """All primes <= limit; cached per limit.

    One _sieve_segment over [2, limit], struck with the cached table of
    the next power of two above sqrt(limit), so the recursive builds reuse
    the tables _sieved shares between windows (for limit <= 4, where that
    power is not below limit, the table of sqrt(limit) itself).
    """
    cached = _BASE_PRIME_CACHE.get(limit)
    if cached is not None:
        return cached
    if limit < 2:
        primes: List[int] = []
    else:
        root = math.isqrt(limit)
        base_limit = 1 << root.bit_length()
        base_primes = small_primes(base_limit if base_limit < limit else root)
        primes = list(_sieve_segment(2, limit, base_primes, False))
    _BASE_PRIME_CACHE[limit] = primes
    return primes


def _miller_rabin_witness(n: int, a: int, d: int, s: int) -> bool:
    """True if a witnesses compositeness of n, with n-1 = d * 2**s, d odd."""
    a %= n
    if a == 0:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameter choice."""
    # Find D = 5, -7, 9, -11, ... with Jacobi(D, n) = -1.
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == 0:
            return False
        if j == -1:
            break
        d = -d - 2 if d > 0 else -d + 2
    p, q = 1, (1 - d) // 4

    # n + 1 = k * 2**s with k odd.
    k = n + 1
    s = 0
    while k % 2 == 0:
        k //= 2
        s += 1

    u, v, qk = _lucas_uv(k, p, q, d, n)
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


def _lucas_uv(k: int, p: int, q: int, d: int, n: int):
    """(U_k, V_k, Q^k) mod n by binary ladder."""
    u, v = 1, p
    qk = q % n
    for bit in bin(k)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p * u + v) % n, (d * u + p * v) % n
            if u & 1:
                u += n
            if v & 1:
                v += n
            u, v = (u >> 1) % n, (v >> 1) % n
            qk = qk * q % n
    return u, v, qk


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    if n == 1:
        return result
    return 0


def is_prime(n: int) -> bool:
    """Exact below DETERMINISTIC_LIMIT, strong probable-prime above it."""
    if n < 2:
        return False
    for p in _DETERMINISTIC_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 43 * 43:
        return True

    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    if n < DETERMINISTIC_LIMIT:
        return not any(
            _miller_rabin_witness(n, a, d, s) for a in _DETERMINISTIC_BASES
        )

    # Baillie-PSW: strong base-2 plus strong Lucas, after a square check.
    if _miller_rabin_witness(n, 2, d, s):
        return False
    r = math.isqrt(n)
    if r * r == n:
        return False
    if not _strong_lucas_prp(n):
        return False
    rng = random.Random(f"{RNG_SEED}:{n}")
    for _ in range(EXTRA_ROUNDS):
        a = rng.randrange(2, n - 1)
        if _miller_rabin_witness(n, a, d, s):
            return False
    return True


def is_probable_only(n: int) -> bool:
    """True when a prime verdict for n rests on probabilistic tests."""
    return n >= DETERMINISTIC_LIMIT


def _sieve_segment(
    lo: int, hi: int, base_primes: List[int], need_check: bool
) -> Iterator[int]:
    """Yield primes in [lo, hi], 2 <= lo, after striking multiples of base_primes.

    When ``need_check`` the base primes do not reach sqrt(hi), so survivors
    are confirmed with is_prime.
    """
    flags = bytearray([1]) * (hi - lo + 1)
    for p in base_primes:
        if p * p > hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        flags[start - lo :: p] = b"\x00" * ((hi - start) // p + 1)
    survivors = compress(range(lo, hi + 1), flags)
    return filter(is_prime, survivors) if need_check else survivors


def _sieved(lo: int, hi: int, base_limit: int) -> Iterator[int]:
    """Ascending primes in [lo, hi], one SEGMENT_SIZE segment at a time.

    Segments are struck with base primes up to min(sqrt(hi), base_limit),
    with sqrt(hi) rounded up to a power of two so that nearby windows share
    one cached table (_sieve_segment stops at p*p > hi anyway).  When the
    base primes stop short of sqrt(hi), survivors are confirmed by is_prime,
    which is how intervals between doubly-exponential chain bounds stay
    reachable.
    """
    lo = max(lo, 2)
    if lo > hi:
        return
    root = math.isqrt(hi)
    base_primes = small_primes(max(min(1 << root.bit_length(), base_limit), 3))
    need_check = root > base_limit
    for start in range(lo, hi + 1, SEGMENT_SIZE):
        end = min(start + SEGMENT_SIZE - 1, hi)
        yield from _sieve_segment(start, end, base_primes, need_check)


def _width_limit() -> int:
    """The width budget: PRIMECANTOR_WIDTH_LIMIT if set, else the default."""
    budget = os.environ.get("PRIMECANTOR_WIDTH_LIMIT")
    if not budget:
        return DEFAULT_SIEVE.width_limit
    try:
        width_limit = int(budget)
        if width_limit < 1:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"PRIMECANTOR_WIDTH_LIMIT must be a positive integer, got {budget!r}"
        ) from None
    return width_limit


def iter_primes_in_range(lo: int, hi: int) -> Iterator[int]:
    """Ascending primes p with lo <= p <= hi, lazily.

    Raises ValueError when lo > hi or PRIMECANTOR_WIDTH_LIMIT is invalid,
    and RangeTooLargeError when the width exceeds the budget.
    """
    if lo > hi:
        raise ValueError(f"prime enumeration requires lo <= hi, got [{lo}, {hi}]")
    width_limit = _width_limit()
    if hi - lo + 1 > width_limit:
        raise RangeTooLargeError(
            f"interval width {hi - lo + 1} exceeds budget {width_limit}"
        )
    yield from _sieved(lo, hi, DEFAULT_SIEVE.base_prime_limit)


def primes_in_range(lo: int, hi: int) -> List[int]:
    """Exactly the primes in [lo, hi], ascending."""
    return list(iter_primes_in_range(lo, hi))


def count_primes_in_range(lo: int, hi: int) -> int:
    """len(primes_in_range(lo, hi)) without materializing the list."""
    return sum(1 for _ in iter_primes_in_range(lo, hi))


def first_prime_in_range(lo: int, hi: int) -> int:
    """Smallest prime in [lo, hi]; raises NoPrimeInIntervalError if none.

    The search is lazy, sieving one segment at a time until the first
    survivor, so it has no width budget (this is the record-hunting code
    path).
    """
    p = next(_sieved(lo, hi, _FIRST_HIT_BASE_LIMIT), None)
    if p is None:
        raise NoPrimeInIntervalError(lo, hi)
    return p
