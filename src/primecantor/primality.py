"""Exact primality decisions and prime enumeration over big-integer intervals.

Primality is deterministic below ``DETERMINISTIC_LIMIT``, where n is tested
with the fewest leading prime bases known to be exact below it, and
strong-probable beyond it: a Baillie-PSW style combination of a strong
base-2 test and a strong Lucas test, plus ``EXTRA_ROUNDS`` Miller-Rabin
rounds whose bases are derived from the fixed recorded seed ``RNG_SEED``.
Beyond the limit the verdict of every n that passes the base-2 test is
remembered, so a prime found by a search and checked again is proved once.

Listing, counting, the first-prime search and the growth of the base-prime
table all go through one strike routine, ``_strike``, which flags the odd
integers of a segment and strikes the odd multiples of the base primes; the
prime 2 is added once by the callers.  A count is the number of set flags
unless the base primes stop short of sqrt(hi), when the survivors are
confirmed with ``is_prime``.  The first-prime search strikes with base
primes up to a depth that grows with the size of lo.  Listing and counting
refuse a window wider than ``WIDTH_LIMIT``.  Besides is_prime's remembered
verdicts, the only shared state is one ascending table of base primes,
grown in place by doubling as windows need it.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import Iterator, List, Tuple

from .errors import NoPrimeInIntervalError, ResourceBudgetError

_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_j, the smallest composite that is a strong probable prime to each of
# the first j prime bases (OEIS A014233; Jaeschke, Math. Comp. 61 (1993);
# Sorenson & Webster, Math. Comp. 86 (2017), for psi_12 and psi_13).  The
# first j bases therefore decide every n < psi_j exactly.
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
DETERMINISTIC_LIMIT = _PSI[-1]

# Above the threshold, EXTRA_ROUNDS random-base Miller-Rabin rounds follow
# Baillie-PSW; the bases depend only on RNG_SEED and the tested integer, so
# verdicts are stable across calls and threads.
EXTRA_ROUNDS = 2
RNG_SEED = 20240229
# Verdicts remembered past the base-2 test: nearly every composite fails
# that test, so the entries are the primes of a few recent chains.
_PROVEN_CACHE_SIZE = 1024


@dataclass(frozen=True)
class SieveConfig:
    """Memory budget for interval enumeration (DEFAULT_SIEVE only).

    The limit is 2**20: the shared table doubles from 4, so whenever it
    holds the primes up to 10**6 it already holds those up to 2**20.
    """

    base_prime_limit: int = 1 << 20


DEFAULT_SIEVE = SieveConfig()
# Most integers one listing or counting call may sieve.
WIDTH_LIMIT = 200_000_000

# Odd integers per sieved segment (one flag byte each), for enumeration and
# first-hit search alike, so a segment spans 2 * SEGMENT_SIZE integers.
SEGMENT_SIZE = 1 << 18
# Base primes whose first strike indices are computed in one comprehension;
# chunks keep the scratch list small when the table holds 78k primes.
_STRIKE_CHUNK = 2048
# Strikes of fewer flags than this take an exact-length zero run from a list
# built once per _strike call, instead of slicing one from the zero buffer.
_SHORT_RUN = 64
# Base-prime depth of the first-hit search.  A search from lo strikes one
# segment with the pi(P) base primes up to P, then tests the survivors in
# front of the first prime, each composite with one base-2 Miller-Rabin
# test.  The next prime lies about ln(lo) past lo, and a share 2e^-g / ln P
# of the odd integers survives (Mertens, g = Euler's constant), so the
# search tests about e^-g ln(lo) / ln P survivors.  At b = lo.bit_length()
# one base prime costs c = 0.18 + 0.00028 b microseconds (its strike offset
# is a big-integer remainder; 0.31 / 0.47 / 0.69 us at 450 / 1000 / 1790
# bits) and one test T ~ b**3 (0.45 ms at 450 bits, 18 ms at 1790 bits,
# Python 3.11 on x86-64), so the cost pi(P) c + T e^-g ln(lo) / ln P is
# least where P ln P ~ e^-g ln(lo) T / c, which grows with about b**3.
# P = b**3 / 2**13 is within 4 % of that least modelled cost from 512 to
# 2500 bits (the cost is flat near the optimum, which lies 1.2-1.35 times
# deeper), and it is 25 % below the cost at a fixed 2**14 at 1790 bits.
# Below 512 bits it falls under the floor 2**14, where the strike of the
# segment's small primes costs more than the few tests it saves; from 2048
# bits on it is capped at enumeration's base_prime_limit, 2**20, so the
# shared table never grows past what listing already grows it to.
_FIRST_HIT_BASE_FLOOR = 1 << 14

# Every prime <= _covered, ascending.  _covered starts at 4 and doubles; step
# [c + 1, 2c] is struck by the primes up to sqrt(2c) that the table holds.
_base_table: List[int] = [2, 3]
_covered = 4


def _base_primes(limit: int) -> List[int]:
    """The shared table, first grown until it holds every prime <= limit."""
    global _covered
    while _covered < limit:
        c = _covered
        flags = _strike(c + 1, 2 * c, math.isqrt(2 * c))
        _base_table.extend(_survivors(c + 1, flags))
        _covered = 2 * c
    return _base_table


def small_primes(limit: int) -> List[int]:
    """All primes <= limit, in a new list the caller owns."""
    table = _base_primes(limit)
    return table[: bisect_right(table, limit)]


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
    # A square has no D with Jacobi(D, n) = -1: the search below would run
    # until |D| meets a factor of n.
    r = math.isqrt(n)
    if r * r == n:
        return False
    # Find D = 5, -7, 9, -11, ... with Jacobi(D, n) = -1.
    # A D that n divides (D = 5 for n = 5, -11 for n = 11) says nothing
    # about n, so the search moves past it, as sympy's does.
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == 0 and d % n:
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
        bases = _DETERMINISTIC_BASES[: bisect_right(_PSI, n) + 1]
        return not any(_miller_rabin_witness(n, a, d, s) for a in bases)

    # Baillie-PSW: strong base-2 plus strong Lucas.
    if _miller_rabin_witness(n, 2, d, s):
        return False
    return _passes_after_base_2(n, d, s)


@functools.lru_cache(maxsize=_PROVEN_CACHE_SIZE)
def _passes_after_base_2(n: int, d: int, s: int) -> bool:
    """The rest of Baillie-PSW for n >= DETERMINISTIC_LIMIT, n - 1 = d * 2**s.

    Run only once n has passed the strong base-2 test.  The verdict depends
    on n alone, since the extra bases come from RNG_SEED and n, so it is
    remembered: a prime that a search has proved and a verification checks
    again costs one more base-2 test, not a second strong Lucas test.
    """
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


def _strike(lo: int, hi: int, stop: int) -> bytearray:
    """Flags for the odd integers lo, lo + 2, ... <= hi, for odd lo >= 3.

    Flag i stands for lo + 2i and is cleared when an odd prime p <= stop
    divides it and lies below it; the shared table must hold every such p.
    The odd multiples of p at or after lo are lo + 2i for i = (p - lo) / 2
    mod p, i + p, ...; these first indices are computed for a chunk of
    primes at a time.  For k flags, a prime below k clears its
    n = (k - 1 - i) // p + 1 flags with one slice assignment of n zero
    bytes, taken from a list of exact-length runs when n < _SHORT_RUN; a
    prime of k or more clears at most one flag, in a loop of its own.
    The zero runs are bytearrays on purpose: a bytearray's slice assignment
    first copies any other value (bytes, a memoryview) into a new
    bytearray, which nearly doubles the cost of a short strike.
    """
    k = ((hi - lo) >> 1) + 1
    flags = bytearray([1]) * k
    zero = bytearray(k // 3 + 1)
    runs = [zero[:n] for n in range(_SHORT_RUN)]
    end = bisect_right(_base_table, stop)
    # Index 0 holds 2, which strikes nothing; primes from index single on are >= k.
    single = min(max(bisect_left(_base_table, k), 1), end)
    for chunk, starts in _strike_starts(lo, k, 1, single):
        for p, i in zip(chunk, starts):
            n = (k - 1 - i) // p + 1
            flags[i::p] = runs[n] if n < _SHORT_RUN else zero[:n]
    for _, starts in _strike_starts(lo, k, single, end):
        for i in starts:
            if i < k:
                flags[i] = 0
    return flags


def _strike_starts(
    lo: int, k: int, first: int, end: int
) -> Iterator[Tuple[List[int], List[int]]]:
    """(primes, first strike indices) per chunk of _base_table[first:end].

    A base prime p >= lo is not struck, so its index starts at that of
    p * p, capped at k for a p * p past the last of the k flags.
    """
    for j in range(first, end, _STRIKE_CHUNK):
        chunk = _base_table[j : min(j + _STRIKE_CHUNK, end)]
        starts = [((p - lo) >> 1) % p for p in chunk]
        if chunk[-1] >= lo:
            starts = [min(max(i, (p * p - lo) >> 1), k) for p, i in zip(chunk, starts)]
        yield chunk, starts


def _sieved(lo: int, hi: int, base_limit: int) -> Iterator[Tuple[int, bytearray]]:
    """(start, flags) per segment of the odd integers >= 3 in [lo, hi].

    Flag i of a segment stands for start + 2i.  Every segment is struck by
    _strike with the shared table's primes up to stop = min(sqrt(hi),
    base_limit), so a set flag is a prime unless stop falls short of
    sqrt(hi); callers then confirm survivors with is_prime, which is how
    intervals between doubly-exponential chain bounds stay reachable.
    The prime 2 has no flag; callers add it.
    """
    lo = max(lo, 3) | 1
    if lo > hi:
        return
    stop = min(math.isqrt(hi), base_limit)
    _base_primes(stop)
    for start in range(lo, hi + 1, 2 * SEGMENT_SIZE):
        end = min(start + 2 * SEGMENT_SIZE - 2, hi)
        flags = _strike(start, end, stop)
        yield start, flags
        # Emptied before the next strike, so one segment's flags are alive
        # at a time: callers must be done with them before they resume.
        flags.clear()


def _survivors(start: int, flags: bytearray) -> Iterator[int]:
    """The odd integers start + 2i whose flag i is set, ascending."""
    return compress(range(start, start + 2 * len(flags), 2), flags)


def _far(hi: int, base_limit: int) -> bool:
    """True when base primes up to base_limit fall short of sqrt(hi)."""
    return math.isqrt(max(hi, 0)) > base_limit


def _primes(lo: int, hi: int, base_limit: int) -> Iterator[int]:
    """Ascending primes in [lo, hi], read off the _sieved segments."""
    if lo <= 2 <= hi:
        yield 2
    need_check = _far(hi, base_limit)
    for start, flags in _sieved(lo, hi, base_limit):
        survivors = _survivors(start, flags)
        yield from filter(is_prime, survivors) if need_check else survivors


def _check_window(lo: int, hi: int) -> None:
    """Raise unless [lo, hi] is a nonempty window within the width budget."""
    if lo > hi:
        raise ValueError(f"prime enumeration requires lo <= hi, got [{lo}, {hi}]")
    if hi - lo + 1 > WIDTH_LIMIT:
        raise ResourceBudgetError(
            f"interval width {hi - lo + 1} exceeds budget {WIDTH_LIMIT}"
        )


def primes_in_range(lo: int, hi: int) -> List[int]:
    """Exactly the primes p with lo <= p <= hi, ascending.

    Raises ValueError when lo > hi, and ResourceBudgetError when the width
    exceeds WIDTH_LIMIT.
    """
    _check_window(lo, hi)
    return list(_primes(lo, hi, DEFAULT_SIEVE.base_prime_limit))


def count_primes_in_range(lo: int, hi: int) -> int:
    """The number of primes in [lo, hi], read from the sieve flags.

    Same checks and budget as primes_in_range.  Each segment's count is
    its number of set flags, except in the far regime, where the base
    primes stop short of sqrt(hi): there the primes that primes_in_range
    lists, each survivor confirmed by is_prime, are counted.
    """
    _check_window(lo, hi)
    base_limit = DEFAULT_SIEVE.base_prime_limit
    if _far(hi, base_limit):
        return sum(1 for _ in _primes(lo, hi, base_limit))
    return int(lo <= 2 <= hi) + sum(
        flags.count(1) for _, flags in _sieved(lo, hi, base_limit)
    )


def _first_hit_base_limit(lo: int) -> int:
    """Depth of the base primes a first-hit search from lo strikes with."""
    depth = lo.bit_length() ** 3 >> 13
    return min(max(depth, _FIRST_HIT_BASE_FLOOR), DEFAULT_SIEVE.base_prime_limit)


def first_prime_in_range(lo: int, hi: int) -> int:
    """Smallest prime in [lo, hi]; raises NoPrimeInIntervalError if none.

    The search is lazy, sieving one segment at a time until the first
    survivor, so it has no width budget (this is the record-hunting code
    path).  It strikes with the base primes up to _first_hit_base_limit(lo),
    2**14 below 512 bits and growing with the cube of lo's bit length up to
    base_prime_limit, since each composite survivor costs a Miller-Rabin
    test whose price grows with about that cube.
    """
    p = next(_primes(lo, hi, _first_hit_base_limit(lo)), None)
    if p is None:
        raise NoPrimeInIntervalError(lo, hi)
    return p
