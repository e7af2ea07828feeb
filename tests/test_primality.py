"""Primality decisions and interval enumeration against brute-force oracles."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import isprime as sympy_isprime, nextprime, prevprime, primerange
from sympy.ntheory.primetest import is_strong_lucas_prp

from primecantor import primality
from primecantor.chains import counting_subinterval
from primecantor.errors import NoPrimeInIntervalError, ResourceBudgetError
from primecantor.primality import (
    DEFAULT_SIEVE,
    DETERMINISTIC_LIMIT,
    count_primes_in_range,
    first_prime_in_range,
    is_prime,
    is_probable_only,
    primes_in_range,
    small_primes,
)


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return False
    return True


def test_is_prime_small_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert is_prime(2521008887)


def test_is_prime_matches_trial_division_below_10k():
    for n in range(10_000):
        assert is_prime(n) == trial_division(n), n


def test_is_prime_large_known_values():
    # 2^89 - 1 is a Mersenne prime; the neighbors are composite.
    m89 = (1 << 89) - 1
    assert is_prime(m89)
    assert not is_prime(m89 - 2)
    assert not is_prime(m89 + 2)


def test_is_prime_rejects_large_squares():
    p = 1_000_000_007
    assert not is_prime(p * p)


def test_is_prime_strong_pseudoprimes_to_base_2():
    # Classic strong pseudoprimes to base 2 must still be rejected.
    for n in (2047, 3277, 4033, 4681, 8321, 15841, 29341):
        assert not is_prime(n), n


def _d_s(n):
    """(d, s) with n - 1 = d * 2**s and d odd."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    return (n - 1) >> s, s


# OEIS A014233, terms 1-13: the smallest strong pseudoprime to all of the
# first j prime bases.
A014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051,
           3825123056546413051, 3825123056546413051, 318665857834031151167461,
           3317044064679887385961981)


def test_psi_bounds_fool_exactly_their_bases():
    # psi_j is composite and a strong probable prime to each of the first j
    # prime bases, which therefore cannot decide psi_j itself; that they
    # decide every n below it is the cited result (checked for j = 1 by the
    # next test).  is_prime tests psi_j with more bases and rejects it, and
    # agrees with sympy around it.
    bases = primality._DETERMINISTIC_BASES
    assert primality._PSI == A014233
    assert A014233[-1] == DETERMINISTIC_LIMIT
    for j, psi in enumerate(A014233, start=1):
        d, s = _d_s(psi)
        assert not sympy_isprime(psi), j
        assert not any(primality._miller_rabin_witness(psi, a, d, s) for a in bases[:j]), j
        for n in range(psi - 30, psi + 31):
            assert is_prime(n) == sympy_isprime(n), (j, n)


def test_base_2_decides_every_odd_composite_below_psi_1():
    # Every odd composite below 2047 has base 2 as a strong witness, so the
    # base 2 alone is exact there.
    for n in range(9, primality._PSI[0], 2):
        if not sympy_isprime(n):
            assert primality._miller_rabin_witness(n, 2, *_d_s(n)), n


def test_primes_below_the_limit_take_the_fewest_exact_bases(monkeypatch):
    # The largest prime below psi_j is tested with the first i bases only,
    # for the first psi_i equal to psi_j: 13 bases just below the limit, 9
    # below 3.8e18 (psi_9 = psi_10 = psi_11), 1 below 2047.
    witnesses = []

    def spy(n, a, d, s, real=primality._miller_rabin_witness):
        witnesses.append(a)
        return real(n, a, d, s)

    monkeypatch.setattr(primality, "_miller_rabin_witness", spy)
    for j, psi in enumerate(primality._PSI, start=1):
        witnesses.clear()
        assert is_prime(prevprime(psi)), j
        i = primality._PSI.index(psi) + 1
        assert witnesses == list(primality._DETERMINISTIC_BASES[:i]), j


def test_probable_only_threshold():
    assert not is_probable_only(DETERMINISTIC_LIMIT - 1)
    assert is_probable_only(DETERMINISTIC_LIMIT)


def test_extra_rounds_are_deterministic_per_seed():
    n = (1 << 127) - 1  # Mersenne prime above the deterministic limit
    assert is_probable_only(n)
    assert all(is_prime(n) for _ in range(3))


def test_small_primes_counts():
    assert len(small_primes(100)) == 25
    assert small_primes(1) == []
    assert small_primes(2) == [2]


def _reset_base_table(monkeypatch):
    """Give primality a fresh base-prime table; the test's end restores the old."""
    monkeypatch.setattr(primality, "_base_table", [2, 3])
    monkeypatch.setattr(primality, "_covered", 4)


def test_small_primes_matches_sympy(monkeypatch):
    _reset_base_table(monkeypatch)
    limits = [2**j for j in range(21)] + [10**6]
    for limit in limits:
        assert small_primes(limit) == list(primerange(limit + 1)), limit


def test_small_primes_returns_a_list_the_caller_owns():
    got = small_primes(128)
    assert got is not small_primes(128)
    got.clear()
    assert small_primes(128) == list(primerange(129))
    assert primes_in_range(9000, 9100) == list(primerange(9000, 9101))


def test_primes_in_range_examples():
    assert primes_in_range(8, 26) == [11, 13, 17, 19, 23]
    assert primes_in_range(24, 28) == []
    assert primes_in_range(2, 2) == [2]


def test_primes_in_range_rejects_bad_bounds():
    with pytest.raises(ValueError):
        primes_in_range(10, 5)
    with pytest.raises(ValueError):
        count_primes_in_range(10, 5)


def test_primes_in_range_width_budget(monkeypatch):
    monkeypatch.setattr(primality, "WIDTH_LIMIT", 10)
    with pytest.raises(ResourceBudgetError):
        primes_in_range(0, 100)
    with pytest.raises(ResourceBudgetError):
        count_primes_in_range(0, 100)
    assert primes_in_range(8, 17) == [11, 13, 17]


def test_first_prime_search_has_no_width_budget(monkeypatch):
    # [8, 26] holds 19 integers, more than the budget of 10.
    monkeypatch.setattr(primality, "WIDTH_LIMIT", 10)
    assert first_prime_in_range(8, 26) == 11


def test_count_primes_in_range_examples():
    assert count_primes_in_range(1, 100) == 25
    assert count_primes_in_range(8, 26) == 5
    assert count_primes_in_range(14, 16) == 0


def test_count_matches_list_length_on_random_windows():
    import random

    rng = random.Random(5)
    for _ in range(20):
        lo = rng.randrange(0, 10_000)
        hi = lo + rng.randrange(0, 500)
        assert count_primes_in_range(lo, hi) == len(primes_in_range(lo, hi))


def test_sieve_fallback_far_window():
    # sqrt(hi) is far beyond the base-prime budget; survivors get the
    # per-candidate test.
    lo = 10**18
    got = primes_in_range(lo, lo + 200)
    assert got == [n for n in range(lo, lo + 201) if is_prime(n)]


def test_primes_in_range_matches_sympy_at_base_table_edges():
    # isqrt(hi) on a power of two (2^j - 1, 2^j, 2^j + 1), where the shared
    # table doubles, and on the base-prime limit and one past it, which
    # puts the window in the far regime where survivors need is_prime.
    limit = DEFAULT_SIEVE.base_prime_limit
    assert limit == 1 << 20
    roots = [r for j in range(1, 20) for r in (2**j - 1, 2**j, 2**j + 1)]
    for r in roots + [limit, limit + 1]:
        # Both ends of the isqrt(hi) = r band: hi = r^2 and hi = (r+1)^2 - 1.
        for hi in (r * r, (r + 1) ** 2 - 1):
            lo = max(hi - 300, 0)
            want = list(primerange(lo, hi + 1))
            assert primes_in_range(lo, hi) == want, (lo, hi)
            assert count_primes_in_range(lo, hi) == len(want), (lo, hi)


def test_base_prime_tables_are_shared_across_windows(monkeypatch):
    # 200 windows whose isqrt(hi) = r runs from 2 to past the base-prime
    # limit all strike from one table, grown in place, which holds no
    # prime above twice the largest strike bound min(r, limit).
    _reset_base_table(monkeypatch)
    table = primality._base_table
    limit = DEFAULT_SIEVE.base_prime_limit
    roots = [int(2 * 1.075**k) + k for k in range(200)]
    assert roots[-1] > limit
    for r in roots:
        count_primes_in_range(r * r, r * r + min(r, 50))
    assert primality._base_table is table
    assert table == list(primerange(primality._covered + 1))
    assert table[-1] <= 2 * min(roots[-1], limit)


def test_first_prime_in_range():
    assert first_prime_in_range(8, 26) == 11
    assert first_prime_in_range(2, 2) == 2
    assert first_prime_in_range(1331, 1727) == 1361
    with pytest.raises(NoPrimeInIntervalError):
        first_prime_in_range(24, 28)
    with pytest.raises(NoPrimeInIntervalError):
        first_prime_in_range(10, 5)


def test_first_prime_matches_sieve_on_random_windows():
    import random

    rng = random.Random(11)
    for _ in range(25):
        lo = rng.randrange(2, 100_000)
        hi = lo + rng.randrange(1, 2_000)
        listed = primes_in_range(lo, hi)
        if listed:
            assert first_prime_in_range(lo, hi) == listed[0]
        else:
            with pytest.raises(NoPrimeInIntervalError):
                first_prime_in_range(lo, hi)


def _windows_below(his, widths=(0, 1, 10, 300, 2000)):
    return [(hi - w, hi) for hi in his for w in widths]


_CAP = primality._FIRST_HIT_BASE_FLOOR  # the least first-hit depth
# The floor before first-hit segments were sized to the prime gap; its
# edges stay as inputs.
_OLD_CAP = 1 << 14
_FACT_20, _FACT_30 = math.factorial(20), math.factorial(30)
PRIME_SEARCH_WINDOWS = {
    # isqrt(hi) = cap - 1, cap and cap + 1: base primes reach sqrt(hi) up
    # to the cap, and survivors need is_prime past it; the same about 2^14;
    # also 2^16 - 1 and 2^16, further past both.
    "cap": _windows_below(
        [r for c in (_CAP, _OLD_CAP)
         for r in (c**2 - 1, c**2, (c + 1) ** 2 - 1, (c + 1) ** 2, (c + 1) ** 2 + 5000)]
        + [2**32 - 1, 2**32]
    ),
    "above-limit": [
        (DETERMINISTIC_LIMIT + k, DETERMINISTIC_LIMIT + k + w)
        for k in (0, 1, 141, 142, 143, 5000) for w in (0, 1, 100, 1000)
    ],
    "below-2": [(-10, -1), (-10, 1), (-10, 2), (0, 0), (0, 3), (1, 1), (1, 2), (2, 3)],
    # n! + 2 .. n! + n are divisible by 2 .. n; 1328 .. 1360 lie between
    # the primes 1327 and 1361.
    "prime-free": [(24, 28), (1328, 1360), (_FACT_20 + 2, _FACT_20 + 20),
                   (_FACT_30 + 2, _FACT_30 + 30)],
}


@pytest.mark.parametrize("kind", PRIME_SEARCH_WINDOWS)
def test_first_prime_matches_sympy_nextprime(kind):
    for lo, hi in PRIME_SEARCH_WINDOWS[kind]:
        want = nextprime(lo - 1)  # the smallest prime >= lo (2 for lo < 2)
        assert kind != "prime-free" or want > hi
        if want <= hi:
            assert first_prime_in_range(lo, hi) == want, (lo, hi)
        else:
            with pytest.raises(NoPrimeInIntervalError):
                first_prime_in_range(lo, hi)


def test_first_prime_search_deepens_with_the_bit_length(monkeypatch):
    # 598, 1000 and 2499 bits, where the depth rule strikes with more base
    # primes than the floor (at 2499 bits, all of the listing's 2^20).  These
    # powers of ten lie 313, 531 and 123 below their next primes, which
    # keeps sympy's nextprime to about a second.
    _reset_base_table(monkeypatch)
    limit = DEFAULT_SIEVE.base_prime_limit
    for lo in (10**180, 10**301, 10**752):
        assert primality._first_hit_base_limit(lo) > _CAP, lo.bit_length()
        assert first_prime_in_range(lo, lo + 10**4) == nextprime(lo - 1), lo.bit_length()
    assert primality._first_hit_base_limit(10**752) == limit
    # 370! + k is divisible by k for 2 <= k <= 370: a 2586-bit prime-free
    # window that the base primes strike out entirely.
    f = math.factorial(370)
    with pytest.raises(NoPrimeInIntervalError):
        first_prime_in_range(f + 2, f + 370)
    assert limit <= primality._covered <= 2 * limit


_LIMIT = DEFAULT_SIEVE.base_prime_limit  # the listing's base-prime cap
# isqrt(hi) on both sides of each cap, so windows strike with fewer base
# primes than the table holds once an earlier call has grown it.
ORDER_WINDOWS = _windows_below(
    [r for c in (_CAP, _OLD_CAP) for r in (c**2 - 1, c**2, (c + 1) ** 2)]
    + [_LIMIT**2 - 1, _LIMIT**2, (_LIMIT + 1) ** 2 - 1, (_LIMIT + 1) ** 2],
    widths=(0, 10, 300),
)


def _first_prime_or_none(lo, hi):
    try:
        return first_prime_in_range(lo, hi)
    except NoPrimeInIntervalError:
        return None


# Each sieve entry point and what it returns given the primes of a window.
SIEVES = {
    "list": (primes_in_range, lambda want: want),
    "count": (count_primes_in_range, len),
    "first": (_first_prime_or_none, lambda want: want[0] if want else None),
}


@pytest.mark.parametrize("grown", [False, True], ids=["fresh", "grown"])
@pytest.mark.parametrize("sieve", SIEVES)
def test_sieve_results_do_not_depend_on_call_order(monkeypatch, sieve, grown):
    fn, expect = SIEVES[sieve]
    _reset_base_table(monkeypatch)
    if grown:
        primes_in_range(10**12, 10**12 + 100)
        assert primality._covered >= _LIMIT
    for lo, hi in ORDER_WINDOWS:
        if not grown:
            _reset_base_table(monkeypatch)
        assert fn(lo, hi) == expect(list(primerange(lo, hi + 1))), (lo, hi)


def test_first_prime_crosses_segments(monkeypatch):
    # Segments of 3 odd integers (a span of 6) put every first prime that
    # lies 6 or more past lo | 1 outside the first segment.
    monkeypatch.setattr(primality, "SEGMENT_SIZE", 3)
    for lo in list(range(-3, 200)) + [2**32 - 40, DETERMINISTIC_LIMIT]:
        want = nextprime(lo - 1)
        assert first_prime_in_range(lo, lo + 200) == want, lo
        assert primes_in_range(lo, want) == [want], lo


def test_first_prime_search_grows_its_segments(monkeypatch):
    # A first segment of 1 odd flag, twice as many flags in each next one:
    # a first prime 2, 6, 14, ... past lo | 1 lies past 1, 2, 3, ...
    # segment boundaries.
    monkeypatch.setattr(primality, "_first_hit_size", lambda lo: 1)
    struck = []

    def spy(lo, hi, stop, real=primality._strike):
        struck.append((hi - lo) // 2 + 1)
        return real(lo, hi, stop)

    monkeypatch.setattr(primality, "_strike", spy)
    assert first_prime_in_range(1328, 1400) == 1361
    assert struck == [1, 2, 4, 8, 16]
    near = [2**32 - 40, 2**32 - 5, 2**32 - 4, DETERMINISTIC_LIMIT - 1, DETERMINISTIC_LIMIT]
    for lo in list(range(-3, 201)) + near:
        want = nextprime(lo - 1)
        assert first_prime_in_range(lo, lo + 1000) == want, lo
    for lo, hi in PRIME_SEARCH_WINDOWS["prime-free"]:
        with pytest.raises(NoPrimeInIntervalError):
            first_prime_in_range(lo, hi)


def test_first_prime_search_memory_follows_the_prime_gap():
    # At 100 bits the next prime lies about 70 past lo, and the first
    # segment holds max(64, 4 * 100) odd flags: neither it nor its zero
    # buffer comes near a listing segment's 256 KB of flags.
    lo = 10**30
    small_primes(primality._first_hit_base_limit(lo))  # grow the table outside
    tracemalloc.start()
    try:
        p = first_prime_in_range(lo, 10**31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p == nextprime(lo - 1)
    assert peak < 64 << 10, peak


_SPAN = 2 * primality.SEGMENT_SIZE  # integers per sieved segment
_FAR_LO = (_LIMIT + 1) ** 2  # isqrt(hi) past the listing's base-prime cap
ORACLE_WINDOWS = {
    "small-lo": [(lo, hi) for lo in range(5) for hi in range(lo, 12)]
    + [(lo, 10**4 + d) for lo in range(5) for d in (0, 1)],
    # lo even or odd times hi even or odd, near and far from the base primes.
    "parity": [(a + i, a + w + j) for a in (1000, 10**9, 10**12 - 10**4)
               for i in (0, 1) for j in (0, 1) for w in (2, 300)],
    "width-1": [(n, n) for n in (2, 3, 4, 9, 25, 97, 1001, 7919, 10**9 + 7, 10**9 + 9,
                                 10**12 + 39, 10**12 + 40, _FAR_LO + 1)],
    # Windows that hold their own base primes: lo <= sqrt(hi).  The last one
    # spans two segments, and the base primes 727 to 1021 have their squares
    # past the end of the first.
    "own-base-primes": [(1, 10**5), (2, 10**5 + 1), (3, 999), (5, 1000), (100, 10**4 + 7),
                        (3, 2 * _SPAN)],
    "far": [(_FAR_LO, _FAR_LO + 1000), (_FAR_LO + 1, _FAR_LO + 2001)],
    # Matomaki census windows [p**c, p**c + p**(c-1)].  At c = 2 the base
    # primes reach p, about twice the window's p / 2 odd flags, so about
    # half of them strike one flag or none.  c = 5/2 stays near 10**3: its
    # window at 2 * 10**4 is 2.8e6 wide, slow for sympy's primerange.
    "census": [counting_subinterval(p, c) for p in (997, 1009, 19997, 20011)
               for c in (Fraction(2), Fraction(5, 2)) if c == 2 or p < 10**4],
}


def _assert_entry_points_match(lo, hi, want):
    listed = primes_in_range(lo, hi)
    assert listed == want, (lo, hi)
    assert count_primes_in_range(lo, hi) == len(listed), (lo, hi)
    assert _first_prime_or_none(lo, hi) == (want[0] if want else None), (lo, hi)


@pytest.mark.parametrize("kind", ORACLE_WINDOWS)
def test_sieve_entry_points_match_sympy_primerange(kind):
    for lo, hi in ORACLE_WINDOWS[kind]:
        _assert_entry_points_match(lo, hi, list(primerange(lo, hi + 1)))


@pytest.mark.parametrize("lo", [0, 1000, 1001])
def test_sieve_entry_points_match_sympy_at_a_segment_boundary(lo):
    # The first segment ends at the odd integer (max(lo, 3) | 1) + _SPAN - 2;
    # hi runs from two below that end to two past it.
    end = (max(lo, 3) | 1) + _SPAN - 2
    pool = list(primerange(lo, end + 3))
    for hi in range(end - 2, end + 3):
        _assert_entry_points_match(lo, hi, [p for p in pool if p <= hi])


def test_sieve_entry_points_match_sympy_across_small_segments(monkeypatch):
    # Segments of 5 odd integers put every window across several boundaries.
    monkeypatch.setattr(primality, "SEGMENT_SIZE", 5)
    for a in (0, 1, 10**9 - 7):
        for lo in range(a, a + 12):
            for hi in range(lo, lo + 40, 3):
                _assert_entry_points_match(lo, hi, list(primerange(lo, hi + 1)))


def test_near_count_reads_the_flags(monkeypatch):
    # Below the base-prime cap every set flag is a prime: no survivor is
    # tested, by a count or a listing.  The last window has 10**6 <
    # isqrt(hi) <= 2**20, where a table grown for 10**6 already holds every
    # base prime.
    def refuse(n):
        raise AssertionError(f"is_prime({n}) called in the near regime")

    monkeypatch.setattr(primality, "is_prime", refuse)
    lo_band = 10**12 + 2 * 10**6
    for lo, hi in [(0, 10**5), (10**9, 10**9 + 10**4), (10**12, 10**12 + 2000),
                   (lo_band, lo_band + 1000)]:
        want = list(primerange(lo, hi + 1))
        assert primes_in_range(lo, hi) == want, (lo, hi)
        assert count_primes_in_range(lo, hi) == len(want), (lo, hi)


def test_far_count_confirms_survivors(monkeypatch):
    tested = []

    def spy(n, real=primality.is_prime):
        tested.append(n)
        return real(n)

    monkeypatch.setattr(primality, "is_prime", spy)
    want = list(primerange(_FAR_LO, _FAR_LO + 1001))
    assert count_primes_in_range(_FAR_LO, _FAR_LO + 1000) == len(want)
    assert set(want) <= set(tested)


def test_count_memory_does_not_grow_with_the_base_table():
    # The 78k base primes below 10**6 are struck in chunks, and each
    # segment's flags are emptied before the next is struck, so a count
    # across two segments holds one segment's flags (256 KB), its zero
    # buffer and one chunk of strike offsets: not 78k offsets (about 4 MB),
    # nor two segments' flags at once (about 750 KB).
    lo = 10**12
    small_primes(_LIMIT)  # grow the shared table outside the measurement
    tracemalloc.start()
    try:
        count_primes_in_range(lo, lo + 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 640 << 10, peak


@given(st.integers(min_value=0, max_value=50_000))
@settings(max_examples=200, deadline=None)
def test_is_prime_agrees_with_trial_division(n):
    assert is_prime(n) == trial_division(n)


@given(
    st.one_of(
        st.integers(min_value=2, max_value=DETERMINISTIC_LIMIT),
        st.integers(min_value=DETERMINISTIC_LIMIT, max_value=DETERMINISTIC_LIMIT << 64),
    )
)
@settings(max_examples=300, deadline=None)
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy_isprime(n)
    p = nextprime(n)
    assert is_prime(p) and is_probable_only(p) == (p >= DETERMINISTIC_LIMIT)


def test_strong_lucas_test_matches_sympy():
    # Every odd n in [3, 10**5), the strong Lucas pseudoprimes 5459, 5777,
    # 10877, ... (OEIS A217255) among them, and 5 and 11, whose first
    # Selfridge candidate D divisible by n is passed over.  Squares of
    # large primes too: no D has Jacobi(D, n) = -1, so the D search alone
    # would only stop at a multiple of the prime.
    squares = [p * p for p in (10**9 + 7, 10**12 + 39, nextprime(2**64))]
    for n in list(range(3, 10**5, 2)) + squares:
        assert primality._strong_lucas_prp(n) == is_strong_lucas_prp(n), n
    assert all(primality._strong_lucas_prp(n) for n in (5459, 5777, 10877))


def _first_above_limit(make, k, count):
    """make(k) -> (n, factors) for k, k+1, ...: the first ``count`` n above
    DETERMINISTIC_LIMIT whose factors sympy finds all prime."""
    found = []
    while len(found) < count:
        n, factors = make(k)
        if n > DETERMINISTIC_LIMIT and all(sympy_isprime(f) for f in factors):
            found.append(n)
        k += 1
    return found


def test_is_prime_rejects_carmichael_numbers_above_limit():
    # Chernick: (6k+1)(12k+1)(18k+1) is a Carmichael number when all three
    # factors are prime.  Above the limit only Baillie-PSW decides.
    def chernick(k):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        return math.prod(factors), factors

    k0 = round((DETERMINISTIC_LIMIT / 1296) ** (1 / 3)) - 100
    for n in _first_above_limit(chernick, k0, 4):
        assert not sympy_isprime(n)
        assert not is_prime(n), n


def test_is_prime_rejects_semiprimes_p_2p_minus_1():
    # n = p(2p - 1) with both factors prime is the shape of many strong
    # pseudoprimes: four above the limit, and a classic one below it.
    def semiprime(p):
        return p * (2 * p - 1), (p, 2 * p - 1)

    p0 = math.isqrt(DETERMINISTIC_LIMIT // 2) - 2000
    for n in _first_above_limit(semiprime, p0, 4):
        assert not sympy_isprime(n)
        assert not is_prime(n), n
    # 1373653 = 829 * 1657 is a strong pseudoprime to bases 2 and 3.
    n = 1373653
    assert n == 829 * (2 * 829 - 1)
    d, s = (n - 1) >> 2, 2
    assert d % 2 == 1 and d << s == n - 1
    assert not primality._miller_rabin_witness(n, 2, d, s)
    assert not primality._miller_rabin_witness(n, 3, d, s)
    assert not sympy_isprime(n)
    assert not is_prime(n)


@given(
    st.integers(min_value=0, max_value=100_000),
    st.integers(min_value=1, max_value=300),
)
@settings(max_examples=50, deadline=None)
def test_range_partition_additivity(lo, width):
    hi = lo + width
    mid = lo + width // 2
    whole = count_primes_in_range(lo, hi)
    assert whole == count_primes_in_range(lo, mid) + count_primes_in_range(
        mid + 1, hi
    )
