"""Primality decisions and interval enumeration against brute-force oracles."""

import math

import pytest
from hypothesis import given, settings, strategies as st
from sympy import isprime as sympy_isprime, nextprime, primerange

from primecantor import primality
from primecantor.errors import NoPrimeInIntervalError, RangeTooLargeError
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


def test_small_primes_matches_sympy():
    primality._BASE_PRIME_CACHE.clear()
    limits = [2**j for j in range(21)] + [10**6]
    for limit in limits:
        assert small_primes(limit) == list(primerange(limit + 1)), limit


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
    monkeypatch.setenv("PRIMECANTOR_WIDTH_LIMIT", "10")
    with pytest.raises(RangeTooLargeError):
        primes_in_range(0, 100)
    with pytest.raises(RangeTooLargeError):
        count_primes_in_range(0, 100)
    assert primes_in_range(8, 17) == [11, 13, 17]


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_width_budget_rejects_invalid_env_values(monkeypatch, value):
    monkeypatch.setenv("PRIMECANTOR_WIDTH_LIMIT", value)
    for fn in (primes_in_range, count_primes_in_range):
        with pytest.raises(ValueError, match="PRIMECANTOR_WIDTH_LIMIT"):
            fn(8, 26)


def test_first_prime_search_has_no_width_budget(monkeypatch):
    # [8, 26] holds 19 integers, more than the budget of 10.
    monkeypatch.setenv("PRIMECANTOR_WIDTH_LIMIT", "10")
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
    # isqrt(hi) on a power of two (2^j - 1, 2^j, 2^j + 1), where the cached
    # table size steps, and on the base-prime limit and one past it, which
    # puts the window in the far regime where survivors need is_prime.
    limit = DEFAULT_SIEVE.base_prime_limit
    roots = [r for j in range(1, 20) for r in (2**j - 1, 2**j, 2**j + 1)]
    for r in roots + [limit, limit + 1]:
        # Both ends of the isqrt(hi) = r band: hi = r^2 and hi = (r+1)^2 - 1.
        for hi in (r * r, (r + 1) ** 2 - 1):
            lo = max(hi - 300, 0)
            want = list(primerange(lo, hi + 1))
            assert primes_in_range(lo, hi) == want, (lo, hi)
            assert count_primes_in_range(lo, hi) == len(want), (lo, hi)


def test_base_prime_tables_are_shared_across_windows():
    # 200 windows whose isqrt(hi) = r runs from 2 to past the base-prime
    # limit fall into at most 21 tables: one per power of two below the
    # limit, plus the limit itself.
    primality._BASE_PRIME_CACHE.clear()
    roots = [int(2 * 1.075**k) + k for k in range(200)]
    assert roots[-1] > DEFAULT_SIEVE.base_prime_limit
    for r in roots:
        count_primes_in_range(r * r, r * r + min(r, 50))
    assert len(primality._BASE_PRIME_CACHE) <= 21


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


_CAP = primality._FIRST_HIT_BASE_LIMIT  # first_prime_in_range's base-prime cap
_FACT_20, _FACT_30 = math.factorial(20), math.factorial(30)
PRIME_SEARCH_WINDOWS = {
    # isqrt(hi) = cap - 1, cap and cap + 1: base primes reach sqrt(hi) up
    # to the cap, and survivors need is_prime past it; also 2^16 - 1 and
    # 2^16, further past it.
    "cap": _windows_below(
        [_CAP**2 - 1, _CAP**2, (_CAP + 1) ** 2 - 1, (_CAP + 1) ** 2, (_CAP + 1) ** 2 + 5000,
         2**32 - 1, 2**32]
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


def test_first_prime_crosses_segments(monkeypatch):
    # Segments of 7 integers put most first primes past the first segment.
    monkeypatch.setattr(primality, "SEGMENT_SIZE", 7)
    for lo in list(range(-3, 200)) + [2**32 - 40, DETERMINISTIC_LIMIT]:
        want = nextprime(lo - 1)
        assert first_prime_in_range(lo, lo + 200) == want, lo
        assert primes_in_range(lo, want) == [want], lo


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
