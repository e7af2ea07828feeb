"""Level-interval enclosures, digit extraction, and representation verification."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import integer_nthroot

from primecantor import constant, primality
from primecantor.certified import root_enclosure, scaled_pow
from primecantor.chains import ExponentSequence, PrimeChain, extend_greedy
from primecantor.constant import (
    certified_prefix,
    digits,
    max_determined_digits,
    verify_representation,
)
from primecantor.dimension import _slope_scale
from primecantor.errors import NeedMoreDepthError


def mills_chain(steps=3):
    es = ExponentSequence.constant(3)
    return extend_greedy(PrimeChain.seed(2, es), steps)


def bracket_for_chain(chain):
    """(lo, hi, s): lo and hi enclose the level interval [a**e, (a + 1)**e),
    e = 1/C, as the floor at a and the ceiling at a + 1 of one scaled_pow
    each, at the scale 2**s of the mean-value width estimate plus 8 guard
    bits, the estimate that sets the scale of every certified sibling gap."""
    e, a = 1 / chain.exponents.C(len(chain)), chain.last
    s = max(8, _slope_scale(a, e) + 8)
    return (Fraction(scaled_pow(a, e, 1 << s)[0], 1 << s),
            Fraction(scaled_pow(a + 1, e, 1 << s)[1], 1 << s), s)


def test_bracket_for_chain_seed_only():
    chain = mills_chain(0)
    lo, hi, _ = bracket_for_chain(chain)
    # Encloses [2**(1/3), 3**(1/3)): certify with integer cubes.
    assert lo**3 <= 2
    assert 3 <= hi**3
    assert 1.25 < float(lo) < 1.26
    assert 1.44 < float(hi) < 1.45


def test_bracket_for_chain_trivial_exponent_one():
    es = ExponentSequence.constant(1)
    chain = PrimeChain.seed(3, es)
    lo, hi, _ = bracket_for_chain(chain)
    # Encloses the true interval [3, 4) with only outward rounding slack.
    assert lo <= 3 and 4 <= hi
    assert hi - 4 <= (hi - lo) / 8


def test_bracket_for_chain_depth3_width():
    chain = mills_chain(3)
    lo, hi, _ = bracket_for_chain(chain)
    assert hi - lo < Fraction(1, 10**9)
    assert abs(float((lo + hi) / 2) - 1.3063778838) < 1e-9
    # certified_prefix reads the same interval: its 9 digits truncate it.
    n, text = certified_prefix(chain, 9)
    assert n == 9 and lo - Fraction(1, 10**8) < Fraction(text) <= hi


def test_digits_examples():
    assert digits(mills_chain(3), 9).startswith("1.30637788")
    es1 = ExponentSequence.constant(1)
    assert digits(PrimeChain.seed(3, es1), 1) == "3"


def test_digits_need_more_depth():
    chain = mills_chain(0)
    with pytest.raises(NeedMoreDepthError) as exc:
        digits(chain, 12)
    assert exc.value.supported < 12
    with pytest.raises(ValueError):
        digits(chain, 0)


def test_max_determined_digits_monotone_in_depth():
    counts = [max_determined_digits(mills_chain(k), limit=40) for k in range(4)]
    assert counts == sorted(counts)
    assert counts[0] >= 1
    assert counts[3] >= 9


def test_digits_agree_with_enclosure_midpoint():
    chain = mills_chain(2)
    n = max_determined_digits(chain, limit=20)
    text = digits(chain, n)
    big_c, fine = chain.exponents.C(len(chain)), Fraction(1, 10 ** (n + 4))
    lo = root_enclosure(chain.last, big_c, fine).lo
    hi = root_enclosure(chain.last + 1, big_c, fine).hi
    # The printed prefix truncates the enclosure, so it sits within one ulp
    # of the midpoint at that digit count.
    assert abs(float((lo + hi) / 2) - float(text)) < 10.0 ** (1 - n)


def test_verify_representation_pass():
    es = ExponentSequence.constant(3)
    report = verify_representation(PrimeChain(es, (2, 11, 1361)))
    assert report.all_passed
    assert [c.level for c in report.levels] == [1, 2, 3]
    assert all(not c.probable_prime for c in report.levels)


def test_verify_representation_composite_element():
    es = ExponentSequence.constant(3)
    report = verify_representation(PrimeChain(es, (2, 12, 1361)))
    assert not report.all_passed
    level2 = report.levels[1]
    assert not level2.is_prime and not level2.passed


def test_verify_representation_nesting_violation():
    es = ExponentSequence.constant(3)
    report = verify_representation(PrimeChain(es, (2, 29)))
    assert not report.all_passed
    assert report.levels[1].is_prime
    assert not report.levels[1].nesting_ok


def _count_lucas_tests(monkeypatch):
    """Start is_prime with no remembered verdicts, and count by n the strong
    Lucas tests it runs from then on."""
    primality._passes_after_base_2.cache_clear()
    calls = Counter()

    def spy(n, real=primality._strong_lucas_prp):
        calls[n] += 1
        return real(n)

    monkeypatch.setattr(primality, "_strong_lucas_prp", spy)
    return calls


def test_verification_proves_each_greedy_prime_once(monkeypatch):
    # Levels 5-7 of the c = 3 chain from 2 (94 to 844 bits) lie above the
    # deterministic limit: the search proves each once, and the check of the
    # whole chain runs no second strong Lucas test.
    calls = _count_lucas_tests(monkeypatch)
    chain = mills_chain(6)
    report = verify_representation(chain)
    above = [a for a in chain.elements if a >= primality.DETERMINISTIC_LIMIT]
    assert len(above) == 3
    assert report.all_passed
    assert [c.probable_prime for c in report.levels] == [a in above for a in chain.elements]
    assert calls == Counter(above)


def test_remembered_verdict_rejects_a_base_2_pseudoprime(monkeypatch):
    # 2**83 - 1 = 167 * 57912614113275649087721 lies above the limit and is
    # a strong probable prime to base 2 (2 has order 83 modulo it, and 83
    # divides its odd part (n - 1) / 2), so only the remembered part of
    # Baillie-PSW can reject it, on every call.
    n = 2**83 - 1
    assert n > primality.DETERMINISTIC_LIMIT and n == 167 * 57912614113275649087721
    assert not primality._miller_rabin_witness(n, 2, (n - 1) // 2, 1)
    calls = _count_lucas_tests(monkeypatch)
    verdicts = [primality.is_prime(n) for _ in range(2)]
    assert verdicts == [False, False]
    assert calls == Counter({n: 1})
    es = ExponentSequence.constant(3)
    assert not verify_representation(PrimeChain(es, (n,))).all_passed


def test_report_to_dict_round_trips_flags():
    es = ExponentSequence.constant(3)
    d = verify_representation(PrimeChain(es, (2, 11))).to_dict()
    assert d["all_passed"] is True
    assert d["levels"][1]["element"] == "11"


@given(st.integers(min_value=0, max_value=3))
@settings(max_examples=8, deadline=None)
def test_brackets_nest_with_depth(steps):
    # Each extension refines the previous enclosure: intervals must nest.
    outer_lo, outer_hi, _ = bracket_for_chain(mills_chain(steps))
    if steps < 3:
        inner_lo, inner_hi, _ = bracket_for_chain(mills_chain(steps + 1))
        width = outer_hi - outer_lo
        assert outer_lo <= inner_lo + width / 4
        assert inner_hi <= outer_hi + width / 4


def seed_chain(p, c, steps=0):
    return extend_greedy(PrimeChain.seed(p, ExponentSequence.constant(c)), steps)


def test_digits_with_several_integer_digits():
    # A lies in [sqrt(101), sqrt(102)) = [10.0498, 10.0995).
    chain = seed_chain(101, 2)
    assert max_determined_digits(chain, limit=20) == 3
    assert digits(chain, 3) == "10.0"
    assert digits(chain, 2) == "10"
    with pytest.raises(ValueError, match="2 integer digits"):
        digits(chain, 1)
    # A lies in [316.23250961..., 316.23250962...).
    chain = seed_chain(100003, 2, steps=1)
    assert certified_prefix(chain, 40) == (10, "316.2325096")
    assert certified_prefix(chain, 8) == (8, "316.23250")


@given(
    st.sampled_from([2, 3, 31, 101, 100003]),
    st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2),
                     Fraction(3)]),
    st.integers(min_value=0, max_value=2),
)
@settings(max_examples=40, deadline=None)
def test_bracket_slack_below_an_eighth_of_the_width(p, c, steps):
    # The scale is computed once, not escalated: its guard bits must keep the
    # rounding slack 2**-s under width/8.
    lo, hi, s = bracket_for_chain(seed_chain(p, c, steps))
    assert 8 * Fraction(1, 1 << s) < hi - lo


def test_prefix_empty_when_the_integer_part_is_open():
    # [31**(2/3), 32**(2/3)) = [9.87, 10.08) holds both 9.9 and 10.0.
    chain = seed_chain(31, Fraction(3, 2))
    assert certified_prefix(chain, 1) == (0, "")
    assert certified_prefix(chain, 6) == (0, "")
    # [41**(2/3), 42**(2/3)) = [11.89, 12.08) shares its leading 1 only.
    assert certified_prefix(seed_chain(41, Fraction(3, 2)), 6) == (0, "")
    with pytest.raises(NeedMoreDepthError) as exc:
        digits(chain, 1)
    assert exc.value.supported == 0


def reference_prefix(chain, limit):
    """Digit by digit: n digits are certified when floor(10**(n-g) * lo)
    equals the largest integer below 10**(n-g) * hi (sympy roots)."""
    big_c = chain.exponents.C(len(chain))
    num, den = big_c.numerator, big_c.denominator
    lo_t, hi_t = chain.last ** den, (chain.last + 1) ** den
    g = len(str(integer_nthroot(lo_t, num)[0]))
    count, text = 0, ""
    for n in range(g, limit + 1):
        scale = 10 ** ((n - g) * num)
        f_lo = integer_nthroot(lo_t * scale, num)[0]
        root, exact = integer_nthroot(hi_t * scale, num)
        if f_lo != (root - 1 if exact else root):
            break
        count, digits_text = n, str(f_lo)
        text = digits_text[:g] + "." + digits_text[g:] if n > g else digits_text
    return count, text


@pytest.mark.parametrize(
    "chain, limit",
    [(seed_chain(100003, 2, steps=1), 10**5),
     (seed_chain(31, Fraction(3, 2)), 10**5)],
    ids=["316.23", "open-integer-part"],
)
def test_certified_prefix_far_past_support(chain, limit):
    assert certified_prefix(chain, limit) == reference_prefix(chain, limit)


@pytest.mark.parametrize("limit", [12, 10**3, 10**6])
def test_certified_prefix_reads_the_interval_twice(monkeypatch, limit):
    # The interval [a**(1/C), (a + 1)**(1/C)) is wider than 10**-M, so no
    # read finer than 10**M can certify another digit: a request for 10**6
    # digits reads at 10**M, not at 10**(10**6 - 1).
    chain = seed_chain(2, 3, 3)
    big_c = chain.exponents.C(len(chain))
    bound = ((chain.last + 1).bit_length() + big_c.numerator.bit_length()) // 3 + 1
    scales = []

    def spy(q, e, scale=1):
        assert scale <= 10**bound
        scales.append(scale)
        return scaled_pow(q, e, scale)

    monkeypatch.setattr(constant, "scaled_pow", spy)
    assert certified_prefix(chain, limit) == (12, "1.30637788386")
    assert scales == [10 ** min(limit, bound)] * 2


@given(
    st.sampled_from([2, 3, 5, 11, 31, 41, 101, 1009, 100003]),
    st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2),
                     Fraction(3)]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=6, max_value=30),
)
@settings(max_examples=60, deadline=None)
def test_certified_prefix_matches_digit_loop(p, c, steps, limit):
    chain = seed_chain(p, c, steps)
    assert certified_prefix(chain, limit) == reference_prefix(chain, limit)


@pytest.mark.parametrize(
    "seed, exponents, depth",
    [
        (2, ExponentSequence.constant(3), 4),
        (3, ExponentSequence.constant(Fraction(5, 2)), 3),
        (3, ExponentSequence.constant(2), 6),
        (2, ExponentSequence.of([3, Fraction(5, 2)], 2), 4),
    ],
    ids=["c=3", "c=5/2", "c=2", "c-seq"],
)
def test_digit_prefixes_extend_with_depth(seed, exponents, depth):
    chain = PrimeChain.seed(seed, exponents)
    prefixes = [certified_prefix(chain, 30)]
    for _ in range(depth):
        chain = extend_greedy(chain, 1)
        prefixes.append(certified_prefix(chain, 30))
    counts = [count for count, _ in prefixes]
    assert counts == sorted(counts) and counts[-1] > counts[0]
    for (_, outer), (_, inner) in zip(prefixes, prefixes[1:]):
        assert inner.startswith(outer)
