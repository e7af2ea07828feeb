"""Exact power floors/ceilings and certified root enclosures."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import integer_nthroot

from primecantor import certified
from primecantor.certified import (
    Bracket,
    _root_estimate,
    dyadic,
    introot,
    pow_ceil,
    pow_floor,
    root_enclosure,
    scaled_pow,
)
from primecantor.chains import (
    ExponentSequence,
    PrimeChain,
    counting_subinterval,
    extend_greedy,
)
from primecantor.constant import certified_prefix
from primecantor.errors import ResourceBudgetError
from primecantor.survey import _anchor_upper_bound


def test_introot_examples():
    assert introot(0, 3) == 0
    assert introot(1, 7) == 1
    assert introot(26, 3) == 2
    assert introot(27, 3) == 3
    assert introot(28, 3) == 3
    assert introot(10**30, 5) == 10**6
    for n, k in ((-1, 2), (5, 0), (5, -1)):
        with pytest.raises(ValueError):
            introot(n, k)
    # Below 2**12 the estimate is the float start alone, with no Newton step.
    for k in range(3, 14):
        for n in range(1 << 12):
            assert introot(n, k) == _newton_root(n, k)


@given(st.integers(min_value=0, max_value=10**40), st.integers(min_value=1, max_value=12))
@settings(max_examples=300, deadline=None)
def test_introot_sandwich(n, k):
    r = introot(n, k)
    assert r**k <= n < (r + 1) ** k


def test_pow_floor_examples():
    assert pow_floor(2, 3) == 8
    assert pow_floor(2, Fraction(5, 2)) == 5
    assert pow_floor(4, 1) == 4
    # An exact power: a 532k-bit input whose 729th root is 2**730.
    assert pow_floor(2**729, Fraction(730, 729)) == 2**730
    with pytest.raises(ValueError):
        pow_floor(4, Fraction(1, 2))
    with pytest.raises(ValueError):
        pow_floor(0, 2)


def test_pow_ceil_examples():
    assert pow_ceil(2, 3) == 8
    assert pow_ceil(2, Fraction(5, 2)) == 6
    assert pow_ceil(9, 1) == 9
    # Exact powers: the ceiling equals the floor.
    assert pow_ceil(2**729, Fraction(730, 729)) == 2**730
    assert pow_ceil(27, Fraction(4, 3)) == 81


@given(
    st.integers(min_value=1, max_value=10**6),
    st.fractions(min_value=1, max_value=4, max_denominator=6),
)
@settings(max_examples=200, deadline=None)
def test_pow_floor_ceil_sandwich(a, c):
    n, d = c.numerator, c.denominator
    f, g = pow_floor(a, c), pow_ceil(a, c)
    # f <= a**c <= g, and they differ only when a**c is not an integer.
    assert f**d <= a**n <= g**d
    assert g - f in (0, 1)
    assert (g == f) == (f**d == a**n)


def test_dyadic_and_bracket_basics():
    assert dyadic(3, 2) == Fraction(3, 4)
    assert dyadic(3, 0) == 3
    b = Bracket(Fraction(1), Fraction(2))
    assert b.width == 1
    assert (b.lo + b.hi) / 2 == Fraction(3, 2)
    assert b.lo <= 1 <= b.hi and b.lo <= 2 <= b.hi
    assert b.lo != b.hi
    with pytest.raises(ValueError, match="^Bracket endpoints out of order$"):
        Bracket(Fraction(2), Fraction(1))
    # A degenerate bracket is a closed interval holding one point.
    assert Bracket(Fraction(1), Fraction(1)).width == 0


def test_root_enclosure_exact_cases():
    b = root_enclosure(8, 3, Fraction(1, 1000))
    assert b.lo == b.hi == 2
    b = root_enclosure(3, 1, Fraction(1, 2))
    assert b.lo == b.hi == 3
    # 64 ** (1/(3/2)) = 64 ** (2/3) = 16
    b = root_enclosure(64, Fraction(3, 2), Fraction(1))
    assert b.lo == b.hi == 16


def test_root_enclosure_cbrt2():
    b = root_enclosure(2, 3, Fraction(1, 10**6))
    assert b.width <= Fraction(1, 10**6)
    # Independent check: the endpoints must straddle the cube root of 2.
    assert b.lo**3 <= 2 <= b.hi**3
    assert abs(float((b.lo + b.hi) / 2) - 1.259921) < 2e-6


@given(
    st.integers(min_value=1, max_value=10**9),
    st.fractions(min_value=1, max_value=10, max_denominator=6),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_root_enclosure_contains_root(a, big_c, s):
    width = Fraction(1, 1 << s)
    b = root_enclosure(a, big_c, width)
    n, d = big_c.numerator, big_c.denominator
    # lo**n <= a**d <= hi**n certifies containment without floats.
    assert b.lo**n <= a**d
    assert a**d <= b.hi**n
    assert b.width <= width


def test_floor_scaled_root():
    assert scaled_pow(2, 1, 1 << 3) == (16, 16)
    # floor(2**10 * 2**(1/2)) = floor(1448.15...) = 1448
    assert scaled_pow(2, Fraction(1, 2), 1 << 10) == (1448, 1449)
    # 10**2 * 2**(1/3) = 125.99...; 10**3 * 8**(1/3) = 2000 exactly.
    assert scaled_pow(2, Fraction(1, 3), 10**2) == (125, 126)
    assert scaled_pow(8, Fraction(1, 3), 10**3) == (2000, 2000)
    # Rational base: 3 * (9/4)**(3/2) = 81/8 = 10.125; (4/9)**(1/2) = 2/3.
    assert scaled_pow(Fraction(9, 4), Fraction(3, 2), 3) == (10, 11)
    assert scaled_pow(Fraction(4, 9), Fraction(1, 2), 3) == (2, 2)
    assert scaled_pow(5, 0, 7) == (7, 7)
    for bad in ((0, 1, 1), (Fraction(-1, 2), 1, 1), (2, Fraction(-1, 2), 1), (2, 1, 0)):
        with pytest.raises(ValueError):
            scaled_pow(*bad)


def test_floor_pow_rational_examples():
    assert pow_floor(Fraction(3, 2), 2) == 2
    assert pow_floor(2, Fraction(5, 2)) == 5
    assert pow_floor(Fraction(5, 4), 1) == 1
    with pytest.raises(ValueError):
        pow_floor(Fraction(-1), 2)


@given(
    st.fractions(min_value=Fraction(1, 4), max_value=100, max_denominator=50),
    st.fractions(min_value=1, max_value=5, max_denominator=5),
)
@settings(max_examples=200, deadline=None)
def test_floor_pow_rational_sandwich(q, c):
    m = pow_floor(q, c)
    n, d = c.numerator, c.denominator
    # m <= q**c < m + 1, cleared of the rational exponent.
    assert m**d * q.denominator**n <= q.numerator**n
    assert q.numerator**n < (m + 1) ** d * q.denominator**n


# Oracle properties against sympy.integer_nthroot.  The large root degrees
# 243, 729 and 2187 are the Mills levels C_5, C_6 and C_7 for c = 3.
ROOT_DEGREES = st.sampled_from([1, 2, 3, 5, 7, 243, 729, 2187])


def _base(draw, degree):
    """Half the time a perfect degree-th power, else a plain integer.

    Exact powers reach every degree in ROOT_DEGREES, up to 2187.  Above
    degree 7 their base is at most 2: the smallest exact case at degree
    2187, (2**2187)**(2188/2187), already has 4.8 million bits.
    """
    if draw(st.booleans()):
        base = draw(st.integers(min_value=1, max_value=30 if degree <= 7 else 2))
        return base**degree
    return draw(st.integers(min_value=1, max_value=10**6))


@st.composite
def power_cases(draw):
    """(a, c) with c = n/d >= 1, d drawn from ROOT_DEGREES."""
    d = draw(ROOT_DEGREES)
    c = Fraction(d + draw(st.integers(min_value=0, max_value=3)), d)
    return _base(draw, c.denominator), c


@st.composite
def enclosure_cases(draw):
    """(a, C) with C = k/j >= 1, k drawn from ROOT_DEGREES."""
    k = draw(ROOT_DEGREES)
    big_c = Fraction(k, draw(st.integers(min_value=1, max_value=min(k, 3))))
    return _base(draw, big_c.numerator), big_c


@given(
    st.integers(min_value=0, max_value=60),
    ROOT_DEGREES,
    st.integers(min_value=-2, max_value=2),
)
@settings(max_examples=300, deadline=None)
def test_introot_matches_sympy_near_powers(r, k, offset):
    n = max(r**k + offset, 0)
    assert introot(n, k) == integer_nthroot(n, k)[0]
    _assert_estimate_within_one(n, k)


def _assert_estimate_within_one(n, k):
    """The Newton estimate introot starts from (for k >= 3 and n >= 2) lies
    within one of the floor root, so its exact fix-up takes at most three
    full-size powers."""
    if k >= 3 and n >= 2:
        p = -(-n.bit_length() // k) + 8
        assert abs(_root_estimate(n, 0, k, p) - integer_nthroot(n, k)[0]) <= 1


def _newton_root(n, k):
    """floor(n ** (1/k)) by Newton from the bit-length start 2**ceil(bits/k):
    a second reference, quick only for small n, since that start can lie
    twice above the root and each step then shrinks the error by 1 - 1/k."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x


@given(
    ROOT_DEGREES,
    st.booleans(),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=-2, max_value=2),
)
@settings(max_examples=200, deadline=None)
def test_introot_matches_sympy(k, small, near_power, seed, offset):
    """Random n, or a perturbed k-th power, of up to 1,400 bits (small, also
    checked against the Newton reference) or else up to 20k bits for k <= 7
    and 100k bits for the Mills degrees, which introot widens through
    several levels."""
    rng = random.Random(seed)
    bits = rng.randrange(1_400 if small else 20_000 if k <= 7 else 100_000)
    if near_power:
        n = max(rng.getrandbits(bits // k + 1) ** k + offset, 0)
    else:
        n = rng.getrandbits(bits)
    r = introot(n, k)
    assert r == integer_nthroot(n, k)[0]
    _assert_estimate_within_one(n, k)
    if small:
        assert r == _newton_root(n, k)


@given(power_cases())
@settings(max_examples=300, deadline=None)
def test_pow_floor_ceil_match_sympy(case):
    a, c = case
    root, exact = integer_nthroot(a**c.numerator, c.denominator)
    assert pow_floor(a, c) == root
    assert pow_ceil(a, c) == (root if exact else root + 1)


@given(
    st.fractions(min_value=Fraction(1, 4), max_value=100, max_denominator=50),
    ROOT_DEGREES,
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=200, deadline=None)
def test_floor_pow_rational_matches_sympy(q, d, extra):
    c = Fraction(d + extra, d)
    n, d = c.numerator, c.denominator
    u, v = q.numerator**n, q.denominator**n
    m = pow_floor(q, c)
    assert m == integer_nthroot(u // v, d)[0]
    assert m**d * v <= u < (m + 1) ** d * v


@given(
    enclosure_cases(),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=1 << 40),
)
@settings(max_examples=300, deadline=None)
def test_root_enclosure_matches_sympy(case, w_num, w_den):
    a, big_c = case
    width = Fraction(w_num, w_den)
    n, d = big_c.numerator, big_c.denominator
    t = a**d  # a ** (1/C) = t ** (1/n)
    root, exact = integer_nthroot(t, n)
    b = root_enclosure(a, big_c, width)
    if exact:
        assert b.lo == b.hi == root
        return
    assert b.lo < b.hi
    # The coarsest dyadic scale 2**-s with 2**-s <= width.
    s = b.width.denominator.bit_length() - 1
    assert b.width == Fraction(1, 1 << s) <= width
    assert s == 0 or width < 2 * b.width
    m = integer_nthroot(t << (n * s), n)[0]
    assert (b.lo, b.hi) == (Fraction(m, 1 << s), Fraction(m + 1, 1 << s))


def _root_case(draw):
    """The integer roots scale * t**(1/n): scale 2**e or 10**e, t half the
    time an exact n-th power."""
    t = draw(st.integers(min_value=1, max_value=10**60))
    n = draw(ROOT_DEGREES)
    if draw(st.booleans()):
        t = (t % 50 + 1) ** n
    e = draw(st.integers(min_value=0, max_value=30))
    scale = 10**e if draw(st.booleans()) else 1 << e
    x = t * scale**n
    root, is_exact = integer_nthroot(x, n)
    assert scaled_pow(t, Fraction(1, n), scale) == (root, root if is_exact else root + 1)


def _power_case(draw):
    """scale * q**e for a rational q, e in (0, 1) or above 1, and scale
    2**s, 10**m or a + 1."""
    a = draw(st.integers(min_value=1, max_value=10**6))
    q = Fraction(a, draw(st.sampled_from([1, 1, 2, 3, 7, 10**5])))
    if draw(st.booleans()):
        # An exact power of q, so that the ceiling equals the floor.
        q = q ** draw(st.sampled_from([2, 3, 5]))
    den = draw(st.sampled_from([1, 2, 3, 5, 7, 243]))
    num = draw(st.integers(min_value=1, max_value=3 * den))
    e = Fraction(num, den)
    scale = draw(st.sampled_from(
        [1 << draw(st.integers(0, 60)), 10 ** draw(st.integers(0, 20)), a + 1]
    ))
    u, v = q.numerator ** e.numerator, q.denominator ** e.numerator
    t = scale ** e.denominator * u
    root = integer_nthroot(t // v, e.denominator)[0]
    exact = root ** e.denominator * v == t
    # root <= scale * q**e < root + 1, with the rational exponent cleared.
    assert root ** e.denominator * v <= t < (root + 1) ** e.denominator * v
    assert scaled_pow(q, e, scale) == (root, root if exact else root + 1)


def _counting_case(draw):
    """counting_subinterval's upper end against its former inline formula."""
    a = draw(st.integers(min_value=2, max_value=10**6))
    c = draw(st.fractions(min_value=2, max_value=4, max_denominator=6))
    n, d = c.numerator, c.denominator
    assert counting_subinterval(a, c) == (
        pow_ceil(a, c), introot(a ** (n - d) * (a + 1) ** d, d)
    )


def _anchor_case(draw):
    """_anchor_upper_bound against its former inline formula."""
    X = draw(st.integers(min_value=2, max_value=10**12))
    c = draw(st.fractions(min_value=2, max_value=4, max_denominator=6))
    n, d = c.numerator, c.denominator
    assert _anchor_upper_bound(X, c) == introot(X ** n * 3 ** d // 2 ** d, n)


@pytest.mark.parametrize(
    "case", [_root_case, _power_case, _counting_case, _anchor_case],
    ids=["root", "power", "counting", "anchor"],
)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_scaled_root_matches_sympy(case, data):
    case(data.draw)


@given(
    st.integers(min_value=0, max_value=1 << 200),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=8, max_value=200),
)
@settings(max_examples=200, deadline=None)
def test_pow_bounds_enclose_the_power(x, k, p):
    lo, hi, s = certified._pow_bounds(x, k, p)
    assert lo << s <= x**k <= hi << s
    assert hi.bit_length() <= p + 1


# The bounded path of scaled_pow at the sizes of certified Mills digits,
# 10**m * a**(1/C) for the degrees C = 3**5, 5**4, 3**6 and 3**7.
MILLS_DEGREES = st.sampled_from([243, 625, 729, 2187])


@st.composite
def mills_digit_cases(draw):
    """(q, 1/d, scale): q an integer or a rational with a numerator of 100
    to 1500 bits, an exact d-th power, or k**d +- 1 just off one; scale
    10**m for 16 <= m <= 200 or 2**s of as many bits."""
    d = draw(MILLS_DEGREES)
    kind = draw(st.sampled_from(["integer", "rational", "exact", "near"]))
    if kind == "exact":
        q = Fraction(draw(st.integers(min_value=2, max_value=1 << 12)) ** d)
    elif kind == "near":
        k = draw(st.integers(min_value=2, max_value=16))
        q = Fraction(k**d + draw(st.sampled_from([-1, 1])))
    else:
        u = draw(st.integers(min_value=1 << 99, max_value=1 << 1500))
        v = draw(st.integers(min_value=1, max_value=u >> 50)) if kind == "rational" else 1
        q = Fraction(u, v)
    if draw(st.booleans()):
        scale = 10 ** draw(st.integers(min_value=16, max_value=200))
    else:
        scale = 1 << draw(st.integers(min_value=53, max_value=664))
    return q, Fraction(1, d), scale


@given(mills_digit_cases())
@settings(max_examples=30, deadline=None)
def test_scaled_pow_matches_sympy_at_mills_sizes(case):
    q, e, scale = case
    d = e.denominator
    t, w = scale**d * q.numerator, q.denominator
    root = integer_nthroot(t // w, d)[0]
    exact = root**d * w == t
    assert scaled_pow(q, e, scale) == (root, root if exact else root + 1)
    if q.denominator == 1 and integer_nthroot(q.numerator, d)[1]:
        # An exact d-th power r**d comes back as r * scale, twice.
        assert exact and root == integer_nthroot(q.numerator, d)[0] * scale


class FullSizeRoot(Exception):
    pass


def _no_full_size_roots(monkeypatch):
    """Make introot raise FullSizeRoot on the powers scaled_pow would
    otherwise settle with bounds."""
    real = certified.introot

    def small_only(n, k):
        if n.bit_length() > certified._BOUNDED_MIN_BITS:
            raise FullSizeRoot(n.bit_length(), k)
        return real(n, k)

    monkeypatch.setattr(certified, "introot", small_only)


def test_bounds_settle_mills_digits(monkeypatch):
    """80 digits of a c = 3 chain of 6 elements: the two 729th roots of
    190k-bit powers are settled by bounds, with the same text."""
    chain = extend_greedy(PrimeChain.seed(2, ExponentSequence.constant(3)), 5)
    want = certified_prefix(chain, 80)
    assert want[0] == 80
    _no_full_size_roots(monkeypatch)
    assert certified_prefix(chain, 80) == want


def test_exact_roots_reach_introot(monkeypatch):
    """Bounds never prove an exact root, so it takes the exact path."""
    args = (7**729, Fraction(1, 729), 10**78)
    assert scaled_pow(*args) == (7 * 10**78, 7 * 10**78)
    _no_full_size_roots(monkeypatch)
    with pytest.raises(FullSizeRoot):
        scaled_pow(*args)


def test_dyadic_denominators_give_the_pair_or_a_budget_error():
    """2**(n / 2**j) for n = 2**(j + 1) + 1 and n = floor(sqrt(5) * 2**j):
    2 <= n / 2**j < log2(5), so the pair is (4, 5), or (4, 4) at e = 2.  The
    bounded path settles every denominator below 2**32; past that, the float
    start cannot seed Newton and the exact power is over the budget, so
    ResourceBudgetError comes at once instead of a wrong answer, a crash or
    gigabytes of memory."""
    for j in range(2, 65):
        for n in (2 ** (j + 1) + 1, math.isqrt(5 << 2 * j)):
            e = Fraction(n, 1 << j)
            if e.denominator < 1 << 32:
                assert scaled_pow(2, e) == (4, 4 if e == 2 else 5), e
            else:
                with pytest.raises(ResourceBudgetError, match=r"over 2\*\*30 bits"):
                    scaled_pow(2, e)


def test_below_decides_distant_exponents_without_shifting():
    # A shift across the 10**18-bit gap would need an exabit integer.
    big = 10**18
    assert certified._below(1, 0, 1, big)
    assert not certified._below(1, big, 1, 0)
    assert not certified._below(5, 0, 1, 2)  # equal bit lengths: 5 < 4?
    assert certified._below(3, big, 1, big + 2)
    assert not certified._below(0, big, 0, 0)
    assert certified._below(0, big, 1, 0) and not certified._below(1, 0, 0, big)
