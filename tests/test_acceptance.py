"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Each test prints its verdict before asserting, so a red run still reports
every criterion's status in the captured output (run with -s or -rA to see
the lines directly).
"""

import math
import random
from fractions import Fraction

from primecantor.certified import pow_floor, root_enclosure
from primecantor.errors import NoPrimeInIntervalError
from primecantor.chains import (
    ExponentSequence,
    PrimeChain,
    admissible_interval,
    counting_subinterval,
    enumerate_tree,
    extend_greedy,
)
from primecantor.constant import digits
from primecantor.dimension import (
    DimensionParams,
    branching_growth_log,
    falconer_profile,
    measured_levels,
    middle_thirds_levels,
    paper_levels_general,
    paper_levels_simple,
    proposition_bound,
)
from primecantor.primality import (
    first_prime_in_range,
    is_prime,
    primes_in_range,
    small_primes,
)


def report(num: int, label: str, ok: bool, detail: str = "") -> bool:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {num} [{verdict}] {label}{suffix}")
    return ok


# --- 1. greedy cubic chain regression -------------------------------------

def oracle_floor_pow(num: int, den: int, e: int) -> int:
    """floor((num/den) ** e) by plain integer arithmetic."""
    return num**e // den**e


def bisect_constant(targets, scale_bits=140):
    """Smallest x with floor(x ** 3**k) = a_k for all k, via dyadic bisection.

    Bisection on the deepest target alone; the shallower floors follow from
    nesting and are re-verified by the caller.
    """
    a = targets[-1]
    e = 3 ** len(targets)
    lo, hi = 1, 2 << scale_bits  # mantissas at fixed scale
    den = 1 << scale_bits
    # Find the smallest mantissa m with floor((m/den)**e) >= a.
    while lo < hi:
        mid = (lo + hi) // 2
        if oracle_floor_pow(mid, den, e) >= a:
            hi = mid
        else:
            lo = mid + 1
    return lo, den


def test_criterion_1_mills_regression():
    es = ExponentSequence.constant(3)
    chain = extend_greedy(PrimeChain.seed(2, es), 3)
    text = digits(chain, 9)

    targets = (2, 11, 1361, 2521008887)
    num, den = bisect_constant(targets)
    oracle_ok = all(
        oracle_floor_pow(num, den, 3**k) == targets[k - 1] for k in range(1, 5)
    )
    # First 9 significant digits of the oracle constant.
    oracle_digits = str(num * 10**8 // den)
    oracle_text = oracle_digits[0] + "." + oracle_digits[1:]

    ok = (
        chain.elements == targets
        and text.startswith("1.30637788")
        and oracle_ok
        and oracle_text == text
    )
    assert report(1, "greedy cubic chain and certified digits", ok,
                  f"chain={chain.elements}, digits={text}")


# --- 2. successor enumeration ---------------------------------------------

def test_criterion_2_branching_counts():
    full = primes_in_range(*admissible_interval(2, 3))
    counting = primes_in_range(*counting_subinterval(2, 3))
    ok = full == [11, 13, 17, 19, 23] and counting == [11]
    assert report(2, "successor counts under both policies", ok,
                  f"full={full}, counting={counting}")


# --- 3. round trip: points in the level interval floor back to the chain --

def random_chain(rng):
    c = rng.choice([Fraction(2), Fraction(5, 2), Fraction(3)])
    es = ExponentSequence.constant(c)
    seeds = [p for p in small_primes(10**4)]
    chain = PrimeChain.seed(rng.choice(seeds), es)
    depth = rng.randint(1, 3)
    for _ in range(depth):
        lo, hi = admissible_interval(chain.last, chain.next_exponent())
        start = rng.randrange(lo, hi + 1)
        try:
            p = first_prime_in_range(start, hi)
        except NoPrimeInIntervalError:
            p = first_prime_in_range(lo, hi)
        chain = chain.extended(p)
    return chain


def inner_interval(chain):
    """Rational (lo, hi) strictly inside the chain's true level interval."""
    k = len(chain)
    big_c = chain.exponents.C(k)
    a = chain.last
    width_log2 = (
        (1.0 / float(big_c) - 1.0) * a.bit_length() - math.log2(float(big_c))
    )
    width = Fraction(1, 1 << (int(-width_log2) + 12))
    lo_b = root_enclosure(a, big_c, width)
    hi_b = root_enclosure(a + 1, big_c, width)
    return lo_b.hi, hi_b.lo


def test_criterion_3_round_trip():
    rng = random.Random(20240301)
    failures = 0
    for _ in range(100):
        chain = random_chain(rng)
        lo, hi = inner_interval(chain)
        if not lo < hi:
            failures += 1
            continue
        span = hi - lo
        for _ in range(10):
            q = lo + span * Fraction(rng.randrange(0, 1 << 20), 1 << 20)
            for j in range(1, len(chain) + 1):
                if pow_floor(q, chain.exponents.C(j)) != chain.elements[j - 1]:
                    failures += 1
    ok = failures == 0
    assert report(3, "100 random chains round-trip through floor(q**C_j)", ok,
                  f"failures={failures}")


# --- 4. estimator sanity on the middle-thirds construction ----------------

def test_criterion_4_middle_thirds():
    k = 40
    got = dict(falconer_profile(middle_thirds_levels(k))[0])[k]
    want = (k - 1) * math.log(2) / (k * math.log(3) - math.log(2))
    diff = abs(got - want)
    ok = diff <= 1e-3
    assert report(4, "middle-thirds estimate matches its closed form at k=40",
                  ok, f"got={got:.9f}, closed_form={want:.9f}, diff={diff:.2e}")


# --- 5. cubic-construction closed form ------------------------------------

def simple_finite_depth(p, d1, delta, k):
    """The cubic-construction ratio at depth k, geometric sums summed by hand."""
    n = 3 ** (k - 2)
    lp, lp1 = math.log(p), math.log(p + 1)
    numer = (k - 2) * math.log(d1) + (2 - delta) * lp * (n - 1) / 2
    denom = (n * (3 * lp1 - (2 - delta) * lp) - math.log(d1)
             + k * math.log(3) - lp1 / 3)
    return numer / denom


def test_criterion_5_simple_closed_form():
    # The finite-depth ratio climbs to the closed form from below, and its gap
    # shrinks by about x0.35 per level: 2.78e-5 at k=12, 1.19e-6 at k=15 and
    # 4.15e-7 at k=16.  The constant terms -(2 - delta) ln p / 2 and
    # (k - 2) ln d1 against a numerator of about 1.2e6 alone put the k=12
    # ratio 2.3e-5 off, so the 1e-6 tolerance is first met at k=16.
    p, delta, d1, k, k_met = 10**9 + 7, 0.01, 0.5, 12, 16
    profile = dict(falconer_profile(paper_levels_simple(p, d1, delta, k_met))[0])
    ests = [profile[j] for j in range(k, k_met + 1)]
    got, got_met = ests[0], ests[-1]
    exact_err = abs(got - simple_finite_depth(p, d1, delta, k))
    want = (1 - delta / 2) / (1 + delta + 3 / (p * math.log(p)))
    diff = abs(got - want)
    rises_below = all(a < b for a, b in zip(ests, ests[1:] + [want]))
    ok = exact_err <= 1e-12 and rises_below and want - got_met <= 1e-6
    assert report(5, f"cubic-construction estimate exact at k={k}, "
                     f"closed form met by k={k_met}", ok,
                  f"got={got:.9f}, closed_form={want:.9f}, diff={diff:.2e}, "
                  f"finite_depth_err={exact_err:.1e}, rises_below={rises_below}, "
                  f"diff_k{k_met}={want - got_met:.2e}")


# --- 6. general bound consistency -----------------------------------------

def general_finite_depth(a1, Q, L, k):
    """The c=2 general-construction ratio at depth k, sums summed by hand."""
    n = 2 ** (k - 2)
    la, la1 = math.log(a1), math.log(a1 + 1)
    lam, ln2 = math.log(la), math.log(2)
    numer = ((n - 1) * la + (k - 2) * (math.log(Q) - L * lam)
             - L * ln2 * (k * (k - 1) / 2 - 1))
    denom = (n * (2 * la1 - la) - math.log(Q) + L * (k * ln2 + lam)
             + k * ln2 - la1 / 2)
    return numer / denom


def test_criterion_6_general_bound():
    # The gap to the closed form shrinks by about x0.54 per level: for
    # a1=1009 it is 1.17e-4 at k=20 and 6.33e-5 at k=21, for a1=1000003
    # 6.31e-5 and 3.41e-5.  So the 1e-4 tolerance is first met for both
    # seeds at k=21.
    es = ExponentSequence.constant(2)
    Q, L, k, k_met = 0.5, 1.0, 20, 21
    details = []
    ok = True
    for a1 in (10**3 + 9, 10**6 + 3):
        params = DimensionParams(a1=a1, Q=Q, L=L)
        profile = dict(falconer_profile(paper_levels_general(params, es, k_met))[0])
        ests = [profile[j] for j in range(k, k_met + 1)]
        got, got_met = ests[0], ests[-1]
        exact_err = abs(got - general_finite_depth(a1, Q, L, k))
        want = proposition_bound(a1, 2)
        diff = abs(got - want)
        rises_below = all(a < b for a, b in zip(ests, ests[1:] + [want]))
        details.append(f"a1={a1}: diff={diff:.2e}, "
                       f"finite_depth_err={exact_err:.1e}, "
                       f"rises_below={rises_below}, "
                       f"diff_k{k_met}={want - got_met:.2e}")
        ok = (ok and exact_err <= 1e-12 and rises_below
              and want - got_met <= 1e-4)
    assert report(6, f"general estimate exact at k={k}, "
                     f"closed-form bound met by k={k_met}", ok,
                  "; ".join(details))


# --- 7. branching-growth monotonicity -------------------------------------

def test_criterion_7_growth_monotone():
    rng = random.Random(20240302)
    failures = 0
    for _ in range(200):
        t = rng.uniform(1.05, 6.0)
        s = rng.uniform(0.01, t * 0.95)
        L = rng.uniform(0.1, 3.0)
        x_min = max(2.0, math.exp(L / (t - s)))
        for _ in range(10):
            x1 = x_min * (1.0 + rng.uniform(0.0, 3.0))
            x2 = x1 * (1.0 + rng.uniform(0.0, 3.0))
            if branching_growth_log(x2, t, s, L) < branching_growth_log(
                x1, t, s, L
            ) - 1e-9:
                failures += 1
    ok = failures == 0
    assert report(7, "growth factor monotone on 200 random triples", ok,
                  f"failures={failures}")


# --- 8. measured tree feeds the estimator ---------------------------------

def test_criterion_8_measured_tree():
    seed = first_prime_in_range(10**5, 10**5 + 100)
    es = ExponentSequence.constant(2)
    tree = enumerate_tree(seed, es, 1, policy="full")
    levels = measured_levels(tree, es)
    est = dict(falconer_profile(levels)[0])[2]
    eps2 = math.exp(levels[0].log_eps)
    analytic = 0.25 * float(seed + 1) ** -1.5
    ok = 0.8 < est <= 1.0 and eps2 >= analytic
    assert report(8, "measured quadratic tree estimate and gap floor", ok,
                  f"seed={seed}, estimate={est:.6f}, eps2={eps2:.3e}, "
                  f"analytic={analytic:.3e}")


# --- 9. short-interval surveys --------------------------------------------

def test_criterion_9_surveys():
    from primecantor.survey import gamma_survey, matomaki_fraction

    (rec,) = gamma_survey([10**8], Fraction(2, 3))
    total, good, fraction = matomaki_fraction(200, Fraction(2), 0.5)
    ok = rec.count > 0 and 0.3 < rec.density_ratio < 3.0 and fraction >= 0.5
    assert report(9, "density surveys within sanity bands", ok,
                  f"gamma_count={rec.count}, ratio={rec.density_ratio:.3f}, "
                  f"matomaki={good}/{total}")


# --- 10. primality oracle equivalence -------------------------------------

def plain_sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
    return flags


ORACLE_BASE = None


def oracle_base_primes():
    global ORACLE_BASE
    if ORACLE_BASE is None:
        flags = plain_sieve(10**6)
        ORACLE_BASE = [n for n in range(10**6 + 1) if flags[n]]
    return ORACLE_BASE


def trial_division(n, base):
    if n < 2:
        return False
    for p in base:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    return True


def classic_window_sieve(lo, hi):
    flags = bytearray([1]) * (hi - lo + 1)
    for p in oracle_base_primes():
        if p * p > hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        flags[start - lo :: p] = b"\x00" * ((hi - start) // p + 1)
    return [lo + i for i in range(hi - lo + 1) if flags[i] and lo + i >= 2]


def test_criterion_10_primality_oracles():
    base = oracle_base_primes()
    mismatches = sum(
        1 for n in range(10**6 + 1) if is_prime(n) != trial_division(n, base)
    )
    rng = random.Random(20240303)
    window_mismatches = 0
    for _ in range(50):
        lo = rng.randrange(2, 10**12 - 10**4)
        hi = lo + 10**4
        if primes_in_range(lo, hi) != classic_window_sieve(lo, hi):
            window_mismatches += 1
    ok = mismatches == 0 and window_mismatches == 0
    assert report(10, "primality agrees with trial division and window sieve",
                  ok, f"small_mismatches={mismatches}, "
                      f"window_mismatches={window_mismatches}")
