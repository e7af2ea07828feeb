"""Nested-interval dimension estimator, analytic presets, measured levels."""

import math
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate, pairwise
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from primecantor import dimension, primality
from primecantor.certified import root_enclosure
from primecantor.chains import (
    ExponentSequence,
    TreeNode,
    admissible_interval,
    enumerate_tree,
    sieve_level,
)
from primecantor.dimension import (
    DimensionParams,
    LevelStats,
    _certified_gap,
    _counted_level_stats,
    _first_window,
    _level_stats,
    _log_frac,
    branching_growth_log,
    falconer_profile,
    measured_levels,
    middle_thirds_levels,
    paper_levels_general,
    paper_levels_simple,
    proposition_bound,
    stream_levels,
)
from primecantor.errors import (
    InapplicableLevelsError,
    PrimeCantorError,
    ResourceBudgetError,
    TruncatedTreeError,
    UncertifiedGapError,
)

LOG2, LOG3 = math.log(2.0), math.log(3.0)


def test_level_stats_rejects_non_finite():
    msg = "^level 2: log_m and log_eps must be finite$"
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=msg):
            LevelStats(2, bad, -5.0)
        with pytest.raises(ValueError, match=msg):
            LevelStats(2, LOG2, bad)
    # Hypothesis prints falsifying level lists with this repr.
    assert repr(LevelStats(2, 0.5, -5.0)) == "LevelStats(k=2, log_m=0.5, log_eps=-5.0)"


def test_dimension_params_validation():
    params = DimensionParams(a1=1009)
    assert (params.a1, params.Q, params.L, params.theta, params.R) == (1009, 0.5, 1, 1, 3)
    # The keyword form of bench/probes.py.
    params = DimensionParams(a1=11, theta=Fraction(2), R=Fraction(3))
    assert (params.a1, params.theta, params.R) == (11, 2, 3)
    with pytest.raises(ValueError, match="^a1 must be >= 2$"):
        DimensionParams(a1=1)
    with pytest.raises(ValueError, match="^R must be >= 1 \\+ theta$"):
        DimensionParams(a1=10, theta=Fraction(5), R=Fraction(3))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
def test_model_parameters_must_be_positive_and_finite(value):
    for name in ("Q", "L"):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
            DimensionParams(a1=11, **{name: value})
    with pytest.raises(ValueError, match="^d1 must be positive and finite$"):
        paper_levels_simple(11, value, 0.01, 4)


def test_middle_thirds_estimate_matches_closed_form():
    # Finite-k value of the two-branch, 3**-k-gap construction:
    # (k-1) log2 / (k log3 - log2).
    levels = middle_thirds_levels(40)
    got = dict(falconer_profile(levels)[0])[40]
    want = 39 * LOG2 / (40 * LOG3 - LOG2)
    assert got == pytest.approx(want, abs=1e-12)
    assert abs(got - LOG2 / LOG3) < 0.01  # converging toward log2/log3


def test_middle_thirds_estimates_increase_toward_limit():
    levels = middle_thirds_levels(60)
    ests = dict(falconer_profile(levels)[0])
    values = [ests[k] for k in range(2, 61)]
    assert values == sorted(values)
    assert values[-1] < LOG2 / LOG3


def test_direct_substitution_half():
    levels = [
        LevelStats(1, LOG2, math.log(1 / 3)),
        LevelStats(2, LOG2, math.log(1 / 8)),
    ]
    # m_2 * eps_2 = 1/4, so the ratio is log2 / log4.
    assert dict(falconer_profile(levels)[0])[2] == pytest.approx(0.5, abs=1e-12)


def test_falconer_profile_validation():
    levels = middle_thirds_levels(5)
    assert 9 not in dict(falconer_profile(levels)[0])
    assert 7 not in dict(falconer_profile(levels + [LevelStats(7, LOG2, -9.0)])[0])
    with pytest.raises(InapplicableLevelsError):
        falconer_profile([LevelStats(1, math.log(1.5), -1.0)])
    with pytest.raises(InapplicableLevelsError):
        falconer_profile([LevelStats(1, LOG2, 0.0)])  # m * eps >= 1
    with pytest.raises(ValueError, match="duplicate level index 3"):
        falconer_profile(levels + [LevelStats(3, LOG2, -9.0)])


def test_falconer_profile_tail_minimum():
    levels = middle_thirds_levels(10)
    profile, proxy = falconer_profile(levels)
    ks = [k for k, _ in profile]
    assert ks == list(range(1, 11))
    tail = [est for k, est in profile if k > 5]
    assert proxy == min(tail)


def _per_k_estimate(levels, k):
    """The per-k definition the one-pass profile replaced: validate every
    level up to k, then sum the branching logs below it."""
    by_k = {}
    for stats in levels:
        if stats.k in by_k:
            raise InapplicableLevelsError(f"duplicate level index {stats.k}")
        by_k[stats.k] = stats
    if k not in by_k:
        raise InapplicableLevelsError(f"no statistics for level {k}")
    lowest = min(by_k)
    for i in range(lowest, k + 1):
        if i not in by_k:
            raise InapplicableLevelsError(f"missing level {i}")
        if by_k[i].log_m < LOG2 - 1e-12:
            raise InapplicableLevelsError(f"m_{i} < 2")
    denom = -(by_k[k].log_m + by_k[k].log_eps)
    if denom <= 0:
        raise InapplicableLevelsError("m_k * eps_k >= 1")
    if k == lowest:
        numer = by_k[k].log_m
    else:
        numer = sum(by_k[i].log_m for i in range(lowest, k))
    return numer / denom


# log m around the m = 2 cut (tolerance 1e-12) and well inside either side.
_LOG_M = st.one_of(
    st.sampled_from([LOG2, LOG2 - 1e-13, LOG2 - 1e-11, math.log(3.0)]),
    st.floats(0.0, 30.0),
)


@st.composite
def _level_runs(draw):
    lowest = draw(st.integers(1, 6))
    present = draw(st.lists(st.booleans(), max_size=12))
    levels = [
        LevelStats(k, draw(_LOG_M), draw(st.floats(-40.0, 5.0)))
        for k, keep in enumerate([True] + present, start=lowest)
        if keep
    ]
    return draw(st.permutations(levels))


@settings(max_examples=300, deadline=None)
@given(_level_runs())
@example([LevelStats(2, LOG2, -LOG2), LevelStats(3, LOG2, -3.0)])  # m eps == 1
def test_falconer_profile_matches_per_k_definition(levels):
    # Runs with a random lowest index, gaps, m < 2 levels and m eps >= 1
    # levels: the same set of k, and the same float for each.
    want = {}
    for stats in levels:
        try:
            want[stats.k] = _per_k_estimate(levels, stats.k)
        except InapplicableLevelsError:
            pass
    if not want:
        with pytest.raises(InapplicableLevelsError, match="no level admits"):
            falconer_profile(levels)
        return
    profile, proxy = falconer_profile(levels)
    assert dict(profile) == want
    assert profile == sorted(want.items())
    deepest = profile[len(profile) // 2:]
    assert proxy == min(est for _, est in deepest)


def test_falconer_rejects_duplicates_and_no_levels():
    levels = middle_thirds_levels(6) + [LevelStats(9, LOG2, -9.0)] * 2
    with pytest.raises(ValueError, match="duplicate level index 9"):
        falconer_profile(levels)
    with pytest.raises(InapplicableLevelsError, match="no level admits"):
        falconer_profile([])
    assert 9 not in dict(falconer_profile(middle_thirds_levels(6))[0])


def test_falconer_profile_is_linear_in_levels():
    # One pass up the levels takes milliseconds; a pass per k that
    # re-reads every lower level takes seconds.
    levels = middle_thirds_levels(4000)
    start = time.perf_counter()
    profile, _ = falconer_profile(levels)
    assert time.perf_counter() - start < 0.5
    assert len(profile) == 4000


def test_paper_levels_simple_substitutions():
    (lvl2,) = paper_levels_simple(7, 1.0, 0.0, 2)
    assert lvl2.k == 2
    assert lvl2.log_m == pytest.approx(2 * math.log(7))
    assert lvl2.log_eps == pytest.approx(-2 * LOG3 + (1 / 3 - 3) * math.log(8))
    lvl3 = paper_levels_simple(5, 1.0, 0.5, 3)[-1]
    assert lvl3.log_m == pytest.approx(4.5 * math.log(5))
    assert lvl3.log_eps == pytest.approx(-3 * LOG3 + (1 / 3 - 9) * math.log(6))


def test_paper_levels_simple_log_identity():
    for p, d1, delta in [(11, 0.5, 0.01), (101, 2.0, 0.25)]:
        for lvl in paper_levels_simple(p, d1, delta, 6):
            predicted = 3.0 ** (lvl.k - 2) * (2 - delta) + math.log(d1) / math.log(p)
            assert lvl.log_m / math.log(p) == pytest.approx(predicted)


def test_paper_levels_simple_validation():
    with pytest.raises(ValueError):
        paper_levels_simple(1, 0.5, 0.01, 5)
    with pytest.raises(ValueError):
        paper_levels_simple(7, 0.5, 0.01, 1)
    with pytest.raises(ValueError):
        paper_levels_simple(7, 0.0, 0.01, 5)
    for delta in (-0.5, 1.0, 1.5):
        with pytest.raises(ValueError, match="delta"):
            paper_levels_simple(11, 0.5, delta, 6)


def test_paper_levels_general_substitution():
    params = DimensionParams(a1=3, Q=1.0, L=1.0)
    es = ExponentSequence.constant(2)
    (lvl2,) = paper_levels_general(params, es, 2)
    assert lvl2.log_eps == pytest.approx(math.log(1 / 32))
    assert lvl2.log_m == pytest.approx(math.log(3 / (4 * math.log(3))))


def test_paper_levels_general_estimate_approaches_one():
    es = ExponentSequence.constant(2)
    prev = 0.0
    for a1 in (1009, 100003, 1000003):
        params = DimensionParams(a1=a1)
        est = dict(falconer_profile(paper_levels_general(params, es, 20))[0])[20]
        assert est > prev
        prev = est
    assert prev > 0.999


@pytest.mark.parametrize(
    "es",
    [ExponentSequence.constant(2), ExponentSequence.constant(Fraction(7, 3)),
     ExponentSequence.of([3, Fraction(5, 2)], 2)],
    ids=["c=2", "c=7/3", "3,5/2-tail-2"],
)
def test_paper_levels_general_matches_its_formulas(es):
    # log m_k reads (C_k - C_{k-1}) / C_1 as C_{k-1} (c_k - 1) / C_1: the same
    # Fraction, so every float must equal the one the formula gives directly.
    params = DimensionParams(a1=1009, Q=0.5, L=1.5)
    log_a1, c1 = math.log(1009), es.C(1)
    levels = paper_levels_general(params, es, 30)
    assert [lvl.k for lvl in levels] == list(range(2, 31))
    for lvl in levels:
        c_prev, c_k = es.C(lvl.k - 1), es.C(lvl.k)
        assert lvl.log_eps == (-dimension._log_frac(c_k)
                               + float((1 - c_k) / c1) * math.log(1010))
        assert lvl.log_m == (
            math.log(0.5)
            + float((c_k - c_prev) / c1) * log_a1
            - 1.5 * (dimension._log_frac(c_k) + math.log(log_a1))
        )


def test_paper_levels_general_needs_positive_theta():
    params = DimensionParams(a1=101)
    es = ExponentSequence.constant(1)
    with pytest.raises(ValueError):
        paper_levels_general(params, es, 4)


@pytest.mark.parametrize(
    "build, last",
    [
        (lambda k_max: paper_levels_simple(11, 0.5, 0.01, k_max), 646),
        (lambda k_max: paper_levels_general(
            DimensionParams(a1=11), ExponentSequence.constant(2), k_max), 1023),
        # float((1 - C_k) / C_1) itself overflows here, not its product.
        (lambda k_max: paper_levels_general(
            DimensionParams(a1=2), ExponentSequence.constant(10), k_max), 309),
    ],
    ids=["simple", "general-inf", "general-overflow"],
)
def test_analytic_levels_past_float_range_name_k_max(build, last):
    assert build(last)[-1].k == last
    with pytest.raises(ValueError) as exc:
        build(last + 1)
    assert str(exc.value) == (f"k_max {last + 1} is past float range: level "
                              f"{last} is the last with finite statistics")


def test_proposition_bound_values():
    assert proposition_bound(2, 3) == pytest.approx(
        1 / (1 + 3 / (2 * LOG2)), rel=1e-12
    )
    p = 2521008887
    eps = 1 - proposition_bound(p, 3)
    assert eps == pytest.approx(3 / (p * math.log(p) + 3), rel=1e-6)
    assert eps < 1e-10
    with pytest.raises(ValueError):
        proposition_bound(1, 3)


def test_theorem_bound_values():
    # The theorem's bound is the proposition's formula at the seed prime.
    assert proposition_bound(11, 2) == pytest.approx(
        1 / (1 + 2 / (11 * math.log(11))), rel=1e-12
    )
    assert round(proposition_bound(11, 2), 4) == 0.9295
    assert round(proposition_bound(2, 2), 4) == 0.4094


def test_measured_levels_cubic_tree():
    es = ExponentSequence.constant(3)
    tree = enumerate_tree(2, es, 2)
    levels = measured_levels(tree, es)
    assert [lvl.k for lvl in levels] == [2, 3]
    lvl2, lvl3 = levels
    assert lvl2.log_m == pytest.approx(math.log(5))
    # Smallest adjacent sibling gap under the root: between the intervals of
    # 17 and 19, i.e. 19**(1/9) - 18**(1/9); the certified bound sits just
    # below the true value.
    true_gap = 19.0 ** (1 / 9) - 18.0 ** (1 / 9)
    eps2 = math.exp(lvl2.log_eps)
    assert eps2 <= true_gap + 1e-12
    assert eps2 > true_gap - 1e-4
    # Level-3 branching: minimum successor count over the five level-2 nodes.
    from primecantor.chains import admissible_interval
    from primecantor.primality import count_primes_in_range

    min_m3 = min(
        count_primes_in_range(*admissible_interval(a, 3))
        for a in (11, 13, 17, 19, 23)
    )
    assert lvl3.log_m == pytest.approx(math.log(min_m3))
    assert math.exp(lvl3.log_eps) < eps2  # gaps shrink with depth


def test_measured_levels_requires_two_node_levels():
    es = ExponentSequence.constant(3)
    with pytest.raises(TruncatedTreeError):
        measured_levels(enumerate_tree(2, es, 0), es)


def test_measured_levels_needs_a_sibling_pair():
    # For c = 3/2 the only successor of 3 is 7: a full tree, but no gap.
    es = ExponentSequence.constant(Fraction(3, 2))
    with pytest.raises(
        InapplicableLevelsError,
        match="^level 2: no parent has two children, so there is no sibling gap$",
    ):
        measured_levels(enumerate_tree(3, es, 1), es)


@pytest.mark.parametrize(
    "seed, c, dead",
    [(103, Fraction(3, 2), 1051), (173, Fraction(4, 3), 967),
     (313, Fraction(5, 4), 1321), (859, Fraction(5, 4), 4651)],
)
def test_measured_levels_names_a_dead_end(seed, c, dead):
    # The interval of the level-2 node `dead` holds no prime; for seed 103
    # it is [34073, 34121].  Both level-2 nodes under 859 are dead ends
    # ([38409, 38419] and [38471, 38481]), so level 3 is empty.
    es = ExponentSequence.constant(c)
    with pytest.raises(
        InapplicableLevelsError,
        match=f"^level 2: node {dead} has no successor, so m_3 is 0$",
    ):
        measured_levels(enumerate_tree(seed, es, 2), es)


def test_measured_levels_rejects_truncated_trees():
    es = ExponentSequence.constant(3)
    with pytest.raises(TruncatedTreeError):
        measured_levels(enumerate_tree(2, es, 2, branch_cap=2), es)


@given(
    st.integers(min_value=2, max_value=10**12),
    st.integers(min_value=1, max_value=10**4),
    st.sampled_from([Fraction(2), Fraction(3), Fraction(9), Fraction(5, 2),
                     Fraction(27, 4)]),
    st.sampled_from([8, 16, 48]),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_certified_gap_matches_root_enclosures(a, d, big_c, guard, power):
    # Sibling labels a < b with b - a >= 2; the gap runs from (a+1)**(1/C).
    if power:
        a = max(2, round(a ** (1 / big_c.numerator))) ** big_c.numerator - 1
    b = a + 1 + d
    # Mean-value estimate of the gap at b plus the guard bits.
    c_f = float(big_c)
    log2_gap = -math.log2(c_f) + (1.0 / c_f - 1.0) * (b.bit_length() - 1)
    width = Fraction(1, 1 << max(4, int(-log2_gap) + guard))
    want = root_enclosure(b, big_c, width).lo - root_enclosure(a + 1, big_c, width).hi
    with mock.patch.object(dimension, "_GUARD_BITS", guard):
        assert _certified_gap(a + 1, b, 1 / big_c) == want > 0


def test_certified_gap_rejects_an_empty_gap():
    with pytest.raises(UncertifiedGapError):
        _certified_gap(5, 5, Fraction(1, 4))


@st.composite
def sibling_levels(draw):
    """1-4 parents, each with 2-12 children; labels ascend across the level,
    stay <= 10**12, and adjacent labels differ by at least 2."""
    sizes = draw(st.lists(st.integers(2, 12), min_size=1, max_size=4))
    steps = draw(st.lists(
        st.one_of(st.integers(2, 20), st.integers(2, 10**9)),
        min_size=sum(sizes) - 1, max_size=sum(sizes) - 1,
    ))
    labels = accumulate(steps, initial=draw(st.integers(2, 9 * 10**11)))
    return [TreeNode(0, 1, [TreeNode(next(labels), 2) for _ in range(size)])
            for size in sizes]


@given(
    sibling_levels(),
    st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 9),
                     Fraction(2, 5), Fraction(4, 27), Fraction(1)]),
)
@settings(max_examples=200, deadline=None)
def test_min_sibling_gap_matches_every_pair(parents, e):
    # One certified gap per label difference, folded over the level in label
    # order, gives the per-pair minimum; C_2 = 1/e.
    want = min(
        _certified_gap(a + 1, b, e)
        for parent in parents
        for a, b in pairwise(child.label for child in parent.children)
    )
    lists = [[child.label for child in parent.children] for parent in parents]
    stats, _ = _level_stats(2, [0] * len(parents), lists, ExponentSequence.of([1 / e], 1))
    assert stats.log_eps == _log_frac(want)
    assert stats.log_m == math.log(min(map(len, lists)))


def test_measured_levels_certifies_one_gap_per_label_difference(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _certified_gap(*args)

    monkeypatch.setattr(dimension, "_certified_gap", counted)
    es = ExponentSequence.constant(3)
    tree = enumerate_tree(2, es, 2)
    measured_levels(tree, es)
    pairs = [
        (node.level, b - a)
        for node in tree.walk()
        for a, b in pairwise(child.label for child in node.children)
    ]
    assert len(calls) == len(set(pairs)) < len(pairs)


def _stats(levels):
    return [(s.k, s.log_m, s.log_eps) for s in levels]


@pytest.mark.parametrize(
    "seed, es, depth",
    [(2, ExponentSequence.constant(3), 1), (2, ExponentSequence.constant(3), 2),
     (5, ExponentSequence.constant(3), 2), (11, ExponentSequence.constant(2), 3),
     (307, ExponentSequence.constant(2), 2), (100003, ExponentSequence.constant(2), 1),
     (2, ExponentSequence.of([3, Fraction(5, 2)], 2), 2)],
    ids=["2-c3-d1", "2-c3-d2", "5-c3-d2", "11-c2-d3", "307-c2-d2", "100003-c2-d1",
         "2-cseq-d2"],
)
def test_stream_levels_equal_measured_levels(seed, es, depth):
    want = _stats(measured_levels(enumerate_tree(seed, es, depth), es))
    assert _stats(stream_levels(seed, es, depth)) == want


@pytest.mark.parametrize(
    "seed, c, depth",
    [(2, 3, 0), (3, Fraction(3, 2), 1), (103, Fraction(3, 2), 2),
     (173, Fraction(4, 3), 2), (313, Fraction(5, 4), 2), (859, Fraction(5, 4), 2),
     (3, Fraction(11, 10), 1)],
    ids=["depth0", "no-sibling-pair", "dead-103", "dead-173", "dead-313", "dead-859",
         "dead-root"],
)
def test_stream_levels_raise_as_measured_levels(seed, c, depth):
    es = ExponentSequence.constant(c)
    with pytest.raises((TruncatedTreeError, InapplicableLevelsError)) as want:
        measured_levels(enumerate_tree(seed, es, depth), es)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        stream_levels(seed, es, depth)


def test_stream_levels_peak_memory_stays_small():
    # The tree behind this row peaks near 52 MiB; the stream keeps one
    # level-2 interval's primes and the 58 level-2 labels, and counts
    # level 3, listing only a window at its right end.
    es = ExponentSequence.constant(2)
    stream_levels(307, es, 2)  # grows the base-prime table first
    tracemalloc.start()
    try:
        stream_levels(307, es, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_stream_levels_over_budget_level_fails_before_sieving(monkeypatch):
    # Level 3 under 11, 13, 17, 19, 23 has widths 397 to 1657: a budget of
    # 1000 stops it before its first interval, after the root's [8, 26].
    monkeypatch.setattr(primality, "WIDTH_LIMIT", 1000)
    sieved = []
    listing = primality.primes_in_range

    def recording(lo, hi):
        found = listing(lo, hi)
        sieved.append((lo, hi))
        return found

    monkeypatch.setattr(primality, "primes_in_range", recording)
    with pytest.raises(ResourceBudgetError, match="width 1657"):
        stream_levels(2, ExponentSequence.constant(3), 2)
    assert sieved == [(8, 26)]


def _counted_and_listed(k, labels, es, interval=admissible_interval):
    """(k, log_m, log_eps), or the error's type and text, of level k under
    ``labels``: counted, and folded from the listed successors."""
    def outcome(level):
        try:
            stats = level()
        except PrimeCantorError as exc:
            return type(exc), str(exc)
        return stats.k, stats.log_m, stats.log_eps

    def listed():
        return _level_stats(k, labels, sieve_level(labels, es.c(k), interval), es)[0]

    return outcome(lambda: _counted_level_stats(k, labels, es, interval)), outcome(listed)


_SEEDS_BELOW_2000 = primality.small_primes(2000)
# The deepest level keeps its rightmost parents up to this total width.
_LEVEL_WIDTH = 1 << 19


@given(
    st.sampled_from(_SEEDS_BELOW_2000),
    st.sampled_from([Fraction(3, 2), Fraction(7, 4), Fraction(2), Fraction(5, 2),
                     Fraction(3)]),
    st.integers(1, 2),
)
@example(103, Fraction(3, 2), 2)  # dead end under 1051
@example(3, Fraction(3, 2), 1)  # no sibling pair
@example(100003, Fraction(2), 1)
@settings(max_examples=60, deadline=None)
def test_counted_level_equals_listed_level(seed, c, depth):
    es = ExponentSequence.constant(c)
    labels = [seed]
    if depth == 2:
        lo, hi = admissible_interval(seed, c)
        assume(hi - lo < _LEVEL_WIDTH)
        labels = primality.primes_in_range(lo, hi)
    widths = accumulate(hi - lo + 1 for lo, hi in (
        admissible_interval(a, c) for a in reversed(labels)))
    n = sum(1 for w in widths if w <= _LEVEL_WIDTH)
    assume(labels and n)
    counted, listed = _counted_and_listed(depth + 1, labels[-n:], es)
    assert counted == listed


_SPANS = {
    # 2 lies in the level: the pair 2, 3 has an empty gap, and difference
    # 1 never drops out of the unseen ones.
    "pair-2-3": {10: (2, 3), 20: (5, 400)},
    "2-alone": {10: (2, 2), 20: (5, 400)},
    # The rightmost twins straddle the first window's left edge.
    "across-windows": {10: (100500, 101089)},
    # 100151 ends one parent and 100153 starts the next; neither parent
    # holds a pair of twins.
    "across-parents": {10: (100091, 100151), 20: (100152, 100351)},
}


@pytest.mark.parametrize("spans", _SPANS.values(), ids=_SPANS)
def test_counted_level_equals_listed_level_on_given_spans(spans):
    counted, listed = _counted_and_listed(
        2, list(spans), ExponentSequence.constant(2), lambda a, c: spans[a])
    assert counted == listed


def test_across_windows_spans_straddle_the_first_window():
    # The first window under 101089 starts at 100801, of the twins 100799, 100801.
    assert 101089 - _first_window(101089) + 1 == 100801


def test_stream_levels_lists_a_sliver_of_the_deepest_level(monkeypatch):
    # Seed 100003 at c = 2 has one level-2 interval, 200,006 wide; its
    # rightmost twin pair lies 268 below the right end.
    lo, hi = admissible_interval(100003, 2)
    listed = []
    listing = primality.primes_in_range

    def recording(a, b):
        listed.append((a, b))
        return listing(a, b)

    monkeypatch.setattr(primality, "primes_in_range", recording)
    stream_levels(100003, ExponentSequence.constant(2), 1)
    assert hi - lo == 200_006
    assert listed and all(lo <= a <= b <= hi for a, b in listed)
    assert sum(b - a + 1 for a, b in listed) < (hi - lo) // 100


def test_measured_feeds_estimator():
    es = ExponentSequence.constant(3)
    levels = measured_levels(enumerate_tree(2, es, 2), es)
    est = dict(falconer_profile(levels)[0])[3]
    assert 0.0 < est < 1.0


@given(
    st.floats(min_value=1.1, max_value=6.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=200, deadline=None)
def test_branching_growth_log_monotone(t, s_frac, L):
    s = t * s_frac * 0.9  # keep t > s > 0
    x0 = math.exp(L / (t - s))
    lo = max(2.0, x0)
    hi = lo * 1.7
    assert branching_growth_log(hi, t, s, L) >= branching_growth_log(
        lo, t, s, L
    ) - 1e-9


def test_branching_growth_log_validation():
    with pytest.raises(ValueError):
        branching_growth_log(1.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        branching_growth_log(10.0, 1.0, 2.0, 1.0)
