"""Hausdorff-dimension lower bounds from nested-interval level statistics.

The estimator is the classical one for general Cantor constructions: if
every (k-1)-st level interval contains at least m_k k-th level intervals
separated by gaps of at least eps_k, then

    dim >= liminf_k  log(m_1 ... m_{k-1}) / (-log(m_k * eps_k)).

Level magnitudes here grow like p ** (3 ** k), so every statistic is kept
in log-space (natural log as a float); the final ratio only ever needs the
logarithms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import pairwise
from typing import Dict, Iterable, List, Sequence, Tuple

from . import primality
from .certified import scaled_pow
from .chains import ExponentSequence, PrimeChain, TreeNode, admissible_interval, sieve_level
from .errors import InapplicableLevelsError, TruncatedTreeError, UncertifiedGapError

LOG2 = math.log(2.0)
# Bits of scale a certified sibling gap carries past its mean-value estimate.
_GUARD_BITS = 48


class LevelStats:
    """Per-level statistics in log-space: ln of the minimum branching m_k
    and ln of the minimum gap eps_k."""

    __slots__ = ("k", "log_m", "log_eps")

    def __init__(self, k: int, log_m: float, log_eps: float):
        if not (math.isfinite(log_m) and math.isfinite(log_eps)):
            raise ValueError(f"level {k}: log_m and log_eps must be finite")
        self.k, self.log_m, self.log_eps = k, log_m, log_eps

    def __repr__(self) -> str:
        return f"LevelStats(k={self.k}, log_m={self.log_m!r}, log_eps={self.log_eps!r})"


class DimensionParams:
    """Inputs of the general analytic level formulas."""

    __slots__ = ("a1", "Q", "L", "theta", "R")

    # No formula reads theta or R; they stay while bench/probes.py sets them.
    def __init__(
        self, a1: int, Q: float = 0.5, L: float = 1.0,
        theta: Fraction = Fraction(1), R: Fraction = Fraction(3),
    ):
        if a1 < 2:
            raise ValueError("a1 must be >= 2")
        for name, value in (("Q", Q), ("L", L)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if R < 1 + theta:
            raise ValueError("R must be >= 1 + theta")
        self.a1, self.Q, self.L, self.theta, self.R = a1, Q, L, theta, R


def falconer_profile(
    levels: Sequence[LevelStats],
) -> Tuple[List[Tuple[int, float]], float]:
    """Every finite-k ratio log(m_1...m_{k-1}) / -log(m_k eps_k), plus the
    conservative tail proxy for their liminf.

    Returns ([(k, estimate)], min over the deepest half of the estimates);
    levels that admit no estimate do not count towards that half.  The
    liminf over k, not any one value, bounds the dimension from below.

    One pass goes up from the lowest supplied index (analytic presets start
    at index 2, whose level-1 statistic the constructions do not define).
    It ends at the first missing index or m_k < 2, since every deeper ratio
    includes that level; a level with m_k eps_k >= 1 gets no ratio, but its
    m_k still counts.  At the lowest index there is no branching product
    yet; the level's own log m_k is used as the numerator, i.e. the value
    the ratio would take if that level's geometry repeated.  A repeated
    index k raises ValueError.
    """
    by_k: Dict[int, LevelStats] = {}
    for stats in levels:
        if stats.k in by_k:
            raise ValueError(f"duplicate level index {stats.k}")
        by_k[stats.k] = stats
    profile: List[Tuple[int, float]] = []
    lowest = k = min(by_k, default=0)
    log_product = 0.0
    while k in by_k and by_k[k].log_m >= LOG2 - 1e-12:
        stats = by_k[k]
        denom = -(stats.log_m + stats.log_eps)
        if denom > 0:
            numer = stats.log_m if k == lowest else log_product
            profile.append((k, numer / denom))
        log_product += stats.log_m
        k += 1
    if not profile:
        raise InapplicableLevelsError("no level admits an estimate")
    tail = profile[-max(1, math.ceil(len(profile) / 2)):]
    return profile, min(est for _, est in tail)


def middle_thirds_levels(k_max: int) -> List[LevelStats]:
    """The textbook preset: two children per interval, gaps 3**-k."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return [
        LevelStats(k, LOG2, -k * math.log(3.0))
        for k in range(1, k_max + 1)
    ]


def paper_levels_simple(
    p: int, d1: float, delta: float, k_max: int
) -> List[LevelStats]:
    """Analytic level statistics of the cubic-exponent construction.

    m_k = d1 * p ** (3 ** (k-2) * (2 - delta)),
    eps_k = 3 ** -k * (p + 1) ** (1/3 - 3 ** (k-1)),
    both held as logarithms; defined for k >= 2.

    The finite-depth ratio tends to
    (1 - delta/2) ln p / (3 ln(p + 1) - (2 - delta) ln p), whose first-order
    form in 1/p is (1 - delta/2) / (1 + delta + 3 / (p ln p)), with a gap of
    O(k * 3 ** -k).  For d1 <= 1 it approaches from below at every k >= 3
    with k ln 3 > ln(p + 1) / 3.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    if not 0 < d1 < math.inf:
        raise ValueError("d1 must be positive and finite")
    if not 0 <= delta < 1:
        raise ValueError("delta must lie in [0, 1)")
    log_p = math.log(p)
    log_p1 = math.log(p + 1)
    log3 = math.log(3.0)
    out = []
    try:
        for k in range(2, k_max + 1):
            log_m = math.log(d1) + 3.0 ** (k - 2) * (2.0 - delta) * log_p
            log_eps = -k * log3 + (1.0 / 3.0 - 3.0 ** (k - 1)) * log_p1
            out.append(LevelStats(k, log_m, log_eps))
    except (OverflowError, ValueError) as exc:
        raise _past_float_range(exc, k_max, out) from None
    return out


def paper_levels_general(
    params: DimensionParams,
    exponents: ExponentSequence,
    k_max: int,
) -> List[LevelStats]:
    """Analytic level statistics for a general bounded exponent sequence.

    eps_k = (1/C_k) * (a1 + 1) ** ((1 - C_k) / C_1),
    m_k   = Q * a1 ** ((C_k - C_{k-1}) / C_1) / (C_k * ln a1) ** L,
    in log-space; defined for k >= 2.

    For the constant sequence c = 2 the finite-depth ratio tends to
    ln a1 / (ln a1 + 2 ln(1 + 1/a1)) with a gap of O(k**2 * 2 ** -k).  For
    Q <= 1 it approaches from below at every k >= 3 with
    (1 + L) k ln 2 > ln(a1 + 1) / 2.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    if exponents.theta <= 0:
        raise ValueError("the analytic level formulas need theta > 0")
    a1 = params.a1
    log_a1 = math.log(a1)
    log_a1p = math.log(a1 + 1)
    out = []
    c1 = exponents.C(1)
    c_prev = c1
    try:
        for k in range(2, k_max + 1):
            c_k = c_prev * exponents.c(k)
            log_eps = -_log_frac(c_k) + float((1 - c_k) / c1) * log_a1p
            log_m = (
                math.log(params.Q)
                # (C_k - C_{k-1}) / C_1 without subtracting two long fractions
                + float(c_prev * (exponents.c(k) - 1) / c1) * log_a1
                - params.L * (_log_frac(c_k) + math.log(log_a1))
            )
            out.append(LevelStats(k, log_m, log_eps))
            c_prev = c_k
    except (OverflowError, ValueError) as exc:
        raise _past_float_range(exc, k_max, out) from None
    return out


def _past_float_range(exc: Exception, k_max: int, out: List[LevelStats]) -> Exception:
    """exc at the first analytic level, else a ValueError naming k_max."""
    return exc if not out else ValueError(
        f"k_max {k_max} is past float range: level {out[-1].k} is the last "
        "with finite statistics")


def _log_frac(q: Fraction) -> float:
    """ln of a positive rational, safe for huge numerators."""
    return math.log(q.numerator) - math.log(q.denominator)


def proposition_bound(a1: int, R: Fraction) -> float:
    """The closed-form limit 1 / (1 + R / (a1 * ln a1)).

    This is the first-order form in 1/a1 of the limit
    ln a1 / (ln a1 + R ln(1 + 1/a1)) of the general preset with constant
    exponent c = R, and lies just below it: the two differ by 1.4e-7 at
    a1 = 1009, R = 2.  R / a1 is divided exactly before it is rounded, so a1
    never becomes a float and seeds past float range give 1.0.
    """
    if a1 < 2:
        raise ValueError("a1 must be >= 2")
    return 1.0 / (1.0 + float(Fraction(R) / a1) / math.log(a1))


def measured_levels(
    tree: TreeNode, exponents: ExponentSequence
) -> List[LevelStats]:
    """Exact level statistics measured on a tree enumerated with ``exponents``.

    For each level k >= 2 present in the tree: m_k is the minimum recorded
    branching over level-(k-1) nodes, and eps_k is a certified lower bound
    on the smallest gap between adjacent same-parent sibling intervals at
    level k.  Any truncated node invalidates the minima, so capped trees
    are rejected.  An expanded parent without children is a dead end (its
    interval holds no prime), which makes m_k 0; that, and a level where no
    parent has two children and so no gap, raise InapplicableLevelsError.
    """
    if not tree.expanded:
        raise TruncatedTreeError(_TOO_SHALLOW)
    out, parents = [], [tree]
    while any(p.expanded for p in parents):
        if any(p.truncated for p in parents):
            raise TruncatedTreeError(
                f"level {len(out) + 1} contains truncated nodes; minima would lie"
            )
        lists = ([c.label for c in p.children] for p in parents)
        out.append(_level_stats(len(out) + 2, [p.label for p in parents], lists, exponents)[0])
        parents = [child for p in parents for child in p.children]
    return out


def stream_levels(seed: int, exponents: ExponentSequence, depth: int) -> List[LevelStats]:
    """``measured_levels(enumerate_tree(seed, exponents, depth), exponents)``
    without the tree.  Each level that is expanded next is listed, one
    interval at a time, and only its labels are kept; the deepest level is
    counted, and only the tail of it that its sibling gap needs is listed
    (_counted_level_stats).  So the width budget bounds each interval and
    no node budget applies.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    labels = [PrimeChain.seed(seed, exponents).last]
    if depth == 0:
        raise TruncatedTreeError(_TOO_SHALLOW)
    out = []
    for k in range(2, depth + 1):
        stats, labels = _level_stats(
            k, labels, sieve_level(labels, exponents.c(k)), exponents, keep=True)
        out.append(stats)
    out.append(_counted_level_stats(depth + 1, labels, exponents))
    return out


_TOO_SHALLOW = "measured levels need depth >= 1"


def _level_stats(
    k: int, labels: Sequence[int], successors: Iterable[List[int]],
    exponents: ExponentSequence, keep: bool = False,
) -> Tuple[LevelStats, List[int]]:
    """The LevelStats of level k and, with ``keep``, its labels.

    ``successors`` gives the ascending successors of each level-(k-1)
    label, in label order; each list is reduced as it comes, and the first
    dead end raises at once.  A later pair with the same difference lies
    further right, so the rightmost pair of each difference is the last.
    """
    m, rightmost, kept = math.inf, {}, []
    for parent, found in zip(labels, successors):
        if not found:
            raise _dead_end(k, parent)
        m = min(m, len(found))
        rightmost.update((b - a, a) for a, b in pairwise(found))
        if keep:
            kept += found
    if not rightmost:
        raise _no_sibling_pair(k)
    eps_k = _min_sibling_gap(rightmost, 1 / exponents.C(k))
    return LevelStats(k, math.log(m), _log_frac(eps_k)), kept


def _dead_end(k: int, parent: int) -> InapplicableLevelsError:
    return InapplicableLevelsError(
        f"level {k - 1}: node {parent} has no successor, so m_{k} is 0")


def _no_sibling_pair(k: int) -> InapplicableLevelsError:
    return InapplicableLevelsError(
        f"level {k}: no parent has two children, so there is no sibling gap")


def _counted_level_stats(
    k: int, labels: Sequence[int], exponents: ExponentSequence,
    interval=admissible_interval,
) -> LevelStats:
    """What _level_stats gives for the successors in ``interval`` of the
    level-(k-1) ``labels``, with the successors counted, not listed: m_k
    and the first dead end come from the counts, eps_k from _tail_gap.
    """
    c = exponents.c(k)
    counts = []
    for parent, n in zip(labels, sieve_level(labels, c, interval, count=True)):
        if not n:
            raise _dead_end(k, parent)
        counts.append(n)
    if max(counts, default=0) < 2:
        raise _no_sibling_pair(k)
    tail = (interval(a, c) for a, n in zip(reversed(labels), reversed(counts)) if n > 1)
    eps_k = _tail_gap(tail, interval(labels[0], c)[0], 1 / exponents.C(k))
    return LevelStats(k, math.log(min(counts)), _log_frac(eps_k))


def _tail_gap(spans: Iterable[Tuple[int, int]], lowest: int, e: Fraction) -> Fraction:
    """_min_sibling_gap of a level from as few of its primes as it takes.

    ``spans`` are the successor intervals of the parents with two or more
    successors, right to left, and ``lowest`` is the level's lowest integer.
    The primes are listed backwards from the right end, in windows that
    double leftwards through the last parent's interval and then the ones
    before it.  So the first pair seen with a difference d is d's
    rightmost, the pair _min_sibling_gap certifies; the pair across two
    windows of one parent is a sibling pair, the pair across two parents
    is not.  The listing stops once _unseen_gap_floor shows that no
    difference not yet seen can beat the least gap so far.
    """
    s_min = _gap_scale(lowest, e)
    gaps: Dict[int, Fraction] = {}
    width = 0
    for lo, hi in spans:
        width = width or _first_window(hi)
        right: List[int] = []  # the least prime listed in this interval
        while lo <= hi:
            left = max(lo, hi - width + 1)
            found = primality.primes_in_range(left, hi) + right
            new = {q - p: p for p, q in pairwise(found) if q - p not in gaps}
            gaps.update((d, _certified_gap(p + 1, p + d, e)) for d, p in new.items())
            right, hi, width = found[:1], left - 1, 2 * width
            if gaps:
                least = min(gaps.values())
                x = found[0] if found else left
                if _unseen_gap_floor(gaps, x, e, s_min, lowest <= 2) >= least:
                    return least
    return min(gaps.values())


def _first_window(hi: int) -> int:
    """Width of the first window _tail_gap lists, ending at hi.

    b**2 integers for b = hi.bit_length(), about 2.1 (ln hi)**2: near 2.7
    times the mean distance between twin primes there (Hardy-Littlewood),
    whose rightmost pair most often certifies the least gap.
    """
    return hi.bit_length() ** 2


def _unseen_gap_floor(
    gaps: Dict[int, Fraction], x: int, e: Fraction, s_min: int, two: bool,
) -> Fraction:
    """An exact lower bound on the certified gap of every sibling pair whose
    difference is not among those in ``gaps``, given that each such pair
    has its upper label at most x, that every certified gap of the level
    has a scale of at least s_min, and whether the prime 2 may lie in the
    level (``two``).

    Let d be the least difference not in ``gaps``; an odd one other than 1
    needs 2 below an odd prime other than 3.  A pair's true gap is then at
    least (d - 1) * e * x**(e - 1), as y**e is concave, and its certified
    gap is less than 2**(1 - s) below the true one, for its scale
    s >= s_min.  x**e enters as its floor at scale 2**s_min.
    """
    d = 2
    while d in gaps:
        d += 2
    if two and 1 not in gaps:
        d = 1
    floor = scaled_pow(x, e, 1 << s_min)[0]
    return (d - 1) * e * Fraction(floor, x << s_min) - Fraction(2, 1 << s_min)


def _min_sibling_gap(rightmost: Dict[int, int], e: Fraction) -> Fraction:
    """Certified lower bound on min gap between adjacent sibling intervals,
    given the rightmost pair a, a + d of each difference d; the intervals of
    siblings a < b lie b**e - (a + 1)**e apart, e = 1/C.

    y**e is concave (C >= 1), so for a fixed d that gap never grows with a,
    and only the rightmost pair of each d is certified: its certified gap is
    at most its true gap, which is at most every same-d pair's gap.
    """
    return min(_certified_gap(a + 1, a + d, e) for d, a in rightmost.items())


def _certified_gap(lower_label: int, upper_label: int, e: Fraction) -> Fraction:
    """floor(2**s * upper**e) - ceil(2**s * lower**e), over 2**s, for e = 1/C.

    The scale is the mean-value estimate of the gap plus _GUARD_BITS, which
    makes the bound positive for sibling labels (they differ by at least 2);
    a bound that is not raises UncertifiedGapError.
    """
    s = _gap_scale(upper_label, e)
    gap = (scaled_pow(upper_label, e, 1 << s)[0]
           - scaled_pow(lower_label, e, 1 << s)[1])
    if gap <= 0:
        raise UncertifiedGapError(
            f"{upper_label}**({e}) - {lower_label}**({e}) is not "
            f"certified positive at scale 2**-{s}"
        )
    return Fraction(gap, 1 << s)


def _gap_scale(upper_label: int, e: Fraction) -> int:
    """The scale _certified_gap takes; it never falls as the label grows."""
    return max(4, _slope_scale(upper_label, e) + _GUARD_BITS)


def _slope_scale(x: int, e: Fraction) -> int:
    """About -log2 of the slope e * x**(e - 1) of y**e at x, for e = 1/C."""
    c_f = e.denominator / e.numerator  # float(C), correctly rounded
    return int(math.log2(c_f) - (1.0 / c_f - 1.0) * (x.bit_length() - 1))


def branching_growth_log(x: float, t: float, s: float, L: float) -> float:
    """ln of x ** (t - s) * (t * ln x) ** -L, the factor whose monotonicity
    lets per-node branching bounds be pushed down to the seed.

    Increasing in x on x >= exp(L / (t - s)).
    """
    if x < 2 or t <= s or s <= 0 or L <= 0:
        raise ValueError("need x >= 2 and t > s > 0, L > 0")
    return (t - s) * math.log(x) - L * math.log(t * math.log(x))
