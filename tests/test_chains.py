"""Chain intervals, greedy extension, tree building and its successors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from primecantor import chains, primality
from primecantor.chains import (
    ExponentSequence,
    PrimeChain,
    admissible_interval,
    counting_subinterval,
    enumerate_tree,
    extend_greedy,
)
from primecantor.constant import certified_prefix, verify_representation
from primecantor.errors import ResourceBudgetError
from primecantor.primality import primes_in_range


def test_exponent_sequence_constant():
    es = ExponentSequence.constant(3)
    assert es.c(1) == es.c(7) == 3
    assert es.C(0) == 1
    assert es.C(4) == 81
    assert es.theta == 2 and es.R == 3


def test_exponent_sequence_head_tail():
    es = ExponentSequence.of([3, Fraction(5, 2)], 2)
    assert es.c(1) == 3
    assert es.c(2) == Fraction(5, 2)
    assert es.c(3) == es.c(10) == 2
    assert es.C(3) == 15
    assert es.theta == 1 and es.R == 3


def test_exponent_sequence_validation():
    with pytest.raises(ValueError, match="theta must be nonnegative"):
        ExponentSequence.constant(Fraction(1, 2))  # theta = -1/2
    with pytest.raises(IndexError):
        ExponentSequence.constant(2).c(0)


def test_prime_chain_seed_rejects_composite():
    es = ExponentSequence.constant(3)
    with pytest.raises(ValueError):
        PrimeChain.seed(4, es)
    chain = PrimeChain.seed(2, es)
    assert chain.last == 2 and len(chain) == 1
    assert chain.next_exponent() == 3


def test_admissible_interval_examples():
    assert admissible_interval(2, 3) == (8, 26)
    assert admissible_interval(11, 3) == (1331, 1727)
    assert admissible_interval(2, 2) == (4, 8)
    # Fractional exponent: [2**(5/2), 3**(5/2)) ~ [5.65, 15.58]
    assert admissible_interval(2, Fraction(5, 2)) == (6, 15)


def test_counting_subinterval_examples():
    assert counting_subinterval(2, 3) == (8, 12)
    assert counting_subinterval(11, 3) == (1331, 1452)
    assert counting_subinterval(2, 2) == (4, 6)


@given(
    st.integers(min_value=2, max_value=10**6),
    st.fractions(min_value=2, max_value=4, max_denominator=6),
)
@settings(max_examples=200, deadline=None)
def test_counting_window_inside_admissible(a, c):
    alo, ahi = admissible_interval(a, c)
    clo, chi = counting_subinterval(a, c)
    assert alo == clo
    assert alo <= chi <= ahi
    n, d = c.numerator, c.denominator
    # chi = floor(a**(c-1) * (a+1)): sandwich certificate.
    assert chi**d <= a ** (n - d) * (a + 1) ** d < (chi + 1) ** d


@given(st.integers(min_value=2, max_value=10**4), st.fractions(min_value=2, max_value=4, max_denominator=6))
@settings(max_examples=150, deadline=None)
def test_adjacent_admissible_intervals_tile(a, c):
    # Consecutive bases produce contiguous, non-overlapping integer ranges.
    _, hi_a = admissible_interval(a, c)
    lo_next, _ = admissible_interval(a + 1, c)
    assert lo_next == hi_a + 1


def test_successors_examples():
    # A chain's successors are the primes of its policy's window.
    assert primes_in_range(*admissible_interval(2, 3)) == [11, 13, 17, 19, 23]
    assert primes_in_range(*counting_subinterval(2, 3)) == [11]
    assert primes_in_range(*admissible_interval(11, 3))[0] == 1361
    for depth in (0, 1):
        with pytest.raises(ValueError, match="unknown policy 'bogus'"):
            enumerate_tree(2, ExponentSequence.constant(3), depth, policy="bogus")


def test_successors_match_direct_sieve():
    es = ExponentSequence.constant(Fraction(5, 2))
    root = enumerate_tree(3, es, 1)
    lo, hi = admissible_interval(3, Fraction(5, 2))
    assert [child.label for child in root.children] == primes_in_range(lo, hi)


def greedy_mills(steps):
    return extend_greedy(PrimeChain.seed(2, ExponentSequence.constant(3)), steps)


def test_extend_greedy_mills():
    chain = greedy_mills(3)
    assert chain.elements == (2, 11, 1361, 2521008887)
    report = verify_representation(chain)
    assert report.all_passed
    assert [c.probable_prime for c in report.levels] == [False] * 4


def test_extend_greedy_mills_matches_published_values():
    # Caldwell & Cheng, J. Integer Seq. 8 (2005), Art. 05.4.1: the offsets
    # a_{k+1} - a_k**3 of the greedy chain (OEIS A108739) and the digits of
    # Mills' constant (OEIS A051021).
    chain = greedy_mills(7)
    a = chain.elements
    assert [b - a_k**3 for a_k, b in zip(a, a[1:])] == [3, 30, 6, 80, 12, 450, 894]
    assert certified_prefix(chain, 31) == (31, "1.306377883863080690468614492602")


def test_extend_greedy_square_case():
    es = ExponentSequence.constant(2)
    chain = extend_greedy(PrimeChain.seed(2, es), 2)
    assert chain.elements == (2, 5, 29)


def test_prime_chain_rejects_no_elements():
    with pytest.raises(ValueError, match="^a prime chain needs at least one element$"):
        PrimeChain(ExponentSequence.constant(3), ())


def test_extend_greedy_zero_steps():
    es = ExponentSequence.constant(3)
    chain = PrimeChain.seed(5, es)
    assert extend_greedy(chain, 0) is chain
    with pytest.raises(ValueError):
        extend_greedy(chain, -1)


def test_enumerate_tree_depth0():
    es = ExponentSequence.constant(3)
    root = enumerate_tree(2, es, 0)
    assert root.children == ()
    assert root.branching_total == 0
    assert not root.truncated
    assert root.level == 1


def test_enumerate_tree_depth1_full():
    es = ExponentSequence.constant(3)
    root = enumerate_tree(2, es, 1)
    assert root.branching_total == 5
    assert [c.label for c in root.children] == [11, 13, 17, 19, 23]
    assert not root.truncated
    assert all(c.level == 2 and c.children == () for c in root.children)


def test_tree_nodes_hold_only_their_fields():
    # Leaves share the empty tuple and no node carries a __dict__.
    nodes = list(enumerate_tree(2, ExponentSequence.constant(3), 1).walk())
    assert [n.children == () for n in nodes] == [False] + [True] * 5
    assert not any(hasattr(n, "__dict__") for n in nodes)


def test_enumerate_tree_cap_records_true_totals():
    es = ExponentSequence.constant(2)
    root = enumerate_tree(2, es, 2, branch_cap=2)
    assert root.branching_total == 2  # primes {5, 7} in [4, 8]
    assert not root.truncated
    assert sum(1 for _ in root.walk()) <= 7
    for child in root.children:
        lo, hi = admissible_interval(child.label, 2)
        assert child.branching_total == len(primes_in_range(lo, hi))
        assert len(child.children) <= 2
        assert child.truncated == (len(child.children) < child.branching_total)


def test_enumerate_tree_count_leaves():
    es = ExponentSequence.constant(3)
    assert enumerate_tree(2, es, 0, count_leaves=True).branching_total == 5
    root = enumerate_tree(2, es, 1, count_leaves=True)
    for leaf in root.children:
        lo, hi = admissible_interval(leaf.label, 3)
        assert leaf.branching_total == len(primes_in_range(lo, hi))
        assert leaf.truncated == (leaf.branching_total > 0)


def test_enumerate_tree_budget(monkeypatch):
    monkeypatch.setattr(chains, "NODE_BUDGET", 10)
    es = ExponentSequence.constant(3)
    with pytest.raises(ResourceBudgetError, match="budget 10 exceeded"):
        enumerate_tree(2, es, 2)


def test_enumerate_tree_over_budget_level_fails_before_sieving(monkeypatch):
    # The leaves under 11, 13, 17, 19, 23 have widths 397, 547, 919, 1141
    # and 1657, so a budget of 1000 must stop the counting pass when the
    # widest is checked, before its first interval, rather than after three
    # completed counts.
    monkeypatch.setattr(primality, "WIDTH_LIMIT", 1000)
    counted = []
    count = primality.count_primes_in_range

    def counting(lo, hi):
        counted.append(count(lo, hi))
        return counted[-1]

    monkeypatch.setattr(primality, "count_primes_in_range", counting)
    with pytest.raises(ResourceBudgetError, match="width 1657"):
        enumerate_tree(2, ExponentSequence.constant(3), 1, count_leaves=True)
    assert counted == []


def test_tree_invariants():
    # Each node's children are the primes of the tree policy's window for the
    # chain along its root path, so a non-constant sequence checks that level
    # k expands with c_{k+1}.
    windows = {"full": admissible_interval, "counting": counting_subinterval}

    def check(node, chain, policy):
        assert (node.label, node.level) == (chain.last, len(chain))
        labels = [c.label for c in node.children]
        if node.level <= 2:
            lo, hi = windows[policy](node.label, chain.next_exponent())
            assert labels == primes_in_range(lo, hi)
            assert node.branching_total == len(labels) and not node.truncated
        else:
            assert labels == [] and node.branching_total == 0
        for child in node.children:
            check(child, chain.extended(child.label), policy)

    for seed, es, policy in [(3, ExponentSequence.constant(2), "full"),
                             (2, ExponentSequence.of([3, Fraction(5, 2)], 2), "full"),
                             (2, ExponentSequence.constant(3), "counting")]:
        root = enumerate_tree(seed, es, 2, policy=policy)
        check(root, PrimeChain.seed(seed, es), policy)

