"""Construction and enumeration of prime-chain trees.

A chain (a_1, ..., a_k) of primes with a_{i+1} in the admissible interval
[ceil(a_i ** c_{i+1}), ceil((a_i + 1) ** c_{i+1}) - 1] pins down a family
of constants A with floor(A ** C_i) = a_i at every level; the tree of all
such chains is the Cantor-type set whose dimension the rest of the package
estimates.  Each tree level's intervals are sieved in one ``sieve_windows`` pass.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Literal, Optional, Sequence, Tuple

from . import primality
from .certified import pow_ceil, scaled_pow
from .errors import ResourceBudgetError

Policy = Literal["full", "counting"]

# Most nodes one tree may hold, its root included.
NODE_BUDGET = 1_000_000


class ExponentSequence:
    """The exponent sequence (c_k): an explicit head, then a constant tail.

    All values are exact rationals with 1 + theta <= c_k <= R, where theta
    is the smallest value minus 1 and R the largest; the partial products
    C_k are computed on demand and stay exact.
    """

    __slots__ = ("head", "tail")

    def __init__(self, head: Tuple[Fraction, ...], tail: Fraction):
        self.head, self.tail = head, tail
        if self.theta < 0:
            raise ValueError("theta must be nonnegative")

    @classmethod
    def constant(cls, c: Fraction) -> "ExponentSequence":
        return cls.of((), c)

    @classmethod
    def of(cls, head: Sequence[Fraction], tail: Fraction) -> "ExponentSequence":
        return cls(tuple(Fraction(c) for c in head), Fraction(tail))

    @property
    def theta(self) -> Fraction:
        return min(self.head + (self.tail,)) - 1

    @property
    def R(self) -> Fraction:
        return max(self.head + (self.tail,))

    def c(self, k: int) -> Fraction:
        """c_k, 1-indexed."""
        if k < 1:
            raise IndexError("exponent index is 1-based")
        if k <= len(self.head):
            return self.head[k - 1]
        return self.tail

    def C(self, k: int) -> Fraction:
        """C_k = c_1 * ... * c_k (C_0 = 1)."""
        if k < 0:
            raise IndexError("partial product index must be >= 0")
        out = Fraction(1)
        for i in range(1, k + 1):
            out *= self.c(i)
        return out


class PrimeChain:
    """A path (a_1, ..., a_k) through the construction tree."""

    __slots__ = ("exponents", "elements")

    def __init__(self, exponents: ExponentSequence, elements: Tuple[int, ...]):
        if not elements:
            raise ValueError("a prime chain needs at least one element")
        self.exponents, self.elements = exponents, elements

    @classmethod
    def seed(cls, p: int, exponents: ExponentSequence) -> "PrimeChain":
        if not primality.is_prime(p):
            raise ValueError(f"seed {p} is not prime")
        return cls(exponents, (p,))

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def last(self) -> int:
        return self.elements[-1]

    def extended(self, p: int) -> "PrimeChain":
        return PrimeChain(self.exponents, self.elements + (p,))

    def next_exponent(self) -> Fraction:
        """The exponent c_{k+1} used to extend this chain."""
        return self.exponents.c(len(self.elements) + 1)


def admissible_interval(a: int, c: Fraction) -> Tuple[int, int]:
    """Integer bounds [ceil(a**c), ceil((a+1)**c) - 1].

    Any prime in this interval extends the chain while keeping every
    constant in the refined level interval consistent with floor(A**C).
    The upper endpoint is the largest integer strictly below (a+1)**c,
    which matches the half-open level intervals for non-integer c too.
    """
    return pow_ceil(a, c), pow_ceil(a + 1, c) - 1


def counting_subinterval(a: int, c: Fraction) -> Tuple[int, int]:
    """Integer bounds of [a**c, a**c + a**(c-1)], the short-density window."""
    c = Fraction(c)
    return pow_ceil(a, c), scaled_pow(a, c - 1, a + 1)[0]


def extend_greedy(chain: PrimeChain, steps: int) -> PrimeChain:
    """Append the smallest admissible prime, ``steps`` times.

    Smallest-successor selection is the classical convention and yields the
    minimal constant in each level interval.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    for _ in range(steps):
        lo, hi = admissible_interval(chain.last, chain.next_exponent())
        p = primality.first_prime_in_range(lo, hi)
        chain = chain.extended(p)
    return chain


class TreeNode:
    """One node of the (breadth-limited) construction tree: the prime
    ``label`` = a_level of every chain through it, the seed at level 1."""

    __slots__ = ("label", "level", "children", "branching_total")

    def __init__(
        self, label: int, level: int,
        children: Sequence[TreeNode] = (),  # a leaf's: the shared empty tuple
        branching_total: int = 0,
    ):
        self.label, self.level = label, level
        self.children, self.branching_total = children, branching_total

    @property
    def truncated(self) -> bool:
        """Whether some successor of this node is not among its children."""
        return len(self.children) < self.branching_total

    @property
    def expanded(self) -> bool:
        """Whether the successors were listed (a dead end's list is empty)."""
        return self.children != ()

    def walk(self):
        """The nodes in preorder, from a stack, so no depth recurses."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def enumerate_tree(
    seed: int,
    exponents: ExponentSequence,
    depth: int,
    branch_cap: Optional[int] = None,
    policy: Policy = "full",
    count_leaves: bool = False,
) -> TreeNode:
    """Materialize the construction tree through ``depth`` expansions.

    Every expanded node records its true successor count in
    ``branching_total``; with a branch cap only the smallest ``branch_cap``
    successors become children and the node is flagged truncated.  Nodes on
    the deepest level stay unexpanded with branching_total 0 unless
    ``count_leaves`` asks for their successor counts too (which costs one
    more level of sieving).

    Each level is one ``primality.sieve_windows`` pass over the level's
    intervals, zipped with its nodes, which sets each node as soon as its
    interval is sieved; the node budget is checked after each interval.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if branch_cap is not None and branch_cap < 1:
        raise ValueError("branch_cap must be positive")
    interval = {"full": admissible_interval, "counting": counting_subinterval}.get(policy)
    if interval is None:
        raise ValueError(f"unknown policy {policy!r}")
    root = TreeNode(PrimeChain.seed(seed, exponents).last, 1)
    level, size = [root], 1
    for k in range(2, depth + count_leaves + 2):  # level k: the successors of ``level``
        leaves, c = k == depth + 2, exponents.c(k)
        found_lists = primality.sieve_windows([interval(n.label, c) for n in level], leaves)
        for node, found in zip(level, found_lists):
            node.branching_total = found if leaves else len(found)
            if not leaves:
                size += len(kept := found[:branch_cap])
                if size > NODE_BUDGET:
                    raise ResourceBudgetError(f"tree node budget {NODE_BUDGET} exceeded")
                node.children = [TreeNode(p, k) for p in kept]
        level = [child for node in level for child in node.children]
    return root
