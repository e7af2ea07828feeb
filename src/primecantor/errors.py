"""Exception types shared across the package."""


class PrimeCantorError(Exception):
    """Base class for package errors."""


class NoPrimeInIntervalError(PrimeCantorError):
    """An admissible interval turned out to contain no prime.

    This would contradict the expected short-interval prime density and is
    therefore a reportable event, not a silent empty result.
    """

    def __init__(self, lo, hi):
        super().__init__(f"no prime in [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi


class NeedMoreDepthError(PrimeCantorError):
    """The level interval is too wide to pin down the requested digits."""

    def __init__(self, requested, supported):
        super().__init__(
            f"{requested} digits requested but the chain only determines "
            f"{supported}; extend the chain"
        )
        self.requested = requested
        self.supported = supported


class UncertifiedGapError(PrimeCantorError):
    """A sibling gap did not come out positive at its certified precision."""


class TruncatedTreeError(PrimeCantorError):
    """Level statistics were requested from a branch-capped tree."""


class InapplicableLevelsError(PrimeCantorError):
    """Level statistics violate the preconditions of the dimension bound."""


class ResourceBudgetError(PrimeCantorError):
    """A fixed work budget would be passed: sieve width, tree nodes or power bits."""


class EmptyCensusError(PrimeCantorError):
    """A survey found no anchor primes, so its fraction is undefined."""
