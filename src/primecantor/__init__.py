"""Prime-chain Cantor trees, prime-representing constants, and
Hausdorff-dimension lower bounds."""

__version__ = "0.1.0"

from .certified import pow_ceil
from .chains import (
    ExponentSequence,
    PrimeChain,
    TreeNode,
    admissible_interval,
    counting_subinterval,
    enumerate_tree,
    extend_greedy,
)
from .constant import verify_representation
from .dimension import (
    DimensionParams,
    LevelStats,
    falconer_profile,
    measured_levels,
    middle_thirds_levels,
    paper_levels_general,
    paper_levels_simple,
    proposition_bound,
)
from .primality import (
    count_primes_in_range,
    is_prime,
    primes_in_range,
)
from .survey import gamma_survey, matomaki_fraction

__all__ = [
    "DimensionParams",
    "ExponentSequence",
    "LevelStats",
    "PrimeChain",
    "TreeNode",
    "admissible_interval",
    "count_primes_in_range",
    "counting_subinterval",
    "enumerate_tree",
    "extend_greedy",
    "falconer_profile",
    "gamma_survey",
    "is_prime",
    "matomaki_fraction",
    "measured_levels",
    "middle_thirds_levels",
    "paper_levels_general",
    "paper_levels_simple",
    "pow_ceil",
    "primes_in_range",
    "proposition_bound",
    "verify_representation",
]
