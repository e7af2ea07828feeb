"""Prime-chain Cantor trees, prime-representing constants, and
Hausdorff-dimension lower bounds."""

__version__ = "0.1.0"

from .certified import Bracket, Rational, pow_ceil
from .chains import (
    ExponentSequence,
    PrimeChain,
    TreeNode,
    admissible_interval,
    counting_subinterval,
    enumerate_tree,
    extend_greedy,
)
from .constant import bracket_for_chain, digits, verify_representation
from .dimension import (
    DimensionParams,
    LevelStats,
    falconer_estimate,
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
    "Bracket",
    "DimensionParams",
    "ExponentSequence",
    "LevelStats",
    "PrimeChain",
    "Rational",
    "TreeNode",
    "admissible_interval",
    "bracket_for_chain",
    "count_primes_in_range",
    "counting_subinterval",
    "digits",
    "enumerate_tree",
    "extend_greedy",
    "falconer_estimate",
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
