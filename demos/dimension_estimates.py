"""Compare dimension lower bounds: analytic presets vs a measured tree.

Three views of the same estimator:
  1. the textbook middle-thirds set (sanity: approaches log2/log3),
  2. analytic level statistics of the quadratic-exponent construction,
     whose estimate climbs toward the closed-form 1/(1 + R/(a1 ln a1)),
  3. statistics measured on an actually enumerated prime-chain tree.
"""

import math

from primecantor import (
    ExponentSequence,
    enumerate_tree,
    falconer_estimate,
    falconer_profile,
    measured_levels,
    middle_thirds_levels,
    paper_levels_general,
    proposition_bound,
)
from primecantor.dimension import DimensionParams


def main():
    thirds = middle_thirds_levels(40)
    print(f"middle thirds, k=40:   {falconer_estimate(thirds, 40):.6f}"
          f"   (limit log2/log3 = {math.log(2) / math.log(3):.6f})")

    es = ExponentSequence.constant(2)
    for a1 in (1009, 100003, 1000003):
        params = DimensionParams(a1=a1)
        levels = paper_levels_general(params, es, 24)
        est = falconer_estimate(levels, 24)
        bound = proposition_bound(a1, 2)
        print(f"analytic a1={a1:<8} k=24: {est:.8f}   (closed form {bound:.8f})")

    print()
    print("measured tree, seed 2, c=3, two expansions:")
    cubic = ExponentSequence.constant(3)
    levels = measured_levels(enumerate_tree(2, cubic, 2), cubic)
    profile, proxy = falconer_profile(levels)
    for k, est in profile:
        print(f"  level {k}: estimate {est:.4f}")
    print(f"  conservative proxy for the liminf: {proxy:.4f}")


if __name__ == "__main__":
    main()
