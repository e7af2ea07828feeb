"""Rebuild the Mills chain and print certified digits of the constant.

The greedy rule (always take the smallest admissible prime) with seed 2 and
cubic exponents reproduces the classical sequence 2, 11, 1361, 2521008887, ...
Each extra level multiplies the exponent by 3 and roughly triples the number
of decimal digits the nested interval pins down.
"""

from primecantor import (
    ExponentSequence,
    PrimeChain,
    extend_greedy,
    verify_representation,
)
from primecantor.certified import scaled_pow
from primecantor.constant import certified_prefix


def main():
    es = ExponentSequence.constant(3)
    chain = PrimeChain.seed(2, es)
    print("step  element              certified digits")
    for step in range(5):
        text = certified_prefix(chain, 60)[1] or "(none yet)"
        print(f"{step:>4}  {chain.last:<20} {text}")
        if step < 4:
            chain = extend_greedy(chain, 1)

    print()
    report = verify_representation(chain)
    print(f"exact verification of all {len(report.levels)} levels:",
          "ok" if report.all_passed else "FAILED")
    # The level interval [a**e, (a + 1)**e) is wider than e / (a + 1), so for
    # e = 1/243 a scale 32 bits past a's resolves its width to 24 bits or more.
    e, a = 1 / chain.exponents.C(len(chain)), chain.last
    s = a.bit_length() + 32
    lo, hi = scaled_pow(a, e, 1 << s)[0], scaled_pow(a + 1, e, 1 << s)[1]
    print(f"final level interval width ~ {(hi - lo) / 2**s:.3e}")


if __name__ == "__main__":
    main()
