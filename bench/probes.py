"""Layer probes: single library calls on fixed inputs, timed in isolation.

Each probe is repeated in batches; the reported value is the median
seconds per call.  Every probe result is checked, so a probe that returns
a wrong answer marks the run as incorrect.  Inputs stay clear of cost
cliffs (each probe call takes well under a second at the seed commit).
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter
from typing import Callable, Dict, Tuple

from primecantor import certified, dimension, primality
from primecantor.chains import ExponentSequence

# A 19,438-digit integer for the k-th root probes.
ROOT_INPUT = 7 ** 23000 + 1
# The nearest primes on either side of the deterministic Miller-Rabin limit.
PRIME_BELOW_LIMIT = 3317044064679887385961813
PRIME_ABOVE_LIMIT = 3317044064679887385962123
# (lo, hi, number of primes): near is certified by the base primes alone,
# far (sqrt(hi) above the base-prime limit) confirms survivors by is_prime.
NEAR_RANGE = (10 ** 10, 10 ** 10 + 200_000, 8668)
FAR_RANGE = (10 ** 14, 10 ** 14 + 20_000, 587)
ENCLOSURE_INPUT = (10 ** 10 + 1, 2, Fraction(1, 1 << 66))

BATCH_SECONDS = 0.05
BATCHES = 3


def _introot_ok(k: int) -> Callable[[int], bool]:
    return lambda r: r ** k <= ROOT_INPUT < (r + 1) ** k


def _enclosure_ok(b) -> bool:
    a, c, width = ENCLOSURE_INPUT
    return b.width <= width and b.lo ** c <= a <= b.hi ** c


def _profile_ok(result) -> bool:
    profile, proxy = result
    return len(profile) == 19 and 0 < proxy < 1


def _paper_general_levels():
    """The levels of ``dimension --preset paper-general --p 11 --c 3``."""
    exponents = ExponentSequence.constant(3)
    params = dimension.DimensionParams(a1=11, theta=exponents.theta, R=exponents.R)
    return dimension.paper_levels_general(params, exponents, 20)


def _probes() -> Dict[str, Tuple[Callable[[], object], Callable[[object], bool]]]:
    levels = _paper_general_levels()
    probes = {
        f"probe.introot.k{k}_s": ((lambda k=k: certified.introot(ROOT_INPUT, k)), _introot_ok(k))
        for k in (3, 243, 729, 2187)
    }
    probes.update({
        "probe.is_prime.below_limit_s": (
            lambda: primality.is_prime(PRIME_BELOW_LIMIT), lambda r: r is True),
        "probe.is_prime.above_limit_s": (
            lambda: primality.is_prime(PRIME_ABOVE_LIMIT), lambda r: r is True),
        "probe.primes_in_range.near_s": (
            lambda: primality.primes_in_range(*NEAR_RANGE[:2]),
            lambda r: len(r) == NEAR_RANGE[2]),
        "probe.primes_in_range.far_s": (
            lambda: primality.primes_in_range(*FAR_RANGE[:2]),
            lambda r: len(r) == FAR_RANGE[2]),
        "probe.root_enclosure_s": (
            lambda: certified.root_enclosure(*ENCLOSURE_INPUT), _enclosure_ok),
        "probe.falconer_profile_s": (
            lambda: dimension.falconer_profile(levels), _profile_ok),
    })
    return probes


def _time_per_call(fn: Callable[[], object]) -> Tuple[float, object]:
    """Median over BATCHES of seconds per call, batches sized from a first call."""
    t0 = perf_counter()
    result = fn()
    first = perf_counter() - t0
    per_batch = max(1, int(BATCH_SECONDS / max(first, 1e-9)))
    samples = []
    for _ in range(BATCHES):
        t0 = perf_counter()
        for _ in range(per_batch):
            fn()
        samples.append((perf_counter() - t0) / per_batch)
    return statistics.median(samples), result


def run_all() -> Dict[str, object]:
    """{"metrics": {name: seconds per call}, "failed": [names of wrong results]}."""
    metrics, failed = {}, []
    for name, (fn, ok) in _probes().items():
        metrics[name], result = _time_per_call(fn)
        if not ok(result):
            failed.append(name)
    return {"metrics": metrics, "failed": failed}
