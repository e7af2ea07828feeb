"""The benchmark's workloads: fixed CLI job lists and their output checks.

Each workload is a list of ``primecantor`` command lines that one fresh
interpreter runs in order.  ``workload_seed`` 0 gives the lists below;
seed w > 0 replaces every chain seed and survey anchor by the w-th prime
after it, keeping exponents, depths, step counts and digit counts, so a
held-out seed draws from the same family at the same size class.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence

# Each job is (argv template, names of the flags whose values are seeds or
# anchors).  The flags named are mapped by workload seed; all others are
# kept verbatim.
WORKLOADS: Dict[str, dict] = {
    "digits": {
        "why": (
            "certified Mills digits: a few huge-k integer roots "
            "(certified.introot) take almost all the time"
        ),
        "jobs": [
            ("mills --seed 2 --c 3 --steps 5 --digits 60", ("--seed",)),
            ("mills --seed 2 --c 3 --steps 5 --digits 80", ("--seed",)),
            ("mills --seed 3 --c 5/2 --steps 3 --digits 12 --allow-partial", ("--seed",)),
            ("mills --seed 2 --c-seq 3,5/2 --c-tail 2 --steps 5 --digits 16", ("--seed",)),
        ],
    },
    "records": {
        "why": (
            "deep greedy chains with one digit: Baillie-PSW is_prime "
            "above 3.3e24 dominates, certified is idle"
        ),
        "jobs": [
            ("mills --seed 3 --c 2 --steps 10 --digits 1", ("--seed",)),
            ("mills --seed 2 --c 3 --steps 6 --digits 1", ("--seed",)),
            ("mills --seed 3 --c 3 --steps 6 --digits 1", ("--seed",)),
        ],
    },
    "measured": {
        "why": (
            "dimension --preset measured and tree: near sieving plus "
            "thousands of small-k certified gaps (root_enclosure)"
        ),
        "jobs": [
            ("dimension --preset measured --seed 100003 --c 2 --depth 1", ("--seed",)),
            ("dimension --preset measured --seed 2 --c 3 --depth 2", ("--seed",)),
            ("tree --seed 2 --c 3 --depth 2", ("--seed",)),
        ],
    },
    "survey": {
        "why": (
            "short-interval prime counts: segmented sieve over 1.7e7 "
            "integers in 460 calls, incl. 455 matomaki windows"
        ),
        # The second gamma job is near-regime too: isqrt(hi) is exactly the
        # base-prime limit 10**6.  A far anchor (1000001000021) would spend
        # 4.6 s in deterministic is_prime on 36k survivors and drown the
        # sieve, so the far regime is measured by the layer probe instead.
        "jobs": [
            ("survey gamma --x 100000000 --x 1000000000 --x 10000000000 --gamma 2/3", ("--x",)),
            ("survey gamma --x 1000000000039 --gamma 1/2", ("--x",)),
            ("survey matomaki --X 20000 --c 2 --d 0.5", ("--X",)),
        ],
    },
}


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24 (seeds and anchors).

    Kept apart from ``primality.is_prime`` so that the inputs do not depend
    on the code under test.
    """
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def nth_prime_after(v: int, w: int) -> int:
    """v itself for w = 0, else the w-th prime greater than v."""
    for _ in range(w):
        v += 1
        while not _is_prime(v):
            v += 1
    return v


def jobs(workload: str, workload_seed: int = 0) -> List[List[str]]:
    """The argv lists of one workload at the given workload seed."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}")
    if workload_seed < 0:
        raise ValueError("workload seed must be >= 0")
    out = []
    for template, seeded in WORKLOADS[workload]["jobs"]:
        argv = template.split()
        for i in range(1, len(argv)):
            if argv[i - 1] in seeded:
                argv[i] = str(nth_prime_after(int(argv[i]), workload_seed))
        out.append(argv)
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def structural_problems(argvs: Sequence[Sequence[str]],
                        stdouts: Sequence[Optional[str]]) -> Dict[int, str]:
    """Job index -> problem, for checks that need no reference output.

    ``mills`` reports must pass their own exact verification, print as many
    significant digits as were requested, and a longer digit request on the
    same chain must extend the shorter one.
    """
    problems: Dict[int, str] = {}
    digits_by_chain: Dict[tuple, List[tuple]] = {}
    for i, (argv, out) in enumerate(zip(argvs, stdouts)):
        if argv[0] != "mills" or out is None:
            continue
        try:
            report = json.loads(out)
        except ValueError:
            problems[i] = "mills output is not JSON"
            continue
        if report.get("verification", {}).get("all_passed") is not True:
            problems[i] = "verification.all_passed is not true"
            continue
        text = report.get("digits")
        requested = int(argv[argv.index("--digits") + 1])
        if report.get("digits_determined"):
            if not isinstance(text, str) or len(text.replace(".", "")) != requested:
                problems[i] = f"expected {requested} significant digits, got {text!r}"
                continue
        chain_key = tuple(a for j, a in enumerate(argv)
                          if a != "--digits" and argv[j - 1] != "--digits")
        if isinstance(text, str):
            digits_by_chain.setdefault(chain_key, []).append((len(text), text, i))
    for entries in digits_by_chain.values():
        entries.sort()
        for (_, short, _), (_, long, j) in zip(entries, entries[1:]):
            if not long.startswith(short):
                problems[j] = f"digits {long!r} do not extend {short!r}"
    return problems


def failed_jobs(argvs: Sequence[Sequence[str]], results: Sequence[dict],
                reference: Sequence[dict]) -> Dict[int, str]:
    """Job index -> reason, for every job whose exit code or stdout differs
    from the reference or whose output fails a structural check."""
    failures: Dict[int, str] = {}
    for i, (res, ref) in enumerate(zip(results, reference)):
        if res.get("exit") != ref["exit"]:
            failures[i] = f"exit code {res.get('exit')} != reference {ref['exit']}"
        elif res.get("stdout") is None or digest(res["stdout"]) != ref["stdout_sha256"]:
            failures[i] = "stdout differs from reference"
    for i in range(len(results), len(reference)):
        failures[i] = "job did not run"
    stdouts = [r.get("stdout") for r in results]
    for i, why in structural_problems(argvs, stdouts).items():
        failures.setdefault(i, why)
    return failures
