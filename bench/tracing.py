"""Per-layer spans for a traced benchmark run, installed from outside ``src``.

``Tracer.install()`` replaces each public layer function it lists by a
wrapper, both at its definition and at every other binding
of the same function object inside the package (``from .certified import
introot`` in ``chains``, ``constant``, ``survey`` and so on), so calls are
caught whichever name they go through.  Spans (id, parent id, name, start,
end) and counters are kept in memory; ``summary()`` turns them into the
benchmark's per-layer metrics and ``write_spans()`` writes them out.

A layer's self time is its span's duration minus the time of the spans
nested directly inside it.  Work the tracer itself does after a call
(walking a returned tree, say) is excluded from the caller's self time.
Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

from primecantor import certified, chains, cli, constant, dimension, primality, survey

MAX_TREE_LEVEL = 3
# Every function that chains, constant, dimension or survey imports from
# certified, each reported with its calls and self time.
CERTIFIED = tuple("certified." + f for f in
                  ("introot", "root_enclosure", "pow_ceil", "pow_floor", "dyadic"))


def _is_prime_span(n, *_, **__):
    regime = "det" if n < primality.DETERMINISTIC_LIMIT else "bpsw"
    return "primality.is_prime." + regime


def _sieve_regime(lo, hi, sieve_config=primality.DEFAULT_SIEVE, *_, **__):
    # Same test as iter_primes_in_range: survivors need is_prime when the
    # base primes stop short of sqrt(hi).
    return "far" if math.isqrt(max(hi, 0)) > sieve_config.base_prime_limit else "near"


def _sieve_span(*args, **kwargs):
    return "primality.sieve." + _sieve_regime(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self._stack: List[list] = []

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn: Callable, name, before=None, after=None) -> Callable:
        """A wrapper recording one span per call of fn.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``before(*args)`` and ``after(result, *args)`` update
        counters outside the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_name = name(*args, **kwargs) if callable(name) else name
            if before is not None:
                before(*args, **kwargs)
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            frame = [span_id, 0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                tracer.spans[span_id] = (
                    span_id, parent[0] if parent else None, span_name, start, end
                )
                tracer.calls[span_name] = tracer.calls.get(span_name, 0) + 1
                tracer.self_ns[span_name] = (
                    tracer.self_ns.get(span_name, 0) + duration - frame[1]
                )
                if parent is not None:
                    parent[1] += duration
            if after is not None:
                t = perf_counter_ns()
                after(result, *args, **kwargs)
                if parent is not None:
                    parent[1] += perf_counter_ns() - t
            return result

        return traced

    def install(self) -> None:
        count = self.count

        def introot_bits(n, k, *_, **__):
            count("certified.introot.in_bits", n.bit_length())

        def sieve_ints(lo, hi, *args, **kwargs):
            count("primality.sieve.ints." + _sieve_regime(lo, hi, *args, **kwargs),
                  max(hi - lo + 1, 0))

        def prime_found(result, *_, **__):
            if result:
                count("primality.is_prime.true")

        def tree_nodes(root, *_, **__):
            for node in root.walk():
                count("chains.tree_nodes")
                if node.level <= MAX_TREE_LEVEL:
                    count(f"chains.tree_nodes.L{node.level}")

        def sibling_pairs(result, tree, *_, **__):
            for node in tree.walk():
                count("dimension.sibling_pairs", max(len(node.children) - 1, 0))

        def gamma_windows(records, *_, **__):
            count("survey.windows", len(records))

        def matomaki_windows(result, *_, **__):
            count("survey.windows", result[0])

        layers = [
            (cli, "main", "cli", None, None),
            (chains, "enumerate_tree", "chains.enumerate_tree", None, tree_nodes),
            (chains, "extend_greedy", "chains.extend_greedy", None, None),
            (primality, "is_prime", _is_prime_span, None, prime_found),
            (primality, "primes_in_range", _sieve_span, sieve_ints, None),
            (primality, "count_primes_in_range", _sieve_span, sieve_ints, None),
            (primality, "first_prime_in_range", "primality.first_prime_in_range", None, None),
            (primality, "small_primes", "primality.small_primes", None, None),
            (certified, "introot", "certified.introot", introot_bits, None),
            (certified, "root_enclosure", "certified.root_enclosure", None, None),
            (certified, "pow_ceil", "certified.pow_ceil", None, None),
            (certified, "pow_floor", "certified.pow_floor", None, None),
            (certified, "dyadic", "certified.dyadic", None, None),
            (constant, "digits", "constant.digits", None, None),
            (constant, "max_determined_digits", "constant.max_determined_digits", None, None),
            (constant, "verify_representation", "constant.verify_representation", None, None),
            (dimension, "measured_levels", "dimension.measured_levels", None, sibling_pairs),
            (survey, "gamma_survey", "survey.gamma_survey", None, gamma_windows),
            (survey, "matomaki_fraction", "survey.matomaki_fraction", None, matomaki_windows),
        ]
        package = [m for key, m in sys.modules.items()
                   if key == "primecantor" or key.startswith("primecantor.")]
        for module, attr, name, before, after in layers:
            original = getattr(module, attr)
            wrapper = self.wrap(original, name, before, after)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def summary(self) -> Dict[str, float]:
        """The per-layer metrics of everything traced so far."""
        calls, counts = self.calls, self.counts
        self_s = {k: v / 1e9 for k, v in self.self_ns.items()}
        out: Dict[str, float] = {"cli.self_s": self_s.get("cli", 0.0)}
        for name in CERTIFIED + (
            "constant.max_determined_digits",
            "primality.first_prime_in_range", "primality.small_primes",
        ):
            out[name + ".calls"] = calls.get(name, 0)
        for name in CERTIFIED + (
            "constant.digits", "constant.max_determined_digits",
            "constant.verify_representation", "dimension.measured_levels",
            "chains.enumerate_tree", "chains.extend_greedy",
            "primality.first_prime_in_range", "primality.small_primes",
            "survey.gamma_survey", "survey.matomaki_fraction",
        ):
            out[name + ".self_s"] = self_s.get(name, 0.0)
        out["certified.introot.in_bits"] = counts.get("certified.introot.in_bits", 0)
        for regime in ("near", "far"):
            span = "primality.sieve." + regime
            out["primality.sieve.calls." + regime] = calls.get(span, 0)
            out["primality.sieve.ints." + regime] = counts.get("primality.sieve.ints." + regime, 0)
            out["primality.sieve.self_s." + regime] = self_s.get(span, 0.0)
        for regime in ("det", "bpsw"):
            span = "primality.is_prime." + regime
            out["primality.is_prime.calls." + regime] = calls.get(span, 0)
            out["primality.is_prime.self_s." + regime] = self_s.get(span, 0.0)
        attempted = out["primality.is_prime.calls.det"] + out["primality.is_prime.calls.bpsw"]
        out["primality.is_prime.prime_frac"] = (
            counts.get("primality.is_prime.true", 0) / attempted if attempted else 0.0
        )
        out["chains.tree_nodes"] = counts.get("chains.tree_nodes", 0)
        for level in range(1, MAX_TREE_LEVEL + 1):
            out[f"chains.tree_nodes.L{level}"] = counts.get(f"chains.tree_nodes.L{level}", 0)
        out["dimension.sibling_pairs"] = counts.get("dimension.sibling_pairs", 0)
        out["survey.windows"] = counts.get("survey.windows", 0)
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array [id, parent_id, name, start_ns, end_ns] per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
