"""Command-line front end.

Subcommands:
  mills      extend a chain greedily, print certified digits + verification
  tree       enumerate the construction tree as line-delimited records
  dimension  evaluate level statistics and closed-form bounds
  survey     short-interval prime density measurements

All output is deterministic given the flags; JSON output carries a
metadata block with the schema version, configuration, recorded RNG seed,
and the probable-prime threshold.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional

from . import __version__, chains, constant, dimension, primality, survey
from .errors import PrimeCantorError

SCHEMA_VERSION = 1


def _metadata(settings: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "config": settings,
        "rng_seed": primality.RNG_SEED,
        "pp_threshold": str(primality.DETERMINISTIC_LIMIT),
    }


def _sieve_config() -> primality.SieveConfig:
    budget = os.environ.get("PRIMECANTOR_WIDTH_LIMIT")
    if not budget:
        return primality.DEFAULT_SIEVE
    try:
        width_limit = int(budget)
        if width_limit < 1:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"PRIMECANTOR_WIDTH_LIMIT must be a positive integer, got {budget!r}"
        ) from None
    return primality.SieveConfig(width_limit=width_limit)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _exponents_from_args(args) -> chains.ExponentSequence:
    if args.c_seq:
        head = [_parse_fraction(part) for part in args.c_seq.split(",")]
        tail = args.c_tail if args.c_tail is not None else head[-1]
        return chains.ExponentSequence.of(head, tail)
    if args.c is None:
        raise ValueError("either --c or --c-seq is required")
    return chains.ExponentSequence.constant(args.c)


def _add_exponent_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--c", type=_parse_fraction, default=None,
        help="constant exponent, e.g. 3 or 5/2",
    )
    parser.add_argument(
        "--c-seq", default=None,
        help="comma-separated explicit head, e.g. 2,5/2,3",
    )
    parser.add_argument(
        "--c-tail", type=_parse_fraction, default=None,
        help="constant continuation after the head (defaults to its last entry)",
    )


def cmd_mills(args) -> int:
    exponents = _exponents_from_args(args)
    chain = chains.PrimeChain.seed(args.seed, exponents)
    chain = chains.extend_greedy(chain, args.steps)
    report = constant.verify_representation(chain)

    supported, digit_text = constant.certified_prefix(chain, args.digits)
    determined = supported == args.digits

    payload = {
        "meta": _metadata(
            {
                "seed": args.seed,
                "exponents": _exponent_config(exponents),
                "steps": args.steps,
                "digits_requested": args.digits,
            }
        ),
        "chain": [str(a) for a in chain.elements],
        "probable_prime_flags": [c.probable_prime for c in report.levels],
        "digits": digit_text or None,
        "digits_determined": determined,
        "verification": report.to_dict(),
    }
    if not determined:
        payload["max_supported_digits"] = supported
    print(json.dumps(payload, indent=2))
    if not report.all_passed:
        return 1
    if not determined and not args.allow_partial:
        print(
            f"error: only {supported} digits determined "
            f"(requested {args.digits}); rerun with --allow-partial or more steps",
            file=sys.stderr,
        )
        return 1
    return 0


def _exponent_config(exponents: chains.ExponentSequence) -> dict:
    return {
        "head": [str(c) for c in exponents.head],
        "tail": str(exponents.tail),
        "theta": str(exponents.theta),
        "R": str(exponents.R),
    }


def cmd_tree(args) -> int:
    exponents = _exponents_from_args(args)
    root = chains.enumerate_tree(
        args.seed,
        exponents,
        args.depth,
        branch_cap=args.cap,
        policy=args.policy,
        node_budget=args.node_budget,
        count_leaves=args.count_leaves,
        sieve_config=_sieve_config(),
    )
    for node in root.walk():
        pp = primality.is_probable_only(node.label)
        print(
            f"{node.level - 1},{node.label},{node.branching_total},"
            f"{int(node.truncated)},{int(pp)}"
        )
    return 0


def cmd_dimension(args) -> int:
    if args.bound:
        if not args.p:
            raise ValueError("--bound requires --p")
        # The theorem and proposition bounds share one closed form.
        value = dimension.proposition_bound(args.p, args.R)
        if args.out == "json":
            print(
                json.dumps(
                    {
                        "meta": _metadata(
                            {"bound": args.bound, "p": args.p, "R": str(args.R)}
                        ),
                        "value": value,
                    },
                    indent=2,
                )
            )
        else:
            print(f"{value:.10f}")
        return 0

    levels = _levels_from_args(args)
    profile, liminf_proxy = dimension.falconer_profile(levels)
    by_k = {k: est for k, est in profile}
    if args.out == "json":
        payload = {
            "meta": _metadata(_dimension_config(args)),
            "levels": [
                {
                    "k": s.k,
                    "log_m": s.log_m,
                    "log_eps": s.log_eps,
                    "source": s.source,
                    "estimate": by_k.get(s.k),
                }
                for s in levels
            ],
            "final_estimate": profile[-1][1],
            "liminf_proxy": liminf_proxy,
        }
        if args.p:
            payload["theorem_bound"] = dimension.proposition_bound(args.p, args.R)
        print(json.dumps(payload, indent=2))
    else:
        print("k,log_m,log_eps,estimate")
        for s in levels:
            est = by_k.get(s.k)
            est_text = f"{est:.9f}" if est is not None else ""
            print(f"{s.k},{s.log_m:.6f},{s.log_eps:.6f},{est_text}")
        print(f"# final_estimate={profile[-1][1]:.9f}")
        print(f"# liminf_proxy={liminf_proxy:.9f}")
    return 0


def _dimension_config(args) -> dict:
    return {
        "preset": args.preset,
        "kmax": args.kmax,
        "p": args.p,
        "delta": args.delta,
        "d1": args.d1,
        "Q": args.Q,
        "L": args.L,
        "R": str(args.R),
    }


def _levels_from_args(args) -> List[dimension.LevelStats]:
    if args.levels_file:
        return _read_levels_file(args.levels_file)
    if args.preset == "cantor-thirds":
        return dimension.middle_thirds_levels(args.kmax)
    if args.preset == "paper-simple":
        if not args.p:
            raise ValueError("--p is required for the paper-simple preset")
        return dimension.paper_levels_simple(args.p, args.d1, args.delta, args.kmax)
    if args.preset == "paper-general":
        if not args.p:
            raise ValueError("--p is required for the paper-general preset")
        exponents = _exponents_from_args(args)
        params = dimension.DimensionParams(
            a1=args.p, Q=args.Q, L=args.L,
            theta=exponents.theta, R=exponents.R,
        )
        return dimension.paper_levels_general(params, exponents, args.kmax)
    if args.preset == "measured":
        if not args.seed:
            raise ValueError("--seed is required for the measured preset")
        exponents = _exponents_from_args(args)
        tree = chains.enumerate_tree(
            args.seed, exponents, args.depth, policy="full",
            sieve_config=_sieve_config(),
        )
        return dimension.measured_levels(tree, exponents)
    raise ValueError(f"unknown preset {args.preset!r}")


def _read_levels_file(path: str) -> List[dimension.LevelStats]:
    """CSV with header k,log_m,log_eps[,source]."""
    out = []
    with open(path) as fh:
        header = fh.readline()
        if not header.lower().startswith("k,"):
            raise ValueError(f"{path}: expected header k,log_m,log_eps")
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 3:
                raise ValueError(f"{path}: expected k,log_m,log_eps in {line!r}")
            source = parts[3] if len(parts) > 3 else "measured"
            out.append(
                dimension.LevelStats(
                    int(parts[0]), float(parts[1]), float(parts[2]), source
                )
            )
    return out


def cmd_survey(args) -> int:
    cfg = _sieve_config()
    if args.mode == "gamma":
        records = survey.gamma_survey(args.x, args.gamma, cfg)
        print(survey.CSV_HEADER)
        for record in records:
            print(record.csv_row())
    else:
        total, good, fraction = survey.matomaki_fraction(args.X, args.c, args.d, cfg)
        print("X,c,d_threshold,total,good,fraction")
        print(f"{args.X},{args.c},{args.d},{total},{good},{fraction:.6f}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primecantor",
        description="prime-chain Cantor trees and dimension bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mills = sub.add_parser("mills", help="greedy chain + certified digits")
    p_mills.add_argument("--seed", type=int, required=True)
    _add_exponent_flags(p_mills)
    p_mills.add_argument("--steps", type=int, default=3)
    p_mills.add_argument("--digits", type=int, default=9)
    p_mills.add_argument("--allow-partial", action="store_true")
    p_mills.set_defaults(func=cmd_mills)

    p_tree = sub.add_parser("tree", help="enumerate the construction tree")
    p_tree.add_argument("--seed", type=int, required=True)
    _add_exponent_flags(p_tree)
    p_tree.add_argument("--depth", type=int, default=1)
    p_tree.add_argument("--cap", type=int, default=None)
    p_tree.add_argument("--policy", choices=["full", "counting"], default="full")
    p_tree.add_argument("--node-budget", type=int, default=1_000_000)
    p_tree.add_argument("--count-leaves", action="store_true")
    p_tree.set_defaults(func=cmd_tree)

    p_dim = sub.add_parser("dimension", help="dimension estimates and bounds")
    p_dim.add_argument(
        "--preset",
        choices=["cantor-thirds", "paper-simple", "paper-general", "measured"],
        default=None,
    )
    p_dim.add_argument("--levels-file", default=None)
    p_dim.add_argument("--bound", choices=["proposition", "theorem"], default=None)
    p_dim.add_argument("--kmax", type=int, default=20)
    p_dim.add_argument("--p", type=int, default=None)
    p_dim.add_argument("--delta", type=float, default=0.01)
    p_dim.add_argument("--d1", type=float, default=0.5)
    p_dim.add_argument("--Q", type=float, default=0.5)
    p_dim.add_argument("--L", type=float, default=1.0)
    p_dim.add_argument("--R", type=_parse_fraction, default=Fraction(3))
    p_dim.add_argument("--seed", type=int, default=None)
    p_dim.add_argument("--depth", type=int, default=1)
    _add_exponent_flags(p_dim)
    p_dim.add_argument("--out", choices=["json", "csv", "text"], default="csv")
    p_dim.set_defaults(func=cmd_dimension)

    p_survey = sub.add_parser("survey", help="short-interval density surveys")
    survey_sub = p_survey.add_subparsers(dest="mode", required=True)

    p_gamma = survey_sub.add_parser("gamma")
    p_gamma.add_argument("--x", type=int, action="append", required=True)
    p_gamma.add_argument("--gamma", type=_parse_fraction, required=True)
    p_gamma.set_defaults(func=cmd_survey)

    p_mato = survey_sub.add_parser("matomaki")
    p_mato.add_argument("--X", type=int, required=True)
    p_mato.add_argument("--c", type=_parse_fraction, required=True)
    p_mato.add_argument("--d", type=float, required=True)
    p_mato.set_defaults(func=cmd_survey)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand.

    Library failures (PrimeCantorError) exit 1; invalid input (ValueError,
    such as a composite seed or a malformed levels file) and unreadable
    files (OSError) exit 2.  Either way stderr gets one ``error:`` line.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PrimeCantorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
