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


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _exponents_from_args(args) -> chains.ExponentSequence:
    if args.c_seq and args.c is None:
        tail = args.c_tail if args.c_tail is not None else args.c_seq[-1]
        return chains.ExponentSequence.of(args.c_seq, tail)
    if args.c is None or args.c_seq or args.c_tail is not None:
        raise ValueError("give --c, or --c-seq with an optional --c-tail")
    return chains.ExponentSequence.constant(args.c)


def _add_exponent_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--c", type=_parse_fraction, default=None,
        help="constant exponent, e.g. 3 or 5/2",
    )
    parser.add_argument(
        "--c-seq", type=lambda text: [_parse_fraction(c) for c in text.split(",")],
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
        count_leaves=args.count_leaves,
    )
    for node in root.walk():
        pp = primality.is_probable_only(node.label)
        print(
            f"{node.level - 1},{node.label},{node.branching_total},"
            f"{int(node.truncated)},{int(pp)}"
        )
    return 0


def cmd_dimension(args) -> int:
    levels, exponents = _dimension_source(args)
    # The closed form, like the analytic levels, needs theta > 0; sources
    # without a seed have none.
    bound = None
    if exponents is not None and exponents.theta > 0:
        bound = dimension.proposition_bound(args.seed, exponents.R)
    elif levels is None:
        raise ValueError("the analytic level formulas need theta > 0")
    if levels is None:
        if args.out == "json":
            config = {"bound": args.bound, "p": args.seed, "R": str(exponents.R)}
            print(json.dumps({"meta": _metadata(config), "value": bound}, indent=2))
        else:
            print(f"{bound:.10f}")
        return 0

    profile, liminf_proxy = dimension.falconer_profile(levels)
    by_k = dict(profile)
    if args.out == "json":
        source = "measured" if args.preset in (None, "measured") else "analytic"
        config = {
            "preset": args.preset, "kmax": args.kmax, "p": args.seed,
            "delta": args.delta, "d1": args.d1, "Q": args.Q, "L": args.L,
            "R": None if exponents is None else str(exponents.R),
        }
        payload = {
            "meta": _metadata(config),
            "levels": [
                {
                    "k": s.k,
                    "log_m": s.log_m,
                    "log_eps": s.log_eps,
                    "source": source,
                    "estimate": by_k.get(s.k),
                }
                for s in levels
            ],
            "final_estimate": profile[-1][1],
            "liminf_proxy": liminf_proxy,
        }
        if bound is not None:
            payload["theorem_bound"] = bound
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


# The value flags of dimension with their defaults, and the flags each source
# reads besides --out; a source given a flag it does not read exits 2.
_DIMENSION_DEFAULTS = {
    "seed": None, "c": None, "c_seq": None, "c_tail": None,
    "kmax": 20, "delta": 0.01, "d1": 0.5, "Q": 0.5, "L": 1.0, "depth": 1,
}
_SEEDED = ("seed", "c", "c_seq", "c_tail")
_SOURCE_READS = {
    "the cantor-thirds preset": ("kmax",),
    "the paper-simple preset": ("seed", "kmax", "delta", "d1"),
    "the paper-general preset": (*_SEEDED, "kmax", "Q", "L"),
    "the measured preset": (*_SEEDED, "depth"),
    "--levels-file": (),
    "--bound": _SEEDED,
}


def _dimension_source(args):
    """(levels, exponents) of the one level source, flags checked first; levels
    is None for --bound, exponents is None for cantor-thirds and levels files."""
    if sum(map(bool, (args.preset, args.levels_file, args.bound))) != 1:
        raise ValueError("give exactly one of --preset, --levels-file or --bound")
    what = f"the {args.preset} preset" if args.preset else (
        "--levels-file" if args.levels_file else "--bound")
    unread = [
        "--" + name.replace("_", "-") for name in _DIMENSION_DEFAULTS
        if getattr(args, name) is not None and name not in _SOURCE_READS[what]
    ]
    if unread:
        raise ValueError(f"{what} does not read {', '.join(unread)}")
    for name, value in _DIMENSION_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    if args.levels_file:
        return _read_levels_file(args.levels_file), None
    if args.preset == "cantor-thirds":
        return dimension.middle_thirds_levels(args.kmax), None
    if args.seed is None:
        raise ValueError(f"--seed (or --p) is required for {what}")
    if not primality.is_prime(args.seed):
        raise ValueError(f"seed {args.seed} is not prime")
    if args.preset == "paper-simple":
        levels = dimension.paper_levels_simple(
            args.seed, args.d1, args.delta, args.kmax
        )
        return levels, chains.ExponentSequence.constant(3)
    exponents = _exponents_from_args(args)
    if args.bound:
        return None, exponents
    if args.preset == "measured":
        return dimension.stream_levels(args.seed, exponents, args.depth), exponents
    params = dimension.DimensionParams(a1=args.seed, Q=args.Q, L=args.L)
    return dimension.paper_levels_general(params, exponents, args.kmax), exponents


def _read_levels_file(path: str) -> List[dimension.LevelStats]:
    """CSV whose header starts k,log_m,log_eps; further columns are ignored."""
    out = []
    with open(path) as fh:
        header = fh.readline().strip().lower()
        if header.split(",")[:3] != ["k", "log_m", "log_eps"]:
            raise ValueError(f"{path}: expected header k,log_m,log_eps")
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 3:
                raise ValueError(f"{path}: expected k,log_m,log_eps in {line!r}")
            out.append(
                dimension.LevelStats(int(parts[0]), float(parts[1]), float(parts[2]))
            )
    if not out:
        raise ValueError(f"{path}: no level rows after the header")
    return out


def cmd_survey(args) -> int:
    if args.mode == "gamma":
        records = survey.gamma_survey(args.x, args.gamma)
        print(survey.CSV_HEADER)
        for record in records:
            print(record.csv_row())
    else:
        total, good, fraction = survey.matomaki_fraction(args.X, args.c, args.d)
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
    p_tree.add_argument("--count-leaves", action="store_true")
    p_tree.set_defaults(func=cmd_tree)

    p_dim = sub.add_parser("dimension", help="dimension estimates and bounds")
    p_dim.add_argument(
        "--preset",
        choices=["cantor-thirds", "paper-simple", "paper-general", "measured"],
        default=None,
    )
    p_dim.add_argument("--levels-file", default=None)
    p_dim.add_argument("--bound", action="store_true")
    # _dimension_source fills in the defaults once it has checked the flags.
    p_dim.add_argument("--kmax", type=int, default=None)
    p_dim.add_argument("--delta", type=float, default=None)
    p_dim.add_argument("--d1", type=float, default=None)
    p_dim.add_argument("--Q", type=float, default=None)
    p_dim.add_argument("--L", type=float, default=None)
    p_dim.add_argument("--seed", "--p", type=int, default=None, help="seed prime a1")
    p_dim.add_argument("--depth", type=int, default=None)
    _add_exponent_flags(p_dim)
    p_dim.add_argument("--out", choices=["json", "csv"], default="csv")
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

    Library failures (PrimeCantorError) and running out of memory exit 1;
    invalid input (ValueError, such as a composite seed or a malformed
    levels file, and OverflowError, such as an exponent past float range)
    and unreadable files (OSError) exit 2.  Either way stderr gets one
    ``error:`` line.  A reader that closes stdout early (``| head``) ends
    the run with exit 1 and no line.
    CPython's cap on int-to-str digits is lifted for the run, since
    ``--digits`` may ask for more, and restored on return.
    """
    args = build_parser().parse_args(argv)
    str_digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if str_digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so that the interpreter's last flush of
        # what is still buffered does not fail a second time at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except PrimeCantorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if str_digits is not None:
            sys.set_int_max_str_digits(str_digits)


if __name__ == "__main__":
    sys.exit(main())
