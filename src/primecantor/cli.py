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
    constant.check_digit_count(args.digits, chain)  # before the search, which may be long
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
    sys.stdout.writelines(
        f"{node.level - 1},{node.label},{node.branching_total},"
        f"{int(node.truncated)},{int(primality.is_probable_only(node.label))}\n"
        for node in root.walk()
    )
    return 0


def cmd_dimension(args) -> int:
    levels, exponents, config = _dimension_source(args)
    # The closed form, like the analytic levels, needs theta > 0; sources
    # without a seed have none.
    bound = None
    if exponents is not None and exponents.theta > 0:
        bound = dimension.proposition_bound(args.p, exponents.R)
    elif levels is None:
        raise ValueError("the analytic level formulas need theta > 0")
    if levels is None:
        if args.out == "json":
            print(json.dumps({"meta": _metadata(config), "value": bound}, indent=2))
        else:
            print(f"{bound:.10f}")
        return 0

    profile, liminf_proxy = dimension.falconer_profile(levels)
    by_k = dict(profile)
    if args.out == "json":
        source = "measured" if args.preset in (None, "measured") else "analytic"
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


# The value flags each dimension source reads besides --out, and their defaults;
# meta.config records them (the exponent flags as their sequence), others exit 2.
_EXPONENT_FLAGS = {"c": None, "c_seq": None, "c_tail": None}
_SOURCE_READS = {
    "cantor-thirds": {"kmax": 20},
    "paper-simple": {"p": None, "kmax": 20, "delta": 0.01, "d1": 0.5},
    "paper-general": {"p": None, **_EXPONENT_FLAGS, "kmax": 20, "Q": 0.5, "L": 1.0},
    "measured": {"p": None, **_EXPONENT_FLAGS, "depth": 1},
    "levels_file": {},
    "bound": {"p": None, **_EXPONENT_FLAGS},
}
_VALUE_FLAGS = dict.fromkeys(name for reads in _SOURCE_READS.values() for name in reads)


def _dimension_source(args):
    """(levels, exponents, meta.config) of the one level source, flags checked
    first; levels is None for --bound, exponents None for sources with no seed."""
    config = {name: getattr(args, name) for name in ("preset", "levels_file", "bound")
              if getattr(args, name)}
    if len(config) != 1:
        raise ValueError("give exactly one of --preset, --levels-file or --bound")
    [(kind, value)] = config.items()
    reads = _SOURCE_READS[value if kind == "preset" else kind]
    what = f"the {value} preset" if kind == "preset" else "--" + kind.replace("_", "-")
    unread = [
        "--" + name.replace("_", "-") for name in _VALUE_FLAGS
        if getattr(args, name) is not None and name not in reads
    ]
    if unread:
        raise ValueError(f"{what} does not read {', '.join(unread)}")
    for name, default in reads.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    config.update((name, getattr(args, name)) for name in reads
                  if name not in _EXPONENT_FLAGS)
    if args.levels_file:
        return _read_levels_file(args.levels_file), None, config
    if args.preset == "cantor-thirds":
        return dimension.middle_thirds_levels(args.kmax), None, config
    if args.p is None:
        raise ValueError(f"--p (or --seed) is required for {what}")
    if not primality.is_prime(args.p):
        raise ValueError(f"seed {args.p} is not prime")
    if "c" in reads:
        exponents = _exponents_from_args(args)
        config["exponents"] = _exponent_config(exponents)
    else:
        exponents = chains.ExponentSequence.constant(3)  # paper-simple fixes c = 3
    config["R"] = str(exponents.R)
    if args.bound:
        return None, exponents, config
    if args.preset == "paper-simple":
        levels = dimension.paper_levels_simple(args.p, args.d1, args.delta, args.kmax)
    elif args.preset == "measured":
        levels = dimension.stream_levels(args.p, exponents, args.depth)
    else:
        params = dimension.DimensionParams(a1=args.p, Q=args.Q, L=args.L)
        levels = dimension.paper_levels_general(params, exponents, args.kmax)
    return levels, exponents, config


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


def _add_mills(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, required=True)
    _add_exponent_flags(parser)
    parser.add_argument("--steps", type=int, default=3)
    parser.add_argument("--digits", type=int, default=9)
    parser.add_argument("--allow-partial", action="store_true")
    parser.set_defaults(func=cmd_mills)


def _add_tree(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, required=True)
    _add_exponent_flags(parser)
    parser.add_argument("--depth", type=int, default=1)
    parser.add_argument("--cap", type=int, default=None)
    parser.add_argument("--policy", choices=["full", "counting"], default="full")
    parser.add_argument("--count-leaves", action="store_true")
    parser.set_defaults(func=cmd_tree)


def _add_dimension(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--preset",
        choices=["cantor-thirds", "paper-simple", "paper-general", "measured"],
        default=None,
    )
    parser.add_argument("--levels-file", default=None)
    parser.add_argument("--bound", action="store_true")
    # _dimension_source fills in the defaults once it has checked the flags.
    parser.add_argument("--kmax", type=int, default=None)
    parser.add_argument("--delta", type=float, default=None)
    parser.add_argument("--d1", type=float, default=None)
    parser.add_argument("--Q", type=float, default=None)
    parser.add_argument("--L", type=float, default=None)
    parser.add_argument("--p", "--seed", type=int, default=None, help="seed prime a1")
    parser.add_argument("--depth", type=int, default=None)
    _add_exponent_flags(parser)
    parser.add_argument("--out", choices=["json", "csv"], default="csv")
    parser.set_defaults(func=cmd_dimension)


def _add_survey(parser: argparse.ArgumentParser):
    modes = parser.add_subparsers(dest="mode", required=True)

    p_gamma = modes.add_parser("gamma")
    p_gamma.add_argument("--x", type=int, action="append", required=True)
    p_gamma.add_argument("--gamma", type=_parse_fraction, required=True)
    p_gamma.set_defaults(func=cmd_survey)

    p_mato = modes.add_parser("matomaki")
    p_mato.add_argument("--X", type=int, required=True)
    p_mato.add_argument("--c", type=_parse_fraction, required=True)
    p_mato.add_argument("--d", type=float, required=True)
    p_mato.set_defaults(func=cmd_survey)


# Each subcommand's help line and the function that adds its arguments, in
# the order the top-level help lists them.
_SUBCOMMANDS = {
    "mills": ("greedy chain + certified digits", _add_mills),
    "tree": ("enumerate the construction tree", _add_tree),
    "dimension": ("dimension estimates and bounds", _add_dimension),
    "survey": ("short-interval density surveys", _add_survey),
}


@functools.cache
def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with ``command`` of that one only."""
    parser = argparse.ArgumentParser(
        prog="primecantor",
        description="prime-chain Cantor trees and dimension bounds",
    )
    # The metavar gives a one-subcommand parser the full parser's usage line;
    # on the full parser it would replace the name "command" in its errors.
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_line, add_arguments) in _SUBCOMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_line))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand.

    ``argv`` defaults to ``sys.argv[1:]``.  A run builds the parser of its
    own subcommand only (once per process); help, no command and an
    unknown command build the parser of all four.
    Library failures (PrimeCantorError) and running out of memory exit 1;
    invalid input (ValueError, such as a composite seed or a malformed
    levels file, and OverflowError, such as an exponent past float range)
    and unreadable files (OSError) exit 2.  Either way stderr gets one
    ``error:`` line.  A reader that closes stdout early (``| head``) ends
    the run with exit 1 and no line.
    CPython's cap on int-to-str digits is lifted for the run, since
    ``--digits`` may ask for more, and restored on return.
    """
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
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
