"""End-to-end command-line behavior."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import time

import pytest
from sympy import nextprime

import primecantor
from primecantor import chains, primality, survey
from primecantor.chains import admissible_interval
from primecantor.cli import build_parser, main
from primecantor.dimension import proposition_bound
from primecantor.primality import primes_in_range

SRC = os.path.dirname(os.path.dirname(primecantor.__file__))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mills_default(capsys):
    code, out, _ = run(
        capsys, "mills", "--seed", "2", "--c", "3", "--steps", "3", "--digits", "9"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chain"] == ["2", "11", "1361", "2521008887"]
    assert payload["digits"].startswith("1.30637788")
    assert payload["digits_determined"] is True
    assert payload["verification"]["all_passed"] is True
    assert payload["meta"]["schema_version"] == 1
    assert payload["probable_prime_flags"] == [False] * 4


def test_mills_zero_steps_one_digit(capsys):
    code, out, _ = run(
        capsys, "mills", "--seed", "2", "--c", "3", "--steps", "0", "--digits", "1"
    )
    assert code == 0
    assert json.loads(out)["digits"] == "1"


def test_mills_partial_digits_exit_code(capsys):
    code, out, err = run(
        capsys, "mills", "--seed", "2", "--c", "3", "--steps", "0", "--digits", "12"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["digits_determined"] is False
    assert payload["max_supported_digits"] < 12
    assert "allow-partial" in err

    code, out, _ = run(
        capsys, "mills", "--seed", "2", "--c", "3", "--steps", "0",
        "--digits", "12", "--allow-partial",
    )
    assert code == 0


def test_mills_partial_digits_with_three_integer_digits(capsys):
    code, out, _ = run(
        capsys, "mills", "--seed", "100003", "--c", "2", "--steps", "1",
        "--digits", "40", "--allow-partial",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["digits"] == "316.2325096"
    assert payload["max_supported_digits"] == 10


def test_mills_digits_beyond_int_str_limit(capsys):
    # 4301 digits is past CPython's default int-to-str cap of 4300.
    code, out, _ = run(
        capsys, "mills", "--seed", "2", "--c", "3", "--steps", "0",
        "--digits", "4301", "--allow-partial",
    )
    assert code == 0
    assert json.loads(out)["max_supported_digits"] == 1
    if hasattr(sys, "get_int_max_str_digits"):
        assert sys.get_int_max_str_digits() != 0


def test_mills_rejects_composite_seed(capsys):
    code, _, err = run(capsys, "mills", "--seed", "4", "--c", "3")
    assert code == 2
    assert "not prime" in err


@pytest.mark.parametrize("digits", ["0", "-3"])
def test_mills_rejects_digits_below_one_before_the_search(capsys, monkeypatch, digits):
    def search(*_):
        raise AssertionError("the chain search ran")

    monkeypatch.setattr(chains, "extend_greedy", search)
    code, out, err = run(capsys, "mills", "--seed", "5", "--c", "2", "--steps", "10",
                         "--digits", digits)
    assert (code, out, err) == (2, "", "error: digit count must be positive\n")


def test_mills_refuses_too_few_integer_digits_before_the_search(capsys):
    # Every constant on a chain through 100003 at c = 2 lies near 316.23,
    # which has three integer digits; the 8-step search would take 30 s.
    start = time.perf_counter()
    code, out, err = run(capsys, "mills", "--seed", "100003", "--c", "2", "--steps", "8",
                         "--digits", "2")
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (
        2, "", "error: the constant has 3 integer digits; request at least 3 digits\n")


def test_mills_head_tail_exponents(capsys):
    code, out, _ = run(
        capsys, "mills", "--seed", "2", "--c-seq", "3,5/2", "--c-tail", "2",
        "--steps", "2", "--digits", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["config"]["exponents"]["head"] == ["3", "5/2"]
    assert payload["meta"]["config"]["exponents"]["tail"] == "2"
    assert payload["verification"]["all_passed"] is True


def test_tree_depth1(capsys):
    code, out, _ = run(capsys, "tree", "--seed", "2", "--c", "3", "--depth", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # root + 5 children
    assert lines[0] == "0,2,5,0,0"
    assert [l.split(",")[1] for l in lines[1:]] == ["11", "13", "17", "19", "23"]


def test_tree_depth0(capsys):
    code, out, _ = run(capsys, "tree", "--seed", "2", "--c", "3", "--depth", "0")
    assert code == 0
    assert out.strip().splitlines() == ["0,2,0,0,0"]


def test_tree_deeper_than_the_recursion_limit(capsys):
    # c = 1 gives each node the one child [a, a + 1) = {a}: a chain of 1201
    # nodes, printed in preorder without recursion.
    code, out, err = run(capsys, "tree", "--seed", "2", "--c", "1", "--depth", "1200")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 1201
    assert lines[0] == "0,2,1,0,0" and lines[-1] == "1200,2,0,0,0"


def test_tree_cap(capsys):
    code, out, _ = run(
        capsys, "tree", "--seed", "2", "--c", "2", "--depth", "2", "--cap", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) <= 7
    # Root records its true branching count even under the cap.
    assert lines[0].split(",")[2] == "2"


def test_tree_count_leaves(capsys):
    code, out, _ = run(
        capsys, "tree", "--seed", "2", "--c", "3", "--depth", "1", "--count-leaves"
    )
    assert code == 0
    root, *leaves = [line.split(",") for line in out.splitlines()]
    assert root == ["0", "2", "5", "0", "0"]
    assert [leaf[1] for leaf in leaves] == ["11", "13", "17", "19", "23"]
    for leaf in leaves:
        lo, hi = admissible_interval(int(leaf[1]), 3)
        assert int(leaf[2]) == len(primes_in_range(lo, hi)) > 0
        assert leaf[3] == "1"


HEAD_TAIL = ("--seed", "2", "--c-seq", "3,5/2", "--c-tail", "2", "--depth", "2")


def test_tree_head_tail_exponents(capsys):
    # The root expands with c_2 = 5/2 ([2**(5/2), 3**(5/2)) holds 7, 11, 13)
    # and level 2 with c_3 = 2.
    code, out, _ = run(capsys, "tree", *HEAD_TAIL)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    assert lines[:2] == ["0,2,3,0,0", "1,7,3,0,0"]


def test_dimension_measured_head_tail_exponents(capsys):
    code, out, _ = run(capsys, "dimension", "--preset", "measured", *HEAD_TAIL)
    assert code == 0
    assert "# final_estimate=0.168528311\n" in out


def test_dimension_cantor_thirds(capsys):
    code, out, _ = run(
        capsys, "dimension", "--preset", "cantor-thirds", "--kmax", "40"
    )
    assert code == 0
    final = [l for l in out.splitlines() if l.startswith("# final_estimate=")][0]
    value = float(final.split("=")[1])
    assert abs(value - 0.63093) < 0.01


def test_dimension_paper_simple_trend(capsys):
    code, out, _ = run(
        capsys, "dimension", "--preset", "paper-simple", "--p", "2521008887",
        "--delta", "0.01", "--kmax", "12", "--out", "json",
    )
    assert code == 0
    payload = json.loads(out)
    estimates = [
        lvl["estimate"] for lvl in payload["levels"] if lvl["estimate"] is not None
    ]
    # The lowest level has no branching product yet and overshoots; from the
    # first genuine ratio onward the sequence climbs toward the closed form.
    assert estimates[1:] == sorted(estimates[1:])
    p = 2521008887
    closed_form = (1 - 0.01 / 2) / (1 + 0.01 + 3 / (p * math.log(p)))
    assert abs(payload["final_estimate"] - closed_form) < 1e-3


def test_dimension_bounds(capsys):
    # R is the largest exponent of the sequence: c = 2 gives R = 2.
    code, out, _ = run(
        capsys, "dimension", "--bound", "--p", "11", "--c", "2"
    )
    assert code == 0
    assert out == "0.9295200087\n"
    code, _, err = run(capsys, "dimension", "--bound")
    assert code == 2
    assert "--p" in err


def test_dimension_bound_takes_a_seed_past_float_range(capsys):
    # The bound is 1 / (1 + R / (a1 ln a1)), which rounds to 1 at this size.
    seed = nextprime(2**1024)
    code, out, _ = run(
        capsys, "dimension", "--bound", "--seed", str(seed), "--c", "2"
    )
    assert code == 0
    assert out == "1.0000000000\n"
    for preset in (("paper-simple",), ("paper-general", "--c", "2")):
        code, out, _ = run(
            capsys, "dimension", "--preset", *preset, "--seed", str(seed),
            "--kmax", "4", "--out", "json",
        )
        assert code == 0, preset
        assert json.loads(out)["theorem_bound"] == 1.0, preset


def test_dimension_bound_needs_a_sequence(capsys):
    code, out, err = run(capsys, "dimension", "--bound", "--p", "11")
    assert code == 2
    assert out == ""
    assert_one_error_line(err)
    assert "--c" in err


def test_dimension_theorem_bound_uses_the_sequence_r(capsys):
    code, out, _ = run(
        capsys, "dimension", "--preset", "paper-general", "--p", "1009",
        "--c", "2", "--kmax", "20", "--out", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["config"]["R"] == "2"
    assert payload["theorem_bound"] == proposition_bound(1009, 2)
    assert payload["theorem_bound"] >= payload["final_estimate"]


def test_dimension_theorem_bound_only_for_seeded_levels(capsys):
    code, out, _ = run(
        capsys, "dimension", "--preset", "cantor-thirds", "--out", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert "theorem_bound" not in payload
    assert "R" not in payload["meta"]["config"]
    code, out, _ = run(
        capsys, "dimension", "--preset", "paper-simple", "--p", "11",
        "--kmax", "6", "--out", "json",
    )
    assert code == 0
    assert json.loads(out)["theorem_bound"] == proposition_bound(11, 3)
    # c_1 = 1 gives theta = 0, where the closed form does not hold.
    code, out, _ = run(
        capsys, "dimension", "--preset", "measured", "--seed", "11",
        "--c-seq", "1,2", "--depth", "2", "--out", "json",
    )
    assert code == 0
    assert "theorem_bound" not in json.loads(out)


LEVELS = object()  # stands for the path of a valid levels file


@pytest.mark.parametrize(
    "flags",
    [
        ("--preset", "cantor-thirds", "--c", "2"),
        ("--preset", "cantor-thirds", "--seed", "11"),
        ("--levels-file", LEVELS, "--c", "2"),
        ("--preset", "measured", "--bound", "--seed", "11", "--c", "2"),
        ("--preset", "cantor-thirds", "--levels-file", LEVELS),
        ("--preset", "cantor-thirds", "--kmax", "3", "--depth", "9", "--d1", "4"),
        ("--levels-file", LEVELS, "--kmax", "5"),
        ("--preset", "paper-simple", "--p", "11", "--Q", "0.7"),
        ("--preset", "paper-simple", "--p", "11", "--depth", "2"),
        ("--preset", "paper-general", "--p", "1009", "--c", "2", "--delta", "0.5"),
        ("--preset", "paper-general", "--p", "1009", "--c", "2", "--d1", "4"),
        ("--preset", "measured", "--seed", "11", "--c", "2", "--kmax", "5"),
        ("--preset", "measured", "--seed", "11", "--c", "2", "--Q", "7",
         "--delta", "0.5"),
        ("--bound", "--seed", "11", "--c", "2", "--kmax", "5"),
        ("--bound", "--seed", "11", "--c", "2", "--L", "2"),
    ],
    ids=["cantor-thirds-c", "cantor-thirds-seed", "levels-file-c",
         "preset-and-bound", "preset-and-levels-file", "cantor-thirds-depth-d1",
         "levels-file-kmax", "paper-simple-Q", "paper-simple-depth",
         "paper-general-delta", "paper-general-d1", "measured-kmax",
         "measured-Q-delta", "bound-kmax", "bound-L"],
)
def test_dimension_rejects_flags_its_source_ignores(tmp_path, capsys, flags):
    path = tmp_path / "levels.csv"
    path.write_text("k,log_m,log_eps\n1,0.7,-1.1\n2,0.7,-2.2\n")
    assert run(capsys, "dimension", "--levels-file", str(path))[0] == 0
    argv = [str(path) if flag is LEVELS else flag for flag in flags]
    code, out, err = run(capsys, "dimension", *argv)
    assert code == 2
    assert out == ""
    assert_one_error_line(err)


C3 = {"head": [], "tail": "3", "theta": "2", "R": "3"}
C_SEQ = {"head": ["3", "5/2"], "tail": "2", "theta": "1", "R": "3"}


def config_argv(config):
    """The dimension flags that a meta.config records, besides --out."""
    argv = []
    for key, value in config.items():
        if key == "exponents":
            argv += (["--c-seq", ",".join(value["head"]), "--c-tail", value["tail"]]
                     if value["head"] else ["--c", value["tail"]])
        elif key == "bound":
            argv.append("--bound")
        elif key != "R":  # R follows from the source
            argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


@pytest.mark.parametrize(
    "flags, config",
    [
        (("--preset", "cantor-thirds", "--kmax", "3"),
         {"preset": "cantor-thirds", "kmax": 3}),
        (("--levels-file", LEVELS), {"levels_file": LEVELS}),
        (("--preset", "paper-simple", "--p", "11", "--kmax", "4", "--delta", "0.1",
          "--d1", "0.7"),
         {"preset": "paper-simple", "p": 11, "kmax": 4, "delta": 0.1, "d1": 0.7,
          "R": "3"}),
        (("--preset", "paper-general", "--p", "11", "--c-seq", "3,5/2",
          "--c-tail", "2", "--kmax", "6", "--Q", "0.7", "--L", "0.5"),
         {"preset": "paper-general", "p": 11, "kmax": 6, "Q": 0.7, "L": 0.5,
          "exponents": C_SEQ, "R": "3"}),
        (("--preset", "measured", "--p", "2", "--c", "3", "--depth", "1"),
         {"preset": "measured", "p": 2, "depth": 1, "exponents": C3, "R": "3"}),
        (("--bound", "--p", "11", "--c-seq", "3,5/2", "--c-tail", "2"),
         {"bound": True, "p": 11, "exponents": C_SEQ, "R": "3"}),
    ],
    ids=["cantor-thirds", "levels-file", "paper-simple", "paper-general",
         "measured", "bound"],
)
def test_dimension_accepts_every_flag_its_source_reads(tmp_path, capsys, flags, config):
    # meta.config records the source and exactly the flags it read, so the
    # flags it spells rerun the same computation.
    path = tmp_path / "levels.csv"
    path.write_text("k,log_m,log_eps\n1,0.7,-1.1\n2,0.7,-2.2\n")
    argv = [str(path) if flag is LEVELS else flag for flag in flags]
    code, out, _ = run(capsys, "dimension", *argv, "--out", "json")
    assert code == 0
    recorded = json.loads(out)["meta"]["config"]
    assert recorded == {k: str(path) if v is LEVELS else v for k, v in config.items()}
    rerun = run(capsys, "dimension", *config_argv(recorded), "--out", "json")
    assert rerun == (0, out, "")


@pytest.mark.parametrize(
    "flags",
    [
        ("--preset", "measured", "--c", "2"),
        ("--preset", "paper-simple"),
        ("--bound", "--c", "2"),
    ],
    ids=["measured", "paper-simple", "bound"],
)
def test_dimension_seed_zero_is_checked_not_missing(capsys, flags):
    code, out, err = run(capsys, "dimension", *flags, "--seed", "0")
    assert code == 2
    assert out == ""
    assert err == "error: seed 0 is not prime\n"


@pytest.mark.parametrize(
    "flags", [("--R", "2"), ("--out", "text"), ("--bound", "theorem")],
    ids=["R", "out-text", "bound-theorem"],
)
def test_dimension_rejects_removed_flags(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["dimension", "--preset", "cantor-thirds", *flags])
    assert exc.value.code == 2


def test_dimension_p_is_seed(capsys):
    outs = []
    for flag in ("--p", "--seed"):
        code, out, _ = run(
            capsys, "dimension", "--preset", "paper-simple", flag, "11",
            "--kmax", "8",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_dimension_measured_preset(capsys):
    code, out, _ = run(
        capsys, "dimension", "--preset", "measured", "--seed", "2", "--c", "3",
        "--depth", "2",
    )
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith(("#", "k,"))]
    assert [r.split(",")[0] for r in rows] == ["2", "3"]
    assert float(rows[0].split(",")[1]) == pytest.approx(math.log(5))


def test_dimension_levels_file(tmp_path, capsys):
    path = tmp_path / "levels.csv"
    log2, log3 = math.log(2), math.log(3)
    lines = ["k,log_m,log_eps"]
    lines += [f"{k},{log2},{-k * log3}" for k in range(1, 11)]
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "dimension", "--levels-file", str(path))
    assert code == 0
    final = [l for l in out.splitlines() if l.startswith("# final_estimate=")][0]
    want = 9 * log2 / (10 * log3 - log2)
    assert float(final.split("=")[1]) == pytest.approx(want, abs=1e-6)


def test_dimension_levels_file_round_trip_keeps_source(tmp_path, capsys):
    # The CSV's fourth column is the estimate, not a source.
    argv = ("dimension", "--preset", "measured", "--seed", "2", "--c", "3",
            "--depth", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "levels.csv"
    path.write_text(out)
    code, out, _ = run(
        capsys, "dimension", "--levels-file", str(path), "--out", "json"
    )
    assert code == 0
    levels = json.loads(out)["levels"]
    assert [lvl["k"] for lvl in levels] == [2, 3]
    assert {lvl["source"] for lvl in levels} == {"measured"}


@pytest.mark.xfail(
    strict=True,
    reason="the CSV prints log_m with 6 decimals, too few to read back",
)
def test_dimension_levels_file_round_trip_of_cantor_thirds(tmp_path, capsys):
    code, out, _ = run(capsys, "dimension", "--preset", "cantor-thirds",
                       "--kmax", "10")
    assert code == 0
    path = tmp_path / "levels.csv"
    path.write_text(out)
    code, again, _ = run(capsys, "dimension", "--levels-file", str(path))
    assert code == 0
    assert again == out


def test_dimension_levels_file_source_column(tmp_path, capsys):
    # A source column is ignored like any other extra column.
    log2, log3 = math.log(2), math.log(3)
    rows = [f"{k},{log2},{-k * log3}" for k in (1, 2, 3)]
    plain, labelled = tmp_path / "plain.csv", tmp_path / "labelled.csv"
    plain.write_text("k,log_m,log_eps\n" + "\n".join(rows) + "\n")
    labelled.write_text(
        "k,log_m,log_eps,source\n"
        f"{rows[0]},analytic\n{rows[1]}\n{rows[2]},measured\n"
    )
    outs = []
    for path in (plain, labelled):
        code, out, _ = run(
            capsys, "dimension", "--levels-file", str(path), "--out", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"].pop("config") == {"levels_file": str(path)}
        outs.append(payload)
    assert outs[1] == outs[0]
    assert [lvl["source"] for lvl in outs[1]["levels"]] == ["measured"] * 3


@pytest.mark.parametrize(
    "flags, want",
    [
        (("--preset", "cantor-thirds", "--kmax", "3"), "analytic"),
        (("--preset", "paper-simple", "--p", "11", "--kmax", "4"), "analytic"),
        (("--preset", "paper-general", "--p", "1009", "--c", "2", "--kmax", "4"),
         "analytic"),
        (("--preset", "measured", "--seed", "2", "--c", "3", "--depth", "2"),
         "measured"),
        (("--levels-file", LEVELS), "measured"),
    ],
    ids=["cantor-thirds", "paper-simple", "paper-general", "measured",
         "levels-file"],
)
def test_dimension_json_source_follows_the_level_source(
    tmp_path, capsys, flags, want
):
    path = tmp_path / "levels.csv"
    path.write_text("k,log_m,log_eps\n1,0.7,-1.1\n2,0.7,-2.2\n")
    argv = [str(path) if flag is LEVELS else flag for flag in flags]
    code, out, _ = run(capsys, "dimension", *argv, "--out", "json")
    assert code == 0
    levels = json.loads(out)["levels"]
    assert levels and {lvl["source"] for lvl in levels} == {want}


def test_survey_gamma_rows(capsys):
    code, out, _ = run(
        capsys, "survey", "gamma", "--x", "8", "--x", "1000000", "--gamma", "2/3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "anchor,lo,hi,count,density_ratio"
    assert len(lines) == 3
    assert lines[1].split(",")[3] == "1"


def test_main_runs_twice_in_one_process(capsys, run_fresh):
    # Each subcommand's parser is built once per process and reused: each run
    # prints what a fresh interpreter prints, and repeated --x flags must not
    # carry over.
    mills = "mills --seed 2 --c 3 --steps 3"
    gamma = "survey gamma --x 1000 --gamma 1/2"
    runs = [mills, gamma, gamma, "tree --seed 2 --c 3 --depth 1",
            "dimension --preset cantor-thirds --kmax 3", mills]
    fresh = {
        args: run_fresh(["-m", "primecantor.cli", *args.split()], text=True).stdout
        for args in set(runs)
    }
    for args in runs:
        code, out, _ = run(capsys, *args.split())
        assert code == 0
        assert out == fresh[args], args
    assert len(fresh[gamma].strip().splitlines()) == 2  # header + one row


# Help, usage and error text: the parser main builds for argv[0] must print
# what the parser of every subcommand prints.
@pytest.mark.parametrize(
    "args",
    ["", "-h", "--help mills", "mills -h", "tree -h", "dimension -h", "survey -h",
     "survey gamma -h", "survey matomaki -h", "survey", "survey bogus", "mill",
     "mills --bogus", "tree --seed x --c 3", "dimension --preset bogus",
     "survey gamma --x 5 --gamma 1/2 extra"],
)
def test_usage_text_matches_the_full_parser(capsys, monkeypatch, args):
    monkeypatch.setenv("COLUMNS", "80")
    printed = []
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(args.split())
        printed.append((exc.value.code, *capsys.readouterr()))
    assert printed[0] == printed[1]
    # argparse names the subcommand after the full parser's metavar.
    named = {"": "arguments are required: command", "mill": "argument command: invalid"}
    assert named.get(args, "") in printed[0][2]


@pytest.mark.parametrize(
    "args, built",
    [("mills --seed 2 --c 3 --steps 1 --digits 1", 2),
     ("tree --seed 2 --c 3 --depth 1", 2),
     ("dimension --preset cantor-thirds --kmax 3", 2),
     ("survey gamma --x 1000 --gamma 1/2", 4),
     ("--help", 7)],
    ids=["mills", "tree", "dimension", "survey-gamma", "help"],
)
def test_main_builds_only_the_parser_of_its_subcommand(capsys, monkeypatch, args, built):
    inits = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *a, **kw):
        inits.append(kw.get("prog"))
        init(self, *a, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    try:
        code = main(args.split())
    except SystemExit as exc:
        code = exc.code
    finally:
        build_parser.cache_clear()  # drop the parsers built with the counter
    capsys.readouterr()
    assert code == 0
    assert len(inits) == built, inits


def test_import_builds_no_parser(run_fresh):
    code = textwrap.dedent("""\
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *a, **kw):
            built.append(kw.get("prog"))
            init(self, *a, **kw)

        argparse.ArgumentParser.__init__ = counting_init
        import primecantor.cli
        print(len(built))
    """)
    proc = run_fresh(["-c", code], text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_survey_matomaki(capsys):
    code, out, _ = run(
        capsys, "survey", "matomaki", "--X", "100", "--c", "2", "--d", "0"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "X,c,d_threshold,total,good,fraction"
    fields = row.split(",")
    assert int(fields[3]) >= int(fields[4]) >= 0
    assert 0.0 <= float(fields[5]) <= 1.0


def test_survey_matomaki_empty_census_errors(capsys):
    code, _, err = run(
        capsys, "survey", "matomaki", "--X", "24", "--c", "100", "--d", "0.5"
    )
    assert code == 1
    assert "no primes" in err



def test_width_limit_caps_tree_sieving(capsys, monkeypatch):
    # The root's admissible interval [8, 26] holds 19 integers.
    monkeypatch.setattr(primality, "WIDTH_LIMIT", 10)
    code, out, err = run(capsys, "tree", "--seed", "2", "--c", "3", "--depth", "1")
    assert code == 1
    assert out == ""
    assert_one_error_line(err)
    assert "budget 10" in err


def test_tree_has_no_node_budget_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tree", "--seed", "2", "--c", "3", "--node-budget", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --node-budget 5" in capsys.readouterr().err


def _modules_loaded(statement):
    """The names in sys.modules after ``statement`` runs in a fresh
    interpreter that finds the package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", statement + "\nimport sys; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return set(out.split())


def test_import_leaves_out_process_pools():
    assert "concurrent.futures" not in _modules_loaded("import primecantor.cli")


def test_import_leaves_out_dataclasses():
    # dataclasses and the inspect, ast and dis it pulls in took about half
    # of the CLI's start-up.
    added = _modules_loaded("import primecantor.cli") - _modules_loaded("")
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def test_closed_stdout_exits_1_without_an_error_line():
    # The listing is about 320 KB, well over a pipe's 64 KB buffer, so the
    # run is still writing when its reader stops after one line (`| head
    # -1`): it must exit 1, not 2 (invalid input), and print nothing to
    # stderr, neither an error line nor a complaint at shutdown.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "primecantor.cli", "tree", "--seed", "2", "--c", "2",
         "--depth", "4"],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"0,2,2,0,0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


def assert_one_error_line(err):
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, want",
    [
        # c = 11/10 from seed 2 gives the chain 2, 3, then the interval [4, 4].
        (("mills", "--seed", "2", "--c", "11/10", "--steps", "3"), 1),
        (("dimension", "--preset", "measured", "--seed", "2", "--c", "3",
          "--depth", "0"), 1),
        # The only successor of 3 for c = 3/2 is 7: no sibling gap on level 2.
        (("dimension", "--preset", "measured", "--seed", "3", "--c", "3/2",
          "--depth", "1"), 1),
        # Node 1051 on level 2 is a dead end: [34073, 34121] holds no prime.
        (("dimension", "--preset", "measured", "--seed", "103", "--c", "3/2",
          "--depth", "2"), 1),
        # Both level-2 nodes under 859 are dead ends: level 3 is empty.
        (("dimension", "--preset", "measured", "--seed", "859", "--c", "5/4",
          "--depth", "2"), 1),
        (("mills", "--seed", "2"), 2),
        # A lies near 316.23, which has three integer digits.
        (("mills", "--seed", "100003", "--c", "2", "--steps", "1",
          "--digits", "2"), 2),
        (("dimension",), 2),
        (("dimension", "--preset", "paper-simple"), 2),
        (("dimension", "--preset", "paper-simple", "--p", "11", "--c", "2",
          "--out", "json"), 2),
        (("dimension", "--preset", "measured", "--c", "3"), 2),
        (("dimension", "--preset", "paper-simple", "--p", "4"), 2),
        (("dimension", "--preset", "paper-general", "--p", "4", "--c", "2"), 2),
        (("dimension", "--bound", "--p", "4", "--c", "2"), 2),
        # Its depth-2 tree holds 541 nodes, over the budget of 10 set below.
        (("tree", "--seed", "2", "--c", "3", "--depth", "2"), 1),
        # delta outside [0, 1) would give a "dimension" above 1 (-0.5) or no
        # estimate at all (1.5).
        (("dimension", "--preset", "paper-simple", "--p", "11",
          "--delta", "-0.5", "--kmax", "6"), 2),
        (("dimension", "--preset", "paper-simple", "--p", "11",
          "--delta", "1.5", "--kmax", "6"), 2),
        # An exponent past float range cannot enter the log-space formulas.
        (("dimension", "--bound", "--seed", "11", "--c", "1e400"), 2),
        (("dimension", "--preset", "paper-general", "--seed", "11",
          "--c", "1e400", "--kmax", "4"), 2),
        # The closed-form bound, like the analytic levels, needs theta > 0.
        (("dimension", "--bound", "--seed", "11", "--c", "1"), 2),
        (("dimension", "--bound", "--seed", "11", "--c-seq", "1,2"), 2),
        # Exponents whose cleared powers pass the 2**30-bit budget: the
        # interval after seed 2 for c = floor(sqrt(5) 2**64) / 2**64 and for
        # c = 2 + 2**-64, then the digits of the chain 2, 5, 29, 853 for
        # c = 2 + 2**-30, whose C_4 has a denominator near 2**124.
        (("mills", "--seed", "2", "--c", "41248173712355948587/18446744073709551616",
          "--steps", "3", "--allow-partial"), 1),
        (("mills", "--seed", "2", "--c", "36893488147419103233/18446744073709551616",
          "--steps", "3", "--allow-partial"), 1),
        (("mills", "--seed", "2", "--c", "2147483649/1073741824",
          "--steps", "3", "--allow-partial"), 1),
    ],
    ids=["no-prime-in-interval", "measured-depth0", "measured-no-sibling-pair",
         "measured-dead-end", "measured-dead-level",
         "no-exponent",
         "digits-below-integer-part", "no-preset", "no-p",
         "paper-simple-fixes-c", "no-seed", "paper-simple-composite-seed",
         "paper-general-composite-seed", "bound-composite-seed",
         "tree-node-budget",
         "negative-delta", "delta-above-one", "bound-huge-c",
         "paper-general-huge-c", "bound-theta-zero", "bound-c-seq-theta-zero",
         "power-budget-sqrt5", "power-budget-2+2^-64", "power-budget-digits"],
)
def test_errors_exit_with_one_line(capsys, monkeypatch, argv, want):
    # Only the tree-node-budget row builds a tree of more than its root.
    monkeypatch.setattr(chains, "NODE_BUDGET", 10)
    code, out, err = run(capsys, *argv)
    assert code == want
    assert out == ""
    assert_one_error_line(err)


def test_out_of_memory_exits_with_one_line(capsys, monkeypatch):
    def exhausted(*_):
        raise MemoryError

    monkeypatch.setattr(survey, "matomaki_fraction", exhausted)
    code, out, err = run(capsys, "survey", "matomaki", "--X", "200", "--c", "2",
                         "--d", "0.5")
    assert (code, out, err) == (1, "", "error: out of memory\n")


def test_measured_preset_has_no_node_budget(capsys, monkeypatch):
    # The seed-307 row's tree holds 478,852 nodes; the stream builds none.
    monkeypatch.setattr(chains, "NODE_BUDGET", 10)
    code, out, _ = run(capsys, "dimension", "--preset", "measured", "--seed", "307",
                       "--c", "2", "--depth", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "31f7dc10bedbb4837e95c4cba7d72dc44c0d4ea75caf12b7c007a7e3af3cd382")


@pytest.mark.parametrize(
    "argv, last",
    [(("--preset", "paper-general", "--p", "11", "--c", "2", "--kmax", "2000"), 1023),
     (("--preset", "paper-simple", "--p", "11", "--kmax", "700"), 646)],
    ids=["paper-general", "paper-simple"],
)
def test_kmax_past_float_range_is_a_usage_error(capsys, argv, last):
    code, out, err = run(capsys, "dimension", *argv)
    assert code == 2
    assert out == ""
    assert_one_error_line(err)
    assert f"k_max {argv[-1]} is past float range: level {last} is the last" in err


@pytest.mark.parametrize(
    "argv",
    [("--preset", "paper-general", "--p", "11", "--c", "2", "--Q", "nan"),
     ("--preset", "paper-general", "--p", "11", "--c", "2", "--Q", "inf"),
     ("--preset", "paper-general", "--p", "11", "--c", "2", "--L", "inf"),
     ("--preset", "paper-simple", "--p", "11", "--d1", "nan")],
    ids=["Q-nan", "Q-inf", "L-inf", "d1-nan"],
)
def test_non_finite_model_parameters_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, "dimension", *argv)
    assert code == 2
    assert out == ""
    assert_one_error_line(err)
    assert f"{argv[-2][2:]} must be positive and finite" in err


@pytest.mark.parametrize(
    "flags",
    [("--c", "3", "--c-seq", "2"), ("--c", "3", "--c-tail", "5")],
    ids=["c-and-c-seq", "c-and-c-tail"],
)
@pytest.mark.parametrize(
    "argv",
    [("mills", "--seed", "2", "--steps", "2"), ("tree", "--seed", "2"),
     ("dimension", "--preset", "measured", "--seed", "11")],
    ids=["mills", "tree", "dimension"],
)
def test_conflicting_exponent_flags_are_a_usage_error(capsys, argv, flags):
    code, out, err = run(capsys, *argv, *flags)
    assert code == 2
    assert out == ""
    assert_one_error_line(err)
    assert "--c" in err


@pytest.mark.parametrize("head", ["3,x", "3,1/0"])
@pytest.mark.parametrize(
    "argv",
    [("mills", "--seed", "2"), ("tree", "--seed", "2"),
     ("dimension", "--preset", "measured", "--seed", "2")],
    ids=["mills", "tree", "dimension"],
)
def test_malformed_c_seq_is_a_usage_error(capsys, argv, head):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--c-seq", head])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument --c-seq: not a rational: {head.split(',')[1]!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "header, row",
    [("", None)]
    + [("k,log_m,log_eps,source", row) for row in (
        "2,0.69,not-a-float", "2,0.69", "2,nan,-5.0", "2,0.69,inf", "1,0.69,-2.2")]
    # Columns are read by position, so their names must match exactly.
    + [("k,foo,bar", "2,0.69,-2.2"), ("k,log_eps,log_m", "2,0.69,-2.2")],
    ids=["missing-file", "bad-float", "short-row", "nan", "inf", "duplicate-k",
         "unknown-header", "swapped-header"],
)
def test_dimension_levels_file_errors(tmp_path, capsys, header, row):
    path = tmp_path / "levels.csv"
    if row is not None:
        path.write_text(f"{header}\n1,0.69,-1.1\n{row}\n")
    code, out, err = run(capsys, "dimension", "--levels-file", str(path))
    assert code == 2
    assert out == ""
    assert_one_error_line(err)


def test_dimension_levels_file_without_rows(tmp_path, capsys):
    path = tmp_path / "levels.csv"
    path.write_text("k,log_m,log_eps\n")
    code, out, err = run(capsys, "dimension", "--levels-file", str(path))
    assert code == 2
    assert out == ""
    assert_one_error_line(err)
    assert f"{path}: no level rows" in err
