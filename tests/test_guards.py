"""Each decision has one owner module, each run over a budget stops in
time with one `error:` line, and every package name the bench uses exists.

A guard run must exit 1 inside its timeout, print nothing on stdout and
print exactly one line on stderr, an `error: ...` line of under 200
bytes; a traceback, a `MemoryError` or a run that outlives its timeout
fails it.
"""

import re
import resource
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "primecantor"

# (pattern, the one module that may match it, or None for none)
OWNERS = [
    # The sieve budgets belong to primality.
    ("sieve_config|SieveConfig|WIDTH_LIMIT", "primality.py"),
    # So does the check of a window, and of a list's widest window first.
    ("check_window", "primality.py"),
    # The tree node budget belongs to chains.
    ("NODE_BUDGET", "chains.py"),
    # Exact roots belong to certified.
    (r"introot\(", "certified.py"),
    # No dataclasses: importing them (with the inspect, ast and dis they
    # load) and exec'ing their generated methods took about half of
    # `import primecantor.cli`, which every short CLI run pays.
    ("(from|import) +dataclasses", None),
]

# A 2,000,000 KiB address space, as `ulimit -v 2000000` sets it.
ADDRESS_CAP = 2_000_000 * 1024


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_CAP, ADDRESS_CAP))


# (CLI args, timeout in s, the exact stderr or None, preexec_fn)
GUARDS = [
    # A level with an interval over the width budget fails before any of it
    # is sieved, instead of sieving its narrower leaves for hours.
    ("tree --seed 2 --c 3 --depth 2 --count-leaves", 30, None, None),
    # c = 3000000 gives the root an interval width of 1.4 million digits,
    # which took 32 s to print in decimal.
    ("tree --seed 2 --c 3000000 --depth 1", 10, None, None),
    # c = 1000001/1000000 gives C_k a denominator of 6k digits at level k;
    # each level must cost a product, not a subtraction of two such
    # fractions, so 6000 levels finish well inside the timeout.
    ("dimension --preset paper-general --p 11 --c 1000001/1000000 --kmax 6000", 20,
     "error: no level admits an estimate", None),
    # Exponents with denominators near 2**64 (and a C_4 near 2**124): each
    # run raises the typed power budget error at once, in a 2 GB address
    # space.
    *[(f"mills --seed 2 --c {c} --steps 3 --allow-partial", 30, None, cap_address_space)
      for c in ("41248173712355948587/18446744073709551616",
                "36893488147419103233/18446744073709551616",
                "2147483649/1073741824")],
]


@pytest.mark.parametrize("pattern, owner", OWNERS, ids=[p for p, _ in OWNERS])
def test_one_owner(pattern, owner):
    hits = [f"{path.relative_to(SRC)}:{n}: {line.strip()}"
            for path in sorted(SRC.rglob("*.py")) if path.name != owner
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line)]
    assert not hits, f"{pattern!r} outside {owner or 'every module'}:\n" + "\n".join(hits)


@pytest.mark.parametrize("args, timeout, stderr, preexec_fn", GUARDS,
                         ids=[args for args, *_ in GUARDS])
def test_guard_exits_1_with_one_error_line(run_fresh, args, timeout, stderr, preexec_fn):
    proc = run_fresh(["-m", "primecantor.cli", *args.split()],
                     timeout=timeout, preexec_fn=preexec_fn)
    err = proc.stderr.decode()
    assert proc.returncode == 1, f"exit {proc.returncode}\n{err}"
    assert proc.stdout == b""
    assert len(proc.stderr) < 200, f"{len(proc.stderr)} bytes: {err[:200]}"
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    if stderr is not None:
        assert err.rstrip("\n") == stderr


def test_bench_names_resolve(run_fresh):
    # The bench's tracer wraps package functions by name and its probes call
    # others with keywords, so deleting or renaming one must fail here, not
    # only in a traced bench run.  -B leaves bench/ without bytecode.
    code = ("import sys; sys.path.insert(0, 'bench'); import probes, tracing; "
            "tracing.Tracer().install(); probes._probes()")
    proc = run_fresh(["-B", "-c", code])
    assert proc.returncode == 0, proc.stderr.decode()
