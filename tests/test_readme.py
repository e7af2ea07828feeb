"""The README's library tour runs and gives the values its comments state,
and each line of its command-line block exits 0."""

import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
COMMANDS = re.findall(r"^primecantor ([^#\n]*)",
                      re.search(r"^## Command line\n+```sh\n(.*?)^```$",
                                README, re.M | re.S).group(1), re.M)


def test_library_tour_runs_as_documented():
    tour = re.search(r"^## Library tour\n+```python\n(.*?)^```$", README, re.M | re.S)
    scope = {}
    exec(tour.group(1), scope)
    chain, certified_prefix = scope["chain"], scope["certified_prefix"]
    assert chain.elements == (2, 11, 1361, 2521008887)
    assert certified_prefix(chain, 9) == (9, "1.30637788")
    assert scope["verify_representation"](chain).all_passed


def test_command_line_block_is_not_empty():
    assert COMMANDS


@pytest.mark.parametrize("args", COMMANDS, ids=[args.strip() for args in COMMANDS])
def test_command_line_runs(run_fresh, args):
    proc = run_fresh(["-m", "primecantor.cli", *args.split()])
    assert proc.returncode == 0, proc.stderr.decode()
