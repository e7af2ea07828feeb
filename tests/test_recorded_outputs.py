"""Every row of recorded_outputs.txt prints its recorded bytes.

A run that changes output on purpose fails here with its row and the new
SHA-256; that SHA replaces the old one in the manifest.
"""

import hashlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ROWS = [line.split(maxsplit=1)
        for line in (ROOT / "tests" / "recorded_outputs.txt").read_text().splitlines()
        if line and not line.startswith("#")]


def is_demo(args):
    return args.startswith("demos/")


def test_manifest_covers_the_demos_and_the_cli():
    demos = sorted(args for _, args in ROWS if is_demo(args))
    assert demos == sorted(f"demos/{p.name}" for p in (ROOT / "demos").glob("*.py"))
    assert len(ROWS) - len(demos) >= 26


@pytest.mark.parametrize("want, args", ROWS, ids=[args for _, args in ROWS])
def test_recorded_output(run_fresh, want, args):
    proc = run_fresh(args.split() if is_demo(args)
                     else ["-m", "primecantor.cli", *args.split()])
    assert proc.returncode == 0, f"{args}: exit {proc.returncode}\n{proc.stderr.decode()}"
    if is_demo(args) and sys.version_info[:2] != (3, 11):
        return  # demo bytes are recorded on 3.11
    got = hashlib.sha256(proc.stdout).hexdigest()
    assert got == want, f"{args}: stdout changed, new SHA-256 {got}"
