"""Runs in a fresh interpreter, shared by the tests of recorded outputs, of
the README's command lines and of the budget guards."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import primecantor

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def run_fresh():
    """Run `python <argv>` from the repository root with the package on
    PYTHONPATH, stdin from /dev/null and a 60 s timeout unless given; other
    keywords go to `subprocess.run`."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(primecantor.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return lambda argv, timeout=60, **kwargs: subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        capture_output=True, timeout=timeout, **kwargs)
