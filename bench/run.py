"""The primecantor benchmark: fixed CLI workloads, each run in fresh interpreters.

    python3 bench/run.py --workload digits --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One repetition starts a fresh interpreter (so module caches such as the
base-prime table start cold, as for a CLI user), times ``import
primecantor.cli`` (``setup_s``), runs the workload's jobs in order through
``primecantor.cli.main`` with stdout captured (``run_s``, the sum of the
job times), and reads its own ``ru_maxrss`` (``peak_rss_mb``).  The same
interpreter times a fixed reference computation before the first job and
after each job (``ref_s``); ``run_rel`` is ``run_s`` over the mean
``ref_s`` of its repetition, the jobs' time in units of the reference,
which the host's swings in speed move less than ``run_s`` (see
``child.py``).
Repetitions start while one more is expected to end before ``--seconds``
have passed, and until there are ``MIN_REPS`` of them, short of
``HARD_LIMIT_S``; one extra import-only interpreter per repetition adds a
``setup_s`` sample.  Medians are reported.  Every job's exit code and
stdout are compared with the reference captured at the seed commit
(``reference/``), plus structural checks; mismatches give ``failed``.

With ``--trace 1`` the run alternates traced and untraced repetitions and
reports the per-layer metrics of the traced ones (see ``tracing.py``),
``trace.overhead`` (traced over untraced ``run_rel``) and the layer probes of
``probes.py``.  Spans of the last traced repetition go to ``bench/out/``.

The CLI inputs are fixed by ``--workload-seed`` (default 0: the job lists
in ``workloads.py``).  ``--seed`` is recorded but does not change them: the
cost of these jobs depends on the arithmetic of their inputs (one prime
gap can change a run tenfold), so runs meant to be compared use the same
inputs and a held-out ``--workload-seed`` re-checks a claim on new ones.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# A median needs a few samples, however short --seconds is.
MIN_REPS = 3
# Every run must end well inside three minutes, whatever the program does.
HARD_LIMIT_S = 160.0

END_TO_END_UNITS = {"run_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed in the table for reading, not part of the JSON result.
RAW_UNITS = {"run_s": "s", "ref_s": "s"}


class ChildError(RuntimeError):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def run_child(spec: dict, timeout: float) -> dict:
    """Run child.py in a fresh interpreter and return its result object."""
    # The CLI reads its width budget from this variable; the references
    # were captured without it.
    env = {k: v for k, v in os.environ.items() if k != "PRIMECANTOR_WIDTH_LIMIT"}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(SRC), json.dumps(spec)],
            cwd=str(ROOT), env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"child exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildError(proc.stderr.strip()[-2000:] or f"exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference(workload: str, workload_seed: int) -> List[dict]:
    path = HERE / "reference" / f"seed{workload_seed}.json"
    if not path.is_file():
        raise SystemExit(f"no reference outputs for workload seed {workload_seed} "
                         f"({path.name}); capture them with bench/capture.py")
    data = json.loads(path.read_text())
    if workload not in data:
        raise SystemExit(f"{path.name} has no reference for workload {workload!r}")
    return data[workload]


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Checker:
    """Counts jobs attempted and failed against the reference outputs."""

    def __init__(self, workload: str, argvs: List[List[str]], reference: List[dict]):
        self.workload = workload
        self.argvs = argvs
        self.reference = reference
        if [r["argv"] for r in reference] != [" ".join(a) for a in argvs]:
            raise SystemExit(f"reference jobs for {workload!r} do not match workloads.py")
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, jobs: List[dict]) -> None:
        failures = workloads.failed_jobs(self.argvs, jobs, self.reference)
        self.attempted += len(self.argvs)
        self.failed += len(failures)
        for i, why in sorted(failures.items()):
            self.reasons.append(f"{' '.join(self.argvs[i])}: {why}")
            if i < len(jobs) and jobs[i].get("stdout") is not None:
                OUT.mkdir(exist_ok=True)
                (OUT / f"{self.workload}-job{i}-failed.txt").write_text(jobs[i]["stdout"])

    def fail_all(self, why: str) -> None:
        self.attempted += len(self.argvs)
        self.failed += len(self.argvs)
        self.reasons.append(why)


def measure(workload: str, workload_seed: int, seconds: float, trace: bool) -> dict:
    argvs = workloads.jobs(workload, workload_seed)
    checker = Checker(workload, argvs, load_reference(workload, workload_seed))
    start = time.perf_counter()
    deadline, hard = start + seconds, start + HARD_LIMIT_S

    def remaining() -> float:
        return hard - time.perf_counter()

    run_child({"mode": "setup"}, remaining())  # warm the file cache and .pyc files
    setups: List[float] = []
    plain: List[dict] = []
    traced: List[dict] = []
    # A traced run alternates traced and untraced repetitions; one pair is
    # enough for the per-layer counts, more steady the self times.
    min_reps = 1 if trace else MIN_REPS
    rep_s = 0.0  # wall time of the last repetition
    while remaining() > 0:
        now = time.perf_counter()
        # Stop before a repetition that would likely end past the deadline,
        # once there are enough of them, or one that would likely run into
        # the hard limit.
        if now + rep_s >= deadline and (len(plain) >= min_reps or remaining() < 2 * rep_s):
            break
        try:
            for is_traced in ([True, False] if trace else [False]):
                spec = {"mode": "jobs", "jobs": argvs, "trace": is_traced}
                if is_traced:
                    spec["trace_out"] = str(OUT / f"spans-{workload}.jsonl")
                res = run_child(spec, remaining())
                checker.check(res["jobs"])
                setups.append(res["setup_s"])
                (traced if is_traced else plain).append(res)
            if not trace:
                # One import-only interpreter per repetition adds a setup_s sample.
                setups.append(run_child({"mode": "setup"}, remaining())["setup_s"])
        except ChildError as exc:
            checker.fail_all(f"repetition aborted: {exc}")
            break
        rep_s = time.perf_counter() - now

    if not plain or (trace and not traced):
        for why in checker.reasons[-5:]:
            print(f"error: {why}", file=sys.stderr)
        raise SystemExit(f"{workload}: no repetition completed")

    samples = {
        "run_rel": [r["run_s"] / statistics.mean(r["ref_s"]) for r in plain],
        "run_s": [r["run_s"] for r in plain],
        "ref_s": [statistics.mean(r["ref_s"]) for r in plain],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    result = {
        "workload": workload,
        "workload_seed": workload_seed,
        "jobs": [" ".join(a) for a in argvs],
        "samples": samples,
        "checker": checker,
    }
    if trace:
        layers: Dict[str, List[float]] = {}
        for r in traced:
            for name, value in r["layers"].items():
                layers.setdefault(name, []).append(value)
        per_layer = {name: statistics.median(v) for name, v in layers.items()}
        per_layer["trace.overhead"] = (
            statistics.median(r["run_s"] / statistics.mean(r["ref_s"]) for r in traced)
            / statistics.median(samples["run_rel"])
        )
        try:
            probes = run_child({"mode": "probes"}, remaining())["probes"]
        except ChildError as exc:
            checker.fail_all(f"probes aborted: {exc}")
        else:
            per_layer.update(probes["metrics"])
            checker.attempted += len(probes["metrics"])
            checker.failed += len(probes["failed"])
            checker.reasons += [f"{name}: wrong result" for name in probes["failed"]]
        result["per_layer"] = per_layer
    return result


def layer_unit(name: str) -> str:
    if name.endswith("_s") or ".self_s." in name:
        return "s"
    if name.endswith(("prime_frac", "overhead")):
        return "ratio"
    if name.endswith("in_bits"):
        return "bits"
    return "count"


def report(result: dict, trace: bool, seed: int, seconds: float) -> dict:
    """Print the human-readable table and return the contract's JSON object."""
    checker: Checker = result["checker"]
    print(f"workload {result['workload']}  seed {seed}  workload-seed "
          f"{result['workload_seed']}  seconds {seconds:g}  trace {int(trace)}")
    print("environment " + json.dumps(environment()))
    for job in result["jobs"]:
        print(f"  job: primecantor {job}")
    print(f"  {'metric':<14}{'median':>12}{'p25':>12}{'p75':>12}{'n':>5}  unit")
    metrics = {}
    for name, unit in {**END_TO_END_UNITS, **RAW_UNITS}.items():
        values = result["samples"][name]
        median = statistics.median(values)
        lo, hi = quartiles(values)
        print(f"  {name:<14}{median:>12.6g}{lo:>12.6g}{hi:>12.6g}{len(values):>5}  {unit}")
        if name in END_TO_END_UNITS:
            metrics[name] = {"value": median, "unit": unit}
    frac = checker.failed / checker.attempted
    print(f"  {'failed_frac':<14}{frac:>12.6g}  ({checker.failed}/{checker.attempted})"
          "  ratio")
    for why in checker.reasons[:10]:
        print(f"  FAILED {why}")
    if trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(result["per_layer"].items())}
        for name, m in metrics.items():
            print(f"  {name:<44}{m['value']:>14.6g}  {m['unit']}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workload-seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not (SRC / "primecantor" / "cli.py").is_file():
        print(f"error: no primecantor sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    outputs = {}
    for name in names:
        result = measure(name, args.workload_seed, args.seconds, bool(args.trace))
        outputs[name] = report(result, bool(args.trace), args.seed, args.seconds)
    print(json.dumps(outputs[names[0]] if len(names) == 1 else outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
