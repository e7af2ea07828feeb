"""Capture the reference outputs the benchmark compares every run against.

    python3 bench/capture.py --workload-seed 0 [--workload digits ...]

Runs each workload's jobs once in a fresh interpreter and stores, per job,
its argv, exit code and the SHA-256 of its stdout in
``bench/reference/seed<W>.json`` (merged with what is there).  Run it on
the commit whose outputs are the reference; outputs that fail the
structural checks are refused.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload-seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    path = run.HERE / "reference" / f"seed{args.workload_seed}.json"
    data = json.loads(path.read_text()) if path.is_file() else {}
    for name in args.workload or sorted(workloads.WORKLOADS):
        argvs = workloads.jobs(name, args.workload_seed)
        res = run.run_child({"mode": "jobs", "jobs": argvs}, run.HARD_LIMIT_S * 4)
        stdouts = [job["stdout"] for job in res["jobs"]]
        problems = workloads.structural_problems(argvs, stdouts)
        if problems:
            for i, why in problems.items():
                print(f"error: {' '.join(argvs[i])}: {why}", file=sys.stderr)
            return 1
        data[name] = [
            {"argv": " ".join(argv), "exit": job["exit"],
             "stdout_sha256": workloads.digest(job["stdout"]),
             "stdout_bytes": len(job["stdout"].encode())}
            for argv, job in zip(argvs, res["jobs"])
        ]
        print(f"{name}: {len(argvs)} jobs in {res['run_s']:.2f} s, exits "
              f"{[job['exit'] for job in res['jobs']]}")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
