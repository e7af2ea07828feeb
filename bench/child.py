"""One fresh interpreter of the benchmark: import the CLI, run jobs, report.

Usage: python3 child.py SRC SPEC_JSON

SRC is the directory holding the ``primecantor`` package.  SPEC_JSON keys:
``mode`` ("jobs", "setup" or "probes"), ``jobs`` (argv lists), ``trace``
(wrap the layers before running), ``trace_out`` (file for the spans).
The last line of stdout is one JSON object with the measurements.
Nothing but ``sys`` and ``time`` is imported before ``primecantor.cli``,
so ``setup_s`` is the import cost a CLI user pays.

In "jobs" mode a fixed reference computation is timed before the first
job and after each job (``ref_s``); ``run_s`` is the sum of the job times
only.  The host this runs on changes speed by tens of percent over seconds
to minutes, and ``run_s / mean(ref_s)`` cancels most of that swing because
both are timed in the same interpreter within seconds of each other.
"""

import sys
import time

# The reference is a bare bytecode loop of REF_LOOP steps plus REF_ROUNDS
# exact sums of the harmonic series to REF_TERMS (stdlib ``Fraction`` code
# and gcds of integers of a few thousand bits).  Host swings slow the jobs
# by different amounts: in trials the loop followed ``records`` and
# ``measured`` most closely and the fractions ``digits`` and ``survey``;
# their sum is a compromise, and both followed the jobs better than dict
# and string churn or big-integer products did.  About 0.06 s on a 2020s
# Xeon core: long enough to time, short next to the jobs it brackets.
REF_LOOP = 250_000
REF_TERMS = 3500
REF_ROUNDS = 2


def reference_time() -> float:
    """Seconds for a fixed computation that uses nothing of primecantor."""
    from fractions import Fraction

    t0 = time.perf_counter()
    s = 0
    for i in range(REF_LOOP):
        s += i * i % 7
    for _ in range(REF_ROUNDS):
        total = Fraction(0)
        for k in range(1, REF_TERMS + 1):
            total += Fraction(1, k)
    return time.perf_counter() - t0


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    t0 = time.perf_counter()
    import primecantor.cli as cli
    setup_s = time.perf_counter() - t0

    import contextlib
    import io
    import json
    import os
    import resource

    spec = json.loads(sys.argv[2])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    result = {"setup_s": setup_s}
    if spec["mode"] == "probes":
        import probes
        result["probes"] = probes.run_all()
    elif spec["mode"] == "jobs":
        tracer = None
        if spec.get("trace"):
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        jobs = []
        run_s = 0.0
        ref_s = [reference_time()]
        for argv in spec["jobs"]:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
            run_s += time.perf_counter() - start
            ref_s.append(reference_time())
            jobs.append({"exit": code, "stdout": out.getvalue()})
        result["run_s"] = run_s
        result["ref_s"] = ref_s
        result["jobs"] = jobs
        if tracer is not None:
            result["layers"] = tracer.summary()
            if spec.get("trace_out"):
                tracer.write_spans(spec["trace_out"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
