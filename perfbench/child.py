"""One benchmark child process: a fresh interpreter, so the memo caches start cold.

Usage: child.py JOB_JSON

JOB_JSON holds "mode" ("env", "setup", "time" or "trace") and, for the
last two, "argv" (the CLI arguments) and "report" (the --out path).  A
"time" job also holds "warm": [seconds, calls], for the repeats of the same
call once the caches are filled: batches of `calls` consecutive calls, at
least three and until `seconds` have passed.  Each batch is one sample,
reported per call, which averages out sub-second speed changes of the
machine.  The cold call of a "time" job runs under the speed probe
(probe.py): "wall" is its time without the probes, "wall_norm" its time
at the probe's reference speed.  The child prints one JSON line with its
measurements.
"ready" is the time.perf_counter() value (CLOCK_MONOTONIC, shared with the
parent) at which reinhardt.cli finished importing; the parent subtracts its
own spawn time from it to get the set-up time.
"""

import time
import sys

from reinhardt import cli

READY = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

from probe import SpeedProbe  # noqa: E402


def _env() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _timed_call(main, argv):
    start = time.perf_counter()
    code = main(argv)
    return code, time.perf_counter() - start


def main() -> int:
    job = json.loads(sys.argv[1])
    result = {"ready": READY, "module": cli.__file__}
    if job["mode"] == "env":
        result.update(_env())
    if job["mode"] in ("env", "setup"):
        print(json.dumps(result))
        return 0

    argv = job["argv"] + ["--out", job["report"]]
    if job["mode"] == "trace":
        from tracer import Tracer

        tracer = Tracer(run_id=job["run_id"])
        tracer.install()
        code, wall = _timed_call(tracer.wrap("cli.main", cli.main), argv)
        tracer.uninstall()
        result.update(codes=[code], wall=wall, metrics=tracer.metrics(), counts=tracer.counts())
        np.savez(job["spans"], **tracer.spans())
    else:
        with SpeedProbe() as probe:
            code, elapsed = _timed_call(cli.main, argv)
        wall = elapsed - sum(probe.durations)
        result["wall_norm"] = probe.normalize(elapsed)
        with open(job["report"], "rb") as handle:
            cold_report = handle.read()
        codes, warm = [code], []
        seconds, calls = job["warm"]
        warm_end = time.perf_counter() + seconds
        while seconds and (len(warm) < 3 or time.perf_counter() < warm_end):
            start = time.perf_counter()
            codes.extend(cli.main(argv) for _ in range(calls))
            warm.append((time.perf_counter() - start) / calls)
        with open(job["report"], "rb") as handle:
            result["warm_report_identical"] = handle.read() == cold_report
        result.update(codes=codes, wall=wall, warm=warm)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
