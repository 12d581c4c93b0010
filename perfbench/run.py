#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the reinhardt CLI.

    python3 perfbench/run.py --workload certify_quad --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ./src.
Every CLI call runs in a fresh child process (perfbench/child.py), so the
memo caches start cold, and children run one at a time with one BLAS/OpenMP
thread.  The workload is a closed loop with one client: the next child
starts when the previous one has ended.

--trace 0 measures the end-to-end metrics of BENCHMARK.json for about
--seconds seconds: the median over the run's children of set-up time,
cold wall time at the speed probe's reference speed (probe.py) and peak
RSS.  It also prints the cold wall time as measured and the warm wall time,
which are too noisy for a bound; the traced run reports the warm one.
--trace 1 runs one untraced child and two traced ones (perfbench/tracer.py)
and reports the per-layer metrics, after checking that the deterministic
counts of the two traced runs agree exactly and that each layer a workload
bypasses reads zero.  --workload all runs every workload in turn.

Every report a child writes is checked against an oracle (perfbench/checks.py);
a non-zero exit, an exception or a failed check counts as a failed operation.
The last line printed is one JSON object with the keys correct, attempted,
failed and metrics.  Full results, with the Python, numpy and BLAS
versions, nproc and the source revision, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402

# The seed picks only these inputs; the other flags are fixed, so every seed
# gives the same amount of work.
CERTIFY_ALPHAS = ("2,0", "1,1", "0,2")
POLYDISC_RADII = ("0.5", "0.75", "1.25", "1.5", "2", "2.5", "3")

WORKLOADS = {
    # Headline user run: every layer works; quadrature dominates.
    "certify_quad": (
        lambda rng: ["certify", "--domain", "profile:inv_one_minus_pow:p=1",
                     "--alpha", rng.choice(CERTIFY_ALPHAS), "--n-max", "200",
                     "--format", "json"],
        checks.check_certify,
    ),
    # Closed-form moments: quadrature never runs; series summation and
    # memo hits dominate.
    "dbar_closed": (
        lambda rng: ["dbar", "--domain", f"polydisc:{rng.choice(POLYDISC_RADII)}",
                     "--n-max", "400", "--format", "json"],
        checks.check_dbar_polydisc,
    ),
    # Shadow-path quadrature with no pre-split: no series work, no memo reuse.
    "moments_shadow": (
        lambda rng: ["moments", "--domain", "ball", "--n-max", "100", "--format", "csv"],
        checks.check_moments_ball,
    ),
}

# What a traced run must read on each workload: the layers it bypasses are 0.
TRACE_EXPECT = {
    "certify_quad": {
        "quadrature.log_integrate.calls": "positive",
        "profiles.phi.points": "positive",
        "hankel.moment_lookups": "positive",
        "certificate.density_mass.calls": "positive",
        "certificate.check_subharmonic.calls": "positive",
    },
    "dbar_closed": {
        "quadrature.log_integrate.calls": 0,
        "profiles.phi.points": 0,
        "certificate.density_mass.calls": 0,
        "hankel.s_alpha_partials.calls": 2,
    },
    "moments_shadow": {
        "profiles.phi.points": 0,
        "hankel.moment_lookups": 0,
        "hankel.s_alpha_partials.calls": 0,
        "certificate.density_mass.calls": 0,
        "moments.distinct_ratio": 1.0,
        "quadrature.log_integrate.calls": "positive",
    },
}

MIN_CHILDREN = 3       # timed children per run, whatever --seconds says
SETUP_PROBES = 12      # extra import-only children per run, for setup_s
WARM = (1.0, 5)        # per timed child: seconds of warm calls, calls per sample
RUN_LIMIT_S = 170.0    # a run never starts a child it cannot finish by then

CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": str(ROOT / "src"),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class SetupError(Exception):
    """The program cannot be run at all: no result is printed."""


def run_child(job: dict, deadline: float) -> dict:
    """Run one child to completion; raises RuntimeError on any failure."""
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError("child timed out") from None
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"child exited with code {proc.returncode}: {tail}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("child printed no result")
    result = json.loads(lines[-1])
    if not Path(result["module"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"reinhardt imported from {result['module']}, not from ./src")
    result["setup_s"] = result["ready"] - spawned
    return result


def report_problems(name: str, argv: list, result: dict, report: Path) -> list:
    problems = [f"exit code {c}" for c in result["codes"] if c != 0]
    if not result.get("warm_report_identical", True):
        problems.append("warm report differs from the cold one")
    if not problems:
        problems = WORKLOADS[name][1](argv, report.read_text())
    return problems


def environment(env_probe: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": env_probe["python"],
        "numpy": env_probe["numpy"],
        "blas": env_probe["blas"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def attempt(name: str, argv: list, job: dict, deadline: float, log: dict):
    """Run one child on the workload and check its report.

    Returns the child's measurements, also when its report fails the
    check (counted in log), or None when the child did not run to the end.
    """
    log["attempted"] += 1
    result = None
    try:
        result = run_child(job, deadline)
        problems = report_problems(name, argv, result, Path(job["report"]))
    except RuntimeError as exc:
        problems = [str(exc)]
    except (KeyError, TypeError, ValueError) as exc:
        problems = [f"malformed report: {exc!r}"]
    if problems:
        log["failed"] += 1
        log["problems"].extend(problems[:5])
    return result


def measure(name: str, argv: list, seconds: float, start: float, deadline: float, log: dict):
    """Timed children until about `seconds` have passed; end-to-end values."""
    job = {"mode": "time", "argv": argv, "report": str(OUT / f"report-{name}"),
           "warm": WARM}
    setups, walls, norms, warms, rss, durations = [], [], [], [], [], []
    while True:
        began = time.perf_counter()
        result = attempt(name, argv, job, deadline, log)
        now = time.perf_counter()
        durations.append(now - began)
        if result is not None:
            setups.append(result["setup_s"])
            walls.append(result["wall"])
            norms.append(result["wall_norm"])
            warms.extend(result["warm"])
            rss.append(result["peak_rss_mb"])
        typical = statistics.median(durations)
        if log["attempted"] >= MIN_CHILDREN and now - start + typical > seconds:
            break
        if now + max(durations) > deadline:
            break
    if not walls:
        raise SetupError(f"no child of {name} ran to the end: {log['problems'][:3]}")
    log["samples"] = {"wall_norm_s": norms, "wall_s": walls, "warm_wall_s": warms,
                      "peak_rss_mb": rss}
    return {
        "wall_norm_s": statistics.median(norms),
        "wall_s": statistics.median(walls),
        "warm_wall_s": statistics.median(warms),
        "peak_rss_mb": statistics.median(rss),
    }, setups


def trace(name: str, argv: list, deadline: float, log: dict) -> dict:
    """One untraced and two traced children; per-layer values."""
    report = str(OUT / f"report-{name}")
    untraced = attempt(name, argv, {"mode": "time", "argv": argv, "report": report,
                                    "warm": WARM}, deadline, log)
    traced = [
        attempt(name, argv, {"mode": "trace", "argv": argv, "report": report, "run_id": i,
                             "spans": str(OUT / f"spans-{name}-{i}.npz")}, deadline, log)
        for i in range(2)
    ]
    if untraced is None or None in traced:
        raise SetupError(f"a child of the traced run of {name} did not run to the end: "
                         f"{log['problems'][:3]}")
    first, second = traced[0]["counts"], traced[1]["counts"]
    if first != second:
        diff = {k: (first.get(k), second.get(k)) for k in first.keys() | second.keys()
                if first.get(k) != second.get(k)}
        log["problems"].append(f"deterministic counts differ between traced runs: {diff}")
    values = {  # times: median of the two traced children; counts: equal in both
        key: statistics.median(t["metrics"][key] for t in traced) if isinstance(value, float)
        else value
        for key, value in traced[0]["metrics"].items()
    }
    for key, want in TRACE_EXPECT[name].items():
        ok = values[key] > 0 if want == "positive" else values[key] == want
        if not ok:
            log["problems"].append(f"{key} = {values[key]}, expected {want}")
    values["trace_overhead"] = statistics.median(t["wall"] for t in traced) / untraced["wall"] - 1.0
    values["warm_wall_s"] = statistics.median(untraced["warm"])
    log["samples"] = {"untraced_wall_s": [untraced["wall"]], "warm_wall_s": untraced["warm"],
                      "traced": traced}
    return values


def run_workload(name: str, seed: int, seconds: float, traced: bool, bench: dict) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    try:
        env_probe = run_child({"mode": "env"}, deadline)  # also warms the file cache
        setups = [run_child({"mode": "setup"}, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    except (RuntimeError, ValueError) as exc:
        raise SetupError(f"cannot run reinhardt from {ROOT / 'src'}: {exc}") from None
    argv = WORKLOADS[name][0](random.Random(seed))
    log = {"attempted": 0, "failed": 0, "problems": []}
    if traced:
        values = trace(name, argv, deadline, log)
        wanted = bench["per_layer"]
    else:
        values, child_setups = measure(name, argv, seconds, start, deadline, log)
        setups += child_setups
        values["setup_s"] = statistics.median(setups)
        log["samples"]["setup_s"] = setups
        wanted = bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units["wall_s"] = "s"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "argv": argv, "environment": environment(env_probe),
        "ungated": {k: {"value": v, "unit": units[k]} for k, v in values.items()
                    if k not in metrics},
        "correct": log["failed"] == 0 and not log["problems"],
        "attempted": log["attempted"], "failed": log["failed"],
        "problems": log["problems"], "metrics": metrics, "samples": log["samples"],
    }
    (OUT / f"result-{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def print_result(result: dict):
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"argv: reinhardt {' '.join(result['argv'])}")
    print("environment " + json.dumps(result["environment"]))
    samples = result["samples"]
    for name, metric in [*result["metrics"].items(), *result["ungated"].items()]:
        n = len(samples.get(name, ()))
        note = f"  (median of {n})" if n else ""
        if name in result["ungated"]:
            note += "  (no bound here)"
        value = metric["value"]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:40s} {shown} {metric['unit']}{note}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':40s} {rate:.6g} ({result['failed']}/{result['attempted']} failed)")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "reinhardt" / "cli.py").is_file():
            raise SetupError(f"no reinhardt sources under {ROOT / 'src'}")
        seconds = args.seconds or bench["run_seconds"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(n, args.seed, seconds, bool(args.trace), bench) for n in names]
    except (SetupError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_result(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
