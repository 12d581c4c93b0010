"""Output checks for the benchmark workloads, against oracles that do not
use the library's quadrature or series code.

Each check takes the CLI argv of a workload and the text of the report it
wrote, and returns a list of problems (empty when the report is correct).

* ball moments: c_gamma^2 = pi^2 g1! g2! / (|gamma| + 2)!;
* polydisc(r2): c_gamma^2 = pi^2 r2^(2 g2 + 2) / ((g1 + 1)(g2 + 1)), so the
  partial sums telescope to one band shell:
  S_(1,0)(N) = sum_{g1=0..N} (g1 + 1)/(g1 + 2) and
  S_(0,1)(N) = r2^2 sum_{g2=0..N} (g2 + 1)/(g2 + 2);
* certify: the values recorded from the initial commit in
  expected_certify.json, plus the certificate invariants at every N.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

LOG_ATOL = 1e-8    # log c_gamma^2 against the closed form (relative 1e-8 on c^2)
VALUE_RTOL = 1e-8  # closed-form partial sums
MASS_FLOOR = 0.5 - 1e-6

_EXPECTED = json.loads((Path(__file__).parent / "expected_certify.json").read_text())


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _close(value, want, rtol):
    return abs(value - want) <= rtol * abs(want)


def check_moments_ball(argv, text):
    n_max = int(_flag(argv, "--n-max"))
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    if len(rows) != (n_max + 1) * (n_max + 2) // 2:
        problems.append(f"expected {(n_max + 1) * (n_max + 2) // 2} rows, got {len(rows)}")
    log_pi2 = 2.0 * math.log(math.pi)
    for row in rows:
        g1, g2 = int(row["g1"]), int(row["g2"])
        want = log_pi2 + math.lgamma(g1 + 1) + math.lgamma(g2 + 1) - math.lgamma(g1 + g2 + 3)
        if row["status"] != "ok" or abs(float(row["log_c_sq"]) - want) > LOG_ATOL:
            problems.append(f"ball moment ({g1},{g2}) = {row['log_c_sq']} ({row['status']}), want {want!r}")
    return problems


def check_dbar_polydisc(argv, text):
    r2 = float(_flag(argv, "--domain").split(":")[1])
    report = json.loads(text)
    problems = []
    if report["verdict"] != "not Hilbert-Schmidt":
        problems.append(f"verdict {report['verdict']!r}")
    scale = {(1, 0): 1.0, (0, 1): r2 * r2}
    seen = set()
    for coord in report["coordinates"]:
        alpha = tuple(coord["alpha"])
        seen.add(alpha)
        if coord["status"] != "ok" or coord["classification"]["kind"] != "DivergentLinear":
            problems.append(f"alpha {alpha}: {coord['status']}, {coord['classification']}")
        for point in coord["partials"]:
            n = point["N"]
            want = scale[alpha] * math.fsum((g + 1) / (g + 2) for g in range(n + 1))
            if not _close(point["S_alpha"], want, VALUE_RTOL):
                problems.append(f"S_{alpha}({n}) = {point['S_alpha']!r}, want {want!r}")
    if seen != set(scale):
        problems.append(f"coordinates {sorted(seen)}")
    return problems


def check_certify(argv, text):
    report = json.loads(text)
    expected = _EXPECTED["alphas"][_flag(argv, "--alpha")]
    rtol = _EXPECTED["value_rtol"]
    problems = []
    if report["classification"]["kind"] != "DivergentLinear":
        problems.append(f"verdict {report['verdict']!r}")
    elif not _close(report["classification"]["slope"], expected["slope"], _EXPECTED["slope_rtol"]):
        problems.append(f"slope {report['classification']['slope']!r}, want {expected['slope']!r}")
    if not _close(report["lambda"], expected["lambda"], rtol):
        problems.append(f"lambda {report['lambda']!r}, want {expected['lambda']!r}")
    for key, want in expected["window"].items():
        if not _close(report["window"][key], want, rtol):
            problems.append(f"window {key} = {report['window'][key]!r}, want {want!r}")
    if len(report["entries"]) != len(expected["entries"]):
        problems.append(f"{len(report['entries'])} ladder entries, want {len(expected['entries'])}")
    columns = _EXPECTED["columns"]
    for entry, row in zip(report["entries"], expected["entries"]):
        n = entry["N"]
        for key, want in zip(columns, row):
            if not _close(entry[key], want, 0.0 if key in ("N", "count") else rtol):
                problems.append(f"N={n}: {key} = {entry[key]!r}, want {want!r}")
        if entry["min_mass"] < MASS_FLOOR:
            problems.append(f"N={n}: min_mass {entry['min_mass']!r} < 1/2 - 1e-6")
        if entry["cert_bound"] > entry["S_alpha"]:
            problems.append(f"N={n}: cert_bound {entry['cert_bound']!r} > S_alpha {entry['S_alpha']!r}")
    return problems
