"""Short CLI reports pinned byte for byte.

Each case runs reinhardt.cli.main in-process on fresh memos and compares
its stdout with tests/golden/<name> and its exit code with the table.  A
change that claims to keep every report identical is held to these files.
To rewrite them after an intended change of output, run

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from reinhardt import moments
from reinhardt.cli import main

GOLDEN = Path(__file__).with_name("golden")
P1 = "profile:inv_one_minus_pow:p=1"

# file name: (argv, exit code)
CASES = {
    "certify-p1-alpha11-n40.json": (["certify", "--domain", P1, "--alpha", "1,1", "--n-max", "40"], 0),
    "certify-neglog-alpha10-n40.csv": (
        ["certify", "--domain", "profile:neg_log_one_minus_r2", "--alpha", "1,0", "--n-max", "40",
         "--format", "csv"], 0),
    "salpha-p1-alpha11-n40.csv": (["salpha", "--domain", P1, "--alpha", "1,1", "--n-max", "40"], 0),
    "salpha-polydisc-alpha10-n2.csv": (
        ["salpha", "--domain", "polydisc", "--alpha", "1,0", "--n-max", "2"], 0),
    "dbar-polydisc2-n40.json": (["dbar", "--domain", "polydisc:2", "--n-max", "40"], 0),
    "dbar-ball-n16.json": (["dbar", "--domain", "ball", "--n-max", "16"], 0),
    "moments-ball-n10.csv": (["moments", "--domain", "ball", "--n-max", "10"], 0),
    "moments-omega0-n6.csv": (["moments", "--domain", "omega0", "--n-max", "6"], 0),
    "moments-p1e300-n10.csv": (
        ["moments", "--domain", "profile:inv_one_minus_pow:p=1e300", "--n-max", "10"], 0),
    "wiegerinck-n100.json": (["wiegerinck", "--n-max", "100"], 0),
    "wiegerinck-k2.json": (["wiegerinck", "--k", "2"], 0),
    "salpha-omegak3-alpha11-n16.csv": (
        ["salpha", "--domain", "omega_k:3", "--alpha", "1,1", "--n-max", "16"], 0),
    "moments-omegak3-n8.csv": (["moments", "--domain", "omega_k:3", "--n-max", "8"], 0),
    "dbar-omega0-n32.json": (["dbar", "--domain", "omega0", "--n-max", "32"], 0),
}


def _report(argv) -> tuple:
    """(stdout bytes, exit code) of one in-process run on fresh memos."""
    moments.clear_moment_caches()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return out.getvalue().encode("utf-8"), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_its_golden_file(name):
    argv, code = CASES[name]
    assert _report(argv) == ((GOLDEN / name).read_bytes(), code)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, code) in CASES.items():
        text, got = _report(argv)
        if got != code:
            sys.exit(f"{name}: exit code {got}, expected {code}")
        (GOLDEN / name).write_bytes(text)
