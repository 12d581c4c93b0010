"""CLI reports pinned byte for byte.

Each case runs reinhardt.cli.main in-process on fresh memos and compares
its stdout with tests/golden/<name> and its exit code with the table; a
case that exits nonzero also compares its stderr with tests/golden/<name>.err,
and every file there belongs to a case.
A change that claims to keep every report identical is held to these files.
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
P = "profile:inv_one_minus_pow:p="
P1 = P + "1"

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
    # The acceptance list: the runs whose outputs a change must reproduce.
    "certify-p1-alpha20-n200.json": (["certify", "--domain", P1, "--alpha", "2,0", "--n-max", "200"], 0),
    "certify-p1-alpha11-n200.csv": (
        ["certify", "--domain", P1, "--alpha", "1,1", "--n-max", "200", "--format", "csv"], 0),
    "certify-p1-alpha02-n200.json": (["certify", "--domain", P1, "--alpha", "0,2", "--n-max", "200"], 0),
    "certify-neglog-alpha10-n200.json": (
        ["certify", "--domain", "profile:neg_log_one_minus_r2", "--alpha", "1,0", "--n-max", "200"], 0),
    "certify-p1e9-alpha11-n200.json": (
        ["certify", "--domain", P + "1e9", "--alpha", "1,1", "--n-max", "200"], 1),
    # The certificate weight underflows to 0, which certifies nothing: certify
    # refuses it, and salpha leaves its cert_bound column empty.
    "certify-p5-alpha01-n200.json": (["certify", "--domain", P + "5", "--alpha", "0,1", "--n-max", "200"], 1),
    "certify-p10-alpha11-n200.json": (
        ["certify", "--domain", P + "10", "--alpha", "1,1", "--n-max", "200"], 1),
    "salpha-p5-alpha01-n200.csv": (["salpha", "--domain", P + "5", "--alpha", "0,1", "--n-max", "200"], 0),
    "certify-p1-alpha11-n40-tol1e-13.json": (
        ["certify", "--domain", P1, "--alpha", "1,1", "--n-max", "40", "--tol", "1e-13"], 0),
    "salpha-p1-alpha11-n200.csv": (["salpha", "--domain", P1, "--alpha", "1,1", "--n-max", "200"], 0),
    "salpha-p1e200-alpha11-n200.csv": (
        ["salpha", "--domain", P + "1e200", "--alpha", "1,1", "--n-max", "200"], 1),
    "dbar-polydisc2-n400.json": (["dbar", "--domain", "polydisc:2", "--n-max", "400"], 0),
    "dbar-polydisc0.5-n400.json": (["dbar", "--domain", "polydisc:0.5", "--n-max", "400"], 0),
    "dbar-ball-n64.json": (["dbar", "--domain", "ball", "--n-max", "64"], 0),
    "dbar-p2.5-n200.json": (["dbar", "--domain", P + "2.5", "--n-max", "200"], 0),
    "moments-ball-n100.csv": (["moments", "--domain", "ball", "--n-max", "100"], 0),
    "moments-omega0-n100.csv": (["moments", "--domain", "omega0", "--n-max", "100"], 0),
    "moments-omegak3-n100.csv": (["moments", "--domain", "omega_k:3", "--n-max", "100"], 0),
    "moments-p1-n100.csv": (["moments", "--domain", P1, "--n-max", "100"], 0),
    "moments-p1e5-n100.csv": (["moments", "--domain", P + "1e5", "--n-max", "100"], 0),
    "moments-p1e300-n100.csv": (["moments", "--domain", P + "1e300", "--n-max", "100"], 0),
    "wiegerinck-n1000.json": (["wiegerinck", "--n-max", "1000"], 0),
    "wiegerinck-k0.json": (["wiegerinck", "--k", "0"], 1),
    "moments-ball-n2-tol2e-4.csv": (["moments", "--domain", "ball", "--n-max", "2", "--tol", "2e-4"], 1),
    # Converges with 4,273 splits of one integrand, under the subdivision budget.
    "moments-p1e9-n24-tol1e-14.csv": (
        ["moments", "--domain", P + "1e9", "--n-max", "24", "--tol", "1e-14"], 0),
}


def _report(argv) -> tuple:
    """(stdout bytes, stderr bytes, exit code) of one in-process run on fresh memos."""
    moments.clear_moment_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8"), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_its_golden_file(name):
    argv, code = CASES[name]
    text, err, got = _report(argv)
    assert (text, got) == ((GOLDEN / name).read_bytes(), code)
    if code:
        assert err == (GOLDEN / f"{name}.err").read_bytes()


def test_every_golden_file_belongs_to_a_case():
    # A file no case reads pins nothing, and a failing case needs its stderr.
    wanted = {*CASES, *(f"{name}.err" for name, (_, code) in CASES.items() if code)}
    assert {path.name for path in GOLDEN.iterdir()} == wanted


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, code) in CASES.items():
        text, err, got = _report(argv)
        if got != code:
            sys.exit(f"{name}: exit code {got}, expected {code}")
        (GOLDEN / name).write_bytes(text)
        if code:
            (GOLDEN / f"{name}.err").write_bytes(err)
