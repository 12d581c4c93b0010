import contextlib
import csv
import dataclasses
import importlib
import importlib.util
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import hypothesis
from hypothesis import strategies as st

from reinhardt import domains, quadrature
from reinhardt.cli import TASKS, main, parse_alpha, parse_domain, run
from reinhardt.domains import MultiIndex
from reinhardt.errors import InvalidInputError, NumericalFailureError
from reinhardt.hankel import sample_ladder
from reinhardt.profiles import RadialProfile, profile_family

from oracles import moment_one


def test_parse_domain_variants():
    assert parse_domain("polydisc").describe() == "polydisc(radius2=1)"
    assert parse_domain("polydisc:2").describe() == "polydisc(radius2=2)"
    assert parse_domain("polydisc:radius=0.5").radius2 == 0.5
    assert parse_domain("ball").kind == "ball"
    assert parse_domain("omega0").kind == "omega0"
    assert parse_domain("omega_k:3").k == 3
    assert parse_domain("profile:zero").profile.name == "zero"
    spec = parse_domain("profile:inv_one_minus_pow:p=1")
    assert spec.profile.params == (("p", 1.0),)
    # The object form and the string form are one grammar.
    assert parse_domain({"kind": "polydisc", "radius": 2}) == parse_domain("polydisc:radius2=2")
    assert parse_domain({"kind": "omega_k", "k": 3}) == parse_domain("omega_k:k=3")
    for form in ({"params": {"p": 1}}, {"p": 1}, {"params": {"p": 1.0}}):
        assert parse_domain({"kind": "profile", "family": "inv_one_minus_pow", **form}) == spec


def test_parse_domain_errors():
    for bad in ("torus", "profile", "profile:bogus", "polydisc:radius=-1", "omega_k"):
        with pytest.raises(InvalidInputError):
            parse_domain(bad)


def test_parse_alpha():
    assert parse_alpha("1,0") == MultiIndex(1, 0)
    with pytest.raises(InvalidInputError):
        parse_alpha("1")
    with pytest.raises(InvalidInputError):
        parse_alpha("1,-2")


def test_main_exit_codes(tmp_path, capsys):
    assert main(["salpha", "--domain", "polydisc", "--alpha", "1,0", "--n-max", "2",
                 "--out", str(tmp_path / "out.csv")]) == 0
    assert main(["salpha", "--domain", "torus", "--alpha", "1,0", "--n-max", "2"]) == 1
    assert main(["salpha", "--domain", "polydisc", "--alpha", "0,0", "--n-max", "2"]) == 1
    assert main(["wiegerinck"]) == 1
    assert main(["nonsense"]) == 1
    capsys.readouterr()


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # With rel_tol 1e-12, a budget of one subdivision fails on shell 0, whose
    # lone moment gamma = (0, 0) is the radial integral M(1, 2); a budget of
    # two gets through shells 0..4 and fails on shell 5 at gamma = (5, 0):
    # M(11, 2), whose next round would take it past two splits.  The
    # message names the failing moment, not its row in a quadrature batch.
    profile = profile_family("inv_one_minus_pow", {"p": 1})
    for budget, (x, y) in ((1, (1.0, 2.0)), (2, (11.0, 2.0))):
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", budget)
        config = {
            "task": "moments",
            "domain": "profile:inv_one_minus_pow:p=1",
            "n_max": 6,
            "tol": 1e-12,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["report", "--config", str(path)]) == 2
        message = capsys.readouterr().err
        assert message.startswith(
            f"numerical failure: integral of r^{x:g} exp(-{y:g} phi(r)) over [0, 1]: "
            f"quadrature needed more than {budget} subdivisions ("
        )
        with pytest.raises(NumericalFailureError) as failure:
            moment_one(profile, x, y, rel_tol=config["tol"])
        assert f"best_estimate={failure.value.best_estimate:.12g}" in message
        assert f"achieved_error={failure.value.achieved_error:.12g}" in message


_P1 = {"kind": "profile", "family": "inv_one_minus_pow"}
_MOMENTS = {"task": "moments", "domain": "ball", "n_max": 2}

# An argv, or a config dict run through report --config.  "{tmp}" is a
# temporary directory.
_BAD_INPUTS = {
    "alpha-letters": ["salpha", "--domain", "polydisc", "--alpha", "a,b", "--n-max", "2"],
    "alpha-fraction": ["salpha", "--domain", "polydisc", "--alpha", "1.5,0", "--n-max", "2"],
    "domain-nan": ["salpha", "--domain", "polydisc:nan", "--alpha", "1,0", "--n-max", "2"],
    "ratio-overflow": ["salpha", "--domain", "polydisc:1e200", "--alpha", "0,1", "--n-max", "2"],
    "salpha-sum-overflow": ["salpha", "--domain", "polydisc:1e154", "--alpha", "0,1", "--n-max", "16"],
    "dbar-sum-overflow": ["dbar", "--domain", "polydisc:1e154", "--n-max", "16"],
    "ratio-underflow": ["salpha", "--domain", "polydisc:1e-300", "--alpha", "0,1", "--n-max", "16"],
    "ratio-subnormal": ["salpha", "--domain", "polydisc:1e-160", "--alpha", "0,1", "--n-max", "16"],
    # An n_step past n_max left the ladder empty, and the summary raised an
    # IndexError.
    "n-step-past-n-max": ["salpha", "--domain", "ball", "--alpha", "1,0", "--n-max", "2", "--n-step", "3"],
    "wiegerinck-n-step-past-n-max": {"task": "wiegerinck", "n_max": 1, "n_step": 2},
    # tol is a number or the text of --tol.  Its object form, with rel_tol and
    # a subdivision budget, is gone; text in it once raised a TypeError, and a
    # fractional or boolean budget was accepted.
    "tol-rel-tol-text": {**_MOMENTS, "tol": {"rel_tol": "abc"}},
    "tol-budget-text": {**_MOMENTS, "tol": {"max_subdivisions": "x"}},
    "tol-budget-fraction": {**_MOMENTS, "tol": {"max_subdivisions": 1.5}},
    "tol-budget-bool": {**_MOMENTS, "tol": {"max_subdivisions": True}},
    "tol-object": {**_MOMENTS, "tol": {"rel_tol": 1e-10}},
    # Domain objects: wrong types raised TypeErrors; true read as p = 1; a
    # flat p beside "params" and an unknown parameter were ignored.
    "polydisc-radius-text": {**_MOMENTS, "domain": {"kind": "polydisc", "radius": "2"}},
    "polydisc-radius-list": {**_MOMENTS, "domain": {"kind": "polydisc", "radius": [1]}},
    "profile-p-text": {**_MOMENTS, "domain": {**_P1, "params": {"p": "x"}}},
    "profile-params-list": {**_MOMENTS, "domain": {**_P1, "params": [1]}},
    "profile-p-bool": {**_MOMENTS, "domain": {**_P1, "p": True}},
    "profile-p-nested-and-flat": {**_MOMENTS, "domain": {**_P1, "params": {"p": 1}, "p": 2}},
    "ball-unknown-parameter": {**_MOMENTS, "domain": {"kind": "ball", "foo": 1}},
    # Domain strings: an unknown parameter was ignored, a repeated one kept
    # its last value.
    "ball-string-parameter": ["moments", "--domain", "ball:r=2", "--n-max", "2"],
    "polydisc-two-radii": ["moments", "--domain", "polydisc:2:3", "--n-max", "2"],
    "polydisc-radius-twice": ["moments", "--domain", "polydisc:radius=2:3", "--n-max", "2"],
    "polydisc-radius-and-radius2": ["moments", "--domain", "polydisc:radius=2:radius2=3", "--n-max", "2"],
    "omega-k-twice": ["moments", "--domain", "omega_k:2:k=3", "--n-max", "2"],
    "profile-p-twice": ["moments", "--domain", "profile:inv_one_minus_pow:p=1:p=2", "--n-max", "2"],
    # Keys no task reads, or this task does not read, were ignored.
    "unknown-key": {**_MOMENTS, "nmax": 5},
    "unread-key": {**_MOMENTS, "alpha": "1,0"},
    "moments-alpha-flag": ["moments", "--domain", "ball", "--n-max", "2", "--alpha", "1,0"],
    "dbar-n-step-flag": ["dbar", "--domain", "ball", "--n-max", "16", "--n-step", "5"],
    "certify-k-flag": ["certify", "--domain", "profile:neg_log_one_minus_r2", "--alpha", "1,0",
                       "--n-max", "16", "--k", "3"],
    "wiegerinck-domain-flag": ["wiegerinck", "--domain", "ball", "--n-max", "64"],
    "wiegerinck-k-and-n-max": ["wiegerinck", "--k", "2", "--n-max", "64"],
    # A negative order gave a header-only table and exit 0.
    "moments-negative-n-max": ["moments", "--domain", "ball", "--n-max", "-1"],
    "moments-negative-n-max-config": {**_MOMENTS, "n_max": -1},
    # Output: unwritable paths raised tracebacks, and a number was taken as a
    # file descriptor.
    "out-missing-directory": ["moments", "--domain", "ball", "--n-max", "2",
                              "--out", "{tmp}/missing/x.csv"],
    "out-directory": ["moments", "--domain", "ball", "--n-max", "2", "--out", "{tmp}"],
    "output-path-number": {**_MOMENTS, "output": {"path": 5}},
}


@pytest.mark.parametrize("case", _BAD_INPUTS.values(), ids=list(_BAD_INPUTS))
def test_bad_input_is_a_one_line_error(case, tmp_path, capsys):
    if isinstance(case, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(case))
        argv = ["report", "--config", str(config)]
    else:
        argv = [arg.format(tmp=tmp_path) for arg in case]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("text", [
    '{"task": "moments", "domain": "ball", "n_max": 2, "n_max": 3}',
    '{"task": "moments", "domain": {"kind": "polydisc", "radius": 1, "radius": 2}, "n_max": 2}',
    '{"task": "moments", "domain": "ball", "n_max": 2, "output": {"format": "csv", "format": "json"}}',
], ids=["top-level", "domain-object", "output-object"])
def test_config_with_a_repeated_key_is_a_one_line_error(text, tmp_path, capsys):
    # json.load keeps the last of repeated members; a config must not.
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["report", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config repeats the key ")
    assert captured.err.count("\n") == 1


def test_moments_reads_order_zero(capsys):
    assert main(["moments", "--domain", "ball", "--n-max", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["0,0,ok,1.59631259114"]


def _overflowing_profile(family, params):
    # phi(r) = c / (1 - r) with c = 1e310: phi overflows double at every r,
    # and log M(x, y) < -y c lies below -DBL_MAX, so the moments underflow
    # even in log form.
    def phi(r):
        return 1e300 * (1e10 / (1.0 - np.asarray(r, dtype=float)))

    return RadialProfile(
        name="c_over_one_minus_r", phi=phi,
        dphi=lambda r: phi(r) / (1.0 - np.asarray(r, dtype=float)),
        d2phi=lambda r: 2.0 * phi(r) / np.square(1.0 - np.asarray(r, dtype=float)),
        params=(("c", 1e310),),
    )


@pytest.mark.parametrize("argv", [
    ["moments", "--domain", "profile:inv_one_minus_pow:p=1", "--n-max", "1"],
    ["salpha", "--domain", "profile:inv_one_minus_pow:p=1", "--alpha", "1,0", "--n-max", "8"],
], ids=["moments-underflow", "salpha-underflow"])
def test_numerical_failure_is_a_one_line_error(argv, monkeypatch, capsys):
    # Every quadrature node lands where phi overflows, so the positive
    # moments would read as log 0.
    monkeypatch.setattr(domains, "profile_family", _overflowing_profile)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ")
    assert captured.err.endswith(" underflows to 0 at every quadrature node\n")
    assert captured.err.count("\n") == 1


def _mp_steep_log_moment(p, x, y):
    """log M(x, y) of inv_one_minus_pow at large p, in mpmath, with r = u/p:
    past u = 8 the integrand is below e^-5000.  Pieces graded from 1e-6
    resolve the peak near u = x/y when y is large."""
    mpmath = pytest.importorskip("mpmath")
    p = mpmath.mpf(p)

    def f(u):
        return mpmath.exp(x * mpmath.log(u / p) - y * mpmath.exp(-p * mpmath.log1p(-u / p)))

    with mpmath.workdps(30):
        pieces = [0] + [mpmath.mpf(10) ** (k / 8) for k in range(-48, -8)] \
            + mpmath.linspace(0.1, 8, 159) + [60]
        return float(mpmath.log(mpmath.quad(f, pieces, method="gauss-legendre")) - mpmath.log(p))


@pytest.mark.parametrize("p", ["5e152", "1e200", "1.7e308"])
def test_steep_profile_past_the_curvature_overflow_matches_mpmath(p, capsys):
    # From p = 5e152 on, y phi''(r*) overflows at the peak r* near 1/p for
    # some y up to 202, and above p = 1.3e154 phi''(r*) itself does; the
    # Laplace scale is then taken in log space.  moments runs to order 100
    # with exit 0, and rows at both ends of the shells match mpmath.
    argv = ["moments", "--domain", f"profile:inv_one_minus_pow:p={p}", "--n-max", "100"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    rows = {(int(row["g1"]), int(row["g2"])): float(row["log_c_sq"])
            for row in csv.DictReader(io.StringIO(captured.out))}
    assert len(rows) == 5151
    for g1, g2 in [(0, 0), (1, 0), (0, 100), (100, 0), (20, 80)]:
        want = math.log(2 * math.pi**2 / (g2 + 1)) + _mp_steep_log_moment(p, 2 * g1 + 1, 2 * g2 + 2)
        assert rows[g1, g2] == pytest.approx(want, rel=1e-11, abs=1e-9), (g1, g2)


@pytest.mark.parametrize("p", ["1e6", "1e50"])
def test_steep_profile_moments_match_mpmath(p, capsys):
    # The peak of r^x exp(-y (1-r)^-p) sits near r = 1/p, which a 256-point
    # grid scan misses at p = 1e6: the moments then read as underflowing to
    # 0 at every quadrature node (exit 2).  At p = 1e50, (1-r)^-p computed
    # from a rounded 1 - r reads phi = 1 for r < 1.1e-16, which gives the
    # same wrong moments for every p above about 1e16.  With the analytic
    # peak and phi = exp(-p log1p(-r)) both runs exit 0 with one summary
    # line, and the moments match mpmath.
    domain = f"profile:inv_one_minus_pow:p={p}"
    steep = profile_family("inv_one_minus_pow", {"p": float(p)})
    assert main(["salpha", "--domain", domain, "--alpha", "1,0", "--n-max", "8"]) == 0
    assert capsys.readouterr().err.count("\n") == 1
    assert main(["moments", "--domain", domain, "--n-max", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert [(row["g1"], row["g2"]) for row in rows] == [("0", "0"), ("0", "1"), ("1", "0")]
    for row in rows:
        g1, g2 = int(row["g1"]), int(row["g2"])
        x, y = 2 * g1 + 1, 2 * g2 + 2
        log_m = moment_one(steep, float(x), float(y))
        assert abs(log_m - _mp_steep_log_moment(p, x, y)) <= 1e-10
        assert float(row["log_c_sq"]) == pytest.approx(
            math.log(2 * math.pi**2 / (g2 + 1)) + log_m, rel=1e-11)


def test_only_salpha_computes_shell_bounds(monkeypatch, capsys):
    # certify never prints shell bounds, so it must not compute them.
    import reinhardt.cli as cli

    shells = []
    real = cli.shell_bound
    monkeypatch.setattr(cli, "shell_bound", lambda *args: shells.append(args[2]) or real(*args))
    argv = ["--domain", "profile:neg_log_one_minus_r2", "--alpha", "1,1", "--n-max", "40"]
    assert main(["certify", *argv]) == 0
    assert shells == []
    assert main(["salpha", *argv]) == 0
    assert shells == list(sample_ladder(40))
    capsys.readouterr()


@pytest.mark.parametrize("task, code", [("certify", 1), ("salpha", 0)])
def test_steep_profile_prints_no_runtime_warning(task, code, capsys):
    # phi and phi' overflow near r = 1 at p = 1e5; the window search must not
    # print numpy's overflow warnings ahead of the report or the error line.
    argv = [task, "--domain", "profile:inv_one_minus_pow:p=1e5", "--alpha", "1,0", "--n-max", "8"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == code
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_on_stdout_parses(fmt, capsys):
    assert main(["salpha", "--domain", "polydisc", "--alpha", "1,0", "--n-max", "2",
                 "--format", fmt]) == 0
    captured = capsys.readouterr()
    if fmt == "json":
        assert json.loads(captured.out)["rows"][-1]["N"] == 2
    else:
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [row["N"] for row in rows] == ["1", "2"]
    assert captured.err.startswith("salpha polydisc")


def test_salpha_csv_contents(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["salpha", "--domain", "polydisc", "--alpha", "1,0", "--n-max", "2",
                 "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,S_alpha,shell_bound,cert_bound"
    last = lines[-1].split(",")
    assert last[0] == "2"
    assert float(last[1]) == pytest.approx(23.0 / 12.0, abs=1e-9)
    assert out.read_text().endswith("\n")
    capsys.readouterr()


def test_moments_csv_marks_divergent_rows(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["moments", "--domain", "omega0", "--n-max", "1",
                 "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "g1,g2,status,log_c_sq"
    rows = {tuple(line.split(",")[:2]): line.split(",")[2] for line in lines[1:]}
    assert rows[("0", "0")] == "ok"
    assert rows[("1", "0")] == "divergent"
    capsys.readouterr()


def test_wiegerinck_json_report(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert main(["wiegerinck", "--n-max", "1000", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["classification"]["kind"] == "Convergent"
    assert data["limit_estimate"] == pytest.approx(math.exp(4.0), abs=1e-3)
    assert data["partials"][-1]["M"] == 1000
    capsys.readouterr()


def test_wiegerinck_k_report(tmp_path, capsys):
    out = tmp_path / "wk.json"
    assert main(["wiegerinck", "--k", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["dimension"] == 3
    assert data["basis_indices"] == [0, 1, 2]
    capsys.readouterr()


def test_certify_json_report(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = main(["certify", "--domain", "profile:neg_log_one_minus_r2", "--alpha", "1,1",
                 "--n-max", "100", "--n-step", "25", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert set(data["window"]) == {"a", "b", "A", "B"}
    assert data["lambda"] > 0
    for entry in data["entries"]:
        assert entry["cert_bound"] <= entry["S_alpha"] + 1e-9
        assert entry["min_mass"] >= 0.5 - 1e-6
    capsys.readouterr()


def test_certify_rejects_non_profile_domains(capsys):
    assert main(["certify", "--domain", "ball", "--alpha", "1,0", "--n-max", "50"]) == 1
    capsys.readouterr()


def test_certify_reports_why_no_certificate_exists(capsys):
    # The ladder's own reason, not a generic "no certificate window".
    assert main(["certify", "--domain", "profile:zero", "--alpha", "1,0", "--n-max", "16"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "does not grow to infinity" in err


@pytest.mark.parametrize("task, flags", [
    ("moments", {"--domain", "--n-max", "--tol"}),
    ("salpha", {"--domain", "--alpha", "--n-max", "--n-step", "--tol"}),
    ("certify", {"--domain", "--alpha", "--n-max", "--n-step", "--tol"}),
    ("wiegerinck", {"--n-max", "--n-step", "--k"}),
    ("dbar", {"--domain", "--n-max", "--tol"}),
    ("report", {"--config", "--domain", "--alpha", "--n-max", "--n-step", "--k", "--tol"}),
])
def test_task_help_lists_only_the_flags_it_reads(task, flags, capsys):
    with pytest.raises(SystemExit) as done:
        main([task, "--help"])
    assert done.value.code == 0
    listed = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, flags=re.MULTILINE))
    assert listed == flags | {"--out", "--format"}


def test_json_report_refuses_non_finite_numbers(monkeypatch, capsys):
    # JSON has no Infinity; a payload that holds one fails the run instead.
    import reinhardt.cli as cli

    required, optional, fmt, build = cli.TASKS["moments"]

    def infinite(**values):
        summary, header, rows, payload = build(**values)
        return summary, header, rows, lambda: {**payload(), "log_c_sq": math.inf}

    monkeypatch.setitem(cli.TASKS, "moments", (required, optional, fmt, infinite))
    argv = ["moments", "--domain", "ball", "--n-max", "2"]
    assert main([*argv, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1
    assert main([*argv, "--format", "csv"]) == 0
    capsys.readouterr()


def test_dbar_json_report(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert main(["dbar", "--domain", "omega0", "--n-max", "32", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "symbols not in Bergman space"
    statuses = [c["status"] for c in data["coordinates"]]
    assert statuses == ["symbol-not-in-space", "symbol-not-in-space"]
    capsys.readouterr()


def test_report_config_with_flag_overrides(tmp_path, capsys):
    config = {
        "task": "salpha",
        "domain": {"kind": "polydisc", "radius": 1},
        "alpha": [1, 0],
        "n_max": 2,
        "output": {"path": str(tmp_path / "ignored.csv"), "format": "csv"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "actual.json"
    assert main(["report", "--config", str(path), "--format", "json",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["task"] == "salpha"
    assert data["rows"][-1]["S_alpha"] == pytest.approx(23.0 / 12.0, abs=1e-9)
    assert not (tmp_path / "ignored.csv").exists()
    capsys.readouterr()


def test_config_task_must_be_concrete():
    with pytest.raises(InvalidInputError):
        run({"task": "report", "output": {}})
    with pytest.raises(InvalidInputError):
        run({"task": "salpha", "domain": "polydisc", "output": {"format": "yaml"}})
    for alpha in ([1.5, 0], ["a", 0], [True, 0]):
        with pytest.raises(InvalidInputError):
            run({"task": "salpha", "domain": "polydisc", "alpha": alpha, "n_max": 2, "output": {}})
    # Integer keys are checked, not truncated: moments used to run n_max 2.5
    # as 2, and "abc" ended in a ValueError traceback.
    for n_max in ("abc", 2.5):
        with pytest.raises(InvalidInputError, match="n_max must be an integer"):
            run({"task": "moments", "domain": "ball", "n_max": n_max, "output": {}})
        with pytest.raises(InvalidInputError, match="n_max must be an integer"):
            run({"task": "wiegerinck", "n_max": n_max, "output": {}})


def test_json_round_trip_under_schema(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["salpha", "--domain", "ball", "--alpha", "1,1", "--n-max", "12",
                 "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["alpha"] == [1, 1]
    assert all(set(row) == {"N", "S_alpha", "shell_bound", "cert_bound"} for row in data["rows"])
    capsys.readouterr()


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, which JSON does not allow."""
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in a JSON report")

    return json.loads(text, parse_constant=reject)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    task=st.sampled_from(["salpha", "dbar", "moments"]),
    radius=st.one_of(
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False),
        st.sampled_from([1e-300, 1e-150, 1.0, 1e150, 1e153, 1e154, 1e300]),
    ),
    alpha=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    n_max=st.integers(1, 16),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_polydisc_cli_boundary_property(task, radius, alpha, n_max, fmt):
    argv = [task, "--domain", f"polydisc:{radius!r}", "--n-max", str(n_max), "--format", fmt]
    if task == "salpha":
        argv += ["--alpha", f"{alpha[0]},{alpha[1]}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 0 and fmt == "json":
        _strict_json(out.getvalue())
    if code != 0:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    task=st.sampled_from(["salpha", "dbar", "moments", "wiegerinck"]),
    domain=st.one_of(
        st.sampled_from(["omega0", "ball", "profile:zero", "profile:neg_log_one_minus_r2"]),
        st.integers(1, 5).map(lambda k: f"omega_k:{k}"),
        st.sampled_from([0.5, 1, 2.5, 3e5, 1e6]).map(lambda p: f"profile:inv_one_minus_pow:p={p}"),
    ),
    alpha=st.one_of(
        st.integers(0, 3).map(lambda a: f"{a},{a}"),
        st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda a: f"{a[0]},{a[1]}"),
        st.text(alphabet="0123,-. a", max_size=5),
    ),
    n_max=st.integers(-1, 8),
    m_max=st.integers(-1, 64),
    k=st.one_of(st.none(), st.integers(0, 5)),
    fmt=st.sampled_from(["csv", "json"]),
    config=st.one_of(st.none(), st.fixed_dictionaries({
        "n_max": st.one_of(
            st.integers(-1, 8), st.floats(-2, 10), st.just(math.nan), st.booleans(), st.none(),
            st.text(alphabet="0123 .a-", max_size=3),
        ),
        "alpha": st.one_of(
            st.text(alphabet="0123,-. a", max_size=5),
            st.lists(st.one_of(st.integers(-1, 3), st.floats(-1, 3), st.booleans(),
                               st.text(alphabet="01a", max_size=2)), max_size=3),
        ),
    })),
    unread=st.one_of(st.none(), st.sampled_from(["domain", "alpha", "k", "nmax"])),
)
def test_diagonal_and_profile_cli_boundary_property(task, domain, alpha, n_max, m_max, k, fmt,
                                                    config, unread):
    # The diagonal (omega0), truncated (omega_k), closed-form and
    # quadrature-backed paths of the series evaluator, with alphas off and on
    # the lattice; p = 3e5 and 1e6 put every quadrature node where
    # (1-r)^-p overflows.  The wiegerinck task takes a cutoff M or k.  A
    # drawn config runs the same task through report --config, with junk and
    # non-integer n_max values and alpha lists, and holds only the keys the
    # task reads, unless `unread` names one it does not read.
    if task == "wiegerinck":
        argv = [task, f"--k={k}" if k is not None else f"--n-max={m_max}", "--format", fmt]
    else:
        argv = [task, "--domain", domain, f"--n-max={n_max}", "--format", fmt]
    if task == "salpha":
        argv.append(f"--alpha={alpha}")
    required, optional, _, _ = TASKS[task]
    unread = unread if unread not in (*required, *optional) else None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if config is not None:
            path = Path(stack.enter_context(tempfile.TemporaryDirectory())) / "config.json"
            drawn = {"domain": domain, **config, **({"k": k, "n_max": None} if k is not None else {})}
            config = {key: value for key, value in drawn.items() if key in (*required, *optional)}
            if unread is not None:
                config[unread] = drawn.get(unread, 1)
            path.write_text(json.dumps({"task": task, **config, "output": {"format": fmt}}))
            argv = ["report", "--config", str(path)]
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = main(argv)
    assert code in (0, 1, 2)
    if config is not None and unread is not None:
        assert code == 1
    if code == 0 and fmt == "json":
        _strict_json(out.getvalue())
    if code != 0:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1


_JUNK = st.one_of(st.text(alphabet="ab 1.", max_size=3), st.booleans(), st.none(),
                  st.lists(st.integers(0, 3), max_size=2), st.just(math.nan))
_NUMBER = st.one_of(st.one_of(st.integers(1, 3), st.floats(0.5, 3.0)), _JUNK)
_CONFIG_VALUES = {
    "domain": st.one_of(
        st.sampled_from(["ball", "polydisc:2", "omega_k:2", "profile:inv_one_minus_pow:p=1",
                         "profile:neg_log_one_minus_r2", "polydisc:2:3", "ball:r=1"]),
        st.fixed_dictionaries({"kind": st.just("polydisc")},
                              optional={"radius": _NUMBER, "radius2": _NUMBER}),
        st.fixed_dictionaries({"kind": st.just("omega_k"), "k": _NUMBER}),
        st.fixed_dictionaries(
            {"kind": st.just("profile"),
             "family": st.one_of(st.sampled_from(["zero", "inv_one_minus_pow"]), _JUNK)},
            optional={"p": _NUMBER,
                      "params": st.one_of(st.dictionaries(st.sampled_from(["p", "q"]), _NUMBER,
                                                          max_size=2), _JUNK)}),
        st.fixed_dictionaries({"kind": st.one_of(st.sampled_from(["ball", "omega0", "torus"]), _JUNK)},
                              optional={"foo": _NUMBER}),
        _JUNK),
    "alpha": st.one_of(st.sampled_from(["1,0", "1,1", [0, 1], [1, 1.0]]), _JUNK),
    "n_max": st.one_of(st.integers(1, 12), _JUNK),
    "n_step": st.one_of(st.integers(1, 4), _JUNK),
    "k": st.one_of(st.integers(1, 3), _JUNK),
    "tol": st.one_of(
        st.sampled_from([1e-8, 1e-10, "1e-9"]),
        st.dictionaries(st.sampled_from(["rel_tol", "max_subdivisions", "bogus"]),
                        st.one_of(st.sampled_from([1e-9, 1000]), _NUMBER), max_size=2),
        _JUNK),
    "nmax": st.integers(1, 5),
}
# A path is "-" or not a string, so no run writes a file.
_CONFIG_OUTPUT = st.one_of(
    st.fixed_dictionaries({}, optional={
        "path": st.one_of(st.just("-"), st.sampled_from([5, True, ["-"]])),
        "format": st.one_of(st.sampled_from(["csv", "json"]), st.sampled_from(["yaml", 1, None])),
    }),
    st.one_of(st.fixed_dictionaries({"mode": st.just("w")}), _JUNK))


@st.composite
def _configs(draw):
    """A config holding mostly the keys its task reads, now and then one more."""
    task = draw(st.sampled_from(list(TASKS)))
    required, optional, _, _ = TASKS[task]
    config = draw(st.fixed_dictionaries(
        {"task": st.just(task), **{key: _CONFIG_VALUES[key] for key in required}},
        optional={"output": _CONFIG_OUTPUT, **{key: _CONFIG_VALUES[key] for key in optional}},
    ))
    if draw(st.integers(0, 3)) == 0:
        unread = [key for key in _CONFIG_VALUES if key not in (*required, *optional)]
        key = draw(st.sampled_from(unread))
        config[key] = draw(_CONFIG_VALUES[key])
    return config


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(config=_configs())
def test_config_object_property(config):
    # Junk types, NaN, unknown and unread keys, domain parameters given in
    # both the flat and the nested form, tol objects and non-string output
    # paths: every config either runs or fails with one line.
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["report", "--config", str(path)])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == ""


def _perfbench_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_bindings_resolve():
    # The traced benchmark patches these names; a deleted one fails the run.
    tracer = _perfbench_module("tracer")
    for module_name, attr, _ in tracer.BINDINGS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
    assert dataclasses.is_dataclass(
        importlib.import_module("reinhardt.domains").profile_family("inv_one_minus_pow", {"p": 1})
    )


def _certify_p1(alpha):
    return ["certify", "--domain", "profile:inv_one_minus_pow:p=1", "--alpha", alpha,
            "--n-max", "200", "--format", "json"]


# The exact argv of the benchmark's workloads (perfbench/run.py WORKLOADS):
# every certify alpha, and both ends of the polydisc radii.
@pytest.mark.parametrize("check, argv", [
    ("check_dbar_polydisc", ["dbar", "--domain", "polydisc:0.5", "--n-max", "400", "--format", "json"]),
    ("check_dbar_polydisc", ["dbar", "--domain", "polydisc:3", "--n-max", "400", "--format", "json"]),
    ("check_moments_ball", ["moments", "--domain", "ball", "--n-max", "100", "--format", "csv"]),
    ("check_certify", _certify_p1("1,1")),
    ("check_certify", _certify_p1("2,0")),
    ("check_certify", _certify_p1("0,2")),
], ids=["dbar-polydisc", "dbar-polydisc-3", "moments-ball", "certify-p1", "certify-p1-2,0",
        "certify-p1-0,2"])
def test_benchmark_oracles_accept_the_reports(check, argv, capsys):
    # The benchmark counts a report these oracles reject as a failed operation.
    assert main(argv) == 0
    report = capsys.readouterr().out
    assert getattr(_perfbench_module("checks"), check)(argv, report) == []


def test_certify_does_not_import_numpy_ma():
    # np.unique imports numpy.ma (about 13 ms) the first time it runs; the
    # certificate's grid is deduplicated without it.  This reads numpy's
    # import graph as of numpy 2.4: a numpy release whose other calls on
    # this path import numpy.ma would fail it with no change here.
    import subprocess
    import sys

    code = ("import sys; from reinhardt.cli import main; "
            "main(['certify', '--domain', 'profile:inv_one_minus_pow:p=1', '--alpha', '1,1', "
            "'--n-max', '20']); print('numpy.ma' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                filter(None, [src, os.environ.get("PYTHONPATH")]))},
                            check=True)
    assert result.stdout.splitlines()[-1] == "False"


def _run_capped(argv, limit: int):
    """A CLI run in a child process whose address space is capped at limit bytes."""
    import subprocess
    import sys

    code = (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
            "from reinhardt.cli import main; sys.exit(main(sys.argv[1:]))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                                            "PYTHONPATH": os.pathsep.join(
                                                filter(None, [src, os.environ.get("PYTHONPATH")]))})


@pytest.mark.parametrize("argv", [
    ["moments", "--domain", "polydisc", "--n-max", "100000000"],
    ["salpha", "--domain", "ball", "--alpha", "1,0", "--n-max", "100000000000000000000"],
    ["wiegerinck", "--k", "100000000000"],
], ids=["moments-polydisc", "salpha-ball", "wiegerinck-k"])
def test_an_n_max_beyond_memory_is_a_one_line_error(argv):
    # A walk whose moments cannot fit in physical memory is rejected before
    # anything is built.  The child caps its own address space at 2 GB, so a
    # regression fails here instead of filling the machine's memory.
    result = _run_capped(argv, 2 << 30)
    assert result.returncode == 1, result.stderr[-500:]
    assert result.stdout == ""
    line, = result.stderr.splitlines()
    assert line.startswith("error: ") and "physical memory" in line


@pytest.mark.parametrize("argv", [
    ["moments", "--domain", "profile:inv_one_minus_pow:p=1e5", "--n-max", "100", "--tol", "1e-15"],
    ["certify", "--domain", "profile:inv_one_minus_pow:p=1", "--alpha", "1,1", "--n-max", "200",
     "--tol", "1e-15"],
    ["moments", "--domain", "profile:inv_one_minus_pow:p=1e300", "--n-max", "100", "--tol", "1e-13"],
], ids=["moments-p1e5", "certify-p1", "moments-p1e300"])
def test_a_tolerance_rounding_cannot_meet_is_a_one_line_failure(argv):
    # An integrand whose |K-G| cannot fall below rel_tol bisects on rounding
    # noise until its subdivision budget runs out.  The budget is splits per
    # integrand, and a batch shares one panel table, so a budget far above
    # what a converging integrand takes once filled memory before it failed.
    result = _run_capped(argv, 1 << 30)
    assert result.returncode == 2, result.stderr[-500:]
    assert result.stdout == ""
    line, = result.stderr.splitlines()
    assert line.startswith("numerical failure: ") and (
        f"quadrature needed more than {quadrature._MAX_SUBDIVISIONS} subdivisions (") in line


@pytest.mark.parametrize("argv, count", [
    (["moments", "--domain", "polydisc", "--n-max", "20"], 231),
    (["salpha", "--domain", "profile:inv_one_minus_pow:p=1", "--alpha", "1,1", "--n-max", "20"], 276),
    # a diagonal walk holds one moment a shell: shells 0..97 for S_(1,1) to 96
    (["wiegerinck", "--n-max", "100"], 98),
], ids=["moments-polydisc", "salpha-profile", "wiegerinck-diagonal"])
def test_memory_check_counts_what_a_walk_holds(monkeypatch, capsys, argv, count):
    # Two 4 KiB pages of physical memory hold the float64 values of these
    # 231, 276 and 98 moments, but not the bytes a walk really holds per moment.
    from reinhardt import moments

    assert 8 * count <= 2 * 4096 < moments._BYTES_PER_MOMENT * count
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2}.__getitem__)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith("error: ") and f"holds {count} moments" in line
    assert "physical memory" in line


def test_memory_check_counts_what_an_omega_k_report_holds(monkeypatch, capsys):
    # Two 4 KiB pages of physical memory hold the two ints of each of 10
    # rows, but not the bytes a JSON report really holds per row.
    import reinhardt.cli as cli

    assert 16 * 10 <= 2 * 4096 < cli._BYTES_PER_OMEGA_K_ROW * 10
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2}.__getitem__)
    assert main(["wiegerinck", "--k", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith("error: ") and "k=10 holds 10 rows" in line
    assert "physical memory" in line


def test_a_memory_error_is_a_one_line_exit_2(monkeypatch, capsys):
    import reinhardt.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "s_alpha_partials", exhausted)
    assert main(["salpha", "--domain", "polydisc", "--alpha", "1,0", "--n-max", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: out of memory; a smaller n_max may fit"]
