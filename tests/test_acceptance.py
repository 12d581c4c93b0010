"""Acceptance suite: one test per published criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Expected values come from independent oracles: exact integer-factorial
closed forms for the moments, hand-telescoped rational sums, direct
high-precision arithmetic for the diagonal series, an mpmath integral
of the Omega_0 shadow for its closed-form moments, and subprocess runs
of the CLI for determinism.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from reinhardt.certificate import certificate_ladder, find_window
from reinhardt.domains import DomainSpec, MultiIndex
from reinhardt.hankel import (
    DivergentLinear,
    classify_growth,
    dbar_canonical_report,
    s_alpha_partials,
    sample_ladder,
    shell_bound,
)
from reinhardt.moments import log_c_gamma_sq
from reinhardt.profiles import profile_family
from reinhardt.wiegerinck import omega0_log_ck_sq

from oracles import hs_term, index_difference, index_sum, mass_one

PI2 = math.pi**2
E4 = math.exp(4.0)

ZERO = profile_family("zero")
NEG_LOG = profile_family("neg_log_one_minus_r2")
INV_POW = profile_family("inv_one_minus_pow", {"p": 1})

POLYDISC = DomainSpec.polydisc(1.0)
BALL = DomainSpec.ball()
OMEGA0 = DomainSpec.wiegerinck_omega0()
PROFILE_NEG_LOG = DomainSpec.profile_domain(NEG_LOG)
PROFILE_INV_POW = DomainSpec.profile_domain(INV_POW)

DIVERGENCE_LADDER = sample_ladder(400, 25)
CLASSIFIED = {}   # (domain description, alpha) -> partials, filled by criterion 3


def _report(number: int, ok: bool, detail: str, started: float):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} ({time.perf_counter() - started:.1f}s) {detail}")
    assert ok, f"criterion {number}: {detail}"


def _log_fraction(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


def _log_sub_exp(la: float, lb: float) -> float:
    """log(exp(la) - exp(lb)) for la >= lb."""
    if lb == -math.inf:
        return la
    if lb > la:
        raise ValueError(f"log(exp(la) - exp(lb)) would be negative: {la} < {lb}")
    if lb == la:
        return -math.inf
    return la + math.log(-math.expm1(lb - la))


def _simplex(order_max):
    for order in range(order_max + 1):
        for g1 in range(order + 1):
            yield MultiIndex(g1, order - g1)


def test_criterion_1_moment_oracles():
    started = time.perf_counter()
    worst = 0.0
    for radius in (1.0, 2.0):
        spec = DomainSpec.polydisc(radius)
        for gamma in _simplex(80):
            got = log_c_gamma_sq(spec, gamma)
            want = math.log(PI2) + (2 * gamma.g2 + 2) * math.log(radius) \
                - math.log(gamma.g1 + 1) - math.log(gamma.g2 + 1)
            worst = max(worst, abs(got - want))
    for gamma in _simplex(80):
        got = log_c_gamma_sq(BALL, gamma)
        want = math.log(PI2) + _log_fraction(
            Fraction(math.factorial(gamma.g1) * math.factorial(gamma.g2),
                     math.factorial(gamma.order + 2))
        )
        worst = max(worst, abs(got - want))
    for gamma in _simplex(80):
        got = log_c_gamma_sq(PROFILE_NEG_LOG, gamma)
        want = math.log(PI2) - math.log(gamma.g2 + 1) + _log_fraction(
            Fraction(math.factorial(gamma.g1) * math.factorial(2 * gamma.g2 + 2),
                     math.factorial(gamma.g1 + 2 * gamma.g2 + 3))
        )
        worst = max(worst, abs(got - want))
    _report(1, worst <= 1e-8,
            f"moment oracles on polydisc/ball/beta profile, worst log error {worst:.2e}", started)


def test_criterion_2_telescoping_identity():
    started = time.perf_counter()
    worst = 0.0
    for spec in (POLYDISC, BALL, PROFILE_NEG_LOG):
        for alpha in (MultiIndex(1, 0), MultiIndex(0, 1), MultiIndex(1, 1), MultiIndex(2, 1)):
            for m in (10, 30, 60):
                band = math.fsum(
                    math.exp(log_c_gamma_sq(spec, index_sum(g, alpha)) - log_c_gamma_sq(spec, g))
                    for order in range(m - alpha.order + 1, m + 1)
                    for g in (MultiIndex(k, order - k) for k in range(order + 1))
                )
                partial = s_alpha_partials(spec, alpha, (m,))[0][1]
                worst = max(worst, abs(partial - band) / partial)
    spot = s_alpha_partials(POLYDISC, MultiIndex(1, 0), (2,))[0][1]
    spot_ok = abs(spot - 23.0 / 12.0) <= 1e-8 * (23.0 / 12.0)
    _report(2, worst <= 1e-8 and spot_ok,
            f"band identity worst rel {worst:.2e}; S_(1,0)(2)={spot:.12g}", started)


def test_criterion_3_linear_divergence():
    started = time.perf_counter()
    n = 200
    ratio = shell_bound(BALL, MultiIndex(1, 0), n) / n
    exact = ((n + 1) * (n + 2) / 2.0) / ((n + 3.0) * n)
    ball_ok = 0.45 <= ratio <= 0.55 and abs(ratio - exact) <= 1e-9 * exact
    all_linear = True
    details = [f"ball shell/N={ratio:.5f}"]
    for spec in (PROFILE_NEG_LOG, PROFILE_INV_POW):
        for alpha in (MultiIndex(1, 0), MultiIndex(0, 1), MultiIndex(1, 1)):
            partials = s_alpha_partials(spec, alpha, DIVERGENCE_LADDER)
            CLASSIFIED[(spec.describe(), alpha)] = partials
            verdict = classify_growth(partials)
            linear = isinstance(verdict, DivergentLinear) and verdict.slope > 0
            all_linear = all_linear and linear
            details.append(f"{spec.describe()}|{alpha}:{verdict.label}")
    _report(3, ball_ok and all_linear, "; ".join(details), started)


def test_criterion_4_certificate_soundness_and_strength():
    started = time.perf_counter()
    sound = True
    bracket_ok = True
    details = []
    for profile, spec in ((NEG_LOG, PROFILE_NEG_LOG), (INV_POW, PROFILE_INV_POW)):
        for alpha in (MultiIndex(1, 0), MultiIndex(0, 1), MultiIndex(1, 1)):
            partials = dict(CLASSIFIED[(spec.describe(), alpha)])
            scaled = []
            for entry in certificate_ladder(profile, alpha, (100, 200, 400)).entries:
                sound = sound and entry.bound <= partials[entry.n] + 1e-9
                scaled.append(entry.bound / entry.n)
            ratio = max(scaled) / min(scaled)
            bracket_ok = bracket_ok and ratio <= 2.0 and min(scaled) > 0
            details.append(f"{profile.name}|{alpha}: bound/N spread {ratio:.3f}")
    _report(4, sound and bracket_ok,
            f"bounds below partial sums: {sound}; " + "; ".join(details), started)


def test_criterion_5_mass_inequality():
    started = time.perf_counter()
    rng = random.Random(415926)
    all_ok = True
    worst_mass = 1.0
    for profile in (NEG_LOG, INV_POW):
        window = find_window(profile)
        interval = (window.inner_lo, window.inner_hi)
        pairs = []
        for _ in range(100):
            ratio = window.A + (window.B - window.A) * rng.random()
            y = math.exp(rng.uniform(0.0, math.log(1000.0)))
            pairs.append((ratio * y, y))
        for x, y in pairs:
            mass = mass_one(profile, x, y, interval)
            worst_mass = min(worst_mass, mass)
            all_ok = all_ok and mass >= 0.5 - 1e-6
        norm_ok = all(
            mass_one(profile, x, y, (0.0, 1.0)) == pytest.approx(1.0, abs=1e-10)
            for x, y in pairs[:10]
        )
        all_ok = all_ok and norm_ok
        grid = np.linspace(1e-6, 1.0 - 1e-6, 1000)
        for x, y in pairs[:5]:
            logs = x * np.log(grid) - y * np.asarray(profile.phi(grid), dtype=float)
            values = np.exp(logs - logs.max())
            peak = int(np.argmax(values))
            unimodal = (np.diff(values[: peak + 1]) >= -1e-6).all() and \
                (np.diff(values[peak:]) <= 1e-6).all()
            all_ok = all_ok and bool(unimodal)
    _report(5, all_ok, f"200 randomized window masses, worst {worst_mass:.6f}; "
            "normalization exact; densities unimodal", started)


def _omega0_shadow_log_moment(mpmath, k: int) -> float:
    """log c_(k,k)^2 on Omega_0 from its shadow: the square [0,e]^2 exactly,
    plus twice the tail r1 >= e, 0 <= r2 < h(r1) = 1/(r1 log r1), whose
    fiber integral is r^(2k+1) h(r)^(2k+2)/(2k+2), integrated by mpmath in
    t = log r over [1, inf)."""
    with mpmath.workdps(30):
        square = (mpmath.e ** (2 * k + 2) / (2 * k + 2)) ** 2

        def fiber(t):
            r = mpmath.exp(t)
            h = 1 / (r * t)
            return r ** (2 * k + 1) * h ** (2 * k + 2) / (2 * k + 2) * r  # dr = r dt

        tail = mpmath.quad(fiber, [1, mpmath.inf])
        return float(mpmath.log(4 * mpmath.pi ** 2 * (square + 2 * tail)))


def test_criterion_6_wiegerinck_convergence():
    mpmath = pytest.importorskip("mpmath")
    started = time.perf_counter()
    series_ok = True
    for m in (10**3, 10**4):
        s11 = s_alpha_partials(OMEGA0, MultiIndex(1, 1), (m,))[0][1]
        series_ok = series_ok and abs(s11 - E4) <= 3.0 * E4 / m
    const_ok = all(
        abs(k * k * hs_term(OMEGA0, MultiIndex(k, k), MultiIndex(1, 1)) - 2.0 * E4)
        <= 0.05 * 2.0 * E4
        for k in (500, 1000, 5000)
    )
    worst = 0.0
    for k in range(21):
        worst = max(worst, abs(_omega0_shadow_log_moment(mpmath, k) - omega0_log_ck_sq(k)))
    _report(6, series_ok and const_ok and worst <= 1e-6,
            f"S_11 within 3e4/M; k^2 terms near 2e^4; shadow-vs-closed-form "
            f"worst log diff {worst:.2e}", started)


def test_criterion_7_nonnegativity_and_projection_oracle():
    started = time.perf_counter()
    domains = (POLYDISC, BALL, DomainSpec.profile_domain(ZERO), PROFILE_NEG_LOG,
               PROFILE_INV_POW, OMEGA0, DomainSpec.wiegerinck_omega_k(5))
    alphas = (MultiIndex(1, 0), MultiIndex(0, 1), MultiIndex(1, 1), MultiIndex(2, 1))
    min_term = math.inf
    worst_rel = 0.0
    checked = 0
    for spec in domains:
        for alpha in alphas:
            if not spec.contains(alpha):
                continue
            for gamma in _simplex(40):
                if not (spec.contains(gamma) and spec.contains(index_sum(gamma, alpha))):
                    continue
                term = hs_term(spec, gamma, alpha)
                min_term = min(min_term, term)
                log_mid = log_c_gamma_sq(spec, gamma)
                log_up = log_c_gamma_sq(spec, index_sum(gamma, alpha))
                down = index_difference(gamma, alpha)
                if down is not None and spec.contains(down):
                    log_down = log_c_gamma_sq(spec, down)
                    oracle = math.exp(
                        _log_sub_exp(log_up, 2.0 * log_mid - log_down) - log_mid
                    )
                else:
                    oracle = math.exp(log_up - log_mid)
                worst_rel = max(worst_rel, abs(term - oracle) / max(term, oracle, 1e-300))
                checked += 1
    _report(7, min_term >= -1e-9 and worst_rel <= 1e-9,
            f"{checked} terms, min {min_term:.2e}, projection-oracle worst rel {worst_rel:.2e}",
            started)


def test_criterion_8_dbar_verdicts():
    started = time.perf_counter()
    verdicts = {}
    for spec in (POLYDISC, PROFILE_NEG_LOG, PROFILE_INV_POW):
        verdicts[spec.describe()] = dbar_canonical_report(spec, 64).verdict
    not_hs = all(v == "not Hilbert-Schmidt" for v in verdicts.values())
    omega_report = dbar_canonical_report(OMEGA0, 64)
    omega_ok = omega_report.verdict == "symbols not in Bergman space" and all(
        c.status == "symbol-not-in-space" for c in omega_report.coordinates
    )
    _report(8, not_hs and omega_ok,
            f"{verdicts}; omega0 {omega_report.verdict}", started)


def _cli(args, out_path):
    result = subprocess.run(
        [sys.executable, "-m", "reinhardt", *args, "--out", str(out_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return out_path.read_bytes(), result.stdout


def test_criterion_9_cli_determinism(tmp_path):
    started = time.perf_counter()
    invocations = {
        "salpha": ["salpha", "--domain", "polydisc", "--alpha", "1,0",
                   "--n-max", "2", "--format", "csv"],
        "wiegerinck": ["wiegerinck", "--n-max", "1000", "--format", "json"],
        "certify": ["certify", "--domain", "profile:neg_log_one_minus_r2",
                    "--alpha", "1,1", "--n-max", "200", "--format", "json"],
    }
    identical = True
    outputs = {}
    for name, args in invocations.items():
        first, summary_a = _cli(args, tmp_path / f"{name}_a")
        second, summary_b = _cli(args, tmp_path / f"{name}_b")
        identical = identical and first == second and summary_a == summary_b
        outputs[name] = first

    rows = outputs["salpha"].decode().splitlines()
    header_ok = rows[0] == "N,S_alpha,shell_bound,cert_bound"
    s_value = float(rows[-1].split(",")[1])
    salpha_ok = header_ok and rows[-1].startswith("2,") and \
        round(s_value, 6) == 1.916667

    wieg = json.loads(outputs["wiegerinck"])
    wieg_ok = abs(wieg["limit_estimate"] - 54.598) <= 1e-3 and \
        wieg["classification"]["kind"] == "Convergent"

    cert = json.loads(outputs["certify"])
    masses = [m["mass"] for e in cert["entries"] for m in e["mass_checks"]]
    cert_ok = cert["verdict"].startswith("DivergentLinear") and \
        min(masses) >= 0.5 - 1e-6

    _report(9, identical and salpha_ok and wieg_ok and cert_ok,
            f"byte-identical reruns: {identical}; S=1.916667, "
            f"limit_estimate={wieg['limit_estimate']:.3f}, certify verdict {cert['verdict']}",
            started)
