import json
import math
import random
import sys

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from reinhardt import hankel, moments
from reinhardt.cli import main
from reinhardt.domains import DomainSpec, MultiIndex
from reinhardt.errors import InvalidInputError
from reinhardt.hankel import (
    Convergent,
    DivergentLinear,
    Inconclusive,
    SYMBOL_NOT_IN_SPACE,
    classify_growth,
    dbar_canonical_report,
    s_alpha_partials,
    sample_ladder,
    shell_bound,
)
from reinhardt.moments import clear_moment_caches, log_c_gamma_sq, log_c_shells
from reinhardt.profiles import profile_family
from reinhardt.quadrature import REL_TOL
from reinhardt.wiegerinck import omega0_log_ck_sq

from oracles import hs_term, index_sum

def omega0_ratio(k):
    """c_(k+1,k+1)^2 / c_(k,k)^2 on Omega_0, from the closed form."""
    return math.exp(omega0_log_ck_sq(k + 1) - omega0_log_ck_sq(k))


POLYDISC = DomainSpec.polydisc(1.0)
BALL = DomainSpec.ball()
OMEGA0 = DomainSpec.wiegerinck_omega0()
NEG_LOG = DomainSpec.profile_domain(profile_family("neg_log_one_minus_r2"))


def test_hs_term_zero_alpha_is_zero():
    assert hs_term(POLYDISC, MultiIndex(4, 7), MultiIndex(0, 0)) == 0.0


def test_hs_term_polydisc_values():
    # unit polydisc: c^2 = pi^2 / ((g1+1)(g2+1))
    assert hs_term(POLYDISC, MultiIndex(0, 0), MultiIndex(1, 0)) == pytest.approx(0.5, abs=1e-12)
    assert hs_term(POLYDISC, MultiIndex(2, 0), MultiIndex(1, 0)) == pytest.approx(
        3.0 / 4.0 - 2.0 / 3.0, abs=1e-12
    )


def test_hs_term_lattice_validation():
    with pytest.raises(InvalidInputError):
        hs_term(OMEGA0, MultiIndex(1, 0), MultiIndex(1, 1))
    with pytest.raises(InvalidInputError):
        hs_term(OMEGA0, MultiIndex(1, 1), MultiIndex(1, 0))
    # gamma + alpha beyond a finite-dimensional lattice
    with pytest.raises(InvalidInputError):
        hs_term(DomainSpec.wiegerinck_omega_k(2), MultiIndex(2, 2), MultiIndex(1, 1))


def test_partial_sum_polydisc_spot_value():
    assert s_alpha_partials(POLYDISC, MultiIndex(1, 0), (2,))[0][1] == pytest.approx(23.0 / 12.0, abs=1e-12)


def test_partial_sum_rejects_zero_alpha_and_bad_n():
    with pytest.raises(InvalidInputError):
        s_alpha_partials(POLYDISC, MultiIndex(0, 0), (5,))
    with pytest.raises(InvalidInputError):
        s_alpha_partials(POLYDISC, MultiIndex(1, 0), (0,))


def test_diagonal_partial_sum_telescopes_to_one_ratio():
    for m in (1, 4, 9):
        got = s_alpha_partials(OMEGA0, MultiIndex(1, 1), (m,))[0][1]
        assert got == pytest.approx(omega0_ratio(m), rel=1e-12)


def test_shell_bound_examples():
    assert shell_bound(POLYDISC, MultiIndex(1, 0), 2) == pytest.approx(23.0 / 12.0, abs=1e-12)
    n = 50
    want = ((n + 1) * (n + 2) / 2.0) / (n + 3.0)
    assert shell_bound(BALL, MultiIndex(1, 0), n) == pytest.approx(want, rel=1e-9)
    got = shell_bound(OMEGA0, MultiIndex(1, 1), 0)
    assert got == pytest.approx(omega0_ratio(0), rel=1e-12)


@pytest.mark.parametrize("spec", [POLYDISC, BALL, NEG_LOG], ids=["polydisc", "ball", "neg_log"])
@pytest.mark.parametrize("alpha", [(1, 0), (0, 1), (1, 1), (2, 1)])
def test_telescoping_band_identity(spec, alpha):
    # S_alpha(M) equals the band sum of moment ratios over the last
    # |alpha| shells, computed here directly from the moments.
    alpha = MultiIndex(*alpha)
    m = 12
    band = 0.0
    for order in range(m - alpha.order + 1, m + 1):
        for g1 in range(order + 1):
            gamma = MultiIndex(g1, order - g1)
            band += math.exp(
                log_c_gamma_sq(spec, index_sum(gamma, alpha)) - log_c_gamma_sq(spec, gamma)
            )
    partial = s_alpha_partials(spec, alpha, (m,))[0][1]
    assert partial == pytest.approx(band, rel=1e-8)


def test_partials_nondecreasing_and_bound_consistent():
    ns = list(range(1, 13))
    partials = s_alpha_partials(BALL, MultiIndex(1, 1), ns)
    values = [v for _, v in partials]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    for n in (3, 7, 11):
        assert partials[-1][1] >= shell_bound(BALL, MultiIndex(1, 1), n) - 1e-9


def test_nonnegativity_spot_check():
    rng = random.Random(7)
    for spec in (POLYDISC, BALL, NEG_LOG):
        for _ in range(25):
            gamma = MultiIndex(rng.randrange(12), rng.randrange(12))
            alpha = MultiIndex(rng.randrange(3), rng.randrange(3))
            assert hs_term(spec, gamma, alpha) >= -1e-9


_QUADRANT_ALPHAS = [(a1, a2) for a1 in range(4) for a2 in range(4) if 1 <= a1 + a2 <= 3]
_DIRECTIONS = [(d1, d2) for d1 in range(-3, 4) for d2 in range(-3, 4) if (d1, d2) != (0, 0)]


@st.composite
def _domains(draw):
    """A random built-in domain: inv_one_minus_pow at a random p, a polydisc
    of random second radius, the ball, Omega_0 or a truncated omega_k."""
    kind = draw(st.sampled_from(["profile", "polydisc", "ball", "omega0", "omega_k"]))
    if kind == "profile":
        p = 10.0 ** draw(st.floats(-1.0, 6.0))
        return DomainSpec.profile_domain(profile_family("inv_one_minus_pow", {"p": p}))
    if kind == "polydisc":
        return DomainSpec.polydisc(draw(st.floats(0.25, 4.0)))
    if kind == "omega_k":
        return DomainSpec.wiegerinck_omega_k(draw(st.integers(1, 40)))
    return BALL if kind == "ball" else OMEGA0


def _lattice_logs(spec, n_max):
    """log c_gamma^2 of every lattice point gamma with |gamma| <= n_max, by gamma."""
    shells = log_c_shells(spec, range(n_max + 1))
    return {(g1, n - g1): float(logs[i])
            for n, logs in enumerate(shells) for i, g1 in enumerate(spec.shell(n))}


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(spec=_domains(), n_max=st.integers(2, 60), data=st.data())
def test_walk_properties_hold_on_random_domains(spec, n_max, data):
    # Oracle-free checks on one walk, from the moments' Hoelder log-convexity
    # and the nonnegative summands, with no closed form or reference value:
    # - log c_gamma^2 is convex along a random lattice direction, to the
    #   rounding a rel_tol error in three moments can cause;
    # - S_alpha(N) does not decrease in N;
    # - shell_bound(N) <= S_alpha(N), up to rounding of the sums: for
    #   |alpha| = 1 the two are equal, S_alpha telescoping to the bound;
    # - on the ball and the unit polydisc, c_(a,b) = c_(b,a) to rel_tol.
    clear_moment_caches()
    if spec.diagonal:
        top = data.draw(st.integers(1, 2 if spec.k is None else min(2, spec.k)), "a")
        alpha, direction = MultiIndex(top, top), (top, top)
    else:
        alpha = MultiIndex(*data.draw(st.sampled_from(_QUADRANT_ALPHAS), "alpha"))
        direction = data.draw(st.sampled_from(_DIRECTIONS), "direction")
    logs = _lattice_logs(spec, 2 * n_max if spec.diagonal else n_max)
    d1, d2 = direction
    second = [logs[g1 + d1, g2 + d2] + logs[g1 - d1, g2 - d2] - 2.0 * logs[g1, g2]
              for g1, g2 in logs if (g1 + d1, g2 + d2) in logs and (g1 - d1, g2 - d2) in logs]
    assert min(second, default=0.0) >= -4.0 * REL_TOL
    partials = [value for _, value in s_alpha_partials(spec, alpha, range(1, n_max + 1))]
    assert all(b >= a for a, b in zip(partials, partials[1:]))
    assert shell_bound(spec, alpha, n_max) <= partials[-1] * (1.0 + 1e-12)
    if spec in (BALL, POLYDISC):
        mirror = [abs(value - logs[g2, g1]) for (g1, g2), value in logs.items()]
        assert max(mirror) <= 2.0 * REL_TOL


@pytest.mark.parametrize("shift, gamma", [(1e-3, "(150,50)"), (-1e-3, "(149,50)")])
def test_a_moment_moved_beyond_its_margin_fails_the_walk(shift, gamma, capsys):
    # On polydisc:2 the Cauchy-Schwarz margin of the alpha = (1, 0) summands
    # at gamma = (150, 50) is log((g1 + 1)^2 / (g1 (g1 + 2))), about 4.4e-5.
    # Raising log c_gamma^2 there by 1e-3 makes its own summand negative on
    # shell 200; lowering it makes the summand of (149, 50) negative on shell
    # 199.  The walk must fail with one line and exit 2, and pass unmoved.
    argv = ["salpha", "--domain", "polydisc:2", "--alpha", "1,0", "--n-max", "210"]
    spec = DomainSpec.polydisc(2.0)
    clear_moment_caches()
    try:
        assert main(argv) == 0
        capsys.readouterr()
        (logs,) = log_c_shells(spec, (200,))
        moved = logs.copy()
        moved[150] += shift
        moved.flags.writeable = False
        moments._MOMENT_MEMO[(spec, 200, REL_TOL)] = moved
        assert main(argv) == 2
        message = capsys.readouterr().err
        assert message.count("\n") == 1
        assert message.startswith(
            f"numerical failure: summand of S_alpha for alpha = (1,0) at gamma = {gamma} is -")
    finally:
        clear_moment_caches()


ORACLE_DOMAINS = {
    "polydisc:2": DomainSpec.polydisc(2.0),
    "ball": BALL,
    "inv_pow_1": DomainSpec.profile_domain(profile_family("inv_one_minus_pow", {"p": 1})),
    "neg_log": NEG_LOG,
    "omega0": OMEGA0,
    "omega_k:3": DomainSpec.wiegerinck_omega_k(3),
}


def _oracle_shell(spec, n, alpha):
    """The gammas of shell n whose gamma+alpha stays on the lattice."""
    if spec.diagonal:
        gammas = [MultiIndex(n, n)]
    else:
        gammas = [MultiIndex(k, n - k) for k in range(n + 1)]
    return [g for g in gammas if spec.contains(g) and spec.contains(index_sum(g, alpha))]


@pytest.mark.parametrize("name", list(ORACLE_DOMAINS))
def test_shell_arrays_match_the_hs_term_oracle(name):
    # s_alpha_partials and shell_bound come from per-shell log-moment
    # arrays; hs_term is the term-by-term reference.  On omega_k:3 the
    # shells run past k and include terms whose gamma+alpha leaves the
    # lattice, which both sides omit.
    spec = ORACLE_DOMAINS[name]
    alphas = [MultiIndex(*a) for a in ((1, 0), (0, 1), (1, 1), (2, 1), (2, 2))]
    checked = 0
    for alpha in (a for a in alphas if spec.contains(a)):
        for n in range(1, 7):
            want = math.fsum(hs_term(spec, g, alpha) for m in range(n + 1)
                             for g in _oracle_shell(spec, m, alpha))
            assert math.isclose(s_alpha_partials(spec, alpha, (n,))[0][1], want,
                                rel_tol=4 * sys.float_info.epsilon), (alpha, n)
            bound = math.fsum(
                math.exp(log_c_gamma_sq(spec, index_sum(g, alpha)) - log_c_gamma_sq(spec, g))
                for g in _oracle_shell(spec, n, alpha)
            )
            assert math.isclose(shell_bound(spec, alpha, n), bound,
                                rel_tol=4 * sys.float_info.epsilon), (alpha, n)
            checked += 1
    assert checked == (12 if spec.diagonal else 30)


def test_series_pass_looks_up_each_moment_once(monkeypatch):
    # Shells 0..41 hold 903 gammas, read as 42 shell arrays from one moments
    # request, though every shell serves three shell sums; one per-gamma
    # lookup per shell, at its first gamma.
    requests, lookups = [], []
    shells_of, lookup = hankel.log_c_shells, hankel.log_c_gamma_sq

    def counting_shells(*args, **kwargs):
        requests.append(list(args[1]))
        return shells_of(*args, **kwargs)

    def counting_lookup(*args, **kwargs):
        lookups.append(args[1])
        return lookup(*args, **kwargs)

    clear_moment_caches()
    monkeypatch.setattr(hankel, "log_c_shells", counting_shells)
    monkeypatch.setattr(hankel, "log_c_gamma_sq", counting_lookup)
    partials = s_alpha_partials(DomainSpec.polydisc(2.0), MultiIndex(1, 0), sample_ladder(40))
    assert [n for n, _ in partials] == list(sample_ladder(40))
    assert requests == [list(range(42))]
    assert lookups == [MultiIndex(0, n) for n in range(42)]


# ---------------------------------------------------------------------------
# Growth classification.
# ---------------------------------------------------------------------------


# The verdict must not depend on the magnitude of the values.
SCALES = (1e-300, 1.0, 1e200, 1e300)


def test_classify_linear_divergence():
    for scale in SCALES:
        got = classify_growth([(n, 3.0 * scale * n) for n in range(10, 101, 10)])
        assert isinstance(got, DivergentLinear)
        assert got.slope == pytest.approx(3.0 * scale, rel=1e-9)


def test_classify_convergent_sequence():
    for scale in SCALES:
        got = classify_growth([(n, scale * (5.0 - 2.0 / n)) for n in range(10, 101, 10)])
        assert isinstance(got, Convergent)
        assert got.limit == pytest.approx(5.0 * scale, rel=1e-3)


def test_classify_logarithmic_growth_is_inconclusive():
    got = classify_growth([(n, math.log(n)) for n in range(10, 101, 10)])
    assert isinstance(got, Inconclusive)


def test_classify_validates_input():
    # Seven samples are too few to classify, which is a verdict, not an error.
    assert classify_growth([(n, 1.0 * n) for n in range(7)]) == Inconclusive("only 7 samples")
    assert classify_growth([]) == Inconclusive("only 0 samples")
    with pytest.raises(InvalidInputError):
        classify_growth([(10, 1.0), (9, 2.0)] + [(20 + i, 3.0) for i in range(6)])
    with pytest.raises(InvalidInputError):
        classify_growth([(10, 1.0), (9, 2.0)])


def test_classify_square_root_growth_is_inconclusive():
    got = classify_growth([(n, math.sqrt(n)) for n in range(25, 401, 25)])
    assert isinstance(got, Inconclusive)


# ---------------------------------------------------------------------------
# Symbols and norms.
# ---------------------------------------------------------------------------


def test_constant_symbol_has_zero_norm():
    # The Hankel operator of a constant symbol is 0: every alpha = 0 summand
    # of its Hilbert-Schmidt norm vanishes.
    assert math.fsum(
        hs_term(POLYDISC, MultiIndex(g1, n - g1), MultiIndex(0, 0))
        for n in range(11) for g1 in range(n + 1)
    ) == 0.0


def test_hs_norm_symbol_off_lattice_rejected():
    with pytest.raises(InvalidInputError, match="not in the Bergman space"):
        s_alpha_partials(OMEGA0, MultiIndex(1, 0), (10,))


def test_hs_norm_z1z2_on_omega0_approaches_c11_sq_times_e4():
    # z1 z2 is c_11 times the basis vector of index (1,1), so the squared
    # norm of its Hankel operator is c_11^2 S_(1,1), and S_(1,1) tends to e^4.
    m = 1000
    s11 = s_alpha_partials(OMEGA0, MultiIndex(1, 1), (m,))[0][1]
    assert abs(s11 - math.exp(4.0)) <= 3.0 * math.exp(4.0) / m


# ---------------------------------------------------------------------------
# dbar reports and ladders.
# ---------------------------------------------------------------------------


def test_dbar_polydisc_and_profile_are_not_hilbert_schmidt():
    for spec in (POLYDISC, NEG_LOG):
        report = dbar_canonical_report(spec, 64)
        assert report.verdict == "not Hilbert-Schmidt"
        assert all(isinstance(c.classification, DivergentLinear) for c in report.coordinates)


def test_dbar_omega0_symbols_not_in_space():
    report = dbar_canonical_report(OMEGA0, 64)
    assert report.verdict == "symbols not in Bergman space"
    assert [c.status for c in report.coordinates] == [SYMBOL_NOT_IN_SPACE] * 2


def test_sample_ladder():
    assert sample_ladder(400, 25) == tuple(range(25, 401, 25))
    assert sample_ladder(64) == tuple(range(8, 65, 8))
    assert sample_ladder(3) == (1, 2, 3)
    with pytest.raises(InvalidInputError):
        sample_ladder(0)


def test_build_s_alpha_report_assembles_everything(capsys):
    from reinhardt.cli import main

    ns = sample_ladder(32, 4)
    assert main(["salpha", "--domain", "ball", "--alpha", "1,0", "--n-max", "32",
                 "--n-step", "4", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["alpha"] == [1, 0]
    assert [row["N"] for row in report["rows"]] == list(ns)
    assert all(row["shell_bound"] > 0 for row in report["rows"])
    assert report["classification"]["kind"] == "DivergentLinear"
    # certificates exist only on profile domains
    assert all(row["cert_bound"] is None for row in report["rows"])
