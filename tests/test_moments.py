import dataclasses
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from reinhardt import moments, profiles, quadrature
from reinhardt.domains import DomainSpec, MultiIndex
from reinhardt.errors import InvalidInputError, NumericalFailureError
from reinhardt.moments import (
    clear_moment_caches,
    log_c_gamma_sq,
    log_c_shells,
    log_profile_interval_moment,
    log_radial_moment,
)
from reinhardt.profiles import RadialProfile, profile_family
from reinhardt.quadrature import REL_TOL

from oracles import integrate_one, moment_one

PI2 = math.pi**2

ZERO = profile_family("zero")
NEG_LOG = profile_family("neg_log_one_minus_r2")
INV_POW = profile_family("inv_one_minus_pow", {"p": 1})

# The closed forms of M(x, y) on [0, 1], written out as math.log and
# math.lgamma calls in the order the moments of these families are computed.
CLOSED_FORMS = {
    ZERO: lambda x, y: -math.log(x + 1.0),
    NEG_LOG: lambda x, y: math.log(0.5) + (math.lgamma(0.5 * (x + 1.0)) + math.lgamma(y + 1.0)
                                           - math.lgamma(0.5 * (x + 1.0) + (y + 1.0))),
}


def log_factorial_ratio(*, num, den):
    """Exact integer-factorial oracle: log(prod num! / prod den!)."""
    value = Fraction(1)
    for n in num:
        value *= math.factorial(n)
    for d in den:
        value /= math.factorial(d)
    return math.log(value.numerator) - math.log(value.denominator)


def in_basis(spec, gamma):
    """Whether z^gamma is a basis monomial, whose moment is then finite."""
    return spec.contains(gamma) and math.isfinite(log_c_gamma_sq(spec, gamma))


def polydisc_oracle(radius, gamma):
    return math.log(PI2) + (2 * gamma.g2 + 2) * math.log(radius) \
        - math.log(gamma.g1 + 1) - math.log(gamma.g2 + 1)


def ball_oracle(gamma):
    return math.log(PI2) + log_factorial_ratio(
        num=(gamma.g1, gamma.g2), den=(gamma.g1 + gamma.g2 + 2,)
    )


def beta_profile_oracle(gamma):
    # c^2 = pi^2/(g2+1) * g1! (2 g2+2)! / (g1 + 2 g2 + 3)!
    return math.log(PI2) - math.log(gamma.g2 + 1) + log_factorial_ratio(
        num=(gamma.g1, 2 * gamma.g2 + 2), den=(gamma.g1 + 2 * gamma.g2 + 3,)
    )


# ---------------------------------------------------------------------------
# Radial integrals.
# ---------------------------------------------------------------------------


def test_zero_profile_closed_form():
    assert moment_one(ZERO, 3.0, 7.0) == pytest.approx(math.log(0.25), abs=1e-14)


def test_neg_log_profile_small_case():
    # integral r (1 - r^2) dr = 1/4
    assert moment_one(NEG_LOG, 1.0, 1.0) == pytest.approx(math.log(0.25), abs=1e-13)


def test_neg_log_profile_deep_case_matches_direct_quadrature():
    closed = moment_one(NEG_LOG, 201.0, 400.0)

    def log_f(r):
        r = np.asarray(r, dtype=float)
        return 201.0 * np.log(r) + 400.0 * np.log1p(-r * r)

    direct = integrate_one(log_f, 0.0, 1.0)
    assert direct == pytest.approx(closed, abs=1e-8)


def test_inv_pow_profile_against_tight_tolerance_run():
    coarse = moment_one(INV_POW, 11.0, 6.0, rel_tol=1e-8)
    fine = moment_one(INV_POW, 11.0, 6.0, rel_tol=1e-13)
    assert coarse == pytest.approx(fine, abs=1e-8)


@pytest.mark.parametrize("x, y", [(1, 802), (3, 1002), (201, 2), (11, 40),
                                  (51, 152), (101, 2)])
def test_inv_pow_p1_against_exact_exponential_integrals(x, y):
    # phi = 1/(1-r); with t = 1/(1-r), M(x, y) = sum_j (-1)^j C(x, j) E_(j+2)(y)
    # for integer x.  The alternating sum cancels catastrophically, so it is
    # evaluated with 300 digits; naive mpmath.quad is no oracle here.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(300):
        exact = mpmath.fsum((-1) ** j * mpmath.binomial(x, j) * mpmath.expint(j + 2, y)
                            for j in range(x + 1))
        log_exact = float(mpmath.log(exact))
    assert abs(moment_one(INV_POW, float(x), float(y)) - log_exact) <= 1e-10


def test_moment_input_validation():
    with pytest.raises(InvalidInputError):
        moment_one(ZERO, -1.0, 0.0)
    with pytest.raises(InvalidInputError):
        moment_one(ZERO, math.inf, 0.0)
    with pytest.raises(InvalidInputError):
        moment_one(ZERO, 1.0, 1.0, 0.5, 0.2)
    # The exponents are batches only; a single moment is a batch of one.
    for x, y in ((1.0, 2.0), ([1.0], [2.0, 3.0]), ([[1.0]], [[2.0]])):
        with pytest.raises(InvalidInputError, match="equal-length 1-D sequences"):
            log_radial_moment(ZERO, x, y)
    # Booleans and non-numbers, in the exponents or the interval, once read
    # as 1.0 (True) or escaped as a raw ValueError or TypeError.
    for x, y in (([True], [True]), ([1.0], [np.True_]), (["a"], [1.0]), ([1.0], [None])):
        with pytest.raises(InvalidInputError, match="must be finite numbers"):
            log_radial_moment(INV_POW, x, y)
    for lo, hi in (("a", 0.5), (0.0, None), (False, True)):
        with pytest.raises(InvalidInputError, match="must sit inside"):
            log_profile_interval_moment(INV_POW, [1.0], [2.0], lo, hi)


def test_zero_exponents_are_rejected():
    # The lattice sends x = 2 g1 + 1 >= 1 and y = 2 g2 + 2 >= 2, as does the
    # certificate, so a zero exponent is invalid input on every family, in
    # a batch of one and in a longer batch.
    from reinhardt.certificate import density_mass

    for profile in (ZERO, NEG_LOG, INV_POW):
        for x, y in (([0.0], [2.0]), ([1.0], [0.0]), ([1.0, 0.0], [2.0, 2.0])):
            with pytest.raises(InvalidInputError, match="must be > 0"):
                log_radial_moment(profile, x, y)
            with pytest.raises(InvalidInputError, match="must be > 0"):
                log_profile_interval_moment(profile, x, y, 0.0, 0.5)
            with pytest.raises(InvalidInputError, match="must be > 0"):
                density_mass(profile, x, y, (0.0, 0.5))


def test_interval_moment_zero_profile():
    # integral_0^0.5 r dr = 1/8
    got = moment_one(ZERO, 1.0, 2.0, 0.0, 0.5)
    assert got == pytest.approx(math.log(0.125), abs=1e-12)


# ---------------------------------------------------------------------------
# Shadow moments of the polydisc and the ball.
# ---------------------------------------------------------------------------


def test_region_moment_polydisc_volume():
    got = log_c_gamma_sq(DomainSpec.polydisc(1.0), MultiIndex(0, 0))
    assert got == pytest.approx(math.log(PI2), abs=1e-14)


def test_region_moment_ball_example():
    got = log_c_gamma_sq(DomainSpec.ball(), MultiIndex(2, 1))
    assert got == pytest.approx(math.log(PI2 / 60.0), abs=1e-10)


def test_region_moment_of_a_polydisc_split_into_two_boxes():
    # [0, 0.5] x [0, R] and [0.5, 1] x [0, R] sum to the polydisc moment
    # pi^2 R^(2 g2 + 2) / ((g1 + 1)(g2 + 1)) through the one-term fold
    # over a shadow's pieces, with the r1_lo > 0 axis integral.
    radius = 1.5
    pieces = (moments._Box(0.0, 0.5, 0.0, radius), moments._Box(0.5, 1.0, 0.0, radius))
    for gamma in (MultiIndex(0, 0), MultiIndex(3, 2), MultiIndex(0, 17), MultiIndex(25, 4)):
        got, = moments._region_log_moments(pieces, [(gamma.g1, gamma.g2)], REL_TOL)
        assert abs(got - polydisc_oracle(radius, gamma)) <= 1e-13


def test_log_sum_exp_fold_empty_and_shifted():
    assert moments._log_sum_exp([]) == -math.inf
    logs = [1000.0, 1000.0 + math.log(2.0), -math.inf]
    assert moments._log_sum_exp(logs) == pytest.approx(1000.0 + math.log(3.0), rel=1e-13)


# ---------------------------------------------------------------------------
# Squared monomial norms.
# ---------------------------------------------------------------------------


def test_c_gamma_sq_polydisc_example():
    got = log_c_gamma_sq(DomainSpec.polydisc(1.0), MultiIndex(3, 4))
    assert got == pytest.approx(math.log(PI2 / 20.0), abs=1e-13)


def test_c_gamma_sq_beta_profile_example():
    got = log_c_gamma_sq(DomainSpec.profile_domain(NEG_LOG), MultiIndex(0, 0))
    assert got == pytest.approx(math.log(PI2 / 3.0), abs=1e-13)


def test_c_gamma_sq_omega0_volume():
    got = log_c_gamma_sq(DomainSpec.wiegerinck_omega0(), MultiIndex(0, 0))
    want = math.log(4 * PI2 * (1.0 + math.exp(4.0) / 4.0))
    assert got == pytest.approx(want, rel=1e-14)


def test_c_gamma_sq_divergence_matches_lattice():
    omega0 = DomainSpec.wiegerinck_omega0()
    omegak = DomainSpec.wiegerinck_omega_k(2)
    with pytest.raises(InvalidInputError, match=r"gamma \(2,1\) is not in the basis lattice of omega0"):
        log_c_gamma_sq(omega0, MultiIndex(2, 1))
    assert math.isfinite(log_c_gamma_sq(omega0, MultiIndex(2, 2)))
    with pytest.raises(InvalidInputError, match="not in the basis lattice"):
        log_c_gamma_sq(omegak, MultiIndex(3, 3))
    assert math.isfinite(log_c_gamma_sq(omegak, MultiIndex(2, 2)))


@pytest.mark.parametrize("radius", [1.0, 0.5, 2.0])
def test_polydisc_oracle_up_to_order_20(radius):
    spec = DomainSpec.polydisc(radius)
    for order in range(21):
        for g1 in range(order + 1):
            gamma = MultiIndex(g1, order - g1)
            got = log_c_gamma_sq(spec, gamma)
            assert got == pytest.approx(polydisc_oracle(radius, gamma), abs=1e-8)


def test_zero_profile_matches_unit_polydisc_oracle():
    spec = DomainSpec.profile_domain(ZERO)
    for order in range(21):
        for g1 in range(order + 1):
            gamma = MultiIndex(g1, order - g1)
            got = log_c_gamma_sq(spec, gamma)
            assert got == pytest.approx(polydisc_oracle(1.0, gamma), abs=1e-8)


def test_ball_oracle_up_to_order_20():
    spec = DomainSpec.ball()
    for order in range(21):
        for g1 in range(order + 1):
            gamma = MultiIndex(g1, order - g1)
            got = log_c_gamma_sq(spec, gamma)
            assert got == pytest.approx(ball_oracle(gamma), abs=1e-8)


def test_beta_profile_oracle_up_to_order_20():
    spec = DomainSpec.profile_domain(NEG_LOG)
    for order in range(21):
        for g1 in range(order + 1):
            gamma = MultiIndex(g1, order - g1)
            got = log_c_gamma_sq(spec, gamma)
            assert got == pytest.approx(beta_profile_oracle(gamma), abs=1e-8)


def test_inv_one_minus_pow_matches_mpmath():
    # c_gamma^2 = 2 pi^2/(g2+1) * integral_0^1 r^(2g1+1) exp(-(2g2+2)/(1-r)) dr
    # at p = 1, integrated by mpmath: an oracle independent of the engine.
    mpmath = pytest.importorskip("mpmath")
    spec = DomainSpec.profile_domain(INV_POW)
    for g1, g2 in [(0, 0), (3, 2), (10, 1)]:
        x, y = 2 * g1 + 1, 2 * g2 + 2
        with mpmath.workdps(30):
            m = mpmath.quad(lambda r: r**x * mpmath.exp(-y / (1 - r)), mpmath.linspace(0, 1, 9))
            want = float(mpmath.log(2 * mpmath.pi**2 / (g2 + 1) * m))
        assert abs(log_c_gamma_sq(spec, MultiIndex(g1, g2)) - want) <= 1e-12, (g1, g2)


def test_monotone_in_g2_for_nonnegative_profiles():
    spec = DomainSpec.profile_domain(NEG_LOG)
    for g1 in (0, 3, 9):
        values = [log_c_gamma_sq(spec, MultiIndex(g1, g2)) for g2 in range(12)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_log_domain_safety_at_huge_diagonal_index():
    got = log_c_gamma_sq(DomainSpec.wiegerinck_omega0(), MultiIndex(10**4, 10**4))
    expected = math.log(4 * PI2) + 40004.0 - 2.0 * math.log(20002.0)
    assert math.isfinite(got)
    assert got == pytest.approx(expected, abs=1e-6)


def test_memoized_results_are_bit_identical():
    spec = DomainSpec.profile_domain(INV_POW)
    first = log_c_gamma_sq(spec, MultiIndex(5, 5))
    second = log_c_gamma_sq(spec, MultiIndex(5, 5))
    assert first == second


def test_concurrent_evaluation_is_interleaving_independent():
    from concurrent.futures import ThreadPoolExecutor

    spec = DomainSpec.profile_domain(INV_POW)
    gammas = [MultiIndex(g1, g2) for g1 in range(6) for g2 in range(6)]
    serial = [log_c_gamma_sq(spec, g) for g in gammas]
    clear_moment_caches()
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda g: log_c_gamma_sq(spec, g), gammas))
    assert threaded == serial


# ---------------------------------------------------------------------------
# Basis membership.
# ---------------------------------------------------------------------------


def test_membership_examples():
    assert in_basis(DomainSpec.wiegerinck_omega0(), MultiIndex(3, 3))
    assert not in_basis(DomainSpec.wiegerinck_omega_k(2), MultiIndex(3, 3))
    assert in_basis(DomainSpec.polydisc(1.0), MultiIndex(7, 0))


def test_membership_on_generic_regions():
    assert in_basis(DomainSpec.polydisc(1.0), MultiIndex(40, 40))


# ---------------------------------------------------------------------------
# Shell batches.
# ---------------------------------------------------------------------------


def scan_presplit(profile, x, y, lo, hi, rel_tol):
    """An independent mesh for reference quadratures: the per-integrand
    256-point grid scan that the Laplace-scaled peak mesh replaced."""
    grid = np.linspace(lo, hi, 258)[1:-1]

    def log_f(r):
        out = np.zeros_like(r)
        if x != 0.0:
            out = out + x * np.log(r)
        if y != 0.0:
            out = out - y * profile.phi(r)
        return out

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = np.asarray(log_f(grid), dtype=float)
    finite = np.isfinite(values)
    if not finite.any():
        return ()
    peak = float(grid[int(np.argmax(np.where(finite, values, -np.inf)))])
    width = hi - lo
    cuts = {peak + sign * width * 0.5 ** j for j in range(1, 10) for sign in (-1.0, 1.0)}
    if y != 0.0 and profile.name != "zero":
        with np.errstate(over="ignore"):
            phis = y * np.asarray(profile.phi(grid), dtype=float)
        threshold = math.log(1.0 / rel_tol) + abs(float(np.max(values[finite])))
        exceeded = np.nonzero(phis >= threshold)[0]
        if exceeded.size:
            cuts.add(float(grid[exceeded[0]]))
    return tuple(c for c in cuts if lo < c < hi)


def _mp_log_integrand(profile, x, y):
    """x log r - y phi(r) in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    p = dict(profile.params).get("p")
    phi = {
        "zero": lambda r: mpmath.mpf(0),
        "neg_log_one_minus_r2": lambda r: -mpmath.log1p(-r * r),
        "inv_one_minus_pow": lambda r: (1 - r) ** -mpmath.mpf(p),
    }[profile.name]
    return lambda r: x * mpmath.log(r) - y * phi(r)


def _mp_peak(profile, x, y, lo, hi):
    """The peak of r^x exp(-y phi(r)) on [lo, hi]: the root of
    x - y r phi'(r) when it changes sign there, else the nearer endpoint."""
    mpmath = pytest.importorskip("mpmath")
    p = dict(profile.params).get("p")
    if profile.name == "zero":
        return hi
    if profile.name == "neg_log_one_minus_r2":
        # x = 2 y r^2 / (1 - r^2)
        return min(max(math.sqrt(x / (x + 2.0 * y)), lo), hi)

    def g(r):
        # log(x / (y r phi'(r))), which has the sign of x - y r phi'(r)
        return mpmath.log(x / (y * r * p)) + (p + 1) * mpmath.log1p(-r)

    with mpmath.workdps(40):
        bottom = max(mpmath.mpf(lo), mpmath.mpf(10) ** -30)
        top = min(mpmath.mpf(hi), 1 - mpmath.mpf(10) ** -30)
        if g(bottom) <= 0:
            return lo
        if g(top) >= 0:
            return hi
        return float(mpmath.findroot(g, (bottom, top), solver="anderson"))


def _presplit(profile, xs, ys, lo, hi):
    """The initial panel cuts of the profile quadrature, one row per (x, y)."""

    return moments._mesh(*moments._peak_scales(profile, xs, ys, lo, hi))


def test_peak_locator_matches_mpmath():
    # The locator behind the quadrature mesh:
    # r* against mpmath (or the -log(1-r^2) closed form), the mesh scale
    # against the mpmath finite-difference curvature of the log-integrand,
    # and every batch row bitwise equal to the batch of one.
    from reinhardt.profiles import peak_radius

    mpmath = pytest.importorskip("mpmath")
    offsets = np.array([sign * 0.75 * m for m in (1, 2, 3, 4, 6, 8, 12, 16, 32, 64, 128, 256, 512)
                        for sign in (-1.0, 1.0)])
    xs = np.array([1.0, 3.0, 11.0, 101.0, 401.0])
    ys = np.array([2.0, 6.0, 50.0, 402.0, 1000.0])
    gx, gy = (g.ravel() for g in np.meshgrid(xs, ys))
    for profile in (ZERO, NEG_LOG, INV_POW, profile_family("inv_one_minus_pow", {"p": 2.5})):
        for lo, hi in ((0.0, 1.0), (0.2, 0.7)):
            peaks = peak_radius(profile, gx, gy, lo, hi)
            rows = _presplit(profile, gx, gy, lo, hi)
            for x, y, peak, row in zip(gx, gy, peaks, rows):
                case = (profile, x, y, lo, hi)
                expected = _mp_peak(profile, x, y, lo, hi)
                assert peak == pytest.approx(expected, rel=1e-12, abs=1e-300), case
                assert peak_radius(profile, x, y, lo, hi).tobytes() == peak.tobytes(), case
                assert _presplit(profile, np.array([x]), np.array([y]), lo, hi)[0].tobytes() \
                    == row.tobytes(), case
                # At r* = 0, or r* = 1 with phi unbounded, the curvature is
                # infinite and the scale 0: every cut sits on r*.
                unbounded = profile.name != "zero"
                scale = 0.0 if peak == 0.0 or (peak == 1.0 and unbounded) else None
                if scale is None:
                    with mpmath.workdps(40):
                        log_f = _mp_log_integrand(profile, x, y)
                        curvature = -mpmath.diff(log_f, mpmath.mpf(peak), 2)
                        scale = float(1 / mpmath.sqrt(curvature)) if curvature > 0 else math.inf
                if 0.0 < scale < math.inf:
                    assert row == pytest.approx(peak + scale * offsets, rel=1e-9), case
                else:
                    assert not ((lo < row) & (row < hi)).any(), case


def test_presplit_scans_no_grid_and_cuts_panels(monkeypatch):
    # Shell 100 of inv_one_minus_pow:p=1 took 2,524 panels from the 256-point
    # grid scan; the peak mesh must take at most 80% of that, and the mesh
    # itself never evaluates phi.
    from reinhardt import quadrature

    panels = []
    evaluate = quadrature._eval_panels
    monkeypatch.setattr(quadrature, "_eval_panels", lambda log_f, los, *rest:
                        panels.append(los.size) or evaluate(log_f, los, *rest))
    clear_moment_caches()
    log_c_shells(DomainSpec.profile_domain(INV_POW), (100,))
    assert 0 < sum(panels) <= 0.8 * 2524

    points = []
    counted = dataclasses.replace(INV_POW, phi=lambda r:
                                  points.append(np.size(r)) or INV_POW.phi(r))
    ks = np.arange(101.0)
    _presplit(counted, 2.0 * ks + 1.0, 2.0 * (100.0 - ks) + 2.0, 0.0, 1.0)
    assert points == []


def test_all_node_underflow_is_a_numerical_failure():
    # (1 - r)^-1e6 overflows at every r in [0.5, 0.9], so the log-integrand is
    # log 0 at every node and the positive moment would read as log 0.
    steep = profile_family("inv_one_minus_pow", {"p": 1e6})
    with pytest.raises(NumericalFailureError, match="underflows to 0 at every quadrature node"):
        moment_one(steep, 1.0, 2.0, 0.5, 0.9)


def test_a_failing_fiber_moment_is_named_not_its_batch_row(monkeypatch):
    # The ball's shell |gamma| = 40 is integrated in one batch.  With one
    # subdivision allowed at rel_tol 1e-14, its moment (0, 40), row 0, does
    # not converge.  Asking for (1, 39) computes the shell, and the error
    # names (0, 40), not "integrand 0 of 41".
    clear_moment_caches()
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 1)
    with pytest.raises(NumericalFailureError) as failure:
        log_c_gamma_sq(DomainSpec.ball(), MultiIndex(1, 39), 1e-14)
    assert str(failure.value) == (
        "fiber integral of z^(0,40): quadrature needed more than 1 subdivisions"
    )


def _mp_steep_log_moment(p, x, y):
    """log M(x, y) for inv_one_minus_pow at large p, in mpmath: with
    r = u/p the integrand is u-scaled, and past u = 8 it is below e^-5000.
    The pieces are graded from u = 1e-6, so the peak near u = x/y is
    resolved at large y too (0.1-wide pieces are 0.02 off at (1, 200))."""
    mpmath = pytest.importorskip("mpmath")
    p = mpmath.mpf(p)

    def f(u):
        return mpmath.exp(x * mpmath.log(u / p) - y * mpmath.exp(-p * mpmath.log1p(-u / p)))

    with mpmath.workdps(30):
        pieces = [0] + [mpmath.mpf(10) ** (k / 8) for k in range(-48, -8)] \
            + mpmath.linspace(0.1, 8, 159) + [60]
        return float(mpmath.log(mpmath.quad(f, pieces, method="gauss-legendre")) - mpmath.log(p))


@pytest.mark.parametrize("p", [1e5, 1e10, 1e20, 1e50, 1e100, 1e150, 1e200, 1.7e308])
def test_steep_profile_moment_matches_mpmath_or_fails(p):
    # The peak sits near r = 1/p.  The moments must match mpmath, also at
    # rel_tol = 1e-12: phi carries about 1 + log(phi) ulps of error, not p
    # ulps, so |K-G| can fall below that tolerance instead of bisecting to
    # the subdivision budget on rounding noise.  Where the curvature
    # y phi''(r*) overflows (p > 1.3e154 at y = 2, lower p at y = 200) the
    # Laplace scale comes from log phi''.
    steep = profile_family("inv_one_minus_pow", {"p": p})
    for x, y in [(1.0, 2.0), (3.0, 2.0), (19.0, 2.0), (5.0, 7.0), (1.0, 200.0)]:
        want = _mp_steep_log_moment(p, x, y)
        for rel_tol in (REL_TOL, 1e-12):
            assert abs(moment_one(steep, x, y, rel_tol=rel_tol) - want) <= 1e-10, (x, y)


def _shell_reference(spec, gamma):
    """log c_gamma^2 from one per-integrand log_integrate call."""
    x, y = 2.0 * gamma.g1 + 1.0, 2.0 * gamma.g2 + 2.0
    if spec.kind == "ball":
        def log_f(r):
            return x * np.log(r) + y * 0.5 * np.log1p(-np.square(r)) - math.log(y)

        return math.log(4 * PI2) + integrate_one(log_f, 0.0, 1.0)
    profile = spec.profile

    def log_f(r):
        with np.errstate(divide="ignore", over="ignore"):
            return x * np.log(r) - y * profile.phi(r)

    presplit = scan_presplit(profile, x, y, 0.0, 1.0, REL_TOL)
    return math.log(2 * PI2) - math.log(gamma.g2 + 1.0) + integrate_one(
        log_f, 0.0, 1.0, presplit=presplit
    )


@pytest.mark.parametrize("spec", [DomainSpec.profile_domain(INV_POW), DomainSpec.ball()],
                         ids=["inv_one_minus_pow", "ball"])
def test_shell_batch_equals_per_integrand_quadrature(spec):
    clear_moment_caches()
    for n in range(61):
        shell = log_c_shells(spec, (n,))[0]
        for k in range(n + 1):
            assert shell[k] == pytest.approx(
                _shell_reference(spec, MultiIndex(k, n - k)), abs=1e-13
            )


def _lone_moment(spec, g1, g2):
    """log c_gamma^2 integrated on its own, as a batch of one."""
    if spec.kind == "profile":
        radial = moment_one(spec.profile, 2.0 * g1 + 1.0, 2.0 * g2 + 2.0)
        return moments._LOG_2PI2 - math.log(g2 + 1.0) + radial
    return moments._region_log_moments(moments._shadow(spec), [(g1, g2)], REL_TOL)[0]


def test_closed_form_walks_skip_the_radial_memo():
    # A dbar walk on the zero and -log(1-r^2) profiles reads the closed
    # forms of M(x, y) on [0, 1], bit for bit, into its shell arrays.
    from reinhardt.hankel import dbar_canonical_report

    clear_moment_caches()
    for profile, radial in CLOSED_FORMS.items():
        spec = DomainSpec.profile_domain(profile)
        dbar_canonical_report(spec, 60)
        for n, shell in enumerate(log_c_shells(spec, range(62))):
            assert shell.tolist() == [
                moments._LOG_2PI2 - math.log(n - g1 + 1.0) + radial(2.0 * g1 + 1.0, 2.0 * (n - g1) + 2.0)
                for g1 in range(n + 1)
            ]


def test_each_closed_form_is_bitwise_its_formula():
    xs = np.array([0.1, 0.5, 1.0, 3.0, 7.3, 41.0, 1e3, 1e7, 2.5e12])
    x, y = (v.ravel() for v in np.meshgrid(xs, np.append(xs, 6e5)))
    for profile, radial in CLOSED_FORMS.items():
        got = profile.log_moment(x, y)
        assert isinstance(got, list)
        assert got == [radial(a, b) for a, b in zip(x.tolist(), y.tolist())]
        # The tracer swaps phi by dataclasses.replace, which keeps the closed form.
        assert dataclasses.replace(profile, phi=profile.phi).log_moment is profile.log_moment


@pytest.mark.parametrize("name", profiles.FAMILIES)
def test_a_family_is_integrated_exactly_when_it_has_no_closed_form(monkeypatch, name):
    profile = profile_family(name, {"p": 1} if name == "inv_one_minus_pow" else None)
    calls = []
    integrate = moments.log_integrate
    monkeypatch.setattr(moments, "log_integrate", lambda *a, **k: calls.append(1) or integrate(*a, **k))
    assert len(log_radial_moment(profile, [1.0, 3.0], [2.0, 4.0])) == 2
    assert bool(calls) == (profile.log_moment is None)


def test_a_closed_form_follows_the_profile_not_its_name():
    # A profile that calls itself "zero" but has another phi integrates that
    # phi: the closed form belongs to the family, not to the name.
    impostor = dataclasses.replace(INV_POW, name="zero", params=())
    got = log_radial_moment(impostor, [3.0, 11.0], [4.0, 40.0])
    assert got == log_radial_moment(INV_POW, [3.0, 11.0], [4.0, 40.0])
    assert got[0] != -math.log(4.0)


def test_shell_member_is_bit_identical_to_lone_moment():
    for spec in (DomainSpec.profile_domain(INV_POW), DomainSpec.ball()):
        clear_moment_caches()
        shell = log_c_shells(spec, (40,))[0].tolist()
        clear_moment_caches()
        assert shell == [_lone_moment(spec, k, 40 - k) for k in range(41)]
        assert shell == [log_c_gamma_sq(spec, MultiIndex(k, 40 - k)) for k in range(41)]


@pytest.mark.parametrize("p", [1.0, 2.5])
def test_walk_packs_are_bit_identical_to_lone_moments(p, monkeypatch):
    # A walk over shells 0..60 integrates 1,891 moments in packs of at most
    # 61 rows that cut across shells; each value equals its lone
    # moment integrated alone bit for bit.  So does every pack over the
    # certificate window [a/2, (1+b)/2].
    from reinhardt.certificate import find_window

    profile = profile_family("inv_one_minus_pow", {"p": p})
    spec = DomainSpec.profile_domain(profile)
    packs = []
    integrate = moments.log_integrate
    monkeypatch.setattr(moments, "log_integrate", lambda log_f, a, *rest, **kw:
                        packs.append(np.size(a)) or integrate(log_f, a, *rest, **kw))
    clear_moment_caches()
    shells = log_c_shells(spec, range(61))
    assert len(packs) == 31 and max(packs) == 61
    gammas = [(k, n - k) for n in range(61) for k in range(n + 1)]
    xs = np.array([2.0 * g1 + 1.0 for g1, _ in gammas])
    ys = np.array([2.0 * g2 + 2.0 for _, g2 in gammas])
    window = find_window(profile)
    inner = (window.inner_lo, window.inner_hi)
    packs.clear()
    packed = moments._interval_moments(profile, xs, ys, *inner, REL_TOL)
    assert len(packs) == 31 and max(packs) == 61
    clear_moment_caches()
    lone = [moment_one(profile, x, y) for x, y in zip(xs, ys)]
    assert np.concatenate(shells).tolist() == [
        moments._LOG_2PI2 - math.log(g2 + 1.0) + m for (_, g2), m in zip(gammas, lone)
    ]
    assert packed == [moment_one(profile, x, y, *inner) for x, y in zip(xs, ys)]


def test_low_order_batches_take_no_more_packs_than_their_shell_has_rows(monkeypatch):
    # 900 rows on shells 0..2 would take packs of at most 3 rows; they take
    # at most 3 packs instead, with the bits of each pair alone.
    packs = []
    integrate = moments.log_integrate
    monkeypatch.setattr(moments, "log_integrate", lambda log_f, a, *rest, **kw:
                        packs.append(np.size(a)) or integrate(log_f, a, *rest, **kw))
    pairs = [(1.0, 2.0), (3.0, 2.0), (1.0, 6.0)] * 300
    got = log_radial_moment(INV_POW, [x for x, _ in pairs], [y for _, y in pairs])
    assert packs == [300, 300, 300]
    assert got == [moment_one(INV_POW, x, y) for x, y in pairs[:3]] * 300


@pytest.mark.parametrize("profile", [INV_POW, profile_family("inv_one_minus_pow", {"p": 1e300}),
                                     NEG_LOG, ZERO], ids=repr)
def test_profile_shell_arrays_are_bitwise_the_scalar_formula(profile):
    # The shells of one request are built as arrays, (2 pi^2 / (g2 + 1)) M
    # in logs; each entry has the bits of the per-gamma Python expression.
    orders = (0, 1, 40)
    clear_moment_caches()
    shells = log_c_shells(DomainSpec.profile_domain(profile), orders)
    clear_moment_caches()
    for n, shell in zip(orders, shells):
        radial = log_radial_moment(profile, [2.0 * g1 + 1.0 for g1 in range(n + 1)],
                                   [2.0 * (n - g1) + 2.0 for g1 in range(n + 1)])
        want = [moments._LOG_2PI2 - math.log(n - g1 + 1.0) + m for g1, m in enumerate(radial)]
        assert [v.hex() for v in shell.tolist()] == [v.hex() for v in want]


def _masked_log_values(x, y, log_r, phi_r):
    """x log r - y phi(r), broadcast, each term masked on a zero exponent so
    that no zero factor meets an infinite log r or phi(r): the reference
    for the fused in-place profile log-integrand."""
    out = np.multiply(x, log_r, out=np.zeros(np.broadcast_shapes(x.shape, log_r.shape)),
                      where=x != 0.0)
    with np.errstate(invalid="ignore"):
        return np.subtract(out, y * phi_r, out=out, where=y != 0.0)


def test_fused_integrand_is_bit_identical_to_the_masked_formula():
    # The profile log-integrand of positive exponents computes in place,
    # with no masks; its bits equal the masked formula's, also at r = 0
    # (log r = -inf) and r = 1 (phi = inf).

    # Node-major, as _eval_panels passes it: one column and one owner per panel.
    r = np.array([[0.0, 1e-300, 0.25, 0.5, 1.0 - 1e-16, 1.0]] * 3).T.copy()
    with np.errstate(divide="ignore", over="ignore"):
        log_r = np.log(r)
    xs, ys = np.array([1.0, 3.0, 401.0]), np.array([2.0, 402.0, 6.0])
    owner = np.arange(3)[None, :]
    for profile in (ZERO, NEG_LOG, INV_POW, profile_family("inv_one_minus_pow", {"p": 1e200})):
        with np.errstate(divide="ignore", over="ignore"):
            phi_r = profile.phi(r)
        # The integrand writes its values over r.
        got = moments._profile_log_integrand(profile, xs, ys)(r.copy(), owner)
        want = _masked_log_values(xs[owner], ys[owner], log_r, phi_r)
        assert got.tobytes() == want.tobytes(), profile


def test_a_profile_phi_may_return_r_itself_or_a_scalar():
    # The profile integrand scales phi(r) in place only when phi returns a
    # writeable array the shape of r that shares no memory with r; phi(r) = r,
    # a view of r, a scalar and a read-only broadcast keep their moments.
    def profile(name, phi):
        return RadialProfile(name=name, phi=phi, dphi=lambda r: 1.0 + 0.0 * np.asarray(r),
                             d2phi=lambda r: 0.0 * np.asarray(r))

    xs, ys = [1.0, 5.0], [2.0, 4.0]
    linear = log_radial_moment(profile("r", lambda r: r), xs, ys)
    assert linear == log_radial_moment(profile("r_copy", lambda r: r + 0.0), xs, ys)
    assert linear == log_radial_moment(profile("r_view", lambda r: r[...]), xs, ys)
    assert linear == log_radial_moment(profile("r_view2", lambda r: r.view()), xs, ys)
    constant = log_radial_moment(profile("half", lambda r: 0.5), xs, ys)
    assert constant == log_radial_moment(profile("half_array", lambda r: np.full(np.shape(r), 0.5)), xs, ys)
    assert constant == log_radial_moment(
        profile("half_broadcast", lambda r: np.broadcast_to(0.5, np.shape(r))), xs, ys)
    assert constant == pytest.approx([-0.5 * y - math.log(x + 1.0) for x, y in zip(xs, ys)], abs=1e-13)


def test_panel_kernel_holds_at_most_three_and_a_half_node_arrays():
    # One _eval_panels call on the initial pack of shell 200 (p = 1): the
    # node table is built in place and the log-integrand, shift, exp and
    # Kronrod weights reuse it, so the call's tracemalloc peak stays near
    # three arrays of its nodes (4.4 when each step allocated its own).
    import tracemalloc

    from reinhardt import moments, quadrature

    g1 = np.arange(201.0)
    xs, ys = 2.0 * g1 + 1.0, 2.0 * (200.0 - g1) + 2.0
    cuts = moments._mesh(*moments._peak_scales(INV_POW, xs, ys, 0.0, 1.0))
    los, his, owner = quadrature._initial_panels(np.zeros(201), np.ones(201), cuts)
    log_f = moments._profile_log_integrand(INV_POW, xs, ys)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        quadrature._eval_panels(log_f, los, his, owner)
        tracemalloc.start()
        try:
            quadrature._eval_panels(log_f, los, his, owner)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 3.5 * los.size * quadrature._XGK.size * 8


def test_certify_walk_locates_its_peaks_in_one_call(monkeypatch):
    # certify p=1 to N = 200 walks shells 0..202 (20,706 moments): one
    # peak_radius call for the whole walk, and one log_integrate call per
    # pack of at most 203 rows, plus the ladder's packs of at most 201 rows:
    # its window masses and their denominators.
    from reinhardt import cli, moments

    peaks, integrals, walk = [], [], []
    locate, integrate, partials = moments.peak_radius, moments.log_integrate, cli.s_alpha_partials
    monkeypatch.setattr(moments, "peak_radius", lambda *a: peaks.append(np.size(a[1])) or locate(*a))
    monkeypatch.setattr(moments, "log_integrate", lambda *a, **k: integrals.append(1) or integrate(*a, **k))

    def counted_partials(*args):
        before = len(peaks)
        result = partials(*args)
        walk.extend(peaks[before:])
        return result

    monkeypatch.setattr(cli, "s_alpha_partials", counted_partials)
    clear_moment_caches()
    argv = ["certify", "--domain", "profile:inv_one_minus_pow:p=1", "--alpha", "2,0",
            "--n-max", "200", "--out", os.devnull]
    assert cli.main(argv) == 0
    assert walk == [20706]
    assert len(integrals) <= 140


def test_one_quadrature_per_shell_and_none_on_closed_forms(monkeypatch):
    from reinhardt import cli, moments

    calls = []
    integrate = moments.log_integrate
    monkeypatch.setattr(moments, "log_integrate", lambda *a, **k: calls.append(1) or integrate(*a, **k))
    clear_moment_caches()
    log_c_shells(DomainSpec.profile_domain(INV_POW), (30,))
    log_c_shells(DomainSpec.ball(), (30,))
    log_c_shells(DomainSpec.ball(), (30,))
    assert len(calls) == 2

    calls.clear()
    for argv in (["moments", "--domain", "polydisc:2", "--n-max", "20"],
                 ["moments", "--domain", "omega0", "--n-max", "20"],
                 ["dbar", "--domain", "polydisc:2", "--n-max", "32"],
                 ["salpha", "--domain", "omega0", "--alpha", "1,1", "--n-max", "32"]):
        assert cli.main(argv + ["--out", os.devnull]) == 0
    assert calls == []


def test_moment_memo_holds_one_array_per_shell():
    # dbar reads shells 0..41 at n-max 40; each is one memo entry, whatever
    # the number of its monomials or of the series that read it.
    from reinhardt import cli, moments

    clear_moment_caches()
    assert cli.main(["dbar", "--domain", "polydisc:2", "--n-max", "40", "--out", os.devnull]) == 0
    spec = DomainSpec.polydisc(2.0)
    assert sorted(moments._MOMENT_MEMO) == sorted(
        (spec, n, REL_TOL) for n in range(42)
    ), list(moments._MOMENT_MEMO)[:5]
    assert [moments._MOMENT_MEMO[(spec, n, REL_TOL)].shape for n in range(42)] == [
        (n + 1,) for n in range(42)
    ]


def test_shell_arrays_are_read_only():
    for spec in (DomainSpec.polydisc(2.0), DomainSpec.ball(), DomainSpec.wiegerinck_omega0()):
        shell, = log_c_shells(spec, (4,))
        with pytest.raises(ValueError):
            shell[0] = 0.0
        with pytest.raises(ValueError):
            shell[:1] += 1.0
    first, again = log_c_shells(DomainSpec.polydisc(2.0), (4, 4.0))
    assert first is again is log_c_shells(DomainSpec.polydisc(2.0), (4,))[0]
    with pytest.raises(InvalidInputError):
        log_c_shells(DomainSpec.ball(), (2, -1))
    with pytest.raises(InvalidInputError):
        log_c_shells(DomainSpec.ball(), (1.5,))


def test_diagonal_shells_hold_one_point_or_none():
    omega0, omegak = DomainSpec.wiegerinck_omega0(), DomainSpec.wiegerinck_omega_k(2)
    assert [shell.size for shell in log_c_shells(omega0, range(7))] == [1, 0, 1, 0, 1, 0, 1]
    assert [shell.size for shell in log_c_shells(omegak, range(9))] == [1, 0, 1, 0, 1, 0, 0, 0, 0]
    for spec in (omega0, omegak):
        assert log_c_shells(spec, (4,))[0][0] == log_c_gamma_sq(spec, MultiIndex(2, 2))
        for gamma in (MultiIndex(1, 0), MultiIndex(3, 1), MultiIndex(0, 4), MultiIndex(2, 1)):
            with pytest.raises(InvalidInputError):
                log_c_gamma_sq(spec, gamma)
    with pytest.raises(InvalidInputError):
        log_c_gamma_sq(omegak, MultiIndex(3, 3))
