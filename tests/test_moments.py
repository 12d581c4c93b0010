import math
import os
from fractions import Fraction

import numpy as np
import pytest

from reinhardt.domains import BoxPiece, DomainSpec, FiberPiece, MultiIndex, RadialRegion, radial_shadow
from reinhardt.errors import InvalidInputError, NumericalFailureError
from reinhardt.moments import (
    DIVERGENT,
    clear_moment_caches,
    log_c_gamma_sq,
    log_c_shells,
    log_profile_interval_moment,
    log_radial_moment,
)
from reinhardt.profiles import profile_family
from reinhardt.quadrature import DEFAULT_SETTINGS, QuadratureSettings, log_integrate

PI2 = math.pi**2

ZERO = profile_family("zero")
NEG_LOG = profile_family("neg_log_one_minus_r2")
INV_POW = profile_family("inv_one_minus_pow", {"p": 1})


def log_factorial_ratio(*, num, den):
    """Exact integer-factorial oracle: log(prod num! / prod den!)."""
    value = Fraction(1)
    for n in num:
        value *= math.factorial(n)
    for d in den:
        value /= math.factorial(d)
    return math.log(value.numerator) - math.log(value.denominator)


def region_moment(region, gamma):
    """log c_gamma^2 over a shadow region, through the domain it defines."""
    return log_c_gamma_sq(DomainSpec.region_domain(region), gamma)


def in_basis(spec, gamma):
    """Whether z^gamma is square-integrable, hence a basis monomial."""
    return log_c_gamma_sq(spec, gamma) != DIVERGENT


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
    assert log_radial_moment(ZERO, 3.0, 7.0) == pytest.approx(math.log(0.25), abs=1e-14)


def test_neg_log_profile_small_case():
    # integral r (1 - r^2) dr = 1/4
    assert log_radial_moment(NEG_LOG, 1.0, 1.0) == pytest.approx(math.log(0.25), abs=1e-13)


def test_neg_log_profile_deep_case_matches_direct_quadrature():
    closed = log_radial_moment(NEG_LOG, 201.0, 400.0)

    def log_f(r):
        r = np.asarray(r, dtype=float)
        return 201.0 * np.log(r) + 400.0 * np.log1p(-r * r)

    direct = log_integrate(log_f, 0.0, 1.0)
    assert direct == pytest.approx(closed, abs=1e-8)


def test_inv_pow_profile_against_tight_tolerance_run():
    coarse = log_radial_moment(INV_POW, 11.0, 6.0, QuadratureSettings(rel_tol=1e-8))
    fine = log_radial_moment(INV_POW, 11.0, 6.0, QuadratureSettings(rel_tol=1e-13))
    assert coarse == pytest.approx(fine, abs=1e-8)


@pytest.mark.parametrize("x, y", [(1, 802), (3, 1002), (201, 2), (0, 2), (11, 40),
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
    assert abs(log_radial_moment(INV_POW, float(x), float(y)) - log_exact) <= 1e-10


def test_moment_input_validation():
    with pytest.raises(InvalidInputError):
        log_radial_moment(ZERO, -1.0, 0.0)
    with pytest.raises(InvalidInputError):
        log_radial_moment(ZERO, math.inf, 0.0)
    with pytest.raises(InvalidInputError):
        log_profile_interval_moment(ZERO, 1.0, 1.0, 0.5, 0.2)


def test_interval_moment_zero_profile():
    # integral_0^0.5 r dr = 1/8
    got = log_profile_interval_moment(ZERO, 1.0, 0.0, 0.0, 0.5)
    assert got == pytest.approx(math.log(0.125), abs=1e-12)


# ---------------------------------------------------------------------------
# Region moments.
# ---------------------------------------------------------------------------


def test_region_moment_polydisc_volume():
    region = radial_shadow(DomainSpec.polydisc(1.0))
    got = region_moment(region, MultiIndex(0, 0))
    assert got == pytest.approx(math.log(PI2), abs=1e-14)


def test_region_moment_ball_example():
    region = radial_shadow(DomainSpec.ball())
    got = region_moment(region, MultiIndex(2, 1))
    assert got == pytest.approx(math.log(PI2 / 60.0), abs=1e-10)


def test_region_moment_of_a_polydisc_split_into_two_boxes():
    # [0, 0.5] x [0, R] and [0.5, 1] x [0, R] sum to the polydisc moment
    # pi^2 R^(2 g2 + 2) / ((g1 + 1)(g2 + 1)) through log_sum_exp.
    radius = 1.5
    region = RadialRegion(pieces=(BoxPiece(0.0, 0.5, 0.0, radius), BoxPiece(0.5, 1.0, 0.0, radius)))
    for gamma in (MultiIndex(0, 0), MultiIndex(3, 2), MultiIndex(0, 17), MultiIndex(25, 4)):
        assert abs(region_moment(region, gamma) - polydisc_oracle(radius, gamma)) <= 1e-13


def test_region_moment_rejects_strip_without_tail_description():
    # the omega_k strip has no tail description, so its shadow is never built
    with pytest.raises(InvalidInputError, match="closed form"):
        region_moment(radial_shadow(DomainSpec.wiegerinck_omega_k(1)), MultiIndex(0, 0))


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
    assert log_c_gamma_sq(omega0, MultiIndex(2, 1)) == DIVERGENT
    assert math.isfinite(log_c_gamma_sq(omega0, MultiIndex(2, 2)))
    assert log_c_gamma_sq(omegak, MultiIndex(3, 3)) == DIVERGENT
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


def test_profile_route_agrees_with_shadow_route():
    # same moment through the radial formula and through the region engine
    for profile in (NEG_LOG, INV_POW):
        spec = DomainSpec.profile_domain(profile)
        region = radial_shadow(spec)
        for gamma in (MultiIndex(0, 0), MultiIndex(3, 2), MultiIndex(10, 1)):
            direct = log_c_gamma_sq(spec, gamma)
            via_region = region_moment(region, gamma)
            assert via_region == pytest.approx(direct, abs=1e-8)


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
    bounded = DomainSpec.region_domain(radial_shadow(DomainSpec.polydisc(1.0)))
    assert in_basis(bounded, MultiIndex(40, 40))


# ---------------------------------------------------------------------------
# Shell batches.
# ---------------------------------------------------------------------------


def scan_presplit(profile, x, y, lo, hi, settings):
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
        threshold = math.log(1.0 / settings.rel_tol) + abs(float(np.max(values[finite])))
        exceeded = np.nonzero(phis >= threshold)[0]
        if exceeded.size:
            cuts.add(float(grid[exceeded[0]]))
    return tuple(c for c in cuts if lo < c < hi)


def _mp_log_integrand(profile, x, y):
    """x log r - y phi(r) in mpmath, a zero exponent dropping its term."""
    mpmath = pytest.importorskip("mpmath")
    p = dict(profile.params).get("p")
    phi = {
        "zero": lambda r: mpmath.mpf(0),
        "neg_log_one_minus_r2": lambda r: -mpmath.log1p(-r * r),
        "inv_one_minus_pow": lambda r: (1 - r) ** -mpmath.mpf(p),
    }[profile.name]
    return lambda r: (x * mpmath.log(r) if x else 0) - (y * phi(r) if y else 0)


def _mp_peak(profile, x, y, lo, hi):
    """The peak of r^x exp(-y phi(r)) on [lo, hi]: the root of
    x - y r phi'(r) when it changes sign there, else the nearer endpoint."""
    mpmath = pytest.importorskip("mpmath")
    p = dict(profile.params).get("p")
    if y == 0 or profile.name == "zero":
        return hi if x > 0 else lo
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
    from reinhardt import moments

    return moments._mesh(*moments._peak_scales(profile, xs, ys, lo, hi))


def test_peak_locator_matches_mpmath():
    # The locator behind the quadrature mesh:
    # r* against mpmath (or the -log(1-r^2) closed form), the mesh scale
    # against the mpmath finite-difference curvature of the log-integrand,
    # and every batch row bitwise equal to the batch of one.
    from reinhardt.profiles import peak_radius

    mpmath = pytest.importorskip("mpmath")
    offsets = np.array([sign * 0.75 * 2.0**j for j in range(10) for sign in (-1.0, 1.0)])
    xs = np.array([0.0, 1.0, 3.0, 11.0, 101.0, 401.0])
    ys = np.array([0.0, 2.0, 6.0, 50.0, 402.0, 1000.0])
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
                # At r* = 0 with x > 0, or r* = 1 with y phi unbounded, the
                # curvature is infinite and the scale 0: every cut sits on r*.
                unbounded = profile.name != "zero"
                scale = 0.0 if (peak == 0.0 and x) or (peak == 1.0 and y and unbounded) else None
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
    import dataclasses

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
        log_profile_interval_moment(steep, 1.0, 2.0, 0.5, 0.9)


def test_a_failing_fiber_moment_is_named_not_its_batch_row():
    # The shell |gamma| = 1 of a fiber r2 < 1/r1 is integrated in one batch.
    # Its moment (0, 1), row 0, integrates r1 * r1^-4 / 4, which is not
    # integrable at r1 = 0, and the quadrature meets +inf there.  Asking for
    # (1, 0) computes the shell, and the error names (0, 1), not
    # "integrand 0 of 2".
    spec = DomainSpec.region_domain(RadialRegion((FiberPiece(0.0, 1.0, log_hi=lambda r: -np.log(r)),)))
    with pytest.raises(InvalidInputError) as failure:
        log_c_gamma_sq(spec, MultiIndex(1, 0))
    assert str(failure.value) == (
        "fiber integral of z^(0,1): log-integrand produced NaN or +inf inside the integration interval"
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
        for settings in (DEFAULT_SETTINGS, QuadratureSettings(rel_tol=1e-12)):
            assert abs(log_radial_moment(steep, x, y, settings) - want) <= 1e-10, (x, y)


def _shell_reference(spec, gamma):
    """log c_gamma^2 from one per-integrand log_integrate call."""
    x, y = 2.0 * gamma.g1 + 1.0, 2.0 * gamma.g2 + 2.0
    if spec.kind == "ball":
        def log_f(r):
            return x * np.log(r) + y * 0.5 * np.log1p(-np.square(r)) - math.log(y)

        return math.log(4 * PI2) + log_integrate(log_f, 0.0, 1.0)
    profile = spec.profile

    def log_f(r):
        with np.errstate(divide="ignore", over="ignore"):
            return x * np.log(r) - y * profile.phi(r)

    presplit = scan_presplit(profile, x, y, 0.0, 1.0, DEFAULT_SETTINGS)
    return math.log(2 * PI2) - math.log(gamma.g2 + 1.0) + log_integrate(
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
    from reinhardt import moments

    if spec.kind == "profile":
        radial = log_radial_moment(spec.profile, 2.0 * g1 + 1.0, 2.0 * g2 + 2.0)
        return moments._LOG_2PI2 - math.log(g2 + 1.0) + radial
    region = moments._shadow(spec)
    return moments._region_log_moments(region, [(g1, g2)], DEFAULT_SETTINGS)[0]


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
    # log_radial_moment bit for bit.  So does every pack over the
    # certificate window [a/2, (1+b)/2].
    from reinhardt import moments
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
    xs = [2.0 * g1 + 1.0 for g1, _ in gammas]
    ys = [2.0 * g2 + 2.0 for _, g2 in gammas]
    window = find_window(profile)
    inner = (window.inner_lo, window.inner_hi)
    packed = moments._interval_moments(profile, xs, ys, *inner, DEFAULT_SETTINGS, pack=61)
    clear_moment_caches()
    lone = [log_radial_moment(profile, x, y) for x, y in zip(xs, ys)]
    assert np.concatenate(shells).tolist() == [
        moments._LOG_2PI2 - math.log(g2 + 1.0) + m for (_, g2), m in zip(gammas, lone)
    ]
    assert packed == [log_profile_interval_moment(profile, x, y, *inner) for x, y in zip(xs, ys)]


def test_fused_integrand_is_bit_identical_to_the_masked_formula():
    # The log-integrand of a batch whose exponents are all positive skips
    # the masks; its bits equal the masked formula's, also at r = 0
    # (log r = -inf) and r = 1 (phi = inf).  A batch with a zero exponent
    # keeps the masks, which drop that term where it is infinite.
    from reinhardt import moments

    r = np.array([[0.0, 1e-300, 0.25, 0.5, 1.0 - 1e-16, 1.0]] * 3)
    with np.errstate(divide="ignore", over="ignore"):
        log_r = np.log(r)
    for profile in (ZERO, NEG_LOG, INV_POW, profile_family("inv_one_minus_pow", {"p": 1e200})):
        with np.errstate(divide="ignore", over="ignore"):
            phi_r = profile.phi(r)
        for xs, ys in (([1.0, 3.0, 401.0], [2.0, 402.0, 6.0]),
                       ([0.0, 3.0, 1.0], [2.0, 0.0, 0.0])):
            xs, ys = np.array(xs), np.array(ys)
            owner = np.arange(3)[:, None]
            got = moments._profile_log_integrand(profile, xs, ys)(r, owner)
            want = moments._profile_log_values(xs[owner], ys[owner], log_r, phi_r)
            assert got.tobytes() == want.tobytes(), (profile, xs, ys)
    masked = moments._profile_log_integrand(INV_POW, np.array([0.0]), np.array([0.0]))
    assert masked(r[:1], np.zeros((1, 1), dtype=int)).tolist() == [[0.0] * 6]


def test_certify_walk_locates_its_peaks_in_one_call(monkeypatch):
    # certify p=1 to N = 200 walks shells 0..202 (20,706 moments): one
    # peak_radius call for the whole walk, and one log_integrate call per
    # pack of at most 203 rows, plus one per ladder point's window masses.
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
        (spec, n, DEFAULT_SETTINGS) for n in range(42)
    ), list(moments._MOMENT_MEMO)[:5]
    assert [moments._MOMENT_MEMO[(spec, n, DEFAULT_SETTINGS)].shape for n in range(42)] == [
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
            assert log_c_gamma_sq(spec, gamma) == DIVERGENT
    assert log_c_gamma_sq(omegak, MultiIndex(3, 3)) == DIVERGENT
