import math
import random
from collections import Counter

import numpy as np
import pytest

from reinhardt import certificate, moments, quadrature
from reinhardt.certificate import (
    Window,
    certificate_ladder,
    check_subharmonic,
    density_mass,
    find_window,
    index_window,
    lambda_alpha,
)
from reinhardt.domains import DomainSpec, MultiIndex
from reinhardt.errors import InvalidInputError, NumericalFailureError
from reinhardt.hankel import s_alpha_partials, sample_ladder
from reinhardt.profiles import RadialProfile, peak_radius, profile_family

from oracles import mass_one, moment_one

ZERO = profile_family("zero")
NEG_LOG = profile_family("neg_log_one_minus_r2")
INV_POW = profile_family("inv_one_minus_pow", {"p": 1})

CONCAVE = RadialProfile(
    name="synthetic_concave_r2",
    phi=lambda r: -np.square(np.asarray(r, dtype=float)),
    dphi=lambda r: -2.0 * np.asarray(r, dtype=float),
    d2phi=lambda r: -2.0 + 0.0 * np.asarray(r, dtype=float),
)


def test_subharmonicity_of_built_ins():
    # neg_log: laplacian is 4/(1-r^2)^2, minimum 4 at r -> 0
    check = check_subharmonic(NEG_LOG)
    assert check.passed
    assert check.worst_margin == pytest.approx(4.0, rel=1e-3)
    assert check_subharmonic(INV_POW).passed
    assert check_subharmonic(ZERO).passed


def test_subharmonicity_failure_margin():
    check = check_subharmonic(CONCAVE)
    assert not check.passed
    assert check.worst_margin == pytest.approx(-4.0, rel=1e-9)


def test_find_window_neg_log():
    # r phi'(r) = 2 r^2/(1-r^2) reaches 0.1 at r = sqrt(1/21)
    window = find_window(NEG_LOG)
    assert window.a == pytest.approx(math.sqrt(0.1 / 2.1), abs=2e-4)
    assert window.A >= 0.1
    assert window.b == pytest.approx(0.5 * (window.a + 1.0), rel=1e-12)
    assert window.B > window.A


def test_find_window_inv_pow():
    # r/(1-r)^2 = 0.1 at r = 6 - sqrt(35)
    window = find_window(INV_POW)
    assert window.a == pytest.approx(6.0 - math.sqrt(35.0), abs=2e-4)
    assert window.A >= 0.1


@pytest.mark.parametrize("profile", [NEG_LOG] + [
    profile_family("inv_one_minus_pow", {"p": p}) for p in (0.01, 0.1, 1, 2.5, 100, 1000)],
    ids=repr)
def test_a_built_in_window_puts_b_halfway_from_a_to_1(profile):
    # r phi'(r) does not decrease on a subharmonic profile, and phi(b) stays
    # infinite past its first overflow, so no b nearer 1 than (a+1)/2 helps.
    window = find_window(profile)
    assert window.b == 0.5 * (window.a + 1.0)


def test_find_window_rejects_flat_profile():
    with pytest.raises(InvalidInputError):
        find_window(ZERO)


def test_window_validation():
    with pytest.raises(InvalidInputError):
        Window(a=0.5, b=0.4, A=1.0, B=2.0)
    with pytest.raises(InvalidInputError):
        Window(a=0.2, b=0.5, A=1.0, B=1.0)


def test_log_ratio_examples():
    def log_ratio(profile, x, y, alpha):
        # log of M(x + 2 a1, y + 2 a2) / M(x, y)
        return moment_one(profile, x + 2.0 * alpha.g1, y + 2.0 * alpha.g2) \
            - moment_one(profile, x, y)

    got = log_ratio(ZERO, 1.0, 3.0, MultiIndex(1, 0))
    assert got == pytest.approx(math.log(0.5), abs=1e-12)
    got = log_ratio(NEG_LOG, 1.0, 2.0, MultiIndex(0, 1))
    assert got == pytest.approx(math.log(3.0 / 5.0), abs=1e-12)
    assert log_ratio(NEG_LOG, 3.0, 5.0, MultiIndex(0, 0)) == 0.0


def critical_point(profile, x, y, window):
    """The peak of r^x exp(-y phi(r)) inside the window, the root of x = y r phi'(r)."""
    return float(peak_radius(profile, np.array([x]), np.array([y]), window.a, window.b)[0])


def test_critical_point_closed_form():
    # for phi = -log(1-r^2): x - y r phi' = 0 at r = sqrt(x/(x+2y))
    window = find_window(NEG_LOG)
    got = critical_point(NEG_LOG, 1.0, 1.0, window)
    assert got == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-9)
    # a wider hand-built window admits the steeper ratio x/y = 2
    wide = Window(a=0.3, b=0.9, A=2 * 0.09 / 0.91, B=2 * 0.81 / 0.19)
    got = critical_point(NEG_LOG, 2.0, 1.0, wide)
    assert got == pytest.approx(math.sqrt(0.5), abs=1e-9)


def test_root_bracketing_inside_window():
    rng = random.Random(99)
    for profile in (NEG_LOG, INV_POW):
        window = find_window(profile)
        for _ in range(30):
            ratio = window.A + (window.B - window.A) * rng.uniform(0.01, 0.99)
            y = rng.uniform(1.0, 300.0)
            x = ratio * y
            f_a = x - y * float(profile.dphi(window.a)) * window.a
            f_b = x - y * float(profile.dphi(window.b)) * window.b
            assert f_a > 0.0 > f_b


def test_density_mass_normalization_and_zero_profile():
    assert mass_one(NEG_LOG, 3.0, 5.0, (0.0, 1.0)) == 1.0
    assert mass_one(ZERO, 1.0, 2.0, (0.0, 0.5)) == pytest.approx(0.25, abs=1e-12)


def test_density_mass_window_inequality_sample():
    rng = random.Random(5)
    for profile in (NEG_LOG, INV_POW):
        window = find_window(profile)
        interval = (window.inner_lo, window.inner_hi)
        for _ in range(10):
            ratio = window.A + (window.B - window.A) * rng.uniform(0.01, 0.99)
            y = rng.uniform(1.0, 500.0)
            mass = mass_one(profile, ratio * y, y, interval)
            assert mass >= 0.5 - 1e-6


def test_density_unimodality_on_grid():
    window = find_window(NEG_LOG)
    x, y = 41.0, 62.0
    assert window.A < x / y < window.B
    grid = np.linspace(1e-6, 1.0 - 1e-6, 1000)
    logs = x * np.log(grid) - y * np.asarray(NEG_LOG.phi(grid), dtype=float)
    values = np.exp(logs - logs.max())
    peak = int(np.argmax(values))
    rising = np.diff(values[: peak + 1])
    falling = np.diff(values[peak:])
    assert (rising >= -1e-6).all()
    assert (falling <= 1e-6).all()
    rho = critical_point(NEG_LOG, x, y, window)
    assert abs(grid[peak] - rho) <= 2.0 * (grid[1] - grid[0])


def test_index_window_enumeration():
    # the real interval at n = 100 is (50.25, 75.625)
    window = Window(a=0.5, b=0.9, A=1.0, B=3.0)
    assert index_window(window, 100) == list(range(51, 76))
    assert len(index_window(window, 10)) == 3
    # every returned k satisfies the ratio condition
    for n in (10, 100):
        for k in index_window(window, n):
            ratio = (2 * k + 1) / (2 * n - 2 * k + 2)
            assert window.A < ratio < window.B


def test_index_window_count_linearity():
    window = find_window(NEG_LOG)
    density = window.B / (window.B + 1.0) - window.A / (window.A + 1.0)
    for n in (50, 100, 200, 400, 800):
        count = len(index_window(window, n))
        assert abs(count / n - density) <= 2.0 / n


def test_lambda_alpha_closed_cases():
    window = find_window(NEG_LOG)
    assert lambda_alpha(NEG_LOG, MultiIndex(0, 0), window) == pytest.approx(0.5, rel=1e-12)
    # alpha = (1,0): the factor r^2 increases, so the minimum sits at a/2
    want = 0.5 * (window.a / 2.0) ** 2
    assert lambda_alpha(NEG_LOG, MultiIndex(1, 0), window) == pytest.approx(want, rel=1e-9)
    # alpha = (0,1): exp(-2 phi) decreases, so the minimum sits at (1+b)/2
    hi = window.inner_hi
    want = 0.25 * math.exp(-2.0 * float(NEG_LOG.phi(hi)))
    assert lambda_alpha(NEG_LOG, MultiIndex(0, 1), window) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize(
    "profile", [NEG_LOG, INV_POW, profile_family("inv_one_minus_pow", {"p": 2.5})],
    ids=["neg_log", "inv_pow_1", "inv_pow_2.5"],
)
@pytest.mark.parametrize("alpha", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 1)])
def test_lambda_alpha_is_the_endpoint_minimum(profile, alpha):
    # 2 a1 log r - 2 a2 phi(r) is concave for convex phi: its minimum over
    # [a/2, (1+b)/2] is at an endpoint, never above any interior sample.
    alpha = MultiIndex(*alpha)
    window = find_window(profile)
    lo, hi = window.inner_lo, window.inner_hi
    ends = [2.0 * alpha.g1 * math.log(r) - 2.0 * alpha.g2 * float(profile.phi(r)) for r in (lo, hi)]
    got = lambda_alpha(profile, alpha, window)
    assert got == math.exp(min(ends)) / (2.0 * (1.0 + alpha.g2))
    grid = np.linspace(lo, hi, 10**4)
    sampled = 2.0 * alpha.g1 * np.log(grid) - 2.0 * alpha.g2 * profile.phi(grid)
    # numpy and math logs may differ in the last bit at the shared endpoint
    assert got <= np.exp(sampled.min()) / (2.0 * (1.0 + alpha.g2)) * (1.0 + 1e-13)


def test_lambda_alpha_rejects_concave_profiles():
    window = Window(a=0.2, b=0.6, A=1.0, B=2.0)
    with pytest.raises(InvalidInputError, match="not convex"):
        lambda_alpha(CONCAVE, MultiIndex(1, 1), window)


def test_certificate_soundness_small():
    spec = DomainSpec.profile_domain(NEG_LOG)
    for alpha in (MultiIndex(1, 0), MultiIndex(1, 1)):
        entry = certificate_ladder(NEG_LOG, alpha, (50,)).entries[-1]
        partial = s_alpha_partials(spec, alpha, (50,))[0][1]
        assert entry.bound <= partial + 1e-9
        assert entry.bound > 0
        assert entry.prefactor_min >= 1.0 / (1.0 + alpha.g2) - 1e-12
        assert min(m for _, m in entry.mass_checks) >= 0.5 - 1e-6


def test_certificate_rejects_zero_alpha_and_concave_profiles():
    with pytest.raises(InvalidInputError):
        certificate_ladder(NEG_LOG, MultiIndex(0, 0), (50,))
    with pytest.raises(InvalidInputError):
        certificate_ladder(CONCAVE, MultiIndex(1, 0), (50,))


@pytest.mark.parametrize("p, alpha", [(5, (0, 1)), (10, (1, 1)), (10, (0, 2))])
def test_a_vacuous_certificate_is_refused_before_any_mass(monkeypatch, p, alpha):
    # exp(-2 a2 phi) underflows at the window's right end, so the weight is
    # 0, and a bound of 0 certifies nothing.
    profile, alpha = profile_family("inv_one_minus_pow", {"p": p}), MultiIndex(*alpha)
    assert lambda_alpha(profile, alpha, find_window(profile)) == 0.0
    monkeypatch.setattr(certificate, "density_mass", lambda *a, **k: pytest.fail("mass checked"))
    with pytest.raises(InvalidInputError, match=rf"alpha=\({alpha.g1},{alpha.g2}\).* is 0, not a "
                       "positive normal float"):
        certificate_ladder(profile, alpha, (200,))


@pytest.mark.parametrize("lam, refused", [(0.0, True), (5e-324, True), (math.nan, True),
                                          (np.finfo(float).tiny, False)])
def test_the_weight_must_be_a_positive_normal_float(monkeypatch, lam, refused):
    monkeypatch.setattr(certificate, "lambda_alpha", lambda *args: lam)
    if refused:
        with pytest.raises(InvalidInputError, match="not a positive normal float"):
            certificate_ladder(INV_POW, MultiIndex(1, 1), (40,))
    else:
        assert certificate_ladder(INV_POW, MultiIndex(1, 1), (40,)).lam == lam


def test_certificate_counts_are_nearly_affine():
    ladder = certificate_ladder(NEG_LOG, MultiIndex(1, 1), (40, 80, 120, 160))
    ns = np.array([e.n for e in ladder.entries], dtype=float)
    counts = np.array([e.count for e in ladder.entries], dtype=float)
    slope, intercept = np.polyfit(ns, counts, 1)
    assert (np.abs(counts - (intercept + slope * ns)) <= 1.0 + 1e-9).all()


def test_certificate_ladder_checks_the_profile_once(monkeypatch):
    # The profile checks run once per ladder, and so does density_mass: one
    # batch for every rung's window, with one peak pass for the masses on
    # [a/2, (1+b)/2] and one for their denominators M(x, y) on [0, 1], which
    # no memo keeps, so a walk run first saves none of them.  The batch is
    # integrated in packs no larger than the walk's largest.
    alpha, ns = MultiIndex(1, 1), sample_ladder(200)
    calls, packs = Counter(), {"walk": [], "ladder": []}
    integrate = moments.log_integrate

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def packing(stage):
        monkeypatch.setattr(moments, "log_integrate", lambda log_f, a, *rest, **kw:
                            packs[stage].append(np.size(a)) or integrate(log_f, a, *rest, **kw))

    moments.clear_moment_caches()
    packing("walk")
    s_alpha_partials(DomainSpec.profile_domain(INV_POW), alpha, ns)
    packing("ladder")
    for module, name in ((certificate, "check_subharmonic"), (certificate, "lambda_alpha"),
                         (certificate, "density_mass"), (moments, "peak_radius")):
        counting(module, name)
    certificate_ladder(INV_POW, alpha, ns)
    assert calls["check_subharmonic"] == 1
    assert calls["lambda_alpha"] == 1
    assert calls["density_mass"] == 1
    assert calls["peak_radius"] == 2
    assert sum(packs["ladder"]) == 2 * sum(len(index_window(find_window(INV_POW), n)) for n in ns)
    assert max(packs["ladder"]) <= max(packs["walk"])


@pytest.mark.parametrize("p, alpha", [(1, (1, 1)), (2.5, (1, 0)), (1e5, (1, 1))])
def test_profile_packs_converge_on_their_first_kernel_pass(monkeypatch, p, alpha):
    # The Laplace mesh cuts each integrand where the refinement round would
    # bisect it, so a pack of the walk or the ladder evaluates its panels
    # once: at n-max 60, 29 of the 30 walk packs on p=1 and all of them on
    # p=2.5 and p=1e5.  p=1e5 has no certificate window, so only its walk runs.
    profile = profile_family("inv_one_minus_pow", {"p": p})
    alpha, ns = MultiIndex(*alpha), sample_ladder(60)
    passes = []
    integrate, evaluate = moments.log_integrate, quadrature._eval_panels
    monkeypatch.setattr(moments, "log_integrate",
                        lambda *args, **kw: passes.append(0) or integrate(*args, **kw))

    def counted(*args):
        passes[-1] += 1
        return evaluate(*args)

    monkeypatch.setattr(quadrature, "_eval_panels", counted)
    moments.clear_moment_caches()
    s_alpha_partials(DomainSpec.profile_domain(profile), alpha, ns)
    walk = list(passes)
    assert walk and max(walk) <= 2 and walk.count(2) <= 1, walk
    if p < 1e5:
        passes.clear()
        certificate_ladder(profile, alpha, ns)
        assert passes and set(passes) == {1}, passes


def _per_rung_masses(profile, window, ns):
    """The masses of each rung's window from one density_mass call a rung."""
    return [density_mass(profile, [2.0 * k + 1.0 for k in ks], [2.0 * (n - k) + 2.0 for k in ks],
                         (window.inner_lo, window.inner_hi))
            for n, ks in ((n, index_window(window, n)) for n in ns)]


@pytest.mark.parametrize("profile, ns", [
    (INV_POW, (25, 50, 100, 200)),
    (NEG_LOG, (25, 50, 100, 200)),
    (INV_POW, (1, 10, 1, 30)),
    (NEG_LOG, (1,)),
    (INV_POW, (10, 5)),
    (INV_POW, (5, 5)),
])
def test_ladder_batch_masses_are_bitwise_the_per_rung_masses(profile, ns):
    # One density_mass batch over every rung gives each mass the bits of a
    # call for its rung alone, also with empty windows (n = 1) and with
    # rungs repeated or out of order.  The -log(1-r^2) denominators are the
    # closed form.
    ladder = certificate_ladder(profile, MultiIndex(1, 1), ns)
    per_rung = _per_rung_masses(profile, ladder.window, ns)
    assert [[mass.hex() for _, mass in entry.mass_checks] for entry in ladder.entries] == \
        [[mass.hex() for mass in masses] for masses in per_rung]
    assert [entry.n for entry in ladder.entries] == list(ns)
    assert [entry.count for entry in ladder.entries] == [len(masses) for masses in per_rung]


def test_the_shell_arrays_are_the_only_moment_memo():
    # After a walk, the moments layer holds one memo, the shell arrays; the
    # certificate integrates its window moments afresh at every ladder, so
    # a ladder repeats itself exactly and its masses are bitwise the masses
    # of a ladder run with cold caches.
    alpha, ns = MultiIndex(1, 1), (40, 80)
    moments.clear_moment_caches()
    s_alpha_partials(DomainSpec.profile_domain(INV_POW), alpha, ns)
    first = certificate_ladder(INV_POW, alpha, ns)
    memos = [name for name, value in vars(moments).items()
             if isinstance(value, dict) and not name.startswith("__")]
    assert memos == ["_MOMENT_MEMO"] and moments._MOMENT_MEMO
    assert certificate_ladder(INV_POW, alpha, ns) == first
    moments.clear_moment_caches()
    assert moments._MOMENT_MEMO == {}
    cold = certificate_ladder(INV_POW, alpha, ns)

    def masses(ladder):
        return [mass.hex() for entry in ladder.entries for _, mass in entry.mass_checks]

    assert masses(cold) == masses(first) and len(masses(cold)) > 0


def test_density_mass_batch_matches_scalar_calls():
    # A single mass is a batch of one.
    window = find_window(INV_POW)
    interval = (window.inner_lo, window.inner_hi)
    xs, ys = [41.0, 61.0, 81.0], [162.0, 142.0, 122.0]
    batch = density_mass(INV_POW, xs, ys, interval)
    moments.clear_moment_caches()
    assert batch == [mass_one(INV_POW, x, y, interval) for x, y in zip(xs, ys)]
    assert density_mass(INV_POW, [], [], interval) == []
    with pytest.raises(InvalidInputError):
        density_mass(INV_POW, xs, ys[:2], interval)
    # once a raw ValueError from unpacking, and a TypeError for None
    for interval in ((0.1, 0.2, 0.3), None):
        with pytest.raises(InvalidInputError, match="must be a pair"):
            density_mass(INV_POW, [1.0], [1.0], interval)


@pytest.mark.parametrize("mass, fails", [(0.5 - 1e-7, True), (0.5, False)])
def test_window_mass_check_has_no_slack(monkeypatch, mass, fails):
    # The bound counts every window index at mass >= 1/2, so a mass a hair
    # below 1/2 must fail the certificate; exactly 1/2 passes.
    real = certificate.density_mass

    def one_low(*args, **kwargs):
        masses = real(*args, **kwargs)
        masses[len(masses) // 2] = mass
        return masses

    monkeypatch.setattr(certificate, "density_mass", one_low)
    if fails:
        with pytest.raises(NumericalFailureError, match="window mass"):
            certificate_ladder(INV_POW, MultiIndex(1, 1), (40,))
    else:
        entry = certificate_ladder(INV_POW, MultiIndex(1, 1), (40,)).entries[0]
        assert min(m for _, m in entry.mass_checks) == 0.5
