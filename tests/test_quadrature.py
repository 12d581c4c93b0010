import math

import numpy as np
import pytest

from reinhardt.errors import InvalidInputError, NumericalFailureError
from reinhardt.quadrature import DEFAULT_SETTINGS, QuadratureSettings, log_integrate


def log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def test_settings_validation():
    with pytest.raises(InvalidInputError):
        QuadratureSettings(rel_tol=0.0)
    with pytest.raises(InvalidInputError):
        QuadratureSettings(rel_tol=1e-3)  # looser than the allowed ceiling
    with pytest.raises(InvalidInputError):
        QuadratureSettings(max_subdivisions=0)
    assert DEFAULT_SETTINGS.rel_tol == 1e-10


def test_monomial_exactness():
    for power in (0, 1, 3, 10):
        got = log_integrate(lambda r, p=power: p * np.log(r), 0.0, 1.0)
        assert got == pytest.approx(-math.log(power + 1.0), abs=1e-13)


def test_beta_integrand_against_log_gamma():
    # integral_0^1 r^x (1-r^2)^y dr = B((x+1)/2, y+1) / 2
    for x, y in ((1.0, 1.0), (7.0, 3.0), (201.0, 400.0), (0.0, 250.0)):
        def log_f(r, x=x, y=y):
            r = np.asarray(r, dtype=float)
            out = y * np.log1p(-r * r)
            if x:
                out = out + x * np.log(r)
            return out

        got = log_integrate(log_f, 0.0, 1.0)
        want = math.log(0.5) + log_beta(0.5 * (x + 1.0), y + 1.0)
        assert got == pytest.approx(want, abs=1e-8)


def test_huge_scale_never_overflows():
    got = log_integrate(lambda r: 1000.0 * np.asarray(r, dtype=float), 0.0, 1.0)
    want = 1000.0 + math.log1p(-math.exp(-1000.0)) - math.log(1000.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_zero_integrand():
    got = log_integrate(lambda r: np.full_like(np.asarray(r, dtype=float), -np.inf), 0.0, 1.0)
    assert got == -math.inf


def test_presplit_points_are_honored():
    log_f = lambda r: 5 * np.log(r)
    plain = log_integrate(log_f, 0.0, 1.0)
    split = log_integrate(log_f, 0.0, 1.0, presplit=(0.3, 0.7))
    assert split == pytest.approx(plain, rel=1e-12)


def test_budget_exhaustion_carries_best_estimate():
    settings = QuadratureSettings(rel_tol=1e-12, max_subdivisions=2)

    def spiky(r):
        r = np.asarray(r, dtype=float)
        return -5000.0 * np.square(r - 0.31830988618)

    with pytest.raises(NumericalFailureError) as err:
        log_integrate(spiky, 0.0, 1.0, settings)
    assert err.value.best_estimate is not None
    assert err.value.achieved_error > 0


def test_nan_integrand_rejected():
    with pytest.raises(InvalidInputError):
        log_integrate(lambda r: np.where(r > 0.5, np.nan, 0.0), 0.0, 1.0)


def test_empty_interval_rejected():
    with pytest.raises(InvalidInputError):
        log_integrate(lambda r: 0.0 * r, 1.0, 1.0)


def test_determinism_bit_identical():
    log_f = lambda r: 201 * np.log(r) + 400 * np.log1p(-r * r)
    first = log_integrate(log_f, 0.0, 1.0)
    second = log_integrate(log_f, 0.0, 1.0)
    assert first == second


def _beta_log_f(x, y):
    def log_f(r):
        r = np.asarray(r, dtype=float)
        return x * np.log(r) + y * np.log1p(-r * r)

    return log_f


def test_batch_equals_single_calls():
    xs = np.array([1.0, 7.0, 201.0, 3.0])
    ys = np.array([1.0, 3.0, 400.0, 250.0])
    cuts = np.array([[0.3, 0.7, np.nan], [np.nan] * 3, [0.5, 0.5, 0.9], [0.1, 2.0, -1.0]])

    def log_f(r, owner):
        return xs[owner] * np.log(r) + ys[owner] * np.log1p(-r * r)

    got = log_integrate(log_f, np.zeros(4), np.ones(4), presplit=cuts)
    for i in range(4):
        single = log_integrate(_beta_log_f(xs[i], ys[i]), 0.0, 1.0,
                               presplit=[c for c in cuts[i] if not math.isnan(c)])
        assert got[i] == single
    assert log_integrate(log_f, np.zeros(0), np.ones(0)).size == 0


def test_batch_failure_carries_the_failing_integrand():
    settings = QuadratureSettings(rel_tol=1e-12, max_subdivisions=2)
    centers = np.array([0.5, 0.31830988618])
    widths = np.array([1.0, 5000.0])

    def log_f(r, owner):
        return -widths[owner] * np.square(r - centers[owner])

    with pytest.raises(NumericalFailureError) as batched:
        log_integrate(log_f, np.zeros(2), np.ones(2), settings)
    with pytest.raises(NumericalFailureError) as alone:
        log_integrate(lambda r: -5000.0 * np.square(r - 0.31830988618), 0.0, 1.0, settings)
    assert batched.value.best_estimate == pytest.approx(alone.value.best_estimate, abs=1e-13)
    assert batched.value.achieved_error == pytest.approx(alone.value.achieved_error, rel=1e-12)

    def nan_second(r, owner):
        return np.where((owner == 1) & (r > 0.5), np.nan, 0.0)

    with pytest.raises(InvalidInputError, match="integrand 1 of 2"):
        log_integrate(nan_second, np.zeros(2), np.ones(2))


def test_a_log_f_may_write_its_values_over_r():
    # log_f may overwrite the radii it is given and return them; the
    # integrals are then bitwise those of a log_f returning a new array.
    xs, ys = np.array([1.0, 7.0, 201.0]), np.array([1.0, 3.0, 400.0])

    def fresh(r, owner):
        return xs[owner] * np.log(r) + ys[owner] * np.log1p(-r * r)

    def in_place(r, owner):
        t = np.log1p(-r * r) * ys[owner]
        r = np.log(r, out=r)
        r *= xs[owner]
        r += t
        return r

    batch = log_integrate(fresh, np.zeros(3), np.ones(3))
    assert log_integrate(in_place, np.zeros(3), np.ones(3)).tobytes() == batch.tobytes()
    zero = np.zeros(1, dtype=int)
    scalar = log_integrate(lambda r: in_place(r, zero), 0.0, 1.0)
    assert scalar == log_integrate(lambda r: fresh(r, zero), 0.0, 1.0) == batch[0]


def test_log_integrate_never_writes_into_an_array_log_f_keeps():
    # A log_f that returns an array it holds on to, as a cache would, finds
    # it unchanged after the call.
    kept = []

    def keeping(r, owner=0):
        values = 201.0 * np.log(r) + (owner + 400.0) * np.log1p(-r)
        kept.append((values, values.copy()))
        return values

    got = log_integrate(keeping, 0.0, 1.0)
    batch = log_integrate(keeping, np.zeros(2), np.ones(2))
    assert len(kept) > 2
    assert all(values.tobytes() == copy.tobytes() for values, copy in kept)
    assert got == batch[0] == pytest.approx(log_beta(202.0, 401.0), rel=1e-12)
