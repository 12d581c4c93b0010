import math
import random

import numpy as np
import pytest

from reinhardt.errors import InvalidInputError
from reinhardt.profiles import profile_family

FAMILIES = [
    profile_family("zero"),
    profile_family("neg_log_one_minus_r2"),
    profile_family("inv_one_minus_pow", {"p": 1}),
    profile_family("inv_one_minus_pow", {"p": 2.5}),
]


def test_zero_family_values():
    zero = profile_family("zero")
    assert float(zero.phi(0.5)) == 0.0
    assert float(zero.dphi(0.5)) == 0.0
    assert float(zero.d2phi(0.5)) == 0.0


def test_neg_log_family_values():
    prof = profile_family("neg_log_one_minus_r2")
    assert float(prof.phi(0.5)) == pytest.approx(-math.log(0.75), rel=1e-15)
    assert float(prof.dphi(0.5)) == pytest.approx(1.0 / 0.75, rel=1e-15)


def test_inv_pow_family_values():
    prof = profile_family("inv_one_minus_pow", {"p": 1})
    assert float(prof.phi(0.5)) == pytest.approx(2.0, rel=1e-15)
    assert float(prof.dphi(0.5)) == pytest.approx(4.0, rel=1e-15)
    assert float(prof.d2phi(0.5)) == pytest.approx(16.0, rel=1e-15)


@pytest.mark.parametrize("p", [1.0, 2.5, 1e5, 1e20, 1e50])
def test_inv_pow_values_match_mpmath_at_every_scale(p):
    # (1-r)^-(p+k) must stay accurate where 1 - r rounds: at p = 1e50 and
    # r = 1e-60 phi is 1 + 1e-10, not 1, and at p = 1e5 the rounding of
    # 1 - r must not cost p ulps.
    mpmath = pytest.importorskip("mpmath")
    prof = profile_family("inv_one_minus_pow", {"p": p})
    checked = 0
    with mpmath.workdps(50), np.errstate(over="ignore"):
        mp = mpmath.mpf(p)
        for r in (1e-300, 1e-60, 1e-30, 1e-17, 1e-8, 1e-3, 0.3, 0.5, 0.9, 1.0 - 1e-9):
            log_base = mpmath.log1p(-mpmath.mpf(r))
            for got, want in ((prof.phi(r), mpmath.exp(-mp * log_base)),
                              (prof.dphi(r), mp * mpmath.exp(-(mp + 1) * log_base)),
                              (prof.d2phi(r), mp * (mp + 1) * mpmath.exp(-(mp + 2) * log_base))):
                if want < 1e300:
                    assert abs(float(got) / want - 1) <= 1e-12, (r, float(got), want)
                    checked += 1
                else:
                    assert float(got) > 1e299, (r, float(got))
    assert checked >= 6


def test_unknown_family_and_bad_params():
    with pytest.raises(InvalidInputError):
        profile_family("cosh")
    with pytest.raises(InvalidInputError):
        profile_family("inv_one_minus_pow")
    with pytest.raises(InvalidInputError):
        profile_family("inv_one_minus_pow", {"p": -1})
    with pytest.raises(InvalidInputError):
        profile_family("inv_one_minus_pow", {"p": True})  # once read as p = 1
    for p in ("x", 10**400):  # once raw TypeErrors
        with pytest.raises(InvalidInputError):
            profile_family("inv_one_minus_pow", {"p": p})
    with pytest.raises(InvalidInputError):
        profile_family("zero", {"p": 1})


def test_identity_is_name_and_params():
    a = profile_family("inv_one_minus_pow", {"p": 1})
    b = profile_family("inv_one_minus_pow", {"p": 1})
    c = profile_family("inv_one_minus_pow", {"p": 2})
    assert a == b and hash(a) == hash(b)
    assert a != c


@pytest.mark.parametrize("profile", FAMILIES, ids=lambda p: repr(p))
def test_derivatives_match_finite_differences(profile):
    # 100 random interior points; centered differences against the
    # analytic first and second derivatives, relative 1e-5.
    rng = random.Random(20240613)
    for _ in range(100):
        r = 0.05 + 0.90 * rng.random()
        h1 = 1e-6 * min(r, 1.0 - r)
        fd1 = (float(profile.phi(r + h1)) - float(profile.phi(r - h1))) / (2.0 * h1)
        d1 = float(profile.dphi(r))
        assert fd1 == pytest.approx(d1, rel=1e-5, abs=1e-9)
        h2 = 1e-4 * min(r, 1.0 - r)
        fd2 = (
            float(profile.phi(r + h2)) - 2.0 * float(profile.phi(r)) + float(profile.phi(r - h2))
        ) / (h2 * h2)
        d2 = float(profile.d2phi(r))
        assert fd2 == pytest.approx(d2, rel=1e-5, abs=1e-9)


@pytest.mark.parametrize("profile", FAMILIES, ids=lambda p: repr(p))
def test_profiles_are_finite_on_their_domain(profile):
    for r in (1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9):
        assert math.isfinite(float(profile.phi(r)))
    for r in (1e-9, 0.5, 1.0 - 1e-9):
        assert math.isfinite(float(profile.dphi(r)))
        assert math.isfinite(float(profile.d2phi(r)))


EDGES = [0.0, 1e-300, 0.25, 1.0 - 1e-16, 1.0]


@pytest.mark.parametrize("p", [1.0, 2.5, 1e5])
def test_inv_pow_is_bitwise_the_log1p_form(p):
    # phi, phi' and phi'' are p-scaled (1-r)^-(p+k) = exp(-(p+k) log1p(-r)),
    # bit for bit; they give np.float64 for a float and leave r untouched.
    prof = profile_family("inv_one_minus_pow", {"p": p})
    r = np.array(EDGES)
    for k, f, scale in ((0.0, prof.phi, None), (1.0, prof.dphi, p), (2.0, prof.d2phi, p * (p + 1.0))):
        with np.errstate(divide="ignore", over="ignore"):
            want = np.exp(-(p + k) * np.log1p(-r))
            want = want if scale is None else scale * want
            got = f(r)
            assert all(type(f(v)) is np.float64 and f(v) == w for v, w in zip(EDGES, want))
        assert got.tobytes() == want.tobytes()
        assert r.tolist() == EDGES


def test_neg_log_phi_is_bitwise_the_log1p_form():
    prof = profile_family("neg_log_one_minus_r2")
    r = np.array(EDGES)
    with np.errstate(divide="ignore"):
        want = -np.log1p(-np.square(r))
        assert prof.phi(r).tobytes() == want.tobytes()
        assert all(type(prof.phi(v)) is np.float64 and prof.phi(v) == w for v, w in zip(EDGES, want))
    assert r.tolist() == EDGES
