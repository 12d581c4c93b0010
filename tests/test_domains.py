import math

import numpy as np
import pytest

from reinhardt import moments
from reinhardt.domains import DomainSpec, MultiIndex
from reinhardt.errors import InvalidInputError
from reinhardt.profiles import profile_family


def test_multi_index_validation_and_arithmetic():
    g = MultiIndex(2, 3)
    assert g.order == 5
    with pytest.raises(InvalidInputError):
        MultiIndex(-1, 0)
    with pytest.raises(InvalidInputError):
        MultiIndex(0.5, 0)


LATTICE_DOMAINS = (
    DomainSpec.polydisc(2.0), DomainSpec.ball(), DomainSpec.profile_domain(profile_family("zero")),
    DomainSpec.wiegerinck_omega0(), DomainSpec.wiegerinck_omega_k(2),
)


def test_lattice_membership():
    polydisc, ball, profile, omega0, omega_k = LATTICE_DOMAINS
    for full in (polydisc, ball, profile):
        assert not full.diagonal
        assert full.contains(MultiIndex(7, 0))
        assert full.contains(MultiIndex(3, 2))
    assert omega0.diagonal and omega_k.diagonal
    assert omega0.contains(MultiIndex(3, 3))
    assert not omega0.contains(MultiIndex(3, 2))
    assert omega_k.contains(MultiIndex(2, 2))
    assert not omega_k.contains(MultiIndex(3, 3))


def test_lattice_shells_list_the_lattice_points():
    for spec in LATTICE_DOMAINS:
        for n in range(-2, 12):
            points = [g1 for g1 in range(n + 1) if spec.contains(MultiIndex(g1, n - g1))]
            assert list(spec.shell(n)) == points, (spec, n)


@pytest.mark.parametrize(
    "spec, expected",
    [
        (DomainSpec.polydisc(1.0), lambda g: True),
        (DomainSpec.ball(), lambda g: True),
        (DomainSpec.profile_domain(profile_family("zero")), lambda g: True),
        (DomainSpec.wiegerinck_omega0(), lambda g: g.g1 == g.g2),
        (DomainSpec.wiegerinck_omega_k(3), lambda g: g.g1 == g.g2 <= 3),
    ],
    ids=["polydisc", "ball", "profile", "omega0", "omega_k3"],
)
def test_lattice_matches_variant_up_to_order_50(spec, expected):
    for order in range(51):
        for g1 in range(order + 1):
            gamma = MultiIndex(g1, order - g1)
            assert spec.contains(gamma) == expected(gamma)


def test_domain_constructors_validate():
    with pytest.raises(InvalidInputError):
        DomainSpec.polydisc(0.0)
    with pytest.raises(InvalidInputError):
        DomainSpec.polydisc(True)  # once read as the radius 1
    # once raw TypeError and OverflowError; numpy scalars stay numbers
    for value in ("x", None, 10**400):
        with pytest.raises(InvalidInputError):
            DomainSpec.polydisc(value)
    assert DomainSpec.polydisc(np.float32(2.0)) == DomainSpec.polydisc(np.int64(2)) == DomainSpec.polydisc(2.0)
    with pytest.raises(InvalidInputError):
        DomainSpec.wiegerinck_omega_k(0)
    # built directly, omega_k without k would read as omega0's lattice
    for kind, k in (("omega_k", None), ("omega0", 2)):
        with pytest.raises(InvalidInputError):
            DomainSpec(kind, k=k)


# The polydisc's and the ball's shadows are private to the moments layer.


def test_polydisc_shadow_is_a_box():
    piece, = moments._shadow(DomainSpec.polydisc(2.0))
    assert piece == moments._Box(0.0, 1.0, 0.0, 2.0)


def test_ball_fiber_is_pythagorean():
    piece, = moments._shadow(DomainSpec.ball())
    assert (piece.r1_lo, piece.r1_hi) == (0.0, 1.0)
    assert math.exp(float(piece.log_hi(np.array(0.6)))) == pytest.approx(0.8, rel=1e-15)


def test_omega0_shadow_is_not_built(monkeypatch):
    # The shadow is unbounded; the moments are the closed form.
    def no_shadow(spec):
        raise AssertionError(f"shadow of {spec.describe()} built")

    monkeypatch.setattr(moments, "_shadow", no_shadow)
    moments.clear_moment_caches()
    for spec in (DomainSpec.wiegerinck_omega0(), DomainSpec.wiegerinck_omega_k(2)):
        assert all(math.isfinite(v) for shell in moments.log_c_shells(spec, range(9)) for v in shell)
    with pytest.raises(AssertionError, match="shadow of ball built"):
        moments.log_c_shells(DomainSpec.ball(), (0,))


def test_describe_strings():
    assert DomainSpec.polydisc(2).describe() == "polydisc(radius2=2)"
    prof = DomainSpec.profile_domain(profile_family("inv_one_minus_pow", {"p": 1}))
    assert prof.describe() == "profile:inv_one_minus_pow:p=1"
