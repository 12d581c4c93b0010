import math

import numpy as np
import pytest

from reinhardt.domains import (
    BasisLattice,
    BoxPiece,
    DomainSpec,
    MultiIndex,
    RadialRegion,
    radial_shadow,
)
from reinhardt.errors import InvalidInputError
from reinhardt.profiles import profile_family


def test_multi_index_validation_and_arithmetic():
    g = MultiIndex(2, 3)
    assert g.order == 5
    assert g.add(MultiIndex(1, 0)) == MultiIndex(3, 3)
    assert g.sub(MultiIndex(1, 1)) == MultiIndex(1, 2)
    assert g.sub(MultiIndex(3, 0)) is None
    assert tuple(g) == (2, 3)
    with pytest.raises(InvalidInputError):
        MultiIndex(-1, 0)
    with pytest.raises(InvalidInputError):
        MultiIndex(0.5, 0)


def test_lattice_membership():
    full = BasisLattice.full()
    diag = BasisLattice.diagonal()
    trunc = BasisLattice.diagonal_truncated(2)
    assert full.contains(MultiIndex(7, 0))
    assert diag.contains(MultiIndex(3, 3))
    assert not diag.contains(MultiIndex(3, 2))
    assert trunc.contains(MultiIndex(2, 2))
    assert not trunc.contains(MultiIndex(3, 3))


def test_lattice_shells_list_the_lattice_points():
    lattices = (BasisLattice.full(), BasisLattice.diagonal(), BasisLattice.diagonal_truncated(2))
    for lattice in lattices:
        for n in range(-2, 12):
            points = [g1 for g1 in range(n + 1) if lattice.contains(MultiIndex(g1, n - g1))]
            assert list(lattice.shell(n)) == points, (lattice, n)


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
            assert spec.lattice.contains(gamma) == expected(gamma)


def test_domain_constructors_validate():
    with pytest.raises(InvalidInputError):
        DomainSpec.polydisc(0.0)
    with pytest.raises(InvalidInputError):
        DomainSpec.wiegerinck_omega_k(0)


def test_polydisc_shadow_is_a_box():
    region = radial_shadow(DomainSpec.polydisc(1.0))
    assert len(region.pieces) == 1
    piece = region.pieces[0]
    assert isinstance(piece, BoxPiece)
    assert (piece.r1_lo, piece.r1_hi, piece.r2_lo, piece.r2_hi) == (0.0, 1.0, 0.0, 1.0)


def test_ball_fiber_is_pythagorean():
    region = radial_shadow(DomainSpec.ball())
    piece, = region.pieces
    assert (piece.r1_lo, piece.r1_hi) == (0.0, 1.0)
    assert math.exp(float(piece.log_hi(np.array(0.6)))) == pytest.approx(0.8, rel=1e-15)


def test_profile_fiber_height_is_exp_minus_phi():
    profile = profile_family("neg_log_one_minus_r2")
    region = radial_shadow(DomainSpec.profile_domain(profile))
    piece = region.pieces[0]
    for r in (0.1, 0.5, 0.9):
        assert float(piece.log_hi(r)) == -float(profile.phi(r))


def test_omega0_shadow_is_not_built():
    # The shadow is unbounded; the moments are the closed form.
    with pytest.raises(InvalidInputError, match="closed form"):
        radial_shadow(DomainSpec.wiegerinck_omega0())


def test_region_rejects_overlapping_pieces():
    with pytest.raises(InvalidInputError):
        RadialRegion(pieces=(
            BoxPiece(0.0, 1.0, 0.0, 1.0),
            BoxPiece(0.5, 2.0, 0.0, 1.0),
        ))


def test_region_rejects_what_is_not_a_piece():
    with pytest.raises(InvalidInputError, match="BoxPiece or a FiberPiece"):
        RadialRegion(pieces=(BoxPiece(0.0, 1.0, 0.0, 1.0), (1.0, 2.0)))
    with pytest.raises(InvalidInputError, match="at least one piece"):
        RadialRegion(pieces=())


def test_describe_strings():
    assert DomainSpec.polydisc(2).describe() == "polydisc(radius2=2)"
    prof = DomainSpec.profile_domain(profile_family("inv_one_minus_pow", {"p": 1}))
    assert prof.describe() == "profile:inv_one_minus_pow:p=1"
