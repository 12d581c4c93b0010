"""Domain descriptions, basis lattices and radial shadows.

Every domain here is a complete Reinhardt domain in C^2, determined by
its radial shadow: the image in the (r1, r2) quarter-plane.  Volume
integrals of |z^gamma|^2 reduce to 4*pi^2 times a double integral of
r1^(2*g1+1) * r2^(2*g2+1) over the shadow.  Every shadow built here is
bounded, so every monomial has a finite norm.  The Wiegerinck domains
have unbounded shadows, which are not built: their diagonal moments are
a closed form (wiegerinck.omega0_log_ck_sq), and a monomial off the
diagonal is not square-integrable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .profiles import RadialProfile, profile_family


@dataclass(frozen=True)
class MultiIndex:
    """A pair of monomial exponents (g1, g2) >= 0."""

    g1: int
    g2: int

    def __post_init__(self):
        if self.g1 != int(self.g1) or self.g2 != int(self.g2):
            raise InvalidInputError(f"multi-index components must be integers: {self}")
        if self.g1 < 0 or self.g2 < 0:
            raise InvalidInputError(f"multi-index components must be >= 0: {self}")
        object.__setattr__(self, "g1", int(self.g1))
        object.__setattr__(self, "g2", int(self.g2))

    @property
    def order(self) -> int:
        return self.g1 + self.g2

    def add(self, other: "MultiIndex") -> "MultiIndex":
        return MultiIndex(self.g1 + other.g1, self.g2 + other.g2)

    def sub(self, other: "MultiIndex") -> "MultiIndex | None":
        """Componentwise difference, or None if it leaves the quadrant."""
        g1, g2 = self.g1 - other.g1, self.g2 - other.g2
        if g1 < 0 or g2 < 0:
            return None
        return MultiIndex(g1, g2)

    def __iter__(self):
        return iter((self.g1, self.g2))

    def __repr__(self):
        return f"({self.g1},{self.g2})"


FULL_QUADRANT = "full_quadrant"
DIAGONAL = "diagonal"
DIAGONAL_TRUNCATED = "diagonal_truncated"


@dataclass(frozen=True)
class BasisLattice:
    """Which monomials z^gamma span the Bergman space of a domain."""

    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind not in (FULL_QUADRANT, DIAGONAL, DIAGONAL_TRUNCATED):
            raise InvalidInputError(f"unknown lattice kind {self.kind!r}")
        if (self.kind == DIAGONAL_TRUNCATED) != (self.k is not None):
            raise InvalidInputError("truncated lattice needs k; others must not carry one")

    def contains(self, gamma: MultiIndex) -> bool:
        if self.kind == FULL_QUADRANT:
            return True
        if gamma.g1 != gamma.g2:
            return False
        return self.k is None or gamma.g1 <= self.k

    def shell(self, n: int) -> range:
        """The g1 of the lattice points with |gamma| = n: every g1 in 0..n on
        the full quadrant, n/2 or none on the diagonal lattices."""
        if self.kind == FULL_QUADRANT:
            return range(n + 1)
        on = n >= 0 and n % 2 == 0 and (self.k is None or n // 2 <= self.k)
        return range(n // 2, n // 2 + 1) if on else range(0)

    @staticmethod
    def full() -> "BasisLattice":
        return BasisLattice(FULL_QUADRANT)

    @staticmethod
    def diagonal() -> "BasisLattice":
        return BasisLattice(DIAGONAL)

    @staticmethod
    def diagonal_truncated(k: int) -> "BasisLattice":
        return BasisLattice(DIAGONAL_TRUNCATED, k)


# --------------------------------------------------------------------------
# Region pieces: bounded pieces over an r1-interval.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxPiece:
    """An axis-aligned rectangle [r1_lo, r1_hi] x [r2_lo, r2_hi]."""

    r1_lo: float
    r1_hi: float
    r2_lo: float
    r2_hi: float

    def __post_init__(self):
        if not (0 <= self.r1_lo < self.r1_hi and 0 <= self.r2_lo < self.r2_hi):
            raise InvalidInputError(f"degenerate box {self}")


@dataclass(frozen=True, eq=False)
class FiberPiece:
    """A bounded piece r1 in [r1_lo, r1_hi], r2 in [0, hi(r1)].

    The fiber height is supplied as a vectorized log-height callable so the
    moment engine can integrate without leaving the log domain.
    """

    r1_lo: float
    r1_hi: float
    log_hi: Callable


@dataclass(frozen=True, eq=False)
class RadialRegion:
    """A bounded union of pieces in the (r1, r2) quarter-plane, whose
    r1-intervals have disjoint interiors."""

    pieces: tuple

    def __post_init__(self):
        if not self.pieces:
            raise InvalidInputError("a region needs at least one piece")
        for piece in self.pieces:
            if not isinstance(piece, (BoxPiece, FiberPiece)):
                raise InvalidInputError(
                    f"a region piece is a BoxPiece or a FiberPiece, not {piece!r}"
                )
        spans = sorted((p.r1_lo, p.r1_hi) for p in self.pieces)
        for (alo, ahi), (blo, bhi) in zip(spans, spans[1:]):
            if blo < ahi - 1e-15:
                raise InvalidInputError("piece r1-intervals overlap")


# --------------------------------------------------------------------------
# Domain specifications.
# --------------------------------------------------------------------------

PROFILE = "profile"
REGION = "region"
POLYDISC = "polydisc"
BALL = "ball"
OMEGA0 = "omega0"
OMEGA_K = "omega_k"


@dataclass(frozen=True)
class DomainSpec:
    """A tagged complete Reinhardt domain in C^2.

    Use the classmethod constructors; the basis lattice is determined by
    the variant (diagonal monomials for the Wiegerinck domains, the full
    quadrant otherwise).
    """

    kind: str
    profile: RadialProfile | None = None
    radius2: float | None = None
    k: int | None = None
    region: RadialRegion | None = None

    @classmethod
    def profile_domain(cls, profile: RadialProfile) -> "DomainSpec":
        return cls(PROFILE, profile=profile)

    @classmethod
    def region_domain(cls, region: RadialRegion) -> "DomainSpec":
        return cls(REGION, region=region)

    @classmethod
    def polydisc(cls, radius2: float = 1.0) -> "DomainSpec":
        if not (radius2 > 0 and math.isfinite(radius2)):
            raise InvalidInputError("polydisc needs a positive finite second radius")
        return cls(POLYDISC, radius2=float(radius2))

    @classmethod
    def ball(cls) -> "DomainSpec":
        return cls(BALL)

    @classmethod
    def wiegerinck_omega0(cls) -> "DomainSpec":
        return cls(OMEGA0)

    @classmethod
    def wiegerinck_omega_k(cls, k: int) -> "DomainSpec":
        if k != int(k) or k < 1:
            raise InvalidInputError("the truncated Wiegerinck domain needs integer k >= 1")
        return cls(OMEGA_K, k=int(k))

    @property
    def lattice(self) -> BasisLattice:
        if self.kind == OMEGA0:
            return BasisLattice.diagonal()
        if self.kind == OMEGA_K:
            return BasisLattice.diagonal_truncated(self.k)
        return BasisLattice.full()

    def describe(self) -> str:
        if self.kind == PROFILE:
            ps = "".join(f":{k}={v:g}" for k, v in self.profile.params)
            return f"profile:{self.profile.name}{ps}"
        if self.kind == POLYDISC:
            return f"polydisc(radius2={self.radius2:g})"
        if self.kind == OMEGA_K:
            return f"omega_k(k={self.k})"
        return self.kind


def radial_shadow(spec: DomainSpec) -> RadialRegion:
    """The region in the (r1, r2) quarter-plane whose rotation recovers the domain."""
    if spec.kind == PROFILE:
        phi = spec.profile.phi
        return RadialRegion(pieces=(
            FiberPiece(0.0, 1.0, log_hi=lambda r: -phi(r)),
        ))
    if spec.kind == REGION:
        return spec.region
    if spec.kind == POLYDISC:
        return RadialRegion(pieces=(BoxPiece(0.0, 1.0, 0.0, spec.radius2),))
    if spec.kind == BALL:
        return RadialRegion(pieces=(
            FiberPiece(0.0, 1.0, log_hi=lambda r: 0.5 * np.log1p(-np.square(r))),
        ))
    if spec.kind in (OMEGA0, OMEGA_K):
        raise InvalidInputError(
            f"the {spec.kind} shadow is unbounded and is not built: its moments "
            "are the Omega_0 closed form (wiegerinck.omega0_log_ck_sq)"
        )
    raise InvalidInputError(f"unknown domain kind {spec.kind!r}")


def builtin_domain(kind: str, params) -> DomainSpec:
    """The built-in domain ``kind`` from its ``(name, value)`` parameter pairs.

    Every value is a finite number (booleans are not), except a profile's
    ``family``; an unknown parameter, or one given twice, is an error.
    """
    given = {}
    for name, value in params:
        if name != "family" and not _finite_number(value):
            raise InvalidInputError(f"domain parameter {name} must be a finite number, got {value!r}")
        if kind == POLYDISC and name == "radius2":
            name = "radius"  # another name of the second radius
        if name in given:
            raise InvalidInputError(f"domain parameter {name} is given twice")
        given[name] = value
    if kind == PROFILE:
        family = given.pop("family", None)
        if not isinstance(family, str):
            raise InvalidInputError("profile domain needs a family name")
        return DomainSpec.profile_domain(profile_family(family, given))
    takes = {POLYDISC: {"radius"}, BALL: set(), OMEGA0: set(), OMEGA_K: {"k"}}
    if kind not in takes:
        raise InvalidInputError(f"unknown domain {kind!r}")
    unknown = sorted(set(given) - takes[kind])
    if unknown:
        raise InvalidInputError(f"domain {kind} takes no parameter {', '.join(unknown)}")
    if kind == POLYDISC:
        return DomainSpec.polydisc(given.get("radius", 1.0))
    if kind == OMEGA_K:
        if "k" not in given:
            raise InvalidInputError("omega_k needs k")
        return DomainSpec.wiegerinck_omega_k(given["k"])
    return DomainSpec.ball() if kind == BALL else DomainSpec.wiegerinck_omega0()


def _finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False
