"""Domain descriptions and their basis lattices.

Every domain here is a built-in complete Reinhardt domain in C^2: a
profile domain {|z2| < exp(-phi(|z1|))}, the polydisc, the ball, or a
Wiegerinck domain; there are no user-defined regions.  How each one's
monomial norms are computed is up to the moments layer (the polydisc's
and the ball's radial shadows are private to it).  The domain also says
which monomials are square-integrable, its basis lattice (shell,
contains): the full quadrant on the bounded domains, the diagonal (up to
k on omega_k) on the Wiegerinck domains.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError, check_index, is_finite_number
from .profiles import RadialProfile, profile_family


@dataclass(frozen=True)
class MultiIndex:
    """A pair of monomial exponents (g1, g2) >= 0."""

    g1: int
    g2: int

    def __post_init__(self):
        g1, g2 = (check_index(g, "multi-index components must be integers: {index}", index=self)
                  for g in (self.g1, self.g2))
        if g1 < 0 or g2 < 0:
            raise InvalidInputError(f"multi-index components must be >= 0: {self}")
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)

    @property
    def order(self) -> int:
        return self.g1 + self.g2

    def __repr__(self):
        return f"({self.g1},{self.g2})"


# --------------------------------------------------------------------------
# Domain specifications.
# --------------------------------------------------------------------------

PROFILE = "profile"
POLYDISC = "polydisc"
BALL = "ball"
OMEGA0 = "omega0"
OMEGA_K = "omega_k"


@dataclass(frozen=True)
class DomainSpec:
    """A tagged complete Reinhardt domain in C^2.

    Use the classmethod constructors.  The variant determines the basis
    lattice, the monomials z^gamma that span the Bergman space: the
    diagonal g1 = g2 on the Wiegerinck domains (up to g1 = k on omega_k),
    the full quadrant otherwise.
    """

    kind: str
    profile: RadialProfile | None = None
    radius2: float | None = None
    k: int | None = None

    def __post_init__(self):
        if (self.kind == OMEGA_K) != (self.k is not None):
            raise InvalidInputError("omega_k needs k, and no other domain takes one")

    @classmethod
    def profile_domain(cls, profile: RadialProfile) -> "DomainSpec":
        return cls(PROFILE, profile=profile)

    @classmethod
    def polydisc(cls, radius2: float = 1.0) -> "DomainSpec":
        if not (is_finite_number(radius2) and radius2 > 0):
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
        return cls(OMEGA_K, k=check_index(k, "the truncated Wiegerinck domain needs integer k >= 1", 1))

    @property
    def diagonal(self) -> bool:
        """Whether the basis lattice is the diagonal rather than the full quadrant."""
        return self.kind in (OMEGA0, OMEGA_K)

    def shell(self, n: int) -> range:
        """The g1 of the lattice points with |gamma| = n: every g1 in 0..n on
        the full quadrant, n/2 or none on the diagonal lattices."""
        if not self.diagonal:
            return range(n + 1)
        on = n >= 0 and n % 2 == 0 and (self.k is None or n // 2 <= self.k)
        return range(n // 2, n // 2 + 1) if on else range(0)

    def contains(self, gamma: MultiIndex) -> bool:
        return gamma.g1 in self.shell(gamma.order)

    def describe(self) -> str:
        if self.kind == PROFILE:
            ps = "".join(f":{k}={v:g}" for k, v in self.profile.params)
            return f"profile:{self.profile.name}{ps}"
        if self.kind == POLYDISC:
            return f"polydisc(radius2={self.radius2:g})"
        if self.kind == OMEGA_K:
            return f"omega_k(k={self.k})"
        return self.kind


def builtin_domain(kind: str, params) -> DomainSpec:
    """The built-in domain ``kind`` from its ``(name, value)`` parameter pairs.

    Every value is a finite number (booleans are not), except a profile's
    ``family``; an unknown parameter, or one given twice, is an error.
    """
    given = {}
    for name, value in params:
        if name != "family" and not is_finite_number(value):
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
