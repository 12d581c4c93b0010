"""Reference computations the tests hold the library to.

hs_term is one summand of S_alpha, computed on its own from three
memoized moments; the series evaluator sums whole shells at once, and the
tests compare the two term by term.  index_sum and index_difference are
the multi-index arithmetic that hs_term and the tests need.
integrate_one is one integrand log_f(r) given to log_integrate as a
batch of one; moment_one and mass_one are one exponent pair given to
log_profile_interval_moment and density_mass as a batch of one.
"""

from __future__ import annotations

import numpy as np

from reinhardt.certificate import density_mass
from reinhardt.domains import DomainSpec, MultiIndex
from reinhardt.errors import InvalidInputError
from reinhardt.hankel import _ratios
from reinhardt.moments import log_c_gamma_sq, log_profile_interval_moment
from reinhardt.quadrature import REL_TOL, log_integrate


def index_sum(gamma: MultiIndex, alpha: MultiIndex) -> MultiIndex:
    return MultiIndex(gamma.g1 + alpha.g1, gamma.g2 + alpha.g2)


def index_difference(gamma: MultiIndex, alpha: MultiIndex) -> MultiIndex | None:
    """gamma - alpha componentwise, or None if it leaves the quadrant."""
    g1, g2 = gamma.g1 - alpha.g1, gamma.g2 - alpha.g2
    if g1 < 0 or g2 < 0:
        return None
    return MultiIndex(g1, g2)


def hs_term(
    spec: DomainSpec,
    gamma: MultiIndex,
    alpha: MultiIndex,
    rel_tol: float = REL_TOL,
) -> float:
    """One summand of S_alpha, via log-moment differences.

    Nonnegative up to quadrature noise; exactly 0 at alpha = 0.
    """
    if not spec.contains(alpha):
        raise InvalidInputError(f"symbol index {alpha} is not in the Bergman space of {spec.describe()}")
    if not spec.contains(gamma):
        raise InvalidInputError(f"gamma {gamma} is not in the basis lattice")
    if alpha.order == 0:
        return 0.0
    up = index_sum(gamma, alpha)
    if not spec.contains(up):
        raise InvalidInputError(
            f"gamma+alpha {up} leaves the basis lattice; the operator is "
            "unbounded on this basis vector"
        )
    log_mid = log_c_gamma_sq(spec, gamma, rel_tol)
    term = _ratios(log_c_gamma_sq(spec, up, rel_tol), log_mid)
    down = index_difference(gamma, alpha)
    if down is not None and spec.contains(down):
        term -= _ratios(log_mid, log_c_gamma_sq(spec, down, rel_tol))
    return float(term[0])


def integrate_one(log_f, a, b, rel_tol=REL_TOL, presplit=()) -> float:
    """log of the integral of exp(log_f(r)) over [a, b], cut at the points
    of presplit: the batch of one integrand."""
    logs = log_integrate(lambda r, owner: log_f(r), np.array([a], dtype=float),
                         np.array([b], dtype=float), rel_tol, np.array([presplit], dtype=float))
    return float(logs[0])


def moment_one(profile, x, y, lo=0.0, hi=1.0, rel_tol=REL_TOL) -> float:
    """log of integral_lo^hi r^x exp(-y phi(r)) dr for one exponent pair:
    the batch of one."""
    return log_profile_interval_moment(profile, [x], [y], lo, hi, rel_tol)[0]


def mass_one(profile, x, y, interval, rel_tol=REL_TOL) -> float:
    """The density mass on interval for one exponent pair: the batch of one."""
    return density_mass(profile, [x], [y], interval, rel_tol)[0]
