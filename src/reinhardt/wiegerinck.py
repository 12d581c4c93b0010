"""Closed-form diagonal moments and series limits on the Wiegerinck domains.

The unbounded, finite-volume domain Omega_0 (square [0,e]^2 of radii plus
two 1/(r log r) tails) has a diagonal Bergman basis {(z1 z2)^j}.  Its
squared monomial norms admit the closed form

    c_(k,k)^2 = 4 pi^2 ( 2/((2k+1)(2k+2)) + e^(4k+4)/(2k+2)^2 ),

obtained by integrating the square exactly and substituting t = log r in
the tails.  The diagonal Hilbert-Schmidt series telescope, so their
partial sums are single moment ratios; for the (1,1) symbol index the
limit is e^4 and the summands decay like 2 e^4 / k^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError, NumericalFailureError
from .logdomain import log_add_exp, log_sum_exp

_LOG_4PI2 = math.log(4.0 * math.pi**2)

# Below this relative separation of the two moment ratios, the plain
# difference loses too many digits and the single-fraction path is used;
# an order of magnitude under the double-precision floor it is hopeless.
_COMPENSATE_BELOW = 1e-8
_CANCELLATION_FLOOR = 1e-13


def omega0_log_ck_sq(k: int) -> float:
    """log c_(k,k)^2 on Omega_0, evaluated entirely in the log domain."""
    k = _check_index(k, minimum=0)
    rational = math.log(2.0) - math.log(2 * k + 1) - math.log(2 * k + 2)
    exponential = (4.0 * k + 4.0) - 2.0 * math.log(2 * k + 2)
    return _LOG_4PI2 + log_add_exp(rational, exponential)


def omega0_ratio(k: int) -> float:
    """c_(k+1,k+1)^2 / c_(k,k)^2, via one log difference."""
    k = _check_index(k, minimum=0)
    return math.exp(omega0_log_ck_sq(k + 1) - omega0_log_ck_sq(k))


def omega0_term(k: int) -> float:
    """The k-th summand of the diagonal series for symbol index (1,1).

    Equals c_(k+1,k+1)^2/c_(k,k)^2 - c_(k,k)^2/c_(k-1,k-1)^2, positive for
    every k >= 1 and asymptotically 2 e^4 / k^2.
    """
    k = _check_index(k, minimum=1)
    r_up, r_down = omega0_ratio(k), omega0_ratio(k - 1)
    rel = (r_up - r_down) / r_up
    if rel >= _COMPENSATE_BELOW:
        return r_up - r_down
    # The two ratios cancel; form the difference over a common
    # denominator before exponentiating.
    term = _omega0_term_single_fraction(k)
    if term < _CANCELLATION_FLOOR * r_up:
        raise NumericalFailureError(
            f"ratio difference at k={k} is below the double-precision floor "
            f"relative to the ratios themselves",
            best_estimate=term,
            achieved_error=term / r_up,
        )
    return term


def _abk(k: int) -> tuple:
    # c_(k,k)^2 / (4 pi^2) = a_k + b_k * e^(4k+4), both rational.
    return (
        Fraction(2, (2 * k + 1) * (2 * k + 2)),
        Fraction(1, (2 * k + 2) ** 2),
    )


def _omega0_term_single_fraction(k: int) -> float:
    """Expand the two-ratio difference over a common denominator.

    Writing w = e^(4k+4), the numerator is omega0 + omega1*w + omega2*w^2
    with omega0, omega2 exact rationals and omega1 free of cancellation,
    so the difference is formed before any exponentials are taken.
    """
    a_prev, b_prev = _abk(k - 1)
    a_mid, b_mid = _abk(k)
    a_next, b_next = _abk(k + 1)
    e4 = math.exp(4.0)

    omega0 = a_next * a_prev - a_mid * a_mid
    omega1 = float(a_next * b_prev) / e4 + float(a_prev * b_next) * e4 \
        - 2.0 * float(a_mid * b_mid)
    omega2 = b_next * b_prev - b_mid * b_mid

    w_log = 4.0 * k + 4.0
    log_num = log_sum_exp([
        _log_fraction(omega0),
        math.log(omega1) + w_log,
        _log_fraction(omega2) + 2.0 * w_log,
    ])
    log_den = (omega0_log_ck_sq(k) - _LOG_4PI2) + (omega0_log_ck_sq(k - 1) - _LOG_4PI2)
    return math.exp(log_num - log_den)


def _log_fraction(q: Fraction) -> float:
    if q <= 0:
        raise NumericalFailureError(f"expected a positive rational, got {q}")
    return math.log(q.numerator) - math.log(q.denominator)


@dataclass(frozen=True)
class Omega0Series:
    """Partial sum of the diagonal (1,1) series with its limit data."""

    m: int
    partial_sum: float
    limit_estimate: float
    tail_bound: float


def omega0_s11(m: int) -> Omega0Series:
    """Partial sum over diagonal index j <= m of the (1,1) series.

    The sum telescopes exactly to c_(m+1,m+1)^2 / c_(m,m)^2, which tends
    to e^4 with |partial - e^4| <= 3 e^4 / m.
    """
    m = _check_index(m, minimum=1)
    e4 = math.exp(4.0)
    return Omega0Series(
        m=m,
        partial_sum=omega0_ratio(m),
        limit_estimate=e4,
        tail_bound=3.0 * e4 / m,
    )


@dataclass(frozen=True)
class OmegaKReport:
    """Structural description of the truncated domain Omega_k."""

    k: int
    dimension: int
    basis_indices: tuple
    term_counts: tuple
    statement: str


def omegak_report(k: int) -> OmegaKReport:
    """Finite-dimensionality report for Omega_k (defined for k >= 1).

    The Bergman space is spanned by (z1 z2)^j for j = 0..k, so every
    diagonal series is a finite sum: for symbol index (j,j) at most
    k - j + 1 summands are structurally nonzero.  No moment values are
    computed; the connecting strip of the domain is not integrated.
    """
    k = _check_index(k, minimum=1)
    return OmegaKReport(
        k=k,
        dimension=k + 1,
        basis_indices=tuple(range(k + 1)),
        term_counts=tuple((j, k - j + 1) for j in range(1, k + 1)),
        statement=(
            "finite-dimensional Bergman space: Hankel operators with any "
            "nonconstant symbol from the space are Hilbert-Schmidt on the "
            "subspace where they are bounded"
        ),
    )


def _check_index(k, minimum: int) -> int:
    if k != int(k) or k < minimum:
        raise InvalidInputError(f"index must be an integer >= {minimum}, got {k!r}")
    return int(k)
