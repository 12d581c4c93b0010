"""Closed-form diagonal moments and the series limit on the Wiegerinck domains.

The unbounded, finite-volume domain Omega_0 (square [0,e]^2 of radii plus
two 1/(r log r) tails) has a diagonal Bergman basis {(z1 z2)^j}.  Its
squared monomial norms admit the closed form

    c_(k,k)^2 = 4 pi^2 ( 2/((2k+1)(2k+2)) + e^(4k+4)/(2k+2)^2 ),

obtained by integrating the square exactly and substituting t = log r in
the tails.  The series S_(1,1) itself is summed by the one series
evaluator, hankel.s_alpha_partials, from these moments: it telescopes to
the single ratio c_(M+1,M+1)^2 / c_(M,M)^2, which tends to e^4 with
|S_(1,1)(M) - e^4| <= 3 e^4 / M, and its summands decay like 2 e^4 / k^2.
"""

from __future__ import annotations

import math

from .errors import check_index

_LOG_4PI2 = math.log(4.0 * math.pi**2)

# The limit of S_(1,1) on Omega_0.
S11_LIMIT = math.exp(4.0)


def omega0_log_ck_sq(k: int) -> float:
    """log c_(k,k)^2 on Omega_0, evaluated entirely in the log domain.  The
    exponential part exceeds the rational one at every k (2.61 > 0 at k = 0,
    and after that the first grows while the second falls), so it is the
    shift of the log-add."""
    k = check_index(k, "index must be an integer >= 0, got {!r}", 0)
    rational = math.log(2.0) - math.log(2 * k + 1) - math.log(2 * k + 2)
    exponential = (4.0 * k + 4.0) - 2.0 * math.log(2 * k + 2)
    return _LOG_4PI2 + (exponential + math.log1p(math.exp(rational - exponential)))


def s11_tail_bound(m: int) -> float:
    """The bound 3 e^4 / M on |S_(1,1)(M) - e^4| on Omega_0."""
    return 3.0 * S11_LIMIT / m
