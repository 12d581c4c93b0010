"""Log-domain monomial moments over complete Reinhardt domains.

The central quantities are the radial integrals

    M(x, y) = integral_0^1 r^x exp(-y phi(r)) dr

and the squared monomial norms c_gamma^2, which reduce to M via

    c_gamma^2 = 2 pi^2 / (g2 + 1) * M(2 g1 + 1, 2 g2 + 2)

on profile domains.  The polydisc and the ball integrate over their
shadows, private to this module: the polydisc's box in closed form, the
ball's fiber r2 < sqrt(1 - r1^2) by quadrature.  The Wiegerinck domains
use their diagonal closed form.  Every moment on the basis lattice is
finite, and every result is a plain float log; a monomial off the basis
lattice is not square-integrable, and asking for its moment is an error.

Moments are memoized a shell |gamma| = n at a time, as one read-only
array per (domain, n, rel_tol); that is the only memo.  A series walk
requests all of its shells at once (log_c_shells), and log_c_gamma_sq
reads one entry of its shell.  On a profile domain the missing shells'
radial integrals take one pass of the analytic peak locator, which also
gives each integrand's Laplace scale and so its initial mesh (no grid
scan; on inv_one_minus_pow from p = 1 up nearly every pack converges on
its first kernel pass), and are then integrated in packs of consecutive
rows, one log_integrate call per pack, each no larger than the largest
shell of the request, whose log-integrand writes its values over the
radii it is given.  The ball's fiber integrates one shell per log_integrate call.
The radial-moment functions take batches of exponent pairs, a single
moment being a batch of one, and pack them like the walk: no larger than
the largest shell the pairs lie on, unless that would take more packs
than the shell has rows.  Their integrals, such as the certificate's
window masses and denominators (one batch per ladder), are computed
afresh at each call.  Each moment is refined with the same panels and
per-panel arithmetic as when it is integrated alone, so neither the
packing nor the memo changes a value.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domains import DomainSpec, MultiIndex
from .errors import InvalidInputError, NumericalFailureError, check_index, is_finite_number
from .profiles import RadialProfile, peak_radius
from .quadrature import REL_TOL, check_rel_tol, log_integrate
from .wiegerinck import omega0_log_ck_sq

_LOG_4PI2 = math.log(4.0 * math.pi**2)
_LOG_2PI2 = math.log(2.0 * math.pi**2)

# Multiples of the Laplace scale at which _mesh cuts a profile integrand.
_MESH_OFFSETS = np.array([sign * 0.75 * m for m in (1, 2, 3, 4, 6, 8, 12, 16, 32, 64, 128, 256, 512)
                          for sign in (-1.0, 1.0)])

# Peak bytes a series walk holds per moment on its costlier path, the profile
# quadrature: 99-112 measured by ru_maxrss between salpha --alpha 1,1 --n-max
# 200, 400 and 800 on inv_one_minus_pow p=1, 101 from 400 to 800 (8-10 on the
# polydisc's closed form).
_BYTES_PER_MOMENT = 128

# Memoized log moments: one read-only log c_gamma^2 array per (domain, n,
# rel_tol) shell.  Values never depend on whether they were computed alone
# or in a batch.
_MOMENT_MEMO: dict = {}


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


# --------------------------------------------------------------------------
# Radial integrals M(x, y) for profile domains.
# --------------------------------------------------------------------------


def log_radial_moment(profile: RadialProfile, x, y, rel_tol: float = REL_TOL) -> list:
    """log of M(x, y) = integral_0^1 r^x exp(-y phi(r)) dr for each pair of
    the equal-length 1-D sequences x and y: log_profile_interval_moment on
    [0, 1].

    Families with a closed form bypass quadrature entirely:
    phi = 0 gives 1/(x+1); phi = -log(1-r^2) gives B((x+1)/2, y+1)/2
    via log-gamma (substitute u = r^2).
    """
    return log_profile_interval_moment(profile, x, y, 0.0, 1.0, rel_tol)


def log_profile_interval_moment(
    profile: RadialProfile,
    x,
    y,
    lo: float,
    hi: float,
    rel_tol: float = REL_TOL,
) -> list:
    """log of integral_lo^hi r^x exp(-y phi(r)) dr for each pair of the
    equal-length 1-D sequences x and y of exponents > 0, as a list computed
    in one batched log_integrate call; a single moment is a batch of one.
    Exponents and endpoints are finite numbers, never booleans.
    """
    xs, ys = np.asarray(x, dtype=object), np.asarray(y, dtype=object)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise InvalidInputError("moment exponents must be equal-length 1-D sequences")
    if not all(map(is_finite_number, [*xs, *ys])):
        raise InvalidInputError(f"moment exponents must be finite numbers, got x={x}, y={y}")
    xs, ys = xs.astype(float), ys.astype(float)
    if (xs <= 0).any() or (ys <= 0).any():
        raise InvalidInputError(f"moment exponents must be > 0, got x={x}, y={y}")
    if not (is_finite_number(lo) and is_finite_number(hi) and 0.0 <= lo < hi <= 1.0):
        raise InvalidInputError(f"interval [{lo}, {hi}] must sit inside [0, 1]")
    return _interval_moments(profile, xs, ys, float(lo), float(hi), check_rel_tol(rel_tol))


def _interval_moments(profile, xs, ys, lo, hi, rel_tol) -> list:
    """log integral_lo^hi r^x exp(-y phi(r)) dr for each row of the float
    arrays xs and ys: the closed form on [0, 1] for the zero and -log(1-r^2)
    families, else one peak and scale pass over every row, then one
    log_integrate call per pack of consecutive rows.  A pack holds as many
    rows as the largest shell the pairs lie on, (max(x + y) - 1) / 2 (the
    pair (2 g1 + 1, 2 g2 + 2) of shell n has x + y = 2 n + 3), or more if
    the batch would otherwise take more packs than that, which no walk
    does.  A row's value does not depend on its pack."""
    if lo == 0.0 and hi == 1.0:
        if profile.name == "zero":
            return [-math.log(x + 1.0) for x in map(float, xs)]
        if profile.name == "neg_log_one_minus_r2":
            return [math.log(0.5) + _log_beta(0.5 * (x + 1.0), y + 1.0)
                    for x, y in zip(map(float, xs), map(float, ys))]
    peaks, scales = _peak_scales(profile, xs, ys, lo, hi)
    # (x + y - 1) / 2 halved term by term, which cannot overflow
    largest = (0.5 * xs + 0.5 * ys).max(initial=0.0) - 0.5
    shell = max(int(min(largest, xs.size)), 1)
    logs, pack = [], max(shell, -(-xs.size // shell))
    for start in range(0, xs.size, pack):
        rows = slice(start, start + pack)
        x, y = xs[rows], ys[rows]
        logs += _integrate(
            _profile_log_integrand(profile, x, y), x.size, lo, hi, rel_tol,
            lambda i: f"integral of r^{x[i]:g} exp(-{y[i]:g} phi(r)) over [{lo:g}, {hi:g}]",
            _mesh(peaks[rows], scales[rows]),
        )
    return logs


def _integrate(log_f, size, lo, hi, rel_tol, subject, presplit=()) -> list:
    """One batched log_integrate call over [lo, hi].  A failing row raises
    its error under subject(row), the name of the moment it computes, in
    place of its position in the batch; a row that reads log 0 underflowed
    at every node, since a moment integrand is positive on its interval."""
    try:
        logs = log_integrate(log_f, np.full(size, lo), np.full(size, hi), rel_tol,
                             presplit=presplit).tolist()
    except (InvalidInputError, NumericalFailureError) as exc:
        if not hasattr(exc, "row"):
            raise
        exc.args = (f"{subject(exc.row)}: {exc}",)
        raise
    if -math.inf in logs:
        raise NumericalFailureError(
            f"{subject(logs.index(-math.inf))} underflows to 0 at every quadrature node")
    return logs


def _profile_log_integrand(profile, xs, ys):
    """log_f(r, owner) of r^x exp(-y phi(r)) for a batch of positive
    exponents, x log r - y phi(r), written over r and over phi(r) when that
    is a writeable r-shaped array apart from r."""
    phi = profile.phi

    def log_f(r, owner):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t = np.asarray(phi(r), dtype=float)
            own = t.shape == r.shape and t.flags.writeable and not np.may_share_memory(t, r)
            t = np.multiply(t, ys[owner], out=t if own else None)
            np.log(r, out=r)
            r *= xs[owner]
            return np.subtract(r, t, out=r)

    return log_f


def _peak_scales(profile, xs, ys, lo, hi):
    """The peak r* of each r^x exp(-y phi(r)) on [lo, hi], the root of
    x = y r phi'(r) (profiles.peak_radius, one call for every row), and the
    Laplace scale s = 1/sqrt(x/r*^2 + y phi''(r*)) of the Gaussian that
    matches the log-integrand's curvature there, for positive exponents.
    Where that curvature overflows (inv_one_minus_pow from about p = 5e152,
    phi''(r*) ~ p^2), s = exp(-1/2 logaddexp(log x - 2 log r*,
    log y + log phi''(r*))).  Each row depends only on its own
    (x, y, lo, hi), as does its mesh.
    """
    peaks = peak_radius(profile, xs, ys, lo, hi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # -x/r^2 - y phi''(r), the log-integrand's second derivative
        d2phi = np.asarray(profile.d2phi(peaks), dtype=float)
        curvature = -(xs * (-1.0 / np.square(peaks)) - ys * d2phi)
        scales = 1.0 / np.sqrt(curvature)
        huge = np.isinf(curvature)
        if huge.any():
            r, x, y = peaks[huge], xs[huge], ys[huge]
            log_d2phi = profile.log_d2phi(r) if profile.log_d2phi else np.log(profile.d2phi(r))
            scales[huge] = np.exp(-0.5 * np.logaddexp(np.log(x) - 2.0 * np.log(r),
                                                      np.log(y) + log_d2phi))
    return peaks, scales


def _mesh(peaks, scales) -> np.ndarray:
    """Initial panel cuts, one row per integrand (NaN = no cut): r* +- s c m
    for c = 0.75 and m = 1, 2, 3, 4, 6, 8, 12, 16, 32, ..., 512
    (_MESH_OFFSETS), so a concentrated integrand converges on its first
    kernel pass (log_integrate drops the cuts outside (lo, hi)).  The cuts
    at m = 3, 6 and 12 halve the panels from 1.5 s to 12 s, which a second
    round would otherwise bisect on nearly every integrand.  A scale that
    is not positive and finite gives no cuts: cuts piled on r* could miss
    the peak, where with none the moment fails loudly."""
    cuts = peaks[:, None] + scales[:, None] * _MESH_OFFSETS
    cuts[~(np.isfinite(scales) & (scales > 0.0))] = np.nan
    return cuts


# --------------------------------------------------------------------------
# Shadow moments of the polydisc and the ball: c_gamma^2 = 4 pi^2 * double
# integral over the shadow, the domain's image in the (r1, r2) quarter-plane,
# of r1^(2g1+1) r2^(2g2+1).
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Box:
    """The rectangle [r1_lo, r1_hi] x [r2_lo, r2_hi]."""

    r1_lo: float
    r1_hi: float
    r2_lo: float
    r2_hi: float


@dataclass(frozen=True, eq=False)
class _Fiber:
    """r1 in [r1_lo, r1_hi], r2 in [0, exp(log_hi(r1))]."""

    r1_lo: float
    r1_hi: float
    log_hi: Callable


def _shadow(spec: DomainSpec) -> tuple:
    """The pieces of the polydisc's or the ball's shadow."""
    if spec.kind == "polydisc":
        return (_Box(0.0, 1.0, 0.0, spec.radius2),)
    if spec.kind == "ball":
        return (_Fiber(0.0, 1.0, log_hi=lambda r: 0.5 * np.log1p(-np.square(r))),)
    raise InvalidInputError(f"unknown domain kind {spec.kind!r}")


def _region_log_moments(pieces: tuple, gammas, rel_tol) -> list:
    """log c_gamma^2 over a shadow's pieces for each (g1, g2) pair.

    Every _Fiber integrates all pairs in one batched log_integrate call.
    """
    fibers = [
        iter(_fiber_log_moments(piece, gammas, rel_tol)) if isinstance(piece, _Fiber) else None
        for piece in pieces
    ]
    return [
        _LOG_4PI2 + _log_sum_exp([
            _box_log_moment(piece, gamma) if fiber is None else next(fiber)
            for piece, fiber in zip(pieces, fibers)
        ])
        for gamma in gammas
    ]


def _log_sum_exp(logs) -> float:
    """log(sum(exp(l) for l in logs)); empty input gives -inf."""
    logs = list(logs)
    if not logs:
        return -math.inf
    m = max(logs)
    if math.isinf(m):
        return m
    return m + math.log(math.fsum(math.exp(l - m) for l in logs))


def _box_log_moment(piece: _Box, gamma) -> float:
    return _axis_log_moment(piece.r1_lo, piece.r1_hi, 2 * gamma[0] + 1) + \
        _axis_log_moment(piece.r2_lo, piece.r2_hi, 2 * gamma[1] + 1)


def _axis_log_moment(lo: float, hi: float, power: int) -> float:
    # integral_lo^hi r^power dr, in log form
    p1 = power + 1.0
    top = p1 * math.log(hi)
    if lo > 0.0:
        top += math.log(-math.expm1(p1 * math.log(lo) - top))
    return top - math.log(p1)


def _fiber_log_moments(piece: _Fiber, gammas, rel_tol) -> list:
    """log of the fiber integrals of r1^(2g1+1) r2^(2g2+1), one batched call."""
    if not gammas:
        return []
    xs = np.array([2.0 * g1 + 1.0 for g1, _ in gammas])
    ys = np.array([2.0 * g2 + 2.0 for _, g2 in gammas])
    log_ys = np.array([math.log(y) for y in ys.tolist()])
    log_hi = piece.log_hi

    def log_f(r, owner):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            top = ys[owner] * np.asarray(log_hi(r), dtype=float)
            return xs[owner] * np.log(r) + top - log_ys[owner]

    return _integrate(log_f, xs.size, piece.r1_lo, piece.r1_hi, rel_tol,
                      lambda i: "fiber integral of z^({},{})".format(*gammas[i]))


# --------------------------------------------------------------------------
# Squared monomial norms.
# --------------------------------------------------------------------------


def log_c_gamma_sq(spec: DomainSpec, gamma: MultiIndex, rel_tol: float = REL_TOL) -> float:
    """log c_gamma^2 for the domain: the entry of gamma in the array of its
    shell (log_c_shells).  A gamma off the basis lattice is rejected."""
    g1s = spec.shell(gamma.order)
    if gamma.g1 not in g1s:
        raise InvalidInputError(f"gamma {gamma} is not in the basis lattice of {spec.describe()}")
    return float(log_c_shells(spec, (gamma.order,), rel_tol)[0][g1s.index(gamma.g1)])


def check_fits(count: int, what: str, unit: str = "moments", each: int = _BYTES_PER_MOMENT):
    """Reject a request of ``count`` units, by default moments, that would
    not fit in the machine's physical memory at ``each`` bytes a unit,
    before anything is built."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return  # the machine does not say; a MemoryError is reported instead
    if each * count > memory:
        raise InvalidInputError(
            f"{what} holds {count} {unit}, more than fit in the {memory / 2**30:.3g} GiB "
            f"of physical memory at {each} bytes each")


def log_c_shells(spec: DomainSpec, orders, rel_tol: float = REL_TOL) -> list:
    """Read-only, memoized log c_gamma^2 arrays of the shells |gamma| = n for
    n in orders, each at the lattice points spec.shell(n) by g1.

    The shells missing from the memo are computed in one request.  Profile
    domains reduce to the radial integrals M(2g1+1, 2g2+2): one peak pass
    over all of them, then quadrature packs no larger than the largest
    shell asked for.  The Wiegerinck domains use the diagonal closed form
    (for the truncated family only the shared Omega_0 region is counted);
    everything else integrates its bounded shadow a shell at a time.
    """
    orders = [check_index(n, "shell index must be a nonnegative integer, got {!r}", 0) for n in orders]
    rel_tol = check_rel_tol(rel_tol)
    missing = [n for n in orders if (spec, n, rel_tol) not in _MOMENT_MEMO]
    if missing:
        for n, logs in zip(missing, _log_c_gamma_sq_shells(spec, missing, rel_tol)):
            logs = np.array(logs, dtype=float)
            logs.flags.writeable = False
            _MOMENT_MEMO[(spec, n, rel_tol)] = logs
    return [_MOMENT_MEMO[(spec, n, rel_tol)] for n in orders]


def _log_c_gamma_sq_shells(spec: DomainSpec, orders, rel_tol):
    """log c_gamma^2 at every lattice point (g1, n - g1), one sequence per
    shell n, in order; only the profile path computes them all first."""
    shell = spec.shell
    if spec.kind == "profile":
        # Every shell is range(n + 1): g1 counts up from 0 as g2 counts down to 0.
        g1 = np.concatenate([np.arange(n + 1) for n in orders])
        g2 = np.concatenate([np.arange(n, -1, -1) for n in orders])
        radial = np.array(_interval_moments(spec.profile, 2.0 * g1 + 1.0, 2.0 * g2 + 2.0,
                                            0.0, 1.0, rel_tol))
        # log(g2 + 1) by math.log: np.log can differ from libm in the last bit.
        log_k = np.array([math.log(k + 1.0) for k in range(max(orders) + 1)])
        return np.split((_LOG_2PI2 - log_k[g2]) + radial, np.cumsum([n + 1 for n in orders])[:-1])
    if spec.kind in ("omega0", "omega_k"):
        return ([omega0_log_ck_sq(g1) for g1 in shell(n)] for n in orders)
    pieces = _shadow(spec)
    return (_region_log_moments(pieces, [(g1, n - g1) for g1 in shell(n)], rel_tol)
            for n in orders)


def clear_moment_caches():
    """Drop memoized moments (useful in long test sessions)."""
    _MOMENT_MEMO.clear()
