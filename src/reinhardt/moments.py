"""Log-domain monomial moments over complete Reinhardt domains.

The central quantities are the radial integrals

    M(x, y) = integral_0^1 r^x exp(-y phi(r)) dr

and the squared monomial norms c_gamma^2, which reduce to M via

    c_gamma^2 = 2 pi^2 / (g2 + 1) * M(2 g1 + 1, 2 g2 + 2)

on profile domains and to piecewise shadow integrals otherwise.  Closed
forms are used where a family admits one, and on the Wiegerinck domains,
whose unbounded shadows are never integrated; everything else goes
through the adaptive log-domain quadrature over a bounded shadow, so
every moment on the basis lattice is finite.  Every result is a plain
float log; a monomial off the basis lattice is not square-integrable
and has the log of an infinite norm, DIVERGENT = inf.

Moments are memoized a shell |gamma| = n at a time, as one read-only
array per (domain, n, settings).  A series walk requests all of its shells
at once (log_c_shells), and log_c_gamma_sq reads one entry of its shell.
On a profile domain the missing shells' radial integrals take one pass of
the analytic peak locator, which also gives each integrand's Laplace
scale and so its initial mesh (no grid scan), and are then integrated in
packs of consecutive rows, one log_integrate call per pack, each no larger
than the largest shell of the request.  A FiberPiece shadow integrates
one shell per log_integrate call.  The profile path also memoizes each
M(x, y), which the certificate's window masses divide by.  Each moment is
refined with the same panels and per-panel arithmetic as when it is
integrated alone, so neither the packing nor the cache changes a value.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .domains import (
    BoxPiece,
    DomainSpec,
    FiberPiece,
    MultiIndex,
    RadialRegion,
    radial_shadow,
)
from .errors import InvalidInputError, NumericalFailureError
from .logdomain import LOG_ZERO, log_sub_exp, log_sum_exp
from .profiles import RadialProfile, peak_radius
from .quadrature import DEFAULT_SETTINGS, QuadratureSettings, log_integrate
from .wiegerinck import omega0_log_ck_sq

_LOG_4PI2 = math.log(4.0 * math.pi**2)
_LOG_2PI2 = math.log(2.0 * math.pi**2)

# log c_gamma^2 of a monomial off the basis lattice: it is not square-integrable.
DIVERGENT = math.inf

# Multiples of the Laplace scale at which _mesh cuts a profile integrand.
_MESH_OFFSETS = np.array([sign * 0.75 * 2.0**j for j in range(10) for sign in (-1.0, 1.0)])

# Memoized log moments: radial integrals, one dict keyed by (x, y) per
# (profile, lo, hi, settings) interval, and one read-only log c_gamma^2 array
# per (domain, n, settings) shell.  Values never depend on whether they were
# computed alone or in a batch.
_RADIAL_MEMO: dict = {}
_MOMENT_MEMO: dict = {}
# One shadow per domain: building it costs more than a closed-form moment.
_shadow = lru_cache(maxsize=None)(radial_shadow)


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


# --------------------------------------------------------------------------
# Radial integrals M(x, y) for profile domains.
# --------------------------------------------------------------------------


def log_radial_moment(
    profile: RadialProfile,
    x,
    y,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
):
    """log of M(x, y) = integral_0^1 r^x exp(-y phi(r)) dr.

    Families with a closed form bypass quadrature entirely:
    phi = 0 gives 1/(x+1); phi = -log(1-r^2) gives B((x+1)/2, y+1)/2
    via log-gamma (substitute u = r^2).  Scalar or batch form, as in
    log_profile_interval_moment.
    """
    return log_profile_interval_moment(profile, x, y, 0.0, 1.0, settings)


def log_profile_interval_moment(
    profile: RadialProfile,
    x,
    y,
    lo: float,
    hi: float,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
):
    """log of integral_lo^hi r^x exp(-y phi(r)) dr.

    Batch form: when x and y are equal-length 1-D sequences, the call
    returns a list with one log per pair, and the pairs missing from the
    memo are integrated in one batched log_integrate call.  Each value
    equals the one a scalar call gives.
    """
    xs, ys = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if xs.ndim > 1 or xs.shape != ys.shape:
        raise InvalidInputError("moment exponents must be scalars or equal-length 1-D sequences")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise InvalidInputError(f"moment exponents must be finite, got x={x}, y={y}")
    if (xs < 0).any() or (ys < 0).any():
        raise InvalidInputError(f"moment exponents must be >= 0, got x={x}, y={y}")
    if not (0.0 <= lo < hi <= 1.0):
        raise InvalidInputError(f"interval [{lo}, {hi}] must sit inside [0, 1]")
    logs = _interval_moments(
        profile, np.atleast_1d(xs).tolist(), np.atleast_1d(ys).tolist(), float(lo), float(hi), settings
    )
    return logs if xs.ndim else logs[0]


def _interval_moments(profile, xs, ys, lo, hi, settings, pack=None) -> list:
    """log integral_lo^hi r^x exp(-y phi(r)) dr for each (x, y), memoized.

    Closed forms answer the full interval on the zero and -log(1-r^2)
    families; every other missing value is integrated by
    _integrated_moments, in packs of at most ``pack`` rows (default: one
    pack).
    """
    memo = _RADIAL_MEMO.setdefault((profile, lo, hi, settings), {})
    keys = list(zip(xs, ys))
    missing = [key for key in keys if key not in memo]
    if missing:
        mx, my = zip(*missing)
        full = lo == 0.0 and hi == 1.0
        if full and profile.name == "zero":
            logs = [-math.log(x + 1.0) for x in mx]
        elif full and profile.name == "neg_log_one_minus_r2":
            logs = [math.log(0.5) + _log_beta(0.5 * (x + 1.0), y + 1.0) for x, y in zip(mx, my)]
        else:
            logs = _integrated_moments(profile, np.array(mx, dtype=float), np.array(my, dtype=float),
                                       lo, hi, settings, pack or len(missing))
        memo.update(zip(missing, logs))
    return [memo[key] for key in keys]


def _integrated_moments(profile, xs, ys, lo, hi, settings, pack) -> list:
    """log integral_lo^hi r^x exp(-y phi(r)) dr: one peak and scale pass over
    every row, then one log_integrate call per pack of at most ``pack``
    consecutive rows (a row's value does not depend on its pack)."""
    peaks, scales = _peak_scales(profile, xs, ys, lo, hi)
    logs = []
    for start in range(0, xs.size, pack):
        rows = slice(start, start + pack)
        x, y = xs[rows], ys[rows]
        logs += _integrate(
            _profile_log_integrand(profile, x, y), x.size, lo, hi, settings,
            lambda i: f"integral of r^{x[i]:g} exp(-{y[i]:g} phi(r)) over [{lo:g}, {hi:g}]",
            _mesh(peaks[rows], scales[rows]),
        )
    return logs


def _integrate(log_f, size, lo, hi, settings, subject, presplit=()) -> list:
    """One batched log_integrate call over [lo, hi].  A failing row raises
    its error under subject(row), the name of the moment it computes, in
    place of its position in the batch; a row that reads log 0 underflowed
    at every node, since a moment integrand is positive on its interval."""
    try:
        logs = log_integrate(log_f, np.full(size, lo), np.full(size, hi), settings,
                             presplit=presplit).tolist()
    except (InvalidInputError, NumericalFailureError) as exc:
        if not hasattr(exc, "row"):
            raise
        reason = str(exc).removesuffix(f" (integrand {exc.row} of {size})")
        exc.args = (f"{subject(exc.row)}: {reason}",)
        raise
    if LOG_ZERO in logs:
        raise NumericalFailureError(
            f"{subject(logs.index(LOG_ZERO))} underflows to 0 at every quadrature node")
    return logs


def _profile_log_values(x, y, log_r, phi_r):
    """x log r - y phi(r), broadcast; a zero exponent drops its term even
    where log r or phi(r) is infinite."""
    out = np.multiply(x, log_r, out=np.zeros(np.broadcast_shapes(x.shape, log_r.shape)),
                      where=x != 0.0)
    with np.errstate(invalid="ignore"):
        return np.subtract(out, y * phi_r, out=out, where=y != 0.0)


def _profile_log_integrand(profile, xs, ys):
    """log_f(r, owner) of r^x exp(-y phi(r)) for a batch.  When every
    exponent is positive, as on the basis lattice (x = 2 g1 + 1,
    y = 2 g2 + 2), no term needs masking, and the plain expression gives
    the same bits as _profile_log_values without its temporaries."""
    phi = profile.phi
    positive = bool((xs > 0.0).all() and (ys > 0.0).all())

    def log_f(r, owner):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if positive:
                return xs[owner] * np.log(r) - ys[owner] * phi(r)
            return _profile_log_values(xs[owner], ys[owner], np.log(r), phi(r))

    return log_f


def _peak_scales(profile, xs, ys, lo, hi):
    """The peak r* of each r^x exp(-y phi(r)) on [lo, hi], the root of
    x = y r phi'(r) (profiles.peak_radius, one call for every row), and the
    Laplace scale s = 1/sqrt(x/r*^2 + y phi''(r*)) of the Gaussian that
    matches the log-integrand's curvature there.  Where that curvature
    overflows (inv_one_minus_pow from about p = 5e152, phi''(r*) ~ p^2),
    s = exp(-1/2 logaddexp(log x - 2 log r*, log y + log phi''(r*))).  Each
    row depends only on its own (x, y, lo, hi), as does its mesh.
    """
    peaks = peak_radius(profile, xs, ys, lo, hi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # -x/r^2 - y phi''(r), the log-integrand's second derivative, drops
        # a zero exponent's term as the log-integrand does.
        curvature = -_profile_log_values(xs, ys, -1.0 / np.square(peaks),
                                         np.asarray(profile.d2phi(peaks), dtype=float))
        scales = 1.0 / np.sqrt(curvature)
        huge = np.isinf(curvature)
        if huge.any():
            r, x, y = peaks[huge], xs[huge], ys[huge]
            log_d2phi = profile.log_d2phi(r) if profile.log_d2phi else np.log(profile.d2phi(r))
            scales[huge] = np.exp(-0.5 * np.logaddexp(
                np.where(x != 0.0, np.log(x) - 2.0 * np.log(r), -np.inf),
                np.where(y != 0.0, np.log(y) + log_d2phi, -np.inf)))
    return peaks, scales


def _mesh(peaks, scales) -> np.ndarray:
    """Initial panel cuts, one row per integrand (NaN = no cut): r* +- s c 2^j
    for c = 0.75 and j = 0..9, so a sharply concentrated integrand resolves
    in one or two rounds (log_integrate drops the cuts outside (lo, hi)).  A
    scale that is not positive and finite gives no cuts: cuts piled on r*
    could miss the peak, where with none the moment fails loudly."""
    cuts = peaks[:, None] + scales[:, None] * _MESH_OFFSETS
    cuts[~(np.isfinite(scales) & (scales > 0.0))] = np.nan
    return cuts


# --------------------------------------------------------------------------
# Shadow-region moments: c_gamma^2 = 4 pi^2 * double integral over the
# shadow of r1^(2g1+1) r2^(2g2+1).
# --------------------------------------------------------------------------


def _region_log_moments(region: RadialRegion, gammas, settings) -> list:
    """log c_gamma^2 over a bounded shadow region for each (g1, g2) pair.

    Every FiberPiece integrates all pairs in one batched log_integrate call.
    """
    fibers = [
        iter(_fiber_log_moments(piece, gammas, settings)) if isinstance(piece, FiberPiece) else None
        for piece in region.pieces
    ]
    return [
        _LOG_4PI2 + log_sum_exp([
            _box_log_moment(piece, gamma) if fiber is None else next(fiber)
            for piece, fiber in zip(region.pieces, fibers)
        ])
        for gamma in gammas
    ]


def _box_log_moment(piece: BoxPiece, gamma) -> float:
    return _axis_log_moment(piece.r1_lo, piece.r1_hi, 2 * gamma[0] + 1) + \
        _axis_log_moment(piece.r2_lo, piece.r2_hi, 2 * gamma[1] + 1)


def _axis_log_moment(lo: float, hi: float, power: int) -> float:
    # integral_lo^hi r^power dr, in log form
    p1 = power + 1.0
    top = p1 * math.log(hi)
    bottom = p1 * math.log(lo) if lo > 0.0 else LOG_ZERO
    return log_sub_exp(top, bottom) - math.log(p1)


def _fiber_log_moments(piece: FiberPiece, gammas, settings) -> list:
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

    return _integrate(log_f, xs.size, piece.r1_lo, piece.r1_hi, settings,
                      lambda i: "fiber integral of z^({},{})".format(*gammas[i]))


# --------------------------------------------------------------------------
# Squared monomial norms.
# --------------------------------------------------------------------------


def log_c_gamma_sq(
    spec: DomainSpec,
    gamma: MultiIndex,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """log c_gamma^2 for the domain, or DIVERGENT when gamma is off-basis:
    the entry of gamma in the array of its shell (log_c_shells)."""
    g1s = spec.lattice.shell(gamma.order)
    if gamma.g1 not in g1s:
        return DIVERGENT
    return float(log_c_shells(spec, (gamma.order,), settings)[0][g1s.index(gamma.g1)])


def log_c_shells(
    spec: DomainSpec,
    orders,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> list:
    """Read-only, memoized log c_gamma^2 arrays of the shells |gamma| = n for
    n in orders, each at the lattice points spec.lattice.shell(n) by g1.

    The shells missing from the memo are computed in one request.  Profile
    domains reduce to the radial integrals M(2g1+1, 2g2+2): one peak pass
    over all of them, then quadrature packs no larger than the largest
    shell asked for.  The Wiegerinck domains use the diagonal closed form
    (for the truncated family only the shared Omega_0 region is counted);
    everything else integrates its bounded shadow a shell at a time.
    """
    orders = list(orders)
    for n in orders:
        if n != int(n) or n < 0:
            raise InvalidInputError(f"shell index must be a nonnegative integer, got {n!r}")
    orders = [int(n) for n in orders]
    missing = [n for n in orders if (spec, n, settings) not in _MOMENT_MEMO]
    for n, logs in zip(missing, _log_c_gamma_sq_shells(spec, missing, settings)):
        logs = np.array(logs, dtype=float)
        logs.flags.writeable = False
        _MOMENT_MEMO[(spec, n, settings)] = logs
    return [_MOMENT_MEMO[(spec, n, settings)] for n in orders]


def _log_c_gamma_sq_shells(spec: DomainSpec, orders, settings):
    """log c_gamma^2 at every lattice point (g1, n - g1), one list per shell
    n, yielded in order; only the profile path computes them all first."""
    shell = spec.lattice.shell
    if spec.kind == "profile":
        radial = iter(_interval_moments(
            spec.profile,
            [2.0 * g1 + 1.0 for n in orders for g1 in shell(n)],
            [2.0 * (n - g1) + 2.0 for n in orders for g1 in shell(n)],
            0.0, 1.0, settings, pack=max((len(shell(n)) for n in orders), default=0),
        ))
        return ([_LOG_2PI2 - math.log(n - g1 + 1.0) + next(radial) for g1 in shell(n)] for n in orders)
    if spec.kind in ("omega0", "omega_k"):
        return ([omega0_log_ck_sq(g1) for g1 in shell(n)] for n in orders)
    return (_region_log_moments(_shadow(spec), [(g1, n - g1) for g1 in shell(n)], settings)
            for n in orders)


def clear_moment_caches():
    """Drop memoized moments (useful in long test sessions)."""
    _RADIAL_MEMO.clear()
    _MOMENT_MEMO.clear()
    _shadow.cache_clear()
