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

Moments come a shell |gamma| = n at a time: log_c_shell returns the
shell's read-only array, memoized under (domain, n, settings), and
log_c_gamma_sq reads one entry of it.  On the two quadrature paths, the
profile radial integral and the FiberPiece shadow, a shell is one batched
log_integrate call.  A profile integrand starts from a mesh graded away
from its analytic peak on its Laplace scale (no grid scan), and the
profile path also memoizes each M(x, y), which the certificate's window
masses divide by.  Each moment of a shell is refined with the same panels
and per-panel arithmetic as when it is integrated alone, so the cache
never changes a value.
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

# Multiples of the Laplace scale at which _auto_presplit cuts a profile integrand.
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


def _interval_moments(profile, xs, ys, lo, hi, settings) -> list:
    """log integral_lo^hi r^x exp(-y phi(r)) dr for each (x, y), memoized.

    Closed forms answer the full interval on the zero and -log(1-r^2)
    families; every other missing value is integrated in one batched
    log_integrate call.
    """
    memo = _RADIAL_MEMO.setdefault((profile, lo, hi, settings), {})
    keys = list(zip(xs, ys))
    missing = [i for i, key in enumerate(keys) if key not in memo]
    if missing:
        mx = [xs[i] for i in missing]
        my = [ys[i] for i in missing]
        full = lo == 0.0 and hi == 1.0
        if full and profile.name == "zero":
            logs = [-math.log(x + 1.0) for x in mx]
        elif full and profile.name == "neg_log_one_minus_r2":
            logs = [math.log(0.5) + _log_beta(0.5 * (x + 1.0), y + 1.0) for x, y in zip(mx, my)]
        else:
            mx, my = np.array(mx, dtype=float), np.array(my, dtype=float)
            presplit = _auto_presplit(profile, mx, my, lo, hi)
            logs = log_integrate(
                _profile_log_integrand(profile, mx, my), np.full(mx.size, lo),
                np.full(mx.size, hi), settings, presplit=presplit,
            ).tolist()
            if LOG_ZERO in logs:
                i = logs.index(LOG_ZERO)
                raise _profile_failure(profile, mx[i:i + 1], my[i:i + 1], lo, hi,
                                       scaled=not np.isnan(presplit[i]).all())
        for i, value in zip(missing, logs):
            memo[keys[i]] = value
    return [memo[key] for key in keys]


def _profile_log_values(x, y, log_r, phi_r):
    """x log r - y phi(r), broadcast; a zero exponent drops its term even
    where log r or phi(r) is infinite."""
    out = np.multiply(x, log_r, out=np.zeros(np.broadcast_shapes(x.shape, log_r.shape)),
                      where=x != 0.0)
    with np.errstate(invalid="ignore"):
        return np.subtract(out, y * phi_r, out=out, where=y != 0.0)


def _profile_log_integrand(profile, xs, ys):
    phi = profile.phi

    def log_f(r, owner):
        with np.errstate(divide="ignore", over="ignore"):
            return _profile_log_values(xs[owner], ys[owner], np.log(r), phi(r))

    return log_f


def _auto_presplit(profile, xs, ys, lo, hi) -> np.ndarray:
    """Initial panel cuts for each (x, y), one row each (NaN = no cut): a
    mesh graded away from the integrand peak on its Laplace scale.

    The peak r* is the analytic one, the root of x = y r phi'(r) on
    [lo, hi] (profiles.peak_radius), and the scale is that of the
    Gaussian that matches the log-integrand's curvature there,
    s = 1/sqrt(x/r*^2 + y phi''(r*)).  The cuts sit at r* +- s c 2^j for
    c = 0.75 and j = 0..9, so a sharply concentrated integrand resolves
    in one or two rounds; those outside (lo, hi) are dropped by
    log_integrate.  A row whose scale is not positive and finite gets no
    cuts: where y phi''(r*) overflows (p > 1.3e154 for inv_one_minus_pow)
    the scale reads 0, and cuts piled on r* would let the rule miss the
    peak and return a wrong value; with no cuts every node underflows and
    the moment fails loudly, naming the overflow.  Each row depends only on
    its own (x, y, lo, hi), so a moment's panels are the same in any batch.
    """
    peaks = peak_radius(profile, xs, ys, lo, hi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # -x/r^2 - y phi''(r), the log-integrand's second derivative, drops
        # a zero exponent's term as the log-integrand does.
        curvature = -_profile_log_values(xs, ys, -1.0 / np.square(peaks),
                                         np.asarray(profile.d2phi(peaks), dtype=float))
        scale = 1.0 / np.sqrt(curvature)
    cuts = peaks[:, None] + scale[:, None] * _MESH_OFFSETS
    cuts[~(np.isfinite(scale) & (scale > 0.0))] = np.nan
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

    logs = log_integrate(
        log_f, np.full(xs.size, piece.r1_lo), np.full(xs.size, piece.r1_hi), settings
    ).tolist()
    if LOG_ZERO in logs:
        raise _underflow("fiber integral of z^({},{})".format(*gammas[logs.index(LOG_ZERO)]))
    return logs


def _profile_failure(profile, x, y, lo, hi, scaled: bool) -> NumericalFailureError:
    """The error for an integral of r^x exp(-y phi(r)) (x, y: arrays of one)
    that reads 0 at every quadrature node.  Without a Laplace scale the mesh
    misses a peak where the integrand is finite; the message says so when
    that is the cause, and that the integrand underflows otherwise."""
    integral = f"integral of r^{x[0]:g} exp(-{y[0]:g} phi(r)) over [{lo:g}, {hi:g}]"
    if not scaled:
        peak = peak_radius(profile, x, y, lo, hi)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            phi_peak = np.asarray(profile.phi(peak), dtype=float)
            at_peak = _profile_log_values(x, y, np.log(peak), phi_peak)
        if np.isfinite(at_peak).all():
            return NumericalFailureError(
                f"{integral}: y phi''(r*) overflows at the integrand peak r* = {peak[0]:.6g}, "
                "so the quadrature mesh has no Laplace scale to find it"
            )
    return _underflow(integral)


def _underflow(integral: str) -> NumericalFailureError:
    # A moment integrand is positive on its interval, so a log of 0 means it
    # underflowed at every quadrature node, not that the moment is 0.
    return NumericalFailureError(f"{integral} underflows to 0 at every quadrature node")


# --------------------------------------------------------------------------
# Squared monomial norms.
# --------------------------------------------------------------------------


def log_c_gamma_sq(
    spec: DomainSpec,
    gamma: MultiIndex,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """log c_gamma^2 for the domain, or DIVERGENT when gamma is off-basis:
    the entry of gamma in the array of its shell (log_c_shell)."""
    g1s = spec.lattice.shell(gamma.order)
    if gamma.g1 not in g1s:
        return DIVERGENT
    return float(log_c_shell(spec, gamma.order, settings)[g1s.index(gamma.g1)])


def log_c_shell(
    spec: DomainSpec,
    n: int,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> np.ndarray:
    """Read-only, memoized log c_gamma^2 at the lattice points
    spec.lattice.shell(n) of the shell |gamma| = n, by g1; every entry is
    finite.

    Profile domains reduce to the radial integrals M(2g1+1, 2g2+2); the
    Wiegerinck domains use the diagonal closed form (for the truncated
    family only the shared Omega_0 region is counted, the connecting
    strip is never integrated); everything else integrates its bounded
    shadow.
    """
    if n != int(n) or n < 0:
        raise InvalidInputError(f"shell index must be a nonnegative integer, got {n!r}")
    key = (spec, int(n), settings)
    logs = _MOMENT_MEMO.get(key)
    if logs is None:
        logs = np.array(_log_c_gamma_sq_batch(spec, int(n), settings), dtype=float)
        logs.flags.writeable = False
        _MOMENT_MEMO[key] = logs
    return logs


def _log_c_gamma_sq_batch(spec: DomainSpec, n: int, settings) -> list:
    """log c_gamma^2 at every lattice point (g1, n - g1) of shell n."""
    gammas = [(g1, n - g1) for g1 in spec.lattice.shell(n)]
    if spec.kind == "profile":
        radial = _interval_moments(
            spec.profile,
            [2.0 * g1 + 1.0 for g1, _ in gammas],
            [2.0 * g2 + 2.0 for _, g2 in gammas],
            0.0, 1.0, settings,
        )
        return [_LOG_2PI2 - math.log(g2 + 1.0) + r for (_, g2), r in zip(gammas, radial)]
    if spec.kind in ("omega0", "omega_k"):
        return [omega0_log_ck_sq(g1) for g1, _ in gammas]
    return _region_log_moments(_shadow(spec), gammas, settings)


def clear_moment_caches():
    """Drop memoized moments (useful in long test sessions)."""
    _RADIAL_MEMO.clear()
    _MOMENT_MEMO.clear()
    _shadow.cache_clear()
