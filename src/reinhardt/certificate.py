"""Certified linear lower bounds for the diagnostic series on profile domains.

The pipeline mirrors how divergence is actually proved on a pseudoconvex
profile domain:

1. subharmonicity of phi(|z1|) is checked through its Laplacian
   phi'' + phi'/r on a dense grid;
2. a window (a, b) with 0 < a phi'(a) < b phi'(b) is selected, on which
   r phi'(r) is positive;
3. for exponent pairs (x, y) with x/y inside (A, B) = (a phi'(a), b phi'(b)),
   the normalized density r^x exp(-y phi(r)) / M(x, y) is unimodal with
   its peak inside (a, b), so at least half of its mass sits on
   [a/2, (1+b)/2] -- this is verified numerically for every pair used;
4. each shell summand with index in the window contributes at least
   lambda_alpha = min of r^(2 a1) exp(-2 a2 phi) over [a/2, (1+b)/2],
   scaled by 1/(2 (1 + a2)), giving the bound lambda_alpha * |I_N|,
   linear in N because the window captures a fixed fraction of indices.
   For convex phi the minimum sits at an endpoint of the interval, so
   it is evaluated exactly there.

certificate_ladder does steps 1, 2 and the weight of step 4 once, then
checks the masses of every rung's window with one batch per ladder: a
single density_mass call, which integrates the window moments and their
denominators M(x, y) afresh, packed like the walk; neither this module nor
the moments layer caches them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .domains import MultiIndex
from .errors import InvalidInputError, NumericalFailureError, check_index
from .moments import log_profile_interval_moment, log_radial_moment
from .profiles import RadialProfile
from .quadrature import REL_TOL

_WINDOW_THRESHOLD = 0.1   # smallest accepted value of r phi'(r) at the left edge
_GRID_EPS = 1e-6
_SUBHARMONIC_GRID = 1000  # points at which check_subharmonic evaluates the Laplacian
_CONVEXITY_GRID = 1000    # points at which lambda_alpha checks phi'' >= 0


@dataclass(frozen=True)
class SubharmonicityCheck:
    passed: bool
    worst_margin: float
    worst_r: float


def check_subharmonic(profile: RadialProfile) -> SubharmonicityCheck:
    """Evaluate phi'' + phi'/r on a geometric-plus-uniform grid.

    Passes when the minimum stays above -1e-9; the worst margin and its
    location are reported either way.
    """
    half = _SUBHARMONIC_GRID // 2
    uniform = np.linspace(_GRID_EPS, 1.0 - _GRID_EPS, half)
    geometric = np.geomspace(_GRID_EPS, 1.0 - _GRID_EPS, _SUBHARMONIC_GRID - half)
    grid = np.sort(np.concatenate([uniform, geometric]))  # np.unique imports numpy.ma
    grid = grid[np.append(True, grid[1:] != grid[:-1])]
    with np.errstate(over="ignore"):
        laplacian = np.asarray(profile.d2phi(grid), dtype=float) \
            + np.asarray(profile.dphi(grid), dtype=float) / grid
    if np.isnan(laplacian).any():
        raise InvalidInputError("derivative evaluation failed on the grid")
    worst = int(np.argmin(laplacian))
    margin = float(laplacian[worst])
    return SubharmonicityCheck(passed=margin >= -1e-9, worst_margin=margin,
                               worst_r=float(grid[worst]))


@dataclass(frozen=True)
class Window:
    """A subinterval (a, b) of (0, 1) with 0 < A = a phi'(a) < B = b phi'(b)."""

    a: float
    b: float
    A: float
    B: float

    def __post_init__(self):
        if not (0.0 < self.a < self.b < 1.0):
            raise InvalidInputError(f"window endpoints must satisfy 0 < a < b < 1: {self}")
        if not (0.0 < self.A < self.B):
            raise InvalidInputError(f"window requires 0 < A < B strictly: {self}")

    @property
    def inner_lo(self) -> float:
        return 0.5 * self.a

    @property
    def inner_hi(self) -> float:
        return 0.5 * (1.0 + self.b)


_WINDOW_GRID_STEP = 1e-4


def find_window(profile: RadialProfile) -> Window:
    """Deterministic window selection.

    Scans the uniform 1e-4 grid for the first point where r phi'(r)
    reaches 0.1, takes it as a, and places b at (a+1)/2, where
    b phi'(b) > a phi'(a) and phi(b) < inf must hold.  No b nearer 1 does
    better: r phi'(r) does not decrease for a subharmonic phi, and phi(b)
    overflows for every larger b once it overflows.
    """
    grid = np.arange(1, int(round(1.0 / _WINDOW_GRID_STEP))) * _WINDOW_GRID_STEP
    with np.errstate(over="ignore"):  # phi, phi' -> inf near r = 1 fail the checks
        rdphi = grid * np.asarray(profile.dphi(grid), dtype=float)
        hits = np.nonzero(rdphi >= _WINDOW_THRESHOLD)[0]
        if hits.size == 0:
            raise InvalidInputError(
                f"profile {profile!r} does not grow to infinity: r*phi'(r) never reaches "
                f"{_WINDOW_THRESHOLD} on the grid"
            )
        a = float(grid[hits[0]])
        big_a = float(a * profile.dphi(a))
        b = 0.5 * (a + 1.0)
        big_b = float(b * profile.dphi(b))
        if not (big_b > big_a and math.isfinite(float(profile.phi(b)))):
            raise InvalidInputError(f"no usable window endpoint b for {profile!r}")
    return Window(a=a, b=b, A=big_a, B=big_b)


def density_mass(
    profile: RadialProfile,
    x,
    y,
    interval,
    rel_tol: float = REL_TOL,
) -> list:
    """Mass of the normalized density r^x exp(-y phi) / M(x,y) on [lo, hi]
    for each pair of the equal-length 1-D sequences x and y, as a list; a
    single mass is a batch of one."""
    try:
        lo, hi = interval
    except (TypeError, ValueError):
        raise InvalidInputError(f"the mass interval must be a pair (lo, hi), got {interval!r}") from None
    numerator = log_profile_interval_moment(profile, x, y, lo, hi, rel_tol)
    denominator = log_radial_moment(profile, x, y, rel_tol)
    return [math.exp(num - den) for num, den in zip(numerator, denominator)]


def index_window(window: Window, n: int) -> list:
    """The indices k of the n-th shell whose exponent pair falls in the window:
    the integers in (0, n) strictly between (2A/(2A+2)) n + (2A-1)/(2A+2)
    and (2B/(2B+2)) n + (2B-1)/(2B+2), so that A < (2k+1)/(2n-2k+2) < B.
    """
    n = check_index(n, "shell index must be a positive integer, got {!r}", 1)
    lo = (2.0 * window.A / (2.0 * window.A + 2.0)) * n + (2.0 * window.A - 1.0) / (2.0 * window.A + 2.0)
    hi = (2.0 * window.B / (2.0 * window.B + 2.0)) * n + (2.0 * window.B - 1.0) / (2.0 * window.B + 2.0)
    lo, hi = max(lo, 0.0), min(hi, float(n))
    return [k for k in range(math.floor(lo) + 1, math.ceil(hi)) if lo < k < hi]


def lambda_alpha(profile: RadialProfile, alpha: MultiIndex, window: Window) -> float:
    """min over [a/2, (1+b)/2] of r^(2 a1) exp(-2 a2 phi(r)), over 2 (1 + a2).

    The log of the factor, 2 a1 log r - 2 a2 phi(r), is concave where
    phi'' >= 0, so its minimum over the interval is the smaller of its
    two endpoint values.  A profile with phi'' < 0 somewhere on a grid of
    the interval is rejected, since the endpoints would not bound the
    minimum there.  The result is the per-summand certificate weight.
    """
    lo, hi = window.inner_lo, window.inner_hi
    with np.errstate(over="ignore"):
        d2phi = np.asarray(profile.d2phi(np.linspace(lo, hi, _CONVEXITY_GRID)), dtype=float)
    if (d2phi < 0.0).any():
        raise InvalidInputError(
            f"profile {profile!r} is not convex on [{lo:g}, {hi:g}]: the certificate "
            "weight needs phi'' >= 0 there"
        )

    def log_factor(r):
        out = 2.0 * alpha.g1 * math.log(r)
        return out - 2.0 * alpha.g2 * float(profile.phi(r)) if alpha.g2 else out

    with np.errstate(over="ignore"):  # phi(hi) = inf gives the weight 0
        return math.exp(min(log_factor(lo), log_factor(hi))) / (2.0 * (1.0 + alpha.g2))


@dataclass(frozen=True)
class CertificateEntry:
    """One certified bound S_alpha(n) >= lambda * count with its evidence."""

    n: int
    count: int
    bound: float
    mass_checks: tuple        # ((x, y), mass) for every k in the window
    prefactor_min: float


@dataclass(frozen=True)
class Certificate:
    """Certified bounds along a ladder of truncation indices."""

    alpha: MultiIndex
    window: Window
    lam: float
    entries: tuple

    @property
    def bounds(self):
        return tuple((e.n, e.bound) for e in self.entries)


def certificate_ladder(
    profile: RadialProfile,
    alpha: MultiIndex,
    ns,
    rel_tol: float = REL_TOL,
) -> Certificate:
    """Assemble and verify the linear lower bound at every index n of ns.

    The profile checks, the window and lambda_alpha run once, and a weight
    that is not a positive normal float is refused.  So does density_mass:
    one batch per ladder over the pairs of every window, packed like the walk.  Rung by rung, in the order of ns, every shell
    index k in the window of n gets its mass checked (>= 1/2) and its
    prefactor (n-k+1)/(n-k+a2+1) compared against 1/(1+a2), with no
    slack; a failed check raises with the offending pair.
    """
    if alpha.order == 0:
        raise InvalidInputError("certificates are defined for nonzero symbol indices")
    ns = tuple(ns)
    if not ns:
        raise InvalidInputError("certificate ladder needs at least one index")
    sub = check_subharmonic(profile)
    if not sub.passed:
        raise InvalidInputError(
            f"profile is not subharmonic: margin {sub.worst_margin:g} at r={sub.worst_r:g}"
        )
    window = find_window(profile)
    lam = lambda_alpha(profile, alpha, window)
    if not lam >= np.finfo(float).tiny:  # a bound of 0 certifies nothing
        raise InvalidInputError(f"the certificate weight for alpha={alpha} on {profile!r} is "
                                f"{lam:g}, not a positive normal float")
    windows = [index_window(window, n) for n in ns]
    xs = [2.0 * k + 1.0 for ks in windows for k in ks]
    ys = [2.0 * (n - k) + 2.0 for n, ks in zip(ns, windows) for k in ks]
    masses = density_mass(profile, xs, ys, (window.inner_lo, window.inner_hi), rel_tol)
    checks = zip(zip(xs, ys), masses)
    entries = []
    for n, ks in zip(ns, windows):
        mass_checks = tuple(islice(checks, len(ks)))
        prefactor_min = 1.0
        for k, ((x, y), mass) in zip(ks, mass_checks):
            if not mass >= 0.5:
                raise NumericalFailureError(
                    f"window mass {mass:.9g} < 1/2 at (x, y) = ({x:g}, {y:g})",
                    best_estimate=mass,
                )
            prefactor = (n - k + 1.0) / (n - k + alpha.g2 + 1.0)
            prefactor_min = min(prefactor_min, prefactor)
            if prefactor < 1.0 / (1.0 + alpha.g2):
                raise NumericalFailureError(
                    f"prefactor {prefactor:.9g} fell below 1/(1+a2) at k={k}"
                )
        entries.append(CertificateEntry(
            n=int(n),
            count=len(ks),
            bound=lam * len(ks),
            mass_checks=mass_checks,
            prefactor_min=prefactor_min,
        ))
    return Certificate(alpha=alpha, window=window, lam=lam, entries=tuple(entries))
