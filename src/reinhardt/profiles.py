"""Radial weight profiles for Hartogs-type Reinhardt domains in C^2.

A profile phi : [0,1) -> R defines the domain

    { (z1, z2) : |z1| < 1, |z2| < exp(-phi(|z1|)) }.

First and second derivatives are carried analytically because the
divergence certificate needs r*phi'(r) and the subharmonicity margin
phi'' + phi'/r pointwise.  All callables are numpy-vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInputError, is_finite_number

FAMILIES = ("zero", "neg_log_one_minus_r2", "inv_one_minus_pow")

# Rows per block of peak_radius's Newton loop, which holds about 16 arrays of
# its rows at once: 0.5 MB a block, where a walk's 20,706 rows would take 3 MB.
_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """A C^2 radial weight with analytic derivatives.

    Identity for caching purposes is (name, params), so distinct profiles
    must carry distinct names.  An array phi returns may be written over,
    so phi must not keep it.
    """

    name: str
    phi: Callable
    dphi: Callable
    d2phi: Callable
    params: tuple = field(default=())
    # log phi''(r), finite where phi'' overflows; None reads it as log(d2phi(r)).
    log_d2phi: Callable | None = None
    # log M(x, y) = log integral_0^1 r^x exp(-y phi(r)) dr for float arrays x
    # and y, as a list; None integrates M by quadrature.
    log_moment: Callable | None = None

    def __eq__(self, other):
        if not isinstance(other, RadialProfile):
            return NotImplemented
        return (self.name, self.params) == (other.name, other.params)

    def __hash__(self):
        return hash((self.name, self.params))

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"RadialProfile({self.name}{':' if ps else ''}{ps})"


def profile_family(name: str, params: dict | None = None) -> RadialProfile:
    """Instantiate one of the built-in profile families.

    zero                  phi(r) = 0                 M(x, y) = 1/(x+1)
    neg_log_one_minus_r2  phi(r) = -log(1 - r^2)     M(x, y) = B((x+1)/2, y+1)/2
    inv_one_minus_pow     phi(r) = (1 - r)^(-p),  p > 0

    Only these families are accepted: the certificate pipeline needs
    trustworthy derivatives, which a free-form user function cannot
    supply.  A family with a closed form for its moments M(x, y) carries
    their log as log_moment (the beta function by log-gamma, with u = r^2).
    """
    params = dict(params or {})
    if name == "zero":
        _reject_params(name, params)
        return RadialProfile(
            name="zero",
            phi=lambda r: 0.0 * np.asarray(r, dtype=float),
            dphi=lambda r: 0.0 * np.asarray(r, dtype=float),
            d2phi=lambda r: 0.0 * np.asarray(r, dtype=float),
            log_moment=lambda xs, ys: [-math.log(x + 1.0) for x in map(float, xs)],
        )
    if name == "neg_log_one_minus_r2":
        _reject_params(name, params)
        return RadialProfile(
            name="neg_log_one_minus_r2",
            phi=_neg_log_one_minus_r2,
            dphi=lambda r: 2.0 * r / (1.0 - np.square(r)),
            d2phi=lambda r: (2.0 + 2.0 * np.square(r)) / np.square(1.0 - np.square(r)),
            log_moment=lambda xs, ys: [math.log(0.5) + _log_beta(0.5 * (x + 1.0), y + 1.0)
                                       for x, y in zip(map(float, xs), map(float, ys))],
        )
    if name == "inv_one_minus_pow":
        p = params.pop("p", None)
        _reject_params(name, params)
        if not is_finite_number(p) or p <= 0:
            raise InvalidInputError("inv_one_minus_pow requires a parameter p > 0")
        p = float(p)

        def power(r, k):
            # (1-r)^-(p+k) as exp(-(p+k) log1p(-r)), in one buffer, never in r:
            # a relative error of about 1 + log((1-r)^-(p+k)) ulps, below 710
            # wherever it is finite.  np.power(1 - r, -p) rounds 1 - r first,
            # which costs p ulps and reads phi = 1 for every r below 1.1e-16.
            t = np.negative(r, out=np.empty(np.shape(r)), dtype=float)
            np.multiply(np.log1p(t, out=t), -(p + k), out=t)
            return np.exp(t, out=t)[()]

        return RadialProfile(
            name="inv_one_minus_pow",
            phi=lambda r: power(r, 0.0),
            dphi=lambda r: p * power(r, 1.0),
            d2phi=lambda r: p * (p + 1.0) * power(r, 2.0),
            params=(("p", p),),
            log_d2phi=lambda r: (math.log(p) + math.log(p + 1.0)
                                 - (p + 2.0) * np.log1p(-np.asarray(r, dtype=float))),
        )
    raise InvalidInputError(f"unknown profile family {name!r}; choose from {FAMILIES}")


def peak_radius(profile: RadialProfile, x, y, lo: float, hi: float) -> np.ndarray:
    """The peak of r^x exp(-y phi(r)) on [lo, hi] for each (x, y) of a batch
    of positive exponents.

    Inside (lo, hi) the peak is the root of g(r) = x - y r phi'(r), which
    decreases where r phi'(r) increases (a subharmonic phi).  A row with
    no sign change gets the nearer endpoint: lo where g(lo) <= 0, hi where
    g(hi) >= 0.  The root is found by Newton steps on
    log(r phi'(r)) - log(x/y) in t = log(r/(1-r)), nearly linear in t at
    both ends of (0, 1) for the built-in families, kept inside a shrinking
    bracket: a step that would leave the bracket, or that phi' or phi''
    overflows, bisects the bracket in t instead.  A row stops after a
    Newton step below 1e-9 relative (its error is then of order the step
    squared) or once its bracket has collapsed, so its value does not
    depend on the rest of the batch, which is iterated in blocks of rows.
    """
    xs, ys = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    xs, ys = xs.ravel(), ys.ravel()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g_lo, g_hi = (xs - ys * (end * profile.dphi(end)) for end in (float(lo), float(hi)))
        peaks = np.where(g_lo > 0.0, float(hi), float(lo))
        inside = np.nonzero((g_lo > 0.0) & (g_hi < 0.0))[0]
        del g_lo, g_hi
        for start in range(0, inside.size, _BLOCK):
            rows = inside[start:start + _BLOCK]
            peaks[rows] = _newton_peaks(profile, np.log(xs[rows] / ys[rows]), float(lo), float(hi))
    return peaks


def _newton_peaks(profile, log_ratio, lo, hi):
    """The root inside (lo, hi) of log(r phi'(r)) = log_ratio for each row."""
    rows = np.arange(log_ratio.size)
    peaks = np.empty(log_ratio.size)
    a, b = np.full(rows.size, lo), np.full(rows.size, hi)
    r = 0.5 * (a + b)
    for _ in range(200):
        if rows.size == 0:
            break
        dphi = np.asarray(profile.dphi(r), dtype=float)
        value = np.log(r * dphi) - log_ratio
        slope = (1.0 - r) * (1.0 + r * np.asarray(profile.d2phi(r), dtype=float) / dphi)
        newton = 1.0 / (1.0 + (1.0 - r) / r * np.exp(value / slope))
        root_above = value < 0.0
        a, b = np.where(root_above, r, a), np.where(root_above, b, r)
        # An overflowed phi'' makes the slope infinite and the step 0.
        converged = (np.abs(newton - r) <= 1e-9 * r) & np.isfinite(slope)
        r = np.minimum(np.maximum(newton, a), b)
        bisect = ~((a < newton) & (newton < b) | converged)
        if bisect.any():
            r[bisect] = _logit_midpoint(a[bisect], b[bisect])
        done = converged | (b - a <= 1e-15 * r)
        if done.any():
            peaks[rows[done]] = r[done]
            keep = ~done
            rows, log_ratio, a, b, r = (v[keep] for v in (rows, log_ratio, a, b, r))
    peaks[rows] = r
    return peaks


def _logit_midpoint(a, b):
    """The midpoint of [a, b] in t = log(r/(1-r)), with t kept inside
    [-708, 37] so that an endpoint at 0 or 1 still gives an interior point.
    A step halves the bracket's width in t: the peak near r = 1e-150 of
    inv_one_minus_pow at p = 1e150 takes eight iterations, where halving
    in r would take about 500."""
    with np.errstate(divide="ignore"):
        ta, tb = (np.clip(np.log(e) - np.log1p(-e), -708.0, 37.0) for e in (a, b))
    return np.minimum(np.maximum(1.0 / (1.0 + np.exp(-0.5 * (ta + tb))), a), b)


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _neg_log_one_minus_r2(r):
    t = np.square(r, out=np.empty(np.shape(r)), dtype=float)  # -log1p(-r^2) in one buffer
    np.negative(t, out=t)
    return np.negative(np.log1p(t, out=t), out=t)[()]


def _reject_params(name, params):
    if params:
        raise InvalidInputError(f"unexpected parameters for family {name!r}: {sorted(params)}")
