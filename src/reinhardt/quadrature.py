"""Globally adaptive Gauss-Kronrod integration of log-scale integrands.

The integrand is supplied as ``r -> log f(r)`` (vectorized, f >= 0) and
the integral is returned as ``log of the integral``.  Each panel is
exponent-shifted by its own log-maximum before the 7/15-point rule pair
is applied, so integrands whose magnitude spans thousands of orders of
magnitude neither overflow nor underflow.  Panels are bisected in
rounds, following QUADPACK's globally adaptive strategy (Piessens et
al., 1983): every panel holding more than its share of its integrand's
error budget is split.

One call integrates a whole batch of integrands, such as every moment
of one shell ``|gamma| = n``.  The panels of all integrands sit in one
table ordered by owner (the integrand's index in the batch); each
refinement round evaluates every new panel with one call of the
integrand, and per-integrand totals are segment reductions over the
table.  Each integrand keeps its own stop rule, split rule and
subdivision budget, and leaves the table once it has converged.  A
single integrand is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .logdomain import LOG_ZERO

# 15-point Kronrod nodes on [-1, 1] in ascending order; the embedded
# 7-point Gauss rule uses the odd-indexed nodes.
_K = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WK_HALF = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG_HALF = np.array([
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
])

_XGK = np.concatenate([-_K[:7], [0.0], _K[6::-1]])
_WGK = np.concatenate([_WK_HALF[:7], [_WK_HALF[7]], _WK_HALF[6::-1]])
_WG = np.concatenate([_WG_HALF[:3], [_WG_HALF[3]], _WG_HALF[2::-1]])


@dataclass(frozen=True)
class QuadratureSettings:
    """Accuracy knobs shared by every adaptive integral in the package."""

    rel_tol: float = 1e-10
    max_subdivisions: int = 10**6

    def __post_init__(self):
        # Booleans are ints to Python, but no setting is a truth value.
        rel_tol, budget = self.rel_tol, self.max_subdivisions
        real = isinstance(rel_tol, (int, float)) and not isinstance(rel_tol, bool)
        if not (real and 0 < rel_tol <= 1e-4):
            raise InvalidInputError(f"rel_tol must lie in (0, 1e-4], got {rel_tol!r}")
        if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
            raise InvalidInputError(f"max_subdivisions must be a positive integer, got {budget!r}")


DEFAULT_SETTINGS = QuadratureSettings()


def _eval_panels(log_f, los, his, owner):
    """Rule pair on a table of panels; returns one row (log value, log
    error estimate) per panel.

    A panel whose nodes all sit at log 0 contributes nothing; +inf or
    NaN values surface later as a NaN total, which the driver rejects.
    """
    half = 0.5 * (his - los)
    mid = 0.5 * (his + los)
    lf = np.asarray(log_f(mid[:, None] + half[:, None] * _XGK, owner[:, None]), dtype=float)
    lf = lf.reshape(los.size, _XGK.size)
    shift = lf.max(axis=1)
    empty = shift == LOG_ZERO
    bad = ~np.isfinite(shift) & ~empty
    safe_shift = np.where(empty | bad, 0.0, shift)
    w = np.exp(lf - safe_shift[:, None])
    # Row sums, not a matrix product: a panel's value then does not
    # depend on how many other panels share the call.
    k = (w * _WGK).sum(axis=1)
    g = (w[:, 1::2] * _WG).sum(axis=1)
    rule = np.empty((los.size, 2))
    rule[:, 0] = k
    rule[:, 1] = np.abs(k - g)
    out = np.log(np.maximum(rule, 1e-300)) + (safe_shift + np.log(half))[:, None]
    out[empty] = LOG_ZERO
    out[bad, 0] = np.nan
    return out


def _segment_logsumexp(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Column-wise log-sum-exp of each run of ``counts[i]`` rows beginning at ``starts[i]``."""
    top = np.maximum.reduceat(values, starts)
    finite = np.isfinite(top)
    shift = np.where(finite, top, 0.0)
    sums = np.add.reduceat(np.exp(values - shift.repeat(counts, axis=0)), starts)
    return np.where(finite, shift + np.log(sums), top)


def _failure(message: str, log_val: float, log_err: float) -> NumericalFailureError:
    return NumericalFailureError(
        message,
        best_estimate=float(log_val),
        achieved_error=math.exp(min(float(log_err - log_val), 700.0)),
    )


def _of_row(error: Exception, row) -> Exception:
    # Tag the error with the failing integrand's index, for callers to name it.
    error.row = int(row)
    return error


def log_integrate(
    log_f,
    a,
    b,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
    presplit=(),
):
    """log of integral of exp(log_f) over [a, b], to settings.rel_tol.

    ``presplit`` lists interior points at which the initial panels are
    cut (used to isolate a decayed right tail before bisection starts).
    Raises NumericalFailureError, carrying the best estimate, if the
    subdivision budget is exhausted first.

    ``log_f`` must work elementwise on an array of radii of any shape.

    Batch form: when ``a`` and ``b`` are 1-D arrays of m bounds, the call
    integrates m integrands at once and returns an array of m logs.
    ``log_f(r, owner)`` then receives a 2-D array of radii, one row per
    panel, and a column holding the index of the integrand that owns
    each row (it broadcasts against ``r``); ``presplit`` is empty or a
    2-D array with one row of cuts per integrand (NaN entries are
    ignored, so rows of different lengths can be padded).  An integrand
    that fails raises the error a call on it alone would raise, with its
    own best estimate and achieved error; the error's ``row`` is the
    integrand's index in the batch.
    """
    if np.ndim(a) == 0:
        scalar_f = log_f
        logs = _integrate_batch(
            lambda r, owner: scalar_f(r), np.array([a], dtype=float),
            np.array([b], dtype=float), settings, np.array([list(presplit)], dtype=float),
        )
        return float(logs[0])
    return _integrate_batch(
        log_f, np.asarray(a, dtype=float), np.asarray(b, dtype=float), settings,
        np.asarray(presplit, dtype=float),
    )


def _initial_panels(a, b, cuts):
    """Panels between a, the distinct cuts inside (a, b) in ascending order,
    and b, for each integrand; returns (los, his, owner)."""
    cuts = np.sort(cuts, axis=1)
    inside = (a[:, None] < cuts) & (cuts < b[:, None])
    inside[:, 1:] &= cuts[:, 1:] != cuts[:, :-1]
    points = np.empty((a.size, cuts.shape[1] + 2))
    points[:, 0], points[:, 1:-1], points[:, -1] = a, cuts, b
    keep = np.ones(points.shape, dtype=bool)
    keep[:, 1:-1] = inside
    flat = points[keep]
    n_panels = inside.sum(axis=1) + 1
    # Consecutive points pair up into panels, except across integrands.
    pair = np.ones(flat.size - 1, dtype=bool)
    pair[(n_panels + 1).cumsum()[:-1] - 1] = False
    return flat[:-1][pair], flat[1:][pair], np.arange(a.size).repeat(n_panels)


def _integrate_batch(log_f, a, b, settings, presplit) -> np.ndarray:
    size = a.size
    if presplit.size == 0:
        presplit = np.empty((size, 0))
    if a.shape != (size,) or b.shape != (size,) or presplit.ndim != 2 or len(presplit) != size:
        raise InvalidInputError("a batch needs one lower bound, upper bound and presplit row per integrand")
    if size == 0:
        return np.empty(0)
    which = (lambda i: f" (integrand {i} of {size})") if size > 1 else (lambda i: "")
    empty = ~(b > a)
    if empty.any():
        i = int(np.argmax(empty))
        raise InvalidInputError(f"empty integration interval [{a[i]}, {b[i]}]{which(i)}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _refine(log_f, *_initial_panels(a, b, presplit), size, settings, which)


def _refine(log_f, los, his, owner, size, settings, which) -> np.ndarray:
    """The adaptive loop over a panel table ordered by owner."""
    rules = _eval_panels(log_f, los, his, owner)
    result = np.empty(size)
    splits = np.zeros(size, dtype=np.int64)
    log_goal = math.log(settings.rel_tol)
    while True:
        counts = np.bincount(owner, minlength=size)
        ids = counts.nonzero()[0]
        counts = counts[ids]
        totals = _segment_logsumexp(rules, counts.cumsum() - counts, counts)
        total_val, total_err = totals[:, 0], totals[:, 1]
        nan = np.isnan(totals).any(axis=1)
        if nan.any():
            i = int(ids[nan.argmax()])
            raise _of_row(InvalidInputError(
                "log-integrand produced NaN or +inf inside the integration interval" + which(i)
            ), i)
        done = total_err <= log_goal + total_val
        result[ids[done]] = total_val[done]
        if done.all():
            return result
        exhausted = ~done & (splits[ids] >= settings.max_subdivisions)
        if exhausted.any():
            i = int(exhausted.argmax())
            raise _of_row(_failure(
                f"quadrature needed more than {settings.max_subdivisions} subdivisions"
                + which(int(ids[i])), total_val[i], total_err[i],
            ), ids[i])
        # Split every panel holding more than a 1/(2P) share of its
        # integrand's error budget; the worst panel always exceeds it, so
        # progress is sure.  Panels of converged integrands leave the table.
        live = (~done).repeat(counts)
        budget = (log_goal + total_val - np.log(2.0 * counts)).repeat(counts)
        split = live & (rules[:, 1] > budget)
        mids = 0.5 * (los[split] + his[split])
        degenerate = (mids <= los[split]) | (mids >= his[split])
        if degenerate.any():
            i = int(np.searchsorted(ids, owner[split][degenerate.argmax()]))
            raise _of_row(_failure(
                "quadrature panel collapsed to machine precision" + which(int(ids[i])),
                total_val[i], total_err[i],
            ), ids[i])
        splits += np.bincount(owner[split], minlength=size)
        # Each split panel is replaced in place by its two halves, so the
        # table stays ordered by owner and, within an owner, by position.
        copies = live.astype(np.intp) + split
        left = (copies.cumsum() - copies)[split]
        owner, los, his = owner.repeat(copies), los.repeat(copies), his.repeat(copies)
        rules = rules.repeat(copies, axis=0)
        his[left] = mids
        los[left + 1] = mids
        halves = np.concatenate([left, left + 1])
        rules[halves] = _eval_panels(log_f, los[halves], his[halves], owner[halves])
