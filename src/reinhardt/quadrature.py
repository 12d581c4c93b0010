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

The relative tolerance is a plain number, as in QUADPACK: one float in
(0, 1e-4], REL_TOL by default, checked by check_rel_tol wherever it enters
the package.  The subdivision budget is the constant _MAX_SUBDIVISIONS,
a hard cap: no integrand takes more splits.

The nodes of a round are laid out node-major: a (15, panels) array with
one contiguous row per Kronrod node, so the integrand, the shift and the
weighted sums each run as long vector operations across all panels.  The
sums add the rows in the order numpy's pairwise sum adds a contiguous row
of 7 or 15 values, so every panel's value is bitwise what a panel-major
table gives.  The integrand may write its values over the radii it is
given; the rule then reuses that array in place.

The node table is kept between calls, as QUADPACK's callers own their work
arrays: a pool (_TABLES) of float buffers, from which each kernel call takes
one and to which it gives it back, so the packs of a run reuse the same
pages instead of faulting in a fresh table each.  A nested or concurrent call
takes a table of its own.  A table grows geometrically, and one of more than
_TABLE_CAP nodes (2 MiB) is freed instead of kept, so the pool stays bounded.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, is_finite_number

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


# Splits one integrand may take before it fails.  An integrand whose error
# cannot fall below rel_tol, for rounding, bisects on noise until it has
# spent them, and the integrands of a batch share one panel table, so a
# budget of 10^6 filled memory first.  The most splits seen in a run that
# converged are 4,273 (moments on inv_one_minus_pow p=1e9 to n_max 24 at
# rel_tol 1e-14).
_MAX_SUBDIVISIONS = 5000

# The relative tolerance of every adaptive integral, unless a caller passes one.
REL_TOL = 1e-10

# The pool of node tables (see the module docstring).  pop() and append() are
# atomic, so each thread and each nested log_integrate call holds a table of
# its own; a table of more than _TABLE_CAP nodes (2 MiB) is not kept.
_TABLES: list = []
_TABLE_CAP = 2**18


def check_rel_tol(value) -> float:
    """float(value) for a relative tolerance, a finite number in (0, 1e-4];
    anything else, a boolean or a non-number included, raises InvalidInputError."""
    if not (is_finite_number(value) and 0 < value <= 1e-4):
        raise InvalidInputError(f"rel_tol must lie in (0, 1e-4], got {value!r}")
    return float(value)


def _eval_panels(log_f, los, his, owner):
    """Rule pair on a table of panels; returns one row (log value, log
    error estimate) per panel.

    The node table is node-major: row j holds Kronrod node j of every
    panel, column i is panel i, so each step is one long vector operation
    across the panels.  The weighted sums add the rows in a fixed order, the
    one numpy's pairwise sum uses on a contiguous row of 7 or 15 values: the
    Gauss rule in sequence, the Kronrod rule as ((w0+w1)+(w2+w3)) +
    ((w4+w5)+(w6+w7)) and then w8, ..., w14 one at a time.  A panel's value
    is therefore bitwise that of the panel-major table, and does not depend
    on how many other panels share the call.  The node table is taken from
    the pool (_TABLES) and given back when the rule is done.

    A panel whose nodes all sit at log 0 contributes nothing; +inf or
    NaN values surface later as a NaN total, which the driver rejects.
    """
    size = los.size
    try:
        table = _TABLES.pop()
    except IndexError:
        table = np.empty(0)
    if table.size < _XGK.size * size:
        table = np.empty(max(_XGK.size * size, 2 * table.size))
    try:
        half = 0.5 * (his - los)
        r = np.multiply(_XGK[:, None], half, out=table[:_XGK.size * size].reshape(_XGK.size, size))
        r += 0.5 * (his + los)
        lf = np.asarray(log_f(r, owner[None, :]), dtype=float).reshape(_XGK.size, size)
        shift = lf.max(axis=0)
        empty = shift == -np.inf
        bad = ~np.isfinite(shift) & ~empty
        safe_shift = np.where(empty | bad, 0.0, shift)
        w = np.exp(np.subtract(lf, safe_shift, out=r), out=r)
        g = (w[1::2] * _WG[:, None]).sum(axis=0)
        w *= _WGK[:, None]
        k = ((w[0] + w[1]) + (w[2] + w[3])) + ((w[4] + w[5]) + (w[6] + w[7]))
        for row in w[8:]:
            k += row
    finally:
        if table.size <= _TABLE_CAP:
            _TABLES.append(table)
    rule = np.empty((size, 2))
    rule[:, 0] = k
    rule[:, 1] = np.abs(k - g)
    out = np.log(np.maximum(rule, 1e-300)) + (safe_shift + np.log(half))[:, None]
    out[empty] = -np.inf
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
    rel_tol: float = REL_TOL,
    presplit=(),
) -> np.ndarray:
    """log of the integral of exp(log_f) over [a[i], b[i]], to rel_tol,
    for each pair of bounds in the 1-D arrays a and b; returns an array of logs.

    ``log_f(r, owner)`` gets a (15, P) array of radii, one row per Kronrod
    node and one column per panel, and a (1, P) row of the index of the
    integrand owning each column, so ``xs[owner]`` is a row of per-panel
    exponents.  It may write its logs over ``r``, which the rule then reuses;
    any other array it returns is only read, so log_f may keep it.  ``r`` is
    a view of a node table that later calls reuse, so log_f must not keep it.

    ``presplit`` is empty or a 2-D array with one row of points per
    integrand at which its initial panels are cut, such as the moments
    layer's Laplace-scale mesh around each peak; NaN entries and points
    outside (a[i], b[i]) are ignored, so rows of unequal length can be padded.

    An integrand that exhausts its subdivision budget, or whose panel
    collapses to machine precision, raises NumericalFailureError with its
    own best estimate and achieved error; an empty interval or a NaN or +inf
    log-integrand raises InvalidInputError.  Either error's ``row`` is the integrand's index.
    """
    rel_tol = check_rel_tol(rel_tol)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    presplit = np.asarray(presplit, dtype=float)
    size = a.size
    if presplit.size == 0:
        presplit = np.empty((size, 0))
    if a.shape != (size,) or b.shape != (size,) or presplit.ndim != 2 or len(presplit) != size:
        raise InvalidInputError("a batch needs one lower bound, upper bound and presplit row per integrand")
    if size == 0:
        return np.empty(0)
    empty = ~(b > a)
    if empty.any():
        i = int(np.argmax(empty))
        raise _of_row(InvalidInputError(f"empty integration interval [{a[i]}, {b[i]}]"), i)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _refine(log_f, *_initial_panels(a, b, presplit), size, rel_tol)


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


def _refine(log_f, los, his, owner, size, rel_tol) -> np.ndarray:
    """The adaptive loop over a panel table ordered by owner."""
    rules = _eval_panels(log_f, los, his, owner)
    result = np.empty(size)
    splits = np.zeros(size, dtype=np.int64)
    log_goal = math.log(rel_tol)
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
                "log-integrand produced NaN or +inf inside the integration interval"), i)
        done = total_err <= log_goal + total_val
        result[ids[done]] = total_val[done]
        if done.all():
            return result
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
                "quadrature panel collapsed to machine precision", total_val[i], total_err[i],
            ), ids[i])
        splits += np.bincount(owner[split], minlength=size)
        # The budget is a hard cap: a round that would take an integrand
        # past it fails before its panels are evaluated.
        exhausted = splits[ids] > _MAX_SUBDIVISIONS
        if exhausted.any():
            i = int(exhausted.argmax())
            raise _of_row(_failure(
                f"quadrature needed more than {_MAX_SUBDIVISIONS} subdivisions",
                total_val[i], total_err[i],
            ), ids[i])
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
