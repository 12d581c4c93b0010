"""Hilbert-Schmidt diagnostics for Hankel operators with anti-holomorphic symbols.

For a symbol index alpha the series of interest is

    S_alpha = sum over basis gamma of
              c_(gamma+alpha)^2 / c_gamma^2  -  c_gamma^2 / c_(gamma-alpha)^2,

with the second ratio read as 0 whenever gamma - alpha leaves the basis
lattice (the Bergman projection of zbar^alpha z^gamma vanishes there).
Summands are nonnegative by Cauchy-Schwarz.  Partial sums are taken over
the simplex |gamma| <= N, which makes the series telescope: S_alpha(N)
equals the sum of c_(gamma+alpha)^2/c_gamma^2 over the last |alpha|
shells.  The squared Hilbert-Schmidt norm of the Hankel operator with
symbol conjugate(f) is sum over alpha of |f_alpha|^2 S_alpha.

One pass over the shells requests every shell's memoized log c_gamma^2
array at once (moments.log_c_shells), so the moments layer can batch the
quadrature of the whole walk; a shell's terms are exps of differences with
the arrays of its neighbours n -+ |alpha| (on a diagonal lattice a shell
is one point, and alpha = (a, a) is a shells away).  hs_term, one summand
on its own, is the reference the tests hold the shell sums to.  Every
moment on the basis lattice is finite, and the series reads no other
(moments.DIVERGENT marks only monomials off the lattice), so no term is
infinite; a ratio beyond double range is rejected.

This one evaluator serves every series of the package: the salpha and
certify ladders, both coordinates of the dbar report, and S_(1,1) on the
Wiegerinck domain Omega_0, whose diagonal terms telescope exactly to one
moment ratio.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .domains import FULL_QUADRANT, DomainSpec, MultiIndex
from .errors import InvalidInputError
from .moments import log_c_gamma_sq, log_c_shells
from .quadrature import DEFAULT_SETTINGS, QuadratureSettings

_SMALLEST_NORMAL = sys.float_info.min

# ---------------------------------------------------------------------------
# Growth classifications.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivergentLinear:
    slope: float
    intercept: float = 0.0
    fit_residual: float = 0.0

    label = "DivergentLinear"


@dataclass(frozen=True)
class Convergent:
    limit: float
    tail: float = 0.0

    label = "Convergent"


@dataclass(frozen=True)
class Inconclusive:
    reason: str = ""

    label = "Inconclusive"


Classification = DivergentLinear | Convergent | Inconclusive

_LINEAR_RESIDUAL_MAX = 0.05   # relative residual of the upper-half line
_LINEAR_SPAN_MIN = 2.0        # values must at least double over the samples
_EXTRAPOLATION_RTOL = 1e-3    # Richardson diagonal agreement for convergence
_MIN_SAMPLES = 8              # fewest partial sums classified, and the default ladder's divisor


def classify_growth(partials) -> Classification:
    """Classify a sequence of (N, value) partial sums.

    A positive-slope affine fit on the upper half of the samples, with
    small residual against all samples and at least a 2x value span,
    reads as linear divergence.  Otherwise, decaying increments plus a
    Richardson extrapolation (polynomial in 1/N) that stabilizes to
    relative 1e-3 reads as convergence.  Anything else, and any sequence
    of fewer than 8 samples, is inconclusive.

    The values are fitted after division by the power of two nearest
    their largest magnitude, so squares and products stay in double
    range at any scale; dividing by a power of two is exact, so values
    at ordinary scales classify bit for bit as they would unscaled.
    """
    points = [(int(n), float(v)) for n, v in partials]
    ns = np.array([n for n, _ in points], dtype=float)
    if not np.all(np.diff(ns) > 0):
        raise InvalidInputError("sample indices must be strictly increasing")
    if len(points) < _MIN_SAMPLES:
        return Inconclusive(reason=f"only {len(points)} samples")
    _, exponent = math.frexp(max(abs(v) for _, v in points))
    vs = np.ldexp(np.array([v for _, v in points], dtype=float), -exponent)

    half = len(points) // 2
    slope, intercept = np.polyfit(ns[half:], vs[half:], 1)
    scale = math.sqrt(float(np.mean(np.square(vs)))) or 1.0
    residual = math.sqrt(float(np.mean(np.square(vs - (intercept + slope * ns))))) / scale
    span_ok = vs.min() > 0 and vs.max() >= _LINEAR_SPAN_MIN * vs.min()
    if slope > 0 and residual < _LINEAR_RESIDUAL_MAX and span_ok:
        return DivergentLinear(slope=math.ldexp(float(slope), exponent),
                               intercept=math.ldexp(float(intercept), exponent),
                               fit_residual=residual)

    converged = _extrapolate(ns, vs)
    if converged is not None:
        return Convergent(limit=math.ldexp(converged.limit, exponent),
                          tail=math.ldexp(converged.tail, exponent))
    return Inconclusive(reason="neither the linear fit nor the extrapolation stabilized")


def _extrapolate(ns, vs) -> Convergent | None:
    diffs = np.diff(vs)
    scale = float(np.max(np.abs(vs))) or 1.0
    for a, b in zip(diffs, diffs[1:]):
        if abs(b) > abs(a) * (1.0 - 1e-6) + 1e-12 * scale:
            return None
    # Neville tableau in h = 1/N, extrapolating to h = 0.
    tail_pts = min(6, len(ns))
    h = (1.0 / ns[-tail_pts:]).tolist()
    tableau = [vs[-tail_pts:].tolist()]
    diagonal = [tableau[0][-1]]
    for depth in range(1, tail_pts):
        prev = tableau[-1]
        row = []
        for i in range(len(prev) - 1):
            ratio = h[i] / h[i + depth]
            row.append(prev[i + 1] + (prev[i + 1] - prev[i]) / (ratio - 1.0))
        tableau.append(row)
        diagonal.append(row[-1])
    last, before = diagonal[-1], diagonal[-2]
    if not (math.isfinite(last) and abs(last - before) <= _EXTRAPOLATION_RTOL * max(abs(last), 1e-300)):
        return None
    return Convergent(limit=last, tail=abs(last - vs[-1]) + abs(last - before))


# ---------------------------------------------------------------------------
# Series terms, partial sums and shell bounds.
# ---------------------------------------------------------------------------


def _ratios(log_num, log_den) -> np.ndarray:
    """exp(log_num - log_den) termwise, rejecting ratios beyond double range
    and below its normal range, where they would read as 0 or lose digits.
    math.exp, because np.exp differs from it in the last bit on some arguments."""
    log_ratios = np.atleast_1d(np.subtract(log_num, log_den))
    try:
        ratios = np.fromiter(map(math.exp, log_ratios.tolist()), float, log_ratios.size)
    except OverflowError:
        raise InvalidInputError(
            f"moment ratio exp({log_ratios.max():.6g}) overflows double precision on this domain"
        ) from None
    low = ratios < _SMALLEST_NORMAL
    if low.any():
        raise InvalidInputError(
            f"moment ratio exp({log_ratios[low][0]:.6g}) underflows double precision on this domain"
        )
    return ratios


def _sum(values) -> float:
    """math.fsum, rejecting sums beyond double range."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise InvalidInputError("series sum overflows double precision on this domain") from None


def _check_alpha(spec: DomainSpec, alpha: MultiIndex, nonzero: bool):
    if not spec.lattice.contains(alpha):
        raise InvalidInputError(f"symbol index {alpha} is not in the Bergman space of {spec.describe()}")
    if nonzero and alpha.order == 0:
        raise InvalidInputError("symbol index alpha must be nonzero")


def hs_term(
    spec: DomainSpec,
    gamma: MultiIndex,
    alpha: MultiIndex,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """One summand of S_alpha, via log-moment differences.

    Nonnegative up to quadrature noise; exactly 0 at alpha = 0.
    """
    _check_alpha(spec, alpha, nonzero=False)
    if not spec.lattice.contains(gamma):
        raise InvalidInputError(f"gamma {gamma} is not in the basis lattice")
    if alpha.order == 0:
        return 0.0
    up = gamma.add(alpha)
    if not spec.lattice.contains(up):
        raise InvalidInputError(
            f"gamma+alpha {up} leaves the basis lattice; the operator is "
            "unbounded on this basis vector"
        )
    log_mid = log_c_gamma_sq(spec, gamma, settings)
    term = _ratios(log_c_gamma_sq(spec, up, settings), log_mid)
    down = gamma.sub(alpha)
    if down is not None and spec.lattice.contains(down):
        term -= _ratios(log_mid, log_c_gamma_sq(spec, down, settings))
    return float(term[0])


def _shell_logs(spec: DomainSpec, ns, settings) -> list:
    """log c_gamma^2 by g1 on each shell n of ns (|gamma| = n, or (n, n) on
    a diagonal lattice), from one moments request.  Each nonempty shell is
    also read at its first gamma through log_c_gamma_sq, the per-moment
    entry point at which perfbench's tracer counts the series' lookups."""
    orders = [n if spec.lattice.kind == FULL_QUADRANT else 2 * n for n in ns]
    shells = log_c_shells(spec, orders, settings)
    for order, logs in zip(orders, shells):
        if logs.size:
            g1 = spec.lattice.shell(order)[0]
            log_c_gamma_sq(spec, MultiIndex(g1, order - g1), settings)
    return shells


def _neighbours(spec: DomainSpec, alpha: MultiIndex) -> tuple:
    """(step, offset): gamma + alpha sits in shell n + step, offset places
    further along than gamma in shell n; gamma - alpha, the reverse."""
    if spec.lattice.kind == FULL_QUADRANT:
        return alpha.order, alpha.g1
    return alpha.g1, 0


def _shell_sums(spec: DomainSpec, alpha: MultiIndex, n_max: int, settings) -> list:
    """Shell sums 0..n_max of S_alpha in one pass over shells 0..n_max+step,
    requested together.  Terms whose gamma+alpha leaves the lattice are
    omitted, and shell n has no gamma-alpha terms below n = step."""
    step, offset = _neighbours(spec, alpha)
    logs, sums = _shell_logs(spec, range(n_max + step + 1), settings), []
    for n in range(n_max + 1):
        mid = logs[n]
        up = logs[n + step][offset:offset + mid.size]
        terms = _ratios(up, mid[:up.size])
        if n >= step:
            down = logs[n - step][:max(up.size - offset, 0)]
            terms[offset:offset + down.size] -= _ratios(mid[offset:offset + down.size], down)
        sums.append(_sum(terms.tolist()))
    return sums


def s_alpha_partial(
    spec: DomainSpec,
    alpha: MultiIndex,
    n: int,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """S_alpha truncated to the simplex |gamma| <= n (diagonal index <= n).

    On finite-dimensional lattices, summands whose gamma+alpha leaves
    the lattice are omitted (the operator is only considered on the
    subspace where it is bounded).
    """
    return s_alpha_partials(spec, alpha, (n,), settings)[0][1]


def s_alpha_partials(spec, alpha, ns, settings=DEFAULT_SETTINGS):
    """(n, S_alpha(n)) along a ladder of truncation indices, in one pass."""
    _check_alpha(spec, alpha, nonzero=True)
    ns = tuple(ns)
    for n in ns:
        if n != int(n) or n < 1:
            raise InvalidInputError(f"truncation index must be a positive integer, got {n!r}")
    if not ns:
        return ()
    sums = _shell_sums(spec, alpha, int(max(ns)), settings)
    return tuple((n, _sum(sums[:int(n) + 1])) for n in ns)


def shell_bound(
    spec: DomainSpec,
    alpha: MultiIndex,
    n: int,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """The single-shell lower bound: sum over |gamma| = n of c_(gamma+alpha)^2/c_gamma^2."""
    _check_alpha(spec, alpha, nonzero=True)
    if n != int(n) or n < 0:
        raise InvalidInputError(f"shell index must be a nonnegative integer, got {n!r}")
    step, offset = _neighbours(spec, alpha)
    mid, up = _shell_logs(spec, (int(n), int(n) + step), settings)
    up = up[offset:offset + mid.size]
    return _sum(_ratios(up, mid[:up.size]).tolist())


# ---------------------------------------------------------------------------
# The dbar report and the sample ladder.
# ---------------------------------------------------------------------------


SYMBOL_IN_SPACE = "ok"
SYMBOL_NOT_IN_SPACE = "symbol-not-in-space"


@dataclass(frozen=True)
class DbarCoordinate:
    alpha: MultiIndex
    status: str
    partials: tuple = ()
    classification: Classification | None = None


@dataclass(frozen=True)
class DbarReport:
    """Hilbert-Schmidt test of the canonical solution operator for dbar.

    Restricted to (0,1)-forms with holomorphic coefficients the operator
    is a sum of Hankel operators with the coordinate conjugates as
    symbols, so it is Hilbert-Schmidt iff both coordinate series
    converge.
    """

    coordinates: tuple
    verdict: str


def dbar_canonical_report(
    spec: DomainSpec,
    n: int,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> DbarReport:
    coordinates = []
    for alpha in (MultiIndex(1, 0), MultiIndex(0, 1)):
        if not spec.lattice.contains(alpha):
            coordinates.append(DbarCoordinate(alpha=alpha, status=SYMBOL_NOT_IN_SPACE))
            continue
        ns = sample_ladder(n)
        partials = s_alpha_partials(spec, alpha, ns, settings)
        coordinates.append(DbarCoordinate(
            alpha=alpha, status=SYMBOL_IN_SPACE,
            partials=partials, classification=classify_growth(partials),
        ))
    statuses = [c.status for c in coordinates]
    classes = [c.classification for c in coordinates]
    if SYMBOL_NOT_IN_SPACE in statuses:
        verdict = "symbols not in Bergman space"
    elif any(isinstance(c, DivergentLinear) for c in classes):
        verdict = "not Hilbert-Schmidt"
    elif all(isinstance(c, Convergent) for c in classes):
        verdict = "Hilbert-Schmidt"
    else:
        verdict = "inconclusive"
    return DbarReport(coordinates=tuple(coordinates), verdict=verdict)


def sample_ladder(n_max: int, n_step: int | None = None):
    """Truncation indices n_step, 2*n_step, ..., <= n_max, at least one; the
    default step gives as many as classify_growth needs, where n_max allows."""
    if n_max != int(n_max) or n_max < 1:
        raise InvalidInputError(f"n_max must be a positive integer, got {n_max!r}")
    n_max = int(n_max)
    if n_step is None:
        n_step = max(1, n_max // _MIN_SAMPLES)
    if n_step != int(n_step) or not 1 <= n_step <= n_max:
        raise InvalidInputError(f"n_step must be an integer in [1, n_max], got {n_step!r}")
    return tuple(range(int(n_step), n_max + 1, int(n_step)))

