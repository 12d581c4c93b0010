import math

import hypothesis
import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import strategies as st

from reinhardt import quadrature
from reinhardt.errors import InvalidInputError, NumericalFailureError
from reinhardt.quadrature import REL_TOL, check_rel_tol, log_integrate

from oracles import integrate_one


def log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def test_settings_validation():
    with pytest.raises(InvalidInputError):
        check_rel_tol(0.0)
    with pytest.raises(InvalidInputError):
        check_rel_tol(1e-3)  # looser than the allowed ceiling
    # The tolerance is the one setting, a float; the subdivision budget is a constant.
    assert check_rel_tol(1e-4) == 1e-4 and type(check_rel_tol(np.float32(1e-10))) is float
    assert REL_TOL == 1e-10


def test_monomial_exactness():
    for power in (0, 1, 3, 10):
        got = integrate_one(lambda r, p=power: p * np.log(r), 0.0, 1.0)
        assert got == pytest.approx(-math.log(power + 1.0), abs=1e-13)


def test_beta_integrand_against_log_gamma():
    # integral_0^1 r^x (1-r^2)^y dr = B((x+1)/2, y+1) / 2
    for x, y in ((1.0, 1.0), (7.0, 3.0), (201.0, 400.0), (0.0, 250.0)):
        def log_f(r, x=x, y=y):
            r = np.asarray(r, dtype=float)
            out = y * np.log1p(-r * r)
            if x:
                out = out + x * np.log(r)
            return out

        got = integrate_one(log_f, 0.0, 1.0)
        want = math.log(0.5) + log_beta(0.5 * (x + 1.0), y + 1.0)
        assert got == pytest.approx(want, abs=1e-8)


def test_huge_scale_never_overflows():
    got = integrate_one(lambda r: 1000.0 * np.asarray(r, dtype=float), 0.0, 1.0)
    want = 1000.0 + math.log1p(-math.exp(-1000.0)) - math.log(1000.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_zero_integrand():
    got = integrate_one(lambda r: np.full_like(np.asarray(r, dtype=float), -np.inf), 0.0, 1.0)
    assert got == -math.inf


def test_presplit_points_are_honored():
    log_f = lambda r: 5 * np.log(r)
    plain = integrate_one(log_f, 0.0, 1.0)
    split = integrate_one(log_f, 0.0, 1.0, presplit=(0.3, 0.7))
    assert split == pytest.approx(plain, rel=1e-12)


def test_budget_exhaustion_carries_best_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 2)

    def spiky(r):
        r = np.asarray(r, dtype=float)
        return -5000.0 * np.square(r - 0.31830988618)

    with pytest.raises(NumericalFailureError) as err:
        integrate_one(spiky, 0.0, 1.0, 1e-12)
    assert err.value.best_estimate is not None
    assert err.value.achieved_error > 0


def test_the_subdivision_budget_is_a_hard_cap(monkeypatch):
    # Every split adds one panel to the table and evaluates two halves, so an
    # integrand's splits are (panels evaluated - 1) / 2.  Gaussians of
    # growing width need growing numbers of splits, several a round; none
    # may take more than the budget, and one that needs exactly the budget
    # converges to its unbudgeted value.
    widths = np.array([1.0, 50.0, 500.0, 5000.0, 50000.0])

    def counted(evaluated):
        def log_f(r, owner):
            evaluated.append(owner.ravel().copy())
            return -widths[owner] * np.square(r - 0.31830988618)
        return log_f

    def splits(evaluated):
        return (np.bincount(np.concatenate(evaluated), minlength=widths.size) - 1) // 2

    evaluated = []
    free = log_integrate(counted(evaluated), np.zeros(5), np.ones(5), 1e-12)
    needed = splits(evaluated)
    assert needed.max() > 4 and len(set(needed.tolist())) > 2
    for budget in range(1, int(needed.max()) + 1):
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", budget)
        evaluated = []
        try:
            got = log_integrate(counted(evaluated), np.zeros(5), np.ones(5), 1e-12)
        except NumericalFailureError as failure:
            assert needed[failure.row] > budget
        else:
            assert got.tolist() == free.tolist() and needed.max() == budget
        assert splits(evaluated).max() <= budget
    for i in range(widths.size):
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", int(needed[i]))
        log_f = lambda r, width=widths[i]: -width * np.square(r - 0.31830988618)
        assert integrate_one(log_f, 0.0, 1.0, 1e-12) == free[i]


def test_nan_integrand_rejected():
    with pytest.raises(InvalidInputError):
        integrate_one(lambda r: np.where(r > 0.5, np.nan, 0.0), 0.0, 1.0)


def test_empty_interval_rejected():
    with pytest.raises(InvalidInputError):
        integrate_one(lambda r: 0.0 * r, 1.0, 1.0)
    with pytest.raises(InvalidInputError) as empty:
        log_integrate(lambda r, owner: 0.0 * r, np.zeros(2), np.array([1.0, 0.0]))
    assert empty.value.row == 1


def test_determinism_bit_identical():
    log_f = lambda r: 201 * np.log(r) + 400 * np.log1p(-r * r)
    first = integrate_one(log_f, 0.0, 1.0)
    second = integrate_one(log_f, 0.0, 1.0)
    assert first == second


def _beta_log_f(x, y):
    def log_f(r):
        r = np.asarray(r, dtype=float)
        return x * np.log(r) + y * np.log1p(-r * r)

    return log_f


def test_batch_equals_single_calls():
    xs = np.array([1.0, 7.0, 201.0, 3.0])
    ys = np.array([1.0, 3.0, 400.0, 250.0])
    cuts = np.array([[0.3, 0.7, np.nan], [np.nan] * 3, [0.5, 0.5, 0.9], [0.1, 2.0, -1.0]])

    def log_f(r, owner):
        return xs[owner] * np.log(r) + ys[owner] * np.log1p(-r * r)

    got = log_integrate(log_f, np.zeros(4), np.ones(4), presplit=cuts)
    for i in range(4):
        single = integrate_one(_beta_log_f(xs[i], ys[i]), 0.0, 1.0,
                               presplit=[c for c in cuts[i] if not math.isnan(c)])
        assert got[i] == single
    assert log_integrate(log_f, np.zeros(0), np.ones(0)).size == 0
    with pytest.raises(InvalidInputError):
        log_integrate(log_f, 0.0, 1.0)  # bounds are arrays, one pair per integrand


def test_batch_failure_carries_the_failing_integrand(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 2)
    centers = np.array([0.5, 0.31830988618])
    widths = np.array([1.0, 5000.0])

    def log_f(r, owner):
        return -widths[owner] * np.square(r - centers[owner])

    with pytest.raises(NumericalFailureError) as batched:
        log_integrate(log_f, np.zeros(2), np.ones(2), 1e-12)
    with pytest.raises(NumericalFailureError) as alone:
        integrate_one(lambda r: -5000.0 * np.square(r - 0.31830988618), 0.0, 1.0, 1e-12)
    assert batched.value.best_estimate == pytest.approx(alone.value.best_estimate, abs=1e-13)
    assert batched.value.achieved_error == pytest.approx(alone.value.achieved_error, rel=1e-12)

    def nan_second(r, owner):
        return np.where((owner == 1) & (r > 0.5), np.nan, 0.0)

    with pytest.raises(InvalidInputError) as nan:
        log_integrate(nan_second, np.zeros(2), np.ones(2))
    assert nan.value.row == 1


def test_a_log_f_may_write_its_values_over_r():
    # log_f may overwrite the radii it is given and return them; the
    # integrals are then bitwise those of a log_f returning a new array.
    xs, ys = np.array([1.0, 7.0, 201.0]), np.array([1.0, 3.0, 400.0])

    def fresh(r, owner):
        return xs[owner] * np.log(r) + ys[owner] * np.log1p(-r * r)

    def in_place(r, owner):
        t = np.log1p(-r * r) * ys[owner]
        r = np.log(r, out=r)
        r *= xs[owner]
        r += t
        return r

    batch = log_integrate(fresh, np.zeros(3), np.ones(3))
    assert log_integrate(in_place, np.zeros(3), np.ones(3)).tobytes() == batch.tobytes()
    zero = np.zeros(1, dtype=int)
    scalar = integrate_one(lambda r: in_place(r, zero), 0.0, 1.0)
    assert scalar == integrate_one(lambda r: fresh(r, zero), 0.0, 1.0) == batch[0]


def test_log_integrate_never_writes_into_an_array_log_f_keeps():
    # A log_f that returns an array it holds on to, as a cache would, finds
    # it unchanged after the call.
    kept = []

    def keeping(r, owner=0):
        values = 201.0 * np.log(r) + (owner + 400.0) * np.log1p(-r)
        kept.append((values, values.copy()))
        return values

    got = integrate_one(keeping, 0.0, 1.0)
    batch = log_integrate(keeping, np.zeros(2), np.ones(2))
    assert len(kept) > 2
    assert all(values.tobytes() == copy.tobytes() for values, copy in kept)
    assert got == batch[0] == pytest.approx(log_beta(202.0, 401.0), rel=1e-12)


def _panel_major_eval_panels(log_f, los, his, owner):
    # The panel-major kernel the node-major one replaced, kept as its
    # oracle: one 15-wide row of nodes per panel, numpy's own row sums.
    from reinhardt.quadrature import _WG, _WGK, _XGK

    half = 0.5 * (his - los)
    r = np.multiply(half[:, None], _XGK)
    r += (0.5 * (his + los))[:, None]
    lf = np.asarray(log_f(r, owner[:, None]), dtype=float).reshape(los.size, _XGK.size)
    shift = lf.max(axis=1)
    empty = shift == -np.inf
    bad = ~np.isfinite(shift) & ~empty
    safe_shift = np.where(empty | bad, 0.0, shift)
    w = np.exp(np.subtract(lf, safe_shift[:, None], out=r), out=r)
    g = (w[:, 1::2] * _WG).sum(axis=1)
    w *= _WGK
    k = w.sum(axis=1)
    rule = np.empty((los.size, 2))
    rule[:, 0] = k
    rule[:, 1] = np.abs(k - g)
    out = np.log(np.maximum(rule, 1e-300)) + (safe_shift + np.log(half))[:, None]
    out[empty] = -np.inf
    out[bad, 0] = np.nan
    return out


def _assert_kernels_agree(log_f, los, his, owner):
    from reinhardt.quadrature import _eval_panels

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        want = _panel_major_eval_panels(log_f, los, his, owner)
        got = _eval_panels(log_f, los, his, owner)
    assert got.shape == want.shape == (los.size, 2)
    assert got.tobytes() == want.tobytes()


def _shell_200_pack():
    # The initial pack of shell 200 on inv_one_minus_pow p = 1, as a
    # certify walk integrates it: 201 integrands, about 3,600 panels.
    from reinhardt import moments
    from reinhardt.profiles import profile_family

    profile = profile_family("inv_one_minus_pow", {"p": 1.0})
    g1 = np.arange(201.0)
    xs, ys = 2.0 * g1 + 1.0, 2.0 * (200.0 - g1) + 2.0
    cuts = moments._mesh(*moments._peak_scales(profile, xs, ys, 0.0, 1.0))
    los, his, owner = quadrature._initial_panels(np.zeros(201), np.ones(201), cuts)
    return moments._profile_log_integrand(profile, xs, ys), los, his, owner


def _ball_fiber_packs(monkeypatch, shell):
    # The ball's fiber log-integrand of one shell, on its own panel and on
    # seven random cuts per integrand.
    from reinhardt import moments
    from reinhardt.domains import DomainSpec

    batches = []
    integrate = quadrature.log_integrate
    monkeypatch.setattr(moments, "log_integrate",
                        lambda log_f, a, b, *args, **kw: batches.append((log_f, a, b))
                        or integrate(log_f, a, b, *args, **kw))
    moments.clear_moment_caches()
    moments.log_c_shells(DomainSpec.ball(), (shell,))
    (log_f, a, b), = batches
    cuts = np.random.default_rng(16).uniform(0.0, 1.0, (a.size, 7))
    return [(log_f, *quadrature._initial_panels(a, b, presplit))
            for presplit in (np.empty((a.size, 0)), cuts)]


def test_node_major_kernel_is_bitwise_the_panel_major_one_on_a_certify_pack():
    log_f, los, his, owner = _shell_200_pack()
    assert los.size > 2000
    _assert_kernels_agree(log_f, los, his, owner)


def test_node_major_kernel_is_bitwise_the_panel_major_one_on_a_ball_fiber_batch(monkeypatch):
    # Shell 100's batches hold lanes below the exp floor; shell 40's do not.
    for shell in (40, 100):
        for pack in _ball_fiber_packs(monkeypatch, shell):
            _assert_kernels_agree(*pack)


def test_node_major_kernel_is_bitwise_the_panel_major_one_on_empty_and_nan_panels():
    # Integrand 0 is log 0 everywhere, integrand 1 is NaN at one node of
    # its second panel, integrand 2 overflows to +inf there, integrand 3
    # is plain; each has three panels.
    from reinhardt import quadrature

    def log_f(r, owner):
        out = 40.0 * np.log(r) + 3.0 * owner
        out = np.where(owner == 0, -np.inf, out)
        odd = (r > 0.45) & (r < 0.5)
        out = np.where((owner == 1) & odd, np.nan, out)
        return np.where((owner == 2) & odd, np.inf, out)

    cuts = np.tile([0.3, 0.6], (4, 1))
    los, his, owner = quadrature._initial_panels(np.zeros(4), np.ones(4), cuts)
    _assert_kernels_agree(log_f, los, his, owner)
    with np.errstate(divide="ignore", invalid="ignore"):
        rules = quadrature._eval_panels(log_f, los, his, owner)
    assert (rules[:3] == -np.inf).all()
    assert np.isnan(rules[4, 0]) and np.isnan(rules[7, 0])
    assert np.isfinite(rules[9:]).all()


def _fixed_log_f(values):
    # A log_f returning a fixed (15, P) node-major table to the kernel and
    # its transpose to the panel-major oracle, whatever the radii.
    return lambda r, owner: values if owner.shape[0] == 1 else values.T


def test_the_exp_floor_moves_no_bit_on_adversarial_panels():
    # Log-weights relative to each panel's top node, in the rows of the
    # node table; odd rows are the Gauss nodes.  Each panel is tried at
    # three shifts.
    lo, neg = -745.2, -np.inf  # exp(-745.2) is 0; exp(-720) is subnormal
    panels = [
        # The top on a Kronrod-only node, every Gauss node below -700.
        [-3.0, -701.0, -12.0, lo, -40.0, -720.0, -1.0, -700.5, 0.0, lo, -5.0, -900.0, -2.0, -760.0, -8.0],
        # The top on the lightest Kronrod node, everything else far below.
        [0.0, lo, -720.0, -700.5, lo, -720.0, -700.5, lo, -720.0, -700.5, lo, -720.0, -700.5, lo, -1e4],
        # The Gauss sum near 1e-270, the scale at which it starts to absorb
        # the floored lanes, beside a top on a Kronrod-only node.
        [0.0, -621.0, -700.5, -640.0, -720.0, -690.0, lo, -705.0, -701.0, -699.9, -700.0, -745.0, -0.5, -650.0, lo],
        # The top on a Gauss node, with lanes at -745.2, -720 and -700.5.
        [lo, -720.0, -700.5, 0.0, lo, -720.0, -700.5, -1.5, lo, -720.0, -700.5, -699.9, lo, -720.0, -700.5],
        # -inf lanes in finite panels: with the top on a Gauss node, and on
        # a Kronrod-only node with every Gauss node at -inf.
        [neg, -1.0, neg, neg, -800.0, 0.0, neg, neg, -30.0, neg, neg, -710.0, neg, neg, -2.0],
        [neg, neg, -702.0, neg, 0.0, neg, -710.0, neg, -745.2, neg, -1.0, neg, -700.5, neg, neg],
        # Only the top node is finite.
        [neg] * 7 + [0.0] + [neg] * 7,
    ]
    relative = np.array(panels).T
    for shift in (0.0, 1234.5, -5e4):
        values = relative + shift
        assert (values - values.max(axis=0) < -700.0).sum(axis=0).min() > 0
        edges = np.linspace(0.0, 1.0, len(panels) + 1)
        _assert_kernels_agree(_fixed_log_f(values), edges[:-1], edges[1:], np.arange(len(panels)))


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(
    relative=hnp.arrays(float, st.tuples(st.just(15), st.integers(1, 6)),
                        elements=st.one_of(st.just(-np.inf), st.floats(-2000.0, 0.0), st.floats(-60.0, 0.0))),
    data=st.data(),
)
def test_the_exp_floor_moves_no_bit_on_random_tables(relative, data):
    # Random log tables in {-inf} and [-2000, 0], denser near the top, where
    # a floor too high would move bits, each panel shifted by a random
    # finite amount: the kernel's values are bitwise the oracle's, which
    # exponentiates without a floor.
    size = relative.shape[1]
    shifts = data.draw(hnp.arrays(float, size, elements=st.floats(-1e5, 1e5)), "shifts")
    edges = np.linspace(0.0, 1.0, size + 1)
    _assert_kernels_agree(_fixed_log_f(relative + shifts), edges[:-1], edges[1:], np.arange(size))


class _ExpRecorder:
    # numpy, with exp recording the smallest argument of every call.
    def __init__(self):
        self.lowest = []

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.lowest.append(float(np.min(x)))
        return np.exp(x, *args, **kwargs)


def test_the_rule_exp_never_sees_an_argument_below_the_floor(monkeypatch):
    # The shell-200 certify pack and the ball's shell-100 fiber batches
    # hold lanes more than 700 below their panel's top; with the floor, the
    # rule's exp (the kernel's only one) gets none of them, so it stays on
    # numpy's fast path.  Without the floor it would.
    packs = [_shell_200_pack(), *_ball_fiber_packs(monkeypatch, 100)]
    for floor, lowest in ((quadrature._LOG_W_FLOOR, -700.0), (-np.inf, None)):
        monkeypatch.setattr(quadrature, "_LOG_W_FLOOR", floor)
        for pack in packs:
            recorder = _ExpRecorder()
            monkeypatch.setattr(quadrature, "np", recorder)
            with np.errstate(divide="ignore", invalid="ignore"):
                quadrature._eval_panels(*pack)
            monkeypatch.setattr(quadrature, "np", np)
            assert len(recorder.lowest) == 1
            if lowest is None:
                assert recorder.lowest[0] < -708.0
            else:
                assert recorder.lowest[0] >= lowest


def _beta_batch(size):
    # size integrands r^x (1 - r^2)^y with exponents spread over two decades.
    xs = np.linspace(1.0, 200.0, size)
    ys = np.linspace(300.0, 2.0, size)

    def log_f(r, owner):
        return xs[owner] * np.log(r) + ys[owner] * np.log1p(-r * r)

    return log_f


def test_a_log_f_may_integrate_inside_itself():
    # The nested call takes a node table of its own while the outer call
    # holds one, so neither overwrites the other's nodes.  The nested batch
    # is larger than the outer one, so it also grows a table mid-call.
    outer, inner = _beta_batch(3), _beta_batch(40)
    lone_outer = log_integrate(outer, np.zeros(3), np.ones(3))
    lone_inner = log_integrate(inner, np.zeros(40), np.ones(40))
    nested = []

    def nesting(r, owner):
        nested.append(log_integrate(inner, np.zeros(40), np.ones(40)))
        return outer(r, owner)

    got = log_integrate(nesting, np.zeros(3), np.ones(3))
    assert got.tobytes() == lone_outer.tobytes()
    assert nested and all(values.tobytes() == lone_inner.tobytes() for values in nested)


def test_threads_integrate_bitwise_as_one_thread_does():
    # 8 threads run batches of mixed sizes at once, each batch several
    # times, switching often; every result is bitwise the serial one, which
    # two threads sharing one node table would break.
    import sys
    from concurrent.futures import ThreadPoolExecutor

    sizes = [1, 5, 17, 40, 3, 60, 9, 33] * 3
    serial = {n: log_integrate(_beta_batch(n), np.zeros(n), np.ones(n)).tobytes() for n in set(sizes)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(lambda n: log_integrate(_beta_batch(n), np.zeros(n), np.ones(n)),
                                sizes, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert [values.tobytes() for values in got] == [serial[n] for n in sizes]


def test_a_reused_table_gives_the_bits_of_a_fresh_one(monkeypatch):
    # A pack evaluated with the pool empty, then with a larger stale table
    # pooled, then with a smaller one (grown in the call): the same bytes.
    from reinhardt import moments
    from reinhardt.profiles import profile_family

    profile = profile_family("inv_one_minus_pow", {"p": 1.0})
    g1 = np.arange(61.0)
    xs, ys = 2.0 * g1 + 1.0, 2.0 * (60.0 - g1) + 2.0
    cuts = moments._mesh(*moments._peak_scales(profile, xs, ys, 0.0, 1.0))
    los, his, owner = quadrature._initial_panels(np.zeros(61), np.ones(61), cuts)
    log_f = moments._profile_log_integrand(profile, xs, ys)
    runs = []
    for stale in ([], [np.full(64 * los.size, np.nan)], [np.full(3 * los.size, np.inf)]):
        monkeypatch.setattr(quadrature, "_TABLES", stale)
        with np.errstate(divide="ignore", invalid="ignore"):
            runs.append(quadrature._eval_panels(log_f, los, his, owner).tobytes())
        assert len(quadrature._TABLES) == 1 and quadrature._TABLES[0].size >= 15 * los.size
    assert runs[0] == runs[1] == runs[2]


def test_the_pool_keeps_no_table_above_its_cap(monkeypatch):
    # A kernel call on P panels needs a table of 15 P nodes; one above the
    # cap is freed when the call ends, and one at or below it is kept.
    monkeypatch.setattr(quadrature, "_TABLES", [])
    monkeypatch.setattr(quadrature, "_TABLE_CAP", 15 * 50)
    log_f = _beta_batch(1)
    for panels, kept in ((60, []), (50, [750]), (60, [])):
        edges = np.linspace(0.0, 1.0, panels + 1)
        quadrature._eval_panels(log_f, edges[:-1], edges[1:], np.zeros(panels, dtype=int))
        assert [table.size for table in quadrature._TABLES] == kept


def test_a_second_pack_allocates_less_than_the_first(monkeypatch):
    # The shell-200 pack of inv_one_minus_pow p = 1, as a certify walk
    # integrates it, run twice from an empty pool: the second run reuses the
    # first one's node table instead of allocating its own.
    import tracemalloc

    from reinhardt import moments
    from reinhardt.profiles import profile_family

    profile = profile_family("inv_one_minus_pow", {"p": 1.0})
    g1 = np.arange(201.0)
    xs, ys = 2.0 * g1 + 1.0, 2.0 * (200.0 - g1) + 2.0
    monkeypatch.setattr(quadrature, "_TABLES", [])
    peaks, values = [], []
    tracemalloc.start()
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            values.append(moments._interval_moments(profile, xs, ys, 0.0, 1.0, REL_TOL))
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert values[0] == values[1]
    assert peaks[1] < 0.8 * peaks[0], peaks
