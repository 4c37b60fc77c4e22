"""Sweeps of opaque per-point callables.

A callable that is not marked ``whole_array`` is wrapped once, where it
enters the library, in a loop that calls it once per point.  Every sweep
must then give the bits, and the shapes, of a per-point loop over the public
per-point API, which the tests below write out.
"""

import numpy as np
import pytest

from fracnoether import (
    AutonomyError,
    ControlProblem,
    FracOrder,
    Grid,
    PointField,
    SampledFunction,
    SymmetryGenerator,
    VectorField,
    sample,
)
from fracnoether.exprspec import ProblemSpec
from fracnoether.hamiltonian import _check_autonomous

M = 41


def points(n, rng=None):
    rng = rng or np.random.default_rng(7)
    return np.linspace(0.0, 1.0, M), rng.uniform(-1.0, 1.0, (M, n)), rng.uniform(-1.0, 1.0, (M, n))


def stacked(fn, *args):
    """fn at each point (t_s, X_s, ...), stacked with the points first."""
    return np.array([fn(*point) for point in zip(*args)], dtype=float)


def forward(f, x):
    """Forward differences of f at one point x, from f(x), with the same
    step; the i axis is last."""
    base, cols = f(x), []
    for i in range(len(x)):
        step = 1e-6 * (1.0 + abs(x[i]))
        xp = x.copy()
        xp[i] += step
        cols.append((f(xp) - base) / step)
    return np.array(cols).T


def scalar_field(analytic):
    def ev(t, x, y):
        return t * x[0] ** 2 + np.sin(y[1]) * x[1] + y[0] * y[1]

    if not analytic:
        return PointField(ev)
    return PointField(
        ev,
        grad_x=lambda t, x, y: np.array([2.0 * t * x[0], np.sin(y[1])]),
        grad_y=lambda t, x, y: np.array([y[1], np.cos(y[1]) * x[1] + y[0]]),
    )


def vector_field(analytic):
    def ev(t, x, y):
        return np.array([x[0] * y[1] - t, x[1] ** 2 * np.exp(y[0])])

    if not analytic:
        return VectorField(ev)
    return VectorField(
        ev,
        jac_x=lambda t, x, y: np.array([[y[1], 0.0], [0.0, 2.0 * x[1] * np.exp(y[0])]]),
        jac_y=lambda t, x, y: np.array([[0.0, x[0]], [x[1] ** 2 * np.exp(y[0]), 0.0]]),
    )


def assert_same(batch, reference):
    assert batch.shape == reference.shape
    assert np.array_equal(batch, reference)


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
def test_point_field_sweeps_equal_per_point_loops(analytic):
    f = scalar_field(analytic)
    t, X, Y = points(2)
    assert_same(f(t, X, Y), stacked(f, t, X, Y))
    assert_same(f.d_x(t, X, Y), stacked(f.d_x, t, X, Y))
    assert_same(f.d_y(t, X, Y), stacked(f.d_y, t, X, Y))
    hxx, hxy, hyy = f.hessian(t, X, Y)
    assert_same(hxx, stacked(lambda ts, x, y: forward(lambda xx: f.d_x(ts, xx, y), x), t, X, Y))
    assert_same(hxy, stacked(lambda ts, x, y: forward(lambda yy: f.d_x(ts, x, yy), y), t, X, Y))
    assert_same(hyy, stacked(lambda ts, x, y: forward(lambda yy: f.d_y(ts, x, yy), y), t, X, Y))
    for k, batch in enumerate((hxx, hxy, hyy)):
        assert_same(batch, stacked(lambda *point: f.hessian(*point)[k], t, X, Y))


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
def test_vector_field_sweeps_equal_per_point_loops(analytic):
    phi = vector_field(analytic)
    t, X, Y = points(2)
    assert_same(phi(t, X, Y), stacked(phi, t, X, Y))
    assert phi.d_x(t, X, Y).shape == (M, 2, 2)
    assert_same(phi.d_x(t, X, Y), stacked(phi.d_x, t, X, Y))
    assert_same(phi.d_y(t, X, Y), stacked(phi.d_y, t, X, Y))


def test_generator_and_sample_equal_per_point_loops():
    grid = Grid(0.0, 1.0, M - 1)
    t, Q, _ = points(2)
    gen = SymmetryGenerator(tau=lambda s, q: s * q[0], xi=lambda s, q: np.array([q[1], -s * q[0]]))
    taus, xis = gen.sampled_along(SampledFunction(grid, Q))
    assert_same(taus, stacked(gen.tau, t, Q))
    assert_same(xis, stacked(gen.xi, t, Q))
    assert_same(sample(grid, np.sin).values, stacked(lambda s: [np.sin(s)], t))
    curve = lambda s: np.array([s, s * s, np.cos(s)])
    assert_same(sample(grid, curve).values, stacked(curve, t))


def test_per_point_callable_receives_the_rows_of_a_strided_view():
    """Points first, the s-th call gets the row X[s] of the (M, n) batch,
    contiguous, also when X is a strided view such as every other column."""
    t, Q, _ = points(4)
    X = Q[:, ::2]
    assert not X.flags.c_contiguous
    seen = []

    def record(s, x, y):
        seen.append((x, y))
        return 0.0

    PointField(record)(t, X, X[::-1])
    assert len(seen) == M
    for s, (x, y) in enumerate(seen):
        assert_same(x, X[s])
        assert_same(y, X[M - 1 - s])
        assert x.flags.c_contiguous and y.flags.c_contiguous


def test_a_sweep_whose_arguments_disagree_in_length_is_refused():
    """The loop pairs each time with one row of every argument: 5 times
    against 4 rows is a ValueError, not a sweep cut to 4 points."""
    f = PointField(lambda t, x, y: float(x @ y))
    with pytest.raises(ValueError):
        f(np.arange(5.0), np.zeros((4, 1)), np.zeros((4, 1)))


def test_scalar_where_a_length_one_vector_is_expected_keeps_its_axis():
    """Per point, np.atleast_1d and np.atleast_2d give a scalar result the
    shape of one component; a sweep keeps that axis."""
    grid = Grid(0.0, 1.0, M - 1)
    t, X, Y = points(1)
    phi = VectorField(
        lambda s, x, y: x[0] * y[0] - s, jac_x=lambda s, x, y: y[0], jac_y=lambda s, x, y: x[0]
    )
    assert_same(phi(t, X, Y), stacked(phi, t, X, Y))
    assert phi(t, X, Y).shape == (M, 1)
    for partial in (phi.d_x, phi.d_y):
        assert partial(t, X, Y).shape == (M, 1, 1)
        assert_same(partial(t, X, Y), stacked(partial, t, X, Y))
    f = PointField(lambda s, x, y: x[0] * y[0], grad_x=lambda s, x, y: y[0], grad_y=lambda s, x, y: x[0])
    for partial in (f.d_x, f.d_y):
        assert partial(t, X, Y).shape == (M, 1)
        assert_same(partial(t, X, Y), stacked(partial, t, X, Y))
    gen = SymmetryGenerator(tau=lambda s, q: 0.0, xi=lambda s, q: s * q[0])
    xis = gen.sampled_along(SampledFunction(grid, X))[1]
    assert_same(xis, stacked(lambda s, q: np.atleast_1d(gen.xi(s, q)), t, X))
    assert sample(grid, lambda s: s * s).values.shape == (M, 1)


def counting(fn, calls):
    def counted(*args):
        calls[0] += 1
        return fn(*args)

    return counted


def test_opaque_callables_are_called_once_per_point_and_per_difference():
    t, X, Y = points(2)
    n = 2
    ev_calls, grad_calls = [0], [0]
    f = PointField(counting(lambda s, x, y: float(x @ y), ev_calls))
    f(t, X, Y)
    assert ev_calls[0] == M
    ev_calls[0] = 0
    f.d_x(t, X, Y)
    f.d_y(t, X, Y)
    assert ev_calls[0] == 2 * n * M + 2 * n * M  # the d_x half, then the d_y half
    ev_calls[0] = 0
    f = PointField(
        counting(lambda s, x, y: float(x @ y), ev_calls), grad_x=counting(lambda s, x, y: y, grad_calls)
    )
    f.d_x(t, X, Y)
    f.d_y(t, X, Y)
    assert grad_calls[0] == M and ev_calls[0] == 2 * n * M


def test_compiled_callables_pass_through_unwrapped():
    spec = ProblemSpec(
        alpha=0.5, a=0.0, b=1.0, m=10, dim=1, control_dim=1, lagrangian="0",
        constraints=[], levels=[], q_a=[0.0], q_b=None, multipliers=None,
        trajectory=None, tau=None, xi=None, dynamics=None, control=None, costate=None,
    )
    L, tau, xi = spec.compile("L", "t * v1^2"), spec.compile("tau", "1"), spec.compile("xi", ["q1"])
    assert PointField(L, grad_x=L).evaluator is L and PointField(L, grad_x=L).grad_x is L
    assert VectorField(xi).evaluator is xi
    gen = SymmetryGenerator(tau=tau, xi=xi)
    assert gen.tau is tau and gen.xi is xi
    f = PointField(lambda s, x, y: 0.0)
    assert PointField(f.evaluator).evaluator is f.evaluator  # wrapping happens once


def per_probe_autonomous(cp):
    """Whether cp passes the autonomy test, evaluated one probe point at a
    time with the same random draws: a probe passes only when every change
    is at most 1e-8, so a NaN fails it."""
    rng = np.random.default_rng(0)
    for _ in range(8):
        q = rng.uniform(-1.0, 1.0, cp.dim)
        u = rng.uniform(-1.0, 1.0, cp.control_dim)
        ta, tb = rng.uniform(cp.grid.a, cp.grid.b, 2)
        vals_a = [cp.lagrangian(ta, q, u), *[g(ta, q, u) for g in cp.constraints]]
        vals_b = [cp.lagrangian(tb, q, u), *[g(tb, q, u) for g in cp.constraints]]
        phi_a, phi_b = cp.dynamics(ta, q, u), cp.dynamics(tb, q, u)
        if not np.all(np.abs(np.array(vals_a) - np.array(vals_b)) <= 1e-8):
            return False
        if not np.all(np.abs(phi_a - phi_b) <= 1e-8):
            return False
    return True


def nan_below(limit):
    """q1 * u1, or NaN where q1 < limit: a NaN fails its probe, whether or
    not the probe's other values change."""
    return lambda s, q, u: np.nan if q[0] < limit else q[0] * u[0]


@pytest.mark.parametrize(
    "L, g, phi",
    [
        (lambda s, q, u: u[0] ** 2, lambda s, q, u: q[0], lambda s, q, u: np.array([u[0], q[1]])),
        (lambda s, q, u: u[0] ** 2 + s, lambda s, q, u: q[0], lambda s, q, u: np.array([u[0], q[1]])),
        (lambda s, q, u: u[0] ** 2, lambda s, q, u: q[0] * s, lambda s, q, u: np.array([u[0], q[1]])),
        (lambda s, q, u: u[0] ** 2, lambda s, q, u: q[0], lambda s, q, u: np.array([u[0], q[1] + 1e-9 * s])),
        (lambda s, q, u: u[0] ** 2, lambda s, q, u: q[0], lambda s, q, u: np.array([u[0], q[1] + 1e-7 * s])),
        (nan_below(0.0), lambda s, q, u: q[0] * s, lambda s, q, u: np.array([u[0], q[1]])),
        (nan_below(2.0), lambda s, q, u: q[0] * s, lambda s, q, u: np.array([u[0], q[1]])),
        (nan_below(2.0), lambda s, q, u: q[0], lambda s, q, u: np.array([u[0], q[1] * s])),
    ],
    ids=[
        "autonomous", "L", "g", "phi-below-tol", "phi", "g-beside-some-nan", "g-behind-nan",
        "phi-beside-nan",
    ],
)
def test_autonomy_decision_equals_the_per_probe_loop(L, g, phi):
    cp = ControlProblem(
        order=FracOrder(0.5), lagrangian=PointField(L), dynamics=VectorField(phi),
        grid=Grid(0.0, 1.0, 10), initial=np.zeros(2), control_dim=1,
        constraints=[PointField(g)], constraint_levels=[0.0],
    )
    expected = per_probe_autonomous(cp)
    if expected:
        _check_autonomous(cp)
    else:
        with pytest.raises(AutonomyError):
            _check_autonomous(cp)


def test_a_repeated_sweep_calls_no_user_code_but_differences_always_do():
    """A sweep at the points of the callable's previous sweep is not run
    again; each +-step sweep of a finite difference is at new points, so a
    second d_x costs what the first did."""
    t, X, Y = points(2)
    n, calls = 2, [0]
    f = PointField(counting(lambda s, x, y: float(x @ y), calls))
    first = f(t, X, Y)
    assert_same(f(t, X, Y), first)
    assert calls[0] == M
    d_x = f.d_x(t, X, Y)
    assert_same(f.d_x(t, X, Y), d_x)
    assert calls[0] == M + 2 * (2 * n * M)
    assert_same(f(t, X, Y), first)  # the last sweep was at a shifted x
    assert calls[0] == M + 4 * n * M + M


def test_a_sweep_after_the_points_change_in_place_calls_the_callables_again():
    """The kept sweep is keyed on the points' content, not on the arrays'
    identity: after q.values changes in place, a check sweeps again and
    equals the check with fresh fields, as does a field swept at a batch
    that changed in place."""
    from conftest import benchmark_extremal, benchmark_problem
    from fracnoether import euler_lagrange_residual

    problem = benchmark_problem(100)
    q = benchmark_extremal(problem.grid)
    lam = np.array([2.0])
    euler_lagrange_residual(problem, lam, q)
    q.values[40:60] += 1e-3
    again = euler_lagrange_residual(problem, lam, q)
    fresh = euler_lagrange_residual(benchmark_problem(100), lam, q)
    assert np.array_equal(again.pointwise.values, fresh.pointwise.values, equal_nan=True)
    assert (again.sup_norm, again.l2_norm) == (fresh.sup_norm, fresh.l2_norm)

    f = scalar_field(analytic=True)
    t, X, Y = points(2)
    for sweep in (f, f.d_x, f.d_y):
        sweep(t, X, Y)
    X[7, 1] += 0.5
    Y[3, 0] = -Y[3, 0]
    fresh = scalar_field(analytic=True)
    for sweep, reference in ((f, fresh), (f.d_x, fresh.d_x), (f.d_y, fresh.d_y)):
        assert_same(sweep(t, X, Y), reference(t, X, Y))


def test_mutating_a_returned_sweep_leaves_the_next_sweep_intact():
    """Neither the array a sweep returns nor the copy a repeated sweep
    returns is the kept one."""
    f, phi = scalar_field(analytic=True), vector_field(analytic=True)
    t, X, Y = points(2)
    for sweep in (f, f.d_x, f.d_y, phi, phi.d_x, phi.d_y):
        first = sweep(t, X, Y)
        expected = first.copy()
        first[...] = 7.0
        again = sweep(t, X, Y)
        assert_same(again, expected)
        again[...] = 9.0
        assert_same(sweep(t, X, Y), expected)


def test_a_field_rebuilt_after_a_parameter_change_sees_the_new_value():
    """Each field keeps the sweeps of its own callables: a field built
    around the same callable after a parameter it reads has changed calls
    it again."""
    params = {"c": 1.0}

    def ev(s, x, y):
        return params["c"] * float(x @ y)

    def tau(s, q):
        return params["c"] * s

    def taus():
        gen = SymmetryGenerator(tau, lambda s, q: q)
        return gen.sampled_along(SampledFunction(grid, X))[0]

    t, X, Y = points(2)
    grid = Grid(0.0, 1.0, M - 1)
    before, taus_before = PointField(ev)(t, X, Y), taus()
    params["c"] = 2.0
    assert_same(PointField(ev)(t, X, Y), 2.0 * before)
    assert_same(taus(), 2.0 * taus_before)


def test_a_callable_marked_whole_array_gets_each_sweep_in_one_call():
    """``whole_array = True`` on a user callable: it receives t of shape (M,)
    and x, y of shape (M, n) in one call per sweep, and it is called on
    every sweep, repeated or not."""
    seen = []

    def ev(s, x, y):
        seen.append((np.shape(s), np.shape(x), np.shape(y)))
        return s * np.sum(x * y, axis=-1)

    def grad_x(s, x, y):
        seen.append((np.shape(s), np.shape(x), np.shape(y)))
        return np.asarray(s)[..., None] * y

    ev.whole_array = grad_x.whole_array = True
    f = PointField(ev, grad_x=grad_x)
    assert f.evaluator is ev and f.grad_x is grad_x
    t, X, Y = points(2)
    shapes = ((M,), (M, 2), (M, 2))
    assert_same(f(t, X, Y), stacked(f, t, X, Y))
    assert_same(f.d_x(t, X, Y), stacked(f.d_x, t, X, Y))
    seen.clear()
    f(t, X, Y)
    f(t, X, Y)
    f.d_x(t, X, Y)
    assert seen == [shapes] * 3
    seen.clear()
    f.d_y(t, X, Y)
    assert seen == [shapes] * 4  # one call per +-step sweep of each y_i
