import numpy as np
import pytest

from fracnoether import (
    FracOrder,
    Grid,
    PointField,
    PontryaginExtremal,
    SampledFunction,
    SymmetryGenerator,
    VariationalProblem,
    certification_tolerance,
    constraint_values,
    euler_lagrange_residual,
    frac_pair_operator,
    gamma,
    hamiltonian_noether_residual,
    invariance_first_order_check,
    invariance_necessary_condition,
    momentum_law_residual,
    noether_law_residual,
    sample,
)

from conftest import SweepCounter, benchmark_extremal, benchmark_problem, lifted_benchmark

HALF = FracOrder(0.5)

SHIFT_BOTH = SymmetryGenerator(tau=lambda t, q: 1.0, xi=lambda t, q: np.ones(1))
STATE_SHIFT = SymmetryGenerator(tau=lambda t, q: 0.0, xi=lambda t, q: np.ones(1))
TIME_SHIFT = SymmetryGenerator(tau=lambda t, q: 1.0, xi=lambda t, q: np.zeros(1))


def test_pair_operator_classical_product_rule():
    grid = Grid(0.0, 1.0, 1000)
    f = sample(grid, lambda t: np.sin(2.0 * t))
    h = sample(grid, lambda t: t * t + 1.0)
    pair = frac_pair_operator(f, h, FracOrder(1.0)).scalar
    t = grid.nodes
    exact = 2.0 * np.cos(2.0 * t) * (t * t + 1.0) + np.sin(2.0 * t) * 2.0 * t
    assert np.max(np.abs(pair[1:-1] - exact[1:-1])) <= 1e-4


def test_pair_operator_bilinearity():
    grid = Grid(0.0, 1.0, 128)
    rng = np.random.default_rng(7)
    f1 = SampledFunction(grid, rng.standard_normal(grid.m + 1))
    f2 = SampledFunction(grid, rng.standard_normal(grid.m + 1))
    h = SampledFunction(grid, rng.standard_normal(grid.m + 1))
    lhs = frac_pair_operator(f1 * 2.0 + f2 * (-3.0), h, HALF).scalar
    rhs = 2.0 * frac_pair_operator(f1, h, HALF).scalar - 3.0 * frac_pair_operator(
        f2, h, HALF
    ).scalar
    assert np.allclose(lhs[1:-1], rhs[1:-1], atol=1e-10)
    lhs = frac_pair_operator(h, f1 * 2.0 + f2 * (-3.0), HALF).scalar
    rhs = 2.0 * frac_pair_operator(h, f1, HALF).scalar - 3.0 * frac_pair_operator(
        h, f2, HALF
    ).scalar
    assert np.allclose(lhs[1:-1], rhs[1:-1], atol=1e-10)


def test_pair_operator_validation():
    grid = Grid(0.0, 1.0, 32)
    other = Grid(0.0, 2.0, 32)
    f = sample(grid, lambda t: t)
    with pytest.raises(ValueError, match="grid"):
        frac_pair_operator(f, sample(other, lambda t: t), HALF)
    with pytest.raises(ValueError, match="dimension"):
        frac_pair_operator(f, sample(grid, lambda t: np.array([t, t])), HALF)


def test_noether_law_on_benchmark(bench2000, bench2000_q):
    rep = noether_law_residual(bench2000, np.array([2.0]), bench2000_q, SHIFT_BOTH)
    assert rep.passes(certification_tolerance(bench2000))


def test_momentum_law_on_benchmark(bench2000, bench2000_q):
    rep = momentum_law_residual(bench2000, np.array([2.0]), bench2000_q, STATE_SHIFT)
    assert rep.passes(certification_tolerance(bench2000))


def test_momentum_law_requires_zero_tau(bench2000, bench2000_q):
    """tau == 0 means exactly zero: a NaN tau is refused, not folded into a
    finite report."""
    nan_tau = SymmetryGenerator(tau=lambda t, q: np.nan, xi=lambda t, q: np.ones(1))
    for gen in (SHIFT_BOTH, nan_tau):
        with pytest.raises(ValueError, match="tau"):
            momentum_law_residual(bench2000, np.array([2.0]), bench2000_q, gen)
        with pytest.raises(ValueError, match="tau"):
            invariance_necessary_condition(bench2000, np.array([2.0]), bench2000_q, gen)


def _hamiltonian_noether_on_lift(problem, lam, q, gen):
    """The Hamiltonian Noether law on the benchmark's control lift, with the
    extremal's control t^2 and p = 0."""
    u = sample(problem.grid, lambda t: t * t)
    ext = PontryaginExtremal(q, u, u * 0.0, lam)
    return hamiltonian_noether_residual(lifted_benchmark(problem.grid), ext, gen)


@pytest.mark.parametrize(
    "check",
    [
        noether_law_residual,
        momentum_law_residual,
        invariance_necessary_condition,
        invariance_first_order_check,
        _hamiltonian_noether_on_lift,
    ],
    ids=["noether", "momentum", "invariance-necessary", "invariance-first-order", "hamiltonian"],
)
def test_generator_xi_must_match_the_state_dimension(check):
    """A two-component xi on the one-state benchmark is an error in every
    check that takes a generator, not a broadcast."""
    problem = benchmark_problem(200)
    gen = SymmetryGenerator(tau=lambda t, q: 0.0, xi=lambda t, q: np.ones(2))
    with pytest.raises(ValueError, match="xi has 2 components but q has 1"):
        check(problem, np.array([2.0]), benchmark_extremal(problem.grid), gen)


def test_tau_zero_reduction(bench2000, bench2000_q):
    """With tau == 0 the full law reduces exactly to the momentum law."""
    lam = np.array([2.0])
    full = noether_law_residual(bench2000, lam, bench2000_q, STATE_SHIFT)
    mom = momentum_law_residual(bench2000, lam, bench2000_q, STATE_SHIFT)
    a = full.pointwise.values[1:-1]
    b = mom.pointwise.values[1:-1]
    assert np.max(np.abs(a - b)) == 0.0


def test_invariance_necessary_condition_on_benchmark(bench2000, bench2000_q):
    rep = invariance_necessary_condition(
        bench2000, np.array([2.0]), bench2000_q, STATE_SHIFT
    )
    assert rep.sup_norm <= certification_tolerance(bench2000)


def test_first_order_invariance_probe(bench2000, bench2000_q):
    lam = np.array([2.0])
    inv = invariance_first_order_check(bench2000, lam, bench2000_q, TIME_SHIFT)
    assert inv.sup_norm <= 1e-3
    # the unaugmented functional is not invariant under time translation
    not_inv = invariance_first_order_check(
        bench2000, np.array([0.0]), bench2000_q, TIME_SHIFT
    )
    assert not_inv.sup_norm > 0.1


def test_first_order_probe_zero_generator(bench2000, bench2000_q):
    zero_gen = SymmetryGenerator(tau=lambda t, q: 0.0, xi=lambda t, q: np.zeros(1))
    rep = invariance_first_order_check(
        bench2000, np.array([2.0]), bench2000_q, zero_gen
    )
    assert rep.sup_norm == 0.0


def test_first_order_probe_samples_generator_once():
    from conftest import benchmark_extremal, benchmark_problem

    problem = benchmark_problem(100)
    q = benchmark_extremal(problem.grid)
    calls = []

    def tau(t, x):
        calls.append(t)
        return 1.0

    gen = SymmetryGenerator(tau=tau, xi=lambda t, x: np.zeros(1))
    rep = invariance_first_order_check(problem, np.array([2.0]), q, gen)
    assert len(calls) == problem.grid.m + 1
    assert rep.sup_norm <= 1e-2


@pytest.mark.parametrize(
    "gen",
    [
        TIME_SHIFT,
        SymmetryGenerator(tau=lambda t, q: t, xi=lambda t, q: 0.5 * q),
        STATE_SHIFT,
    ],
    ids=["translation", "scaling", "state-shift"],
)
def test_first_order_probe_evaluates_f_only_inside_its_window(gen):
    """Per eps value, F is called at the transformed nodes that bracket the
    outermost subinterval, nodes round(0.05 m)..round(0.95 m), not at all
    m + 1."""
    from dataclasses import replace

    from conftest import benchmark_extremal, benchmark_problem

    problem = benchmark_problem(100)
    q = benchmark_extremal(problem.grid)
    L, calls = problem.lagrangian, []

    def evaluator(t, x, v):
        calls.append(t)
        return L(t, x, v)

    counting = replace(problem, lagrangian=PointField(evaluator, L.grad_x, L.grad_y))
    invariance_first_order_check(counting, np.array([2.0]), q, gen)
    j0, j1 = round(0.05 * problem.grid.m), round(0.95 * problem.grid.m)
    assert 4 * (j1 - j0 + 1) <= len(calls) <= 4 * (j1 - j0 + 3)


def test_conservation_laws_sample_only_the_velocity_partial():
    """The Noether and momentum laws read d_v F alone, so a Lagrangian whose
    grad_x counts its calls sees none."""
    from dataclasses import replace

    from conftest import benchmark_extremal, benchmark_problem

    problem = benchmark_problem(100)
    q = benchmark_extremal(problem.grid)
    L, calls = problem.lagrangian, []

    def grad_x(t, x, v):
        calls.append(t)
        return L.d_x(t, x, v)

    counting = replace(problem, lagrangian=PointField(L.evaluator, grad_x, L.grad_y))
    lam = np.array([2.0])
    noether = noether_law_residual(counting, lam, q, SHIFT_BOTH)
    momentum = momentum_law_residual(counting, lam, q, STATE_SHIFT)
    assert calls == []
    assert noether.sup_norm == noether_law_residual(problem, lam, q, SHIFT_BOTH).sup_norm
    assert momentum.sup_norm == momentum_law_residual(problem, lam, q, STATE_SHIFT).sup_norm


def counted_certification(counter: SweepCounter):
    """The benchmark problem on 200 intervals, L = t^4 + v^2 and g = t^2 v with
    analytic partials, and the shift (tau = xi = 1) and state shift (tau = 0,
    xi = 1) generators: every callable per point and counted."""
    c = counter.wrap
    L = PointField(
        c(lambda t, q, v: t**4 + float(v[0] ** 2)),
        grad_x=c(lambda t, q, v: np.zeros(1)),
        grad_y=c(lambda t, q, v: 2.0 * v),
    )
    g = PointField(
        c(lambda t, q, v: t * t * float(v[0])),
        grad_x=c(lambda t, q, v: np.zeros(1)),
        grad_y=c(lambda t, q, v: np.array([t * t])),
    )
    problem = VariationalProblem(
        HALF, L, Grid(0.0, 1.0, 200), [0.0], [2.0 / gamma(3.5)],
        constraints=[g], constraint_levels=[0.2],
    )
    shift = SymmetryGenerator(tau=c(lambda t, q: 1.0), xi=c(lambda t, q: np.ones(1)))
    state_shift = SymmetryGenerator(tau=c(lambda t, q: 0.0), xi=c(lambda t, q: np.ones(1)))
    return problem, shift, state_shift


def certification(problem, shift, state_shift, q, bad):
    """The checks of the benchmark's certify-fine op, in its order: EL,
    constraint, Noether, momentum, invariance, and EL on a refuted candidate."""
    lam = np.array([2.0])
    return [
        lambda: euler_lagrange_residual(problem, lam, q),
        lambda: constraint_values(problem, q),
        lambda: noether_law_residual(problem, lam, q, shift),
        lambda: momentum_law_residual(problem, lam, q, state_shift),
        lambda: invariance_first_order_check(problem, lam, q, shift),
        lambda: euler_lagrange_residual(problem, lam, bad),
    ]


def assert_same_result(result, reference):
    if isinstance(reference, np.ndarray):
        assert np.array_equal(result, reference)
        return
    assert np.array_equal(result.pointwise.values, reference.pointwise.values, equal_nan=True)
    assert (result.sup_norm, result.l2_norm) == (reference.sup_norm, reference.l2_norm)


def test_certification_sweeps_each_callable_once_per_set_of_points():
    """A callable swept again at its previous points is not called: Noether
    reuses the EL's L.d_y and g.d_y and the constraint's g, momentum reuses
    Noether's L.d_y and g.d_y, and the invariance probe reuses Noether's tau
    and xi.  22 sweeps (29 when every check swept afresh), and every result
    is bitwise that of the same check on fresh fields."""
    counter = SweepCounter()
    problem, shift, state_shift = counted_certification(counter)
    q = benchmark_extremal(problem.grid)
    bad = q + sample(problem.grid, lambda t: 0.005 * np.sin(3.0 * np.pi * t))
    results = [check() for check in certification(problem, shift, state_shift, q, bad)]
    assert counter.sweeps == 22
    for k, result in enumerate(results):
        fresh = certification(*counted_certification(SweepCounter()), q, bad)[k]()
        assert_same_result(result, fresh)


def test_el_at_a_second_multiplier_reuses_the_partials():
    """The EL check at lambda = 2 and then at lambda = 0 along one q, as the
    certification demo runs it: with analytic partials the second check
    calls no user code and equals the check on fresh fields."""
    counter = SweepCounter()
    problem = counted_certification(counter)[0]
    q = benchmark_extremal(problem.grid)
    euler_lagrange_residual(problem, np.array([2.0]), q)
    assert counter.sweeps == 4
    second = euler_lagrange_residual(problem, np.array([0.0]), q)
    assert counter.sweeps == 4
    fresh = counted_certification(SweepCounter())[0]
    assert_same_result(second, euler_lagrange_residual(fresh, np.array([0.0]), q))
