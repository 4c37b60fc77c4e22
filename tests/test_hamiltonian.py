from dataclasses import replace

import numpy as np
import pytest

from fracnoether import (
    AutonomyError,
    ControlProblem,
    FracOrder,
    Grid,
    PointField,
    PontryaginExtremal,
    SampledFunction,
    SymmetryGenerator,
    VectorField,
    autonomous_energy_residual,
    fill_endpoints,
    gamma,
    hamiltonian_noether_residual,
    hamiltonian_value,
    left_rl_derivative,
    make_report,
    noether_law_residual,
    pontryagin_residuals,
    right_rl_derivative,
    sample,
)

from conftest import benchmark_extremal, benchmark_problem, lifted_benchmark

HALF = FracOrder(0.5)
GRID = Grid(0.0, 1.0, 2000)
ZERO = SampledFunction(GRID, np.zeros(GRID.m + 1))
BAND = 100  # 5% of the interval per side


def lifted_extremal() -> PontryaginExtremal:
    return PontryaginExtremal(
        q=sample(GRID, lambda t: 2.0 * t**2.5 / gamma(3.5)),
        u=sample(GRID, lambda t: t * t),
        p=ZERO,
        lam=np.array([2.0]),
    )


def autonomous_problem() -> ControlProblem:
    """L = (u-1)^2, phi = u, int u = -1; H vanishes along the extremal."""
    return ControlProblem(
        order=HALF,
        lagrangian=PointField(lambda t, q, u: float((u[0] - 1.0) ** 2)),
        dynamics=VectorField(lambda t, q, u: u.copy()),
        grid=GRID,
        initial=[0.0],
        constraints=[PointField(lambda t, q, u: float(u[0]))],
        constraint_levels=[-1.0],
    )


def autonomous_extremal() -> PontryaginExtremal:
    return PontryaginExtremal(
        q=sample(GRID, lambda t: -(t**0.5) / gamma(1.5)),
        u=sample(GRID, lambda t: -1.0),
        p=ZERO,
        lam=np.array([-4.0]),
    )


def test_hamiltonian_value_is_direct_sum():
    """At one point H is a float; at the same M points, points first, it
    equals those one-point values bitwise."""
    cp = lifted_benchmark()
    rng = np.random.default_rng(5)
    points, singles = [], []
    for _ in range(20):
        t = rng.uniform(0.0, 1.0)
        q = rng.uniform(-1.0, 1.0, 1)
        u = rng.uniform(-1.0, 1.0, 1)
        p = rng.uniform(-1.0, 1.0, 1)
        lam = np.array([2.0])
        expected = t**4 + u[0] ** 2 - 2.0 * t * t * u[0] + p[0] * u[0]
        singles.append(hamiltonian_value(cp, t, q, u, p, lam))
        assert isinstance(singles[-1], float)
        assert singles[-1] == pytest.approx(expected, rel=1e-12)
        points.append((t, q, u, p))
    t, q, u, p = (np.array(column) for column in zip(*points))
    assert np.array_equal(hamiltonian_value(cp, t, q, u, p, lam), singles)


@pytest.mark.parametrize(
    "tau, xi", [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0)], ids=["shift", "state-shift", "time-shift"]
)
def test_lagrangian_and_hamiltonian_noether_laws_agree(tau, xi):
    """On the control lift with u = D^alpha q (filled) and p = -d_u F, the
    Hamiltonian law's terms are the Lagrangian law's: H - (1 - alpha) p . u
    = F - alpha d_v F . v and -p = d_v F.  The candidate is the extremal plus
    0.01 sin(3 pi t), so neither law holds there, and both must agree, the
    xi term and its sign included."""
    problem = benchmark_problem(400)
    grid = problem.grid
    q = benchmark_extremal(grid) + sample(grid, lambda t: 0.01 * np.sin(3.0 * np.pi * t))
    lam = np.array([2.0])
    u = fill_endpoints(left_rl_derivative(q, HALF).values)
    # d_u F = 2 u - lambda t^2 for L = t^4 + u^2 and g = t^2 u
    p = -(2.0 * u - lam[0] * grid.nodes[:, None] ** 2)
    ext = PontryaginExtremal(q, SampledFunction(grid, u), SampledFunction(grid, p), lam)
    gen = SymmetryGenerator(tau=lambda t, x: tau, xi=lambda t, x: np.full(1, xi))
    lagrangian = noether_law_residual(problem, lam, q, gen)
    hamiltonian = hamiltonian_noether_residual(lifted_benchmark(grid), ext, gen)
    assert hamiltonian.sup_norm > 0.1
    diff = hamiltonian.pointwise.values[1:-1] - lagrangian.pointwise.values[1:-1]
    assert np.max(np.abs(diff)) <= 1e-12 * (1.0 + lagrangian.sup_norm)


def test_lift_passes_pontryagin_residuals():
    reps = pontryagin_residuals(lifted_benchmark(), lifted_extremal(), band=BAND)
    assert all(r.sup_norm <= 5e-3 for r in reps)


def test_wrong_costate_fails_costate_equation():
    bad = PontryaginExtremal(
        q=sample(GRID, lambda t: 2.0 * t**2.5 / gamma(3.5)),
        u=sample(GRID, lambda t: t * t),
        p=SampledFunction(GRID, np.ones(GRID.m + 1)),
        lam=np.array([2.0]),
    )
    _, costate, _ = pontryagin_residuals(lifted_benchmark(), bad, band=BAND)
    assert costate.sup_norm > 0.1


def test_wrong_control_fails_stationarity():
    bad = PontryaginExtremal(
        q=sample(GRID, lambda t: 2.0 * t**2.5 / gamma(3.5)),
        u=sample(GRID, lambda t: t * t + 0.5),
        p=ZERO,
        lam=np.array([2.0]),
    )
    _, _, stationary = pontryagin_residuals(lifted_benchmark(), bad, band=BAND)
    assert stationary.sup_norm > 0.5


def test_extremal_validation():
    with pytest.raises(ValueError, match="grid"):
        PontryaginExtremal(
            q=sample(GRID, lambda t: t),
            u=sample(Grid(0.0, 1.0, 10), lambda t: t),
            p=ZERO,
            lam=np.zeros(1),
        )


def test_autonomous_energy_law_exact():
    rep = autonomous_energy_residual(autonomous_problem(), autonomous_extremal())
    assert rep.sup_norm <= 1e-10


def test_hamiltonian_noether_law():
    sym = SymmetryGenerator(tau=lambda t, q: 1.0, xi=lambda t, q: np.zeros(1))
    rep = hamiltonian_noether_residual(
        autonomous_problem(), autonomous_extremal(), sym, band=BAND
    )
    assert rep.sup_norm <= 1e-10


def test_autonomy_check_rejects_time_dependence():
    with pytest.raises(AutonomyError):
        autonomous_energy_residual(lifted_benchmark(), lifted_extremal())


def test_autonomy_check_rejects_data_it_cannot_evaluate():
    """L = t log(q1 - 2) + u1^2 depends on t but is NaN at every probe, whose
    q lies in [-1, 1]; NaN is no evidence of autonomy."""
    cp = replace(
        autonomous_problem(),
        lagrangian=PointField(lambda t, q, u: t * np.log(q[0] - 2.0) + u[0] ** 2),
    )
    with np.errstate(invalid="ignore"), pytest.raises(AutonomyError, match="could not be checked"):
        autonomous_energy_residual(cp, autonomous_extremal())


def test_hamiltonian_alone_is_not_conserved():
    """D^alpha of a nonzero constant Hamiltonian does not vanish."""
    h_values = SampledFunction(GRID, np.full(GRID.m + 1, 3.0))
    rep = make_report(GRID, left_rl_derivative(h_values, HALF).values, band=BAND)
    assert rep.sup_norm > 1.0


@pytest.mark.parametrize("analytic", [True, False])
def test_pontryagin_residuals_with_linear_dynamics(analytic):
    """dim=2, three controls, phi = A q + B u, L = u.u / 2 + t (q1 + 2 q2),
    g = q1 u3: the costate residual is D_b p - (t (1, 2) - lam (u3, 0) + A^T p)
    and the stationarity residual is u - lam (0, 0, q1) + B^T p."""
    A = np.array([[0.0, 1.0], [-2.0, 0.5]])
    B = np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 1.0]])

    def given(**partials):
        return partials if analytic else {}

    L = PointField(
        lambda t, q, u: 0.5 * float(u @ u) + t * (q[0] + 2.0 * q[1]),
        **given(grad_x=lambda t, q, u: np.array([t, 2.0 * t]), grad_y=lambda t, q, u: u),
    )
    g = PointField(
        lambda t, q, u: q[0] * u[2],
        **given(
            grad_x=lambda t, q, u: np.array([u[2], 0.0]),
            grad_y=lambda t, q, u: np.array([0.0, 0.0, q[0]]),
        ),
    )
    phi = VectorField(
        lambda t, q, u: A @ q + B @ u,
        **given(jac_x=lambda t, q, u: A, jac_y=lambda t, q, u: B),
    )
    grid = Grid(0.0, 1.0, 50)
    cp = ControlProblem(
        order=HALF, lagrangian=L, dynamics=phi, grid=grid, initial=[0.0, 0.0],
        control_dim=3, constraints=[g], constraint_levels=[0.0],
    )
    t = grid.nodes
    q = SampledFunction(grid, np.column_stack([t**1.5, np.sin(t)]))
    u = SampledFunction(grid, np.column_stack([np.cos(t), t * t, 1.0 - t]))
    p = SampledFunction(grid, np.column_stack([1.0 - t * t, np.exp(-t)]))
    lam = 0.7
    state, costate, stationary = pontryagin_residuals(
        cp, PontryaginExtremal(q=q, u=u, p=p, lam=[lam])
    )

    Q, U, Pv = q.values, u.values, p.values
    dq_h = np.column_stack([t, 2.0 * t]) - lam * np.column_stack([U[:, 2], 0.0 * t]) + Pv @ A
    du_h = U - lam * np.column_stack([0.0 * t, 0.0 * t, Q[:, 0]]) + Pv @ B
    expected = (
        left_rl_derivative(q, HALF).values - (Q @ A.T + U @ B.T),
        right_rl_derivative(p, HALF).values - dq_h,
        du_h,
    )
    tol = 1e-12 if analytic else 1e-8
    for rep, exp in zip((state, costate, stationary), expected):
        got = rep.pointwise.values[1:-1]
        assert got.shape == exp[1:-1].shape
        assert np.max(np.abs(got - exp[1:-1])) <= tol * (1.0 + np.max(np.abs(exp[1:-1])))


HAMILTONIAN_CHECKS = {
    "pontryagin": pontryagin_residuals,
    "noether": lambda cp, ext: hamiltonian_noether_residual(
        cp, ext, SymmetryGenerator(tau=lambda t, q: 1.0, xi=lambda t, q: np.zeros(ext.q.dim))
    ),
    "energy": autonomous_energy_residual,
}


def mismatched(case: str) -> tuple[ControlProblem, PontryaginExtremal]:
    """The control lift at m = 200 and a candidate that does not fit it in one
    way: a 2-column control, a grid on [0, 2], a 2-component state, or (with
    a fitting candidate) a phi that returns 2 components."""
    grid = Grid(0.0, 1.0, 200)
    cp = lifted_benchmark(grid)
    if case == "grid":
        grid = Grid(0.0, 2.0, 200)
    ext = PontryaginExtremal(
        q=benchmark_extremal(grid),
        u=sample(grid, lambda t: t * t),
        p=SampledFunction(grid, np.zeros(grid.m + 1)),
        lam=np.array([2.0]),
    )
    if case == "control":
        ext = replace(ext, u=sample(grid, lambda t: np.array([t * t, t])))
    elif case == "state":
        q2 = np.column_stack([ext.q.values, ext.q.values])
        ext = replace(ext, q=SampledFunction(grid, q2), p=SampledFunction(grid, np.zeros_like(q2)))
    elif case == "phi":
        cp = replace(cp, dynamics=VectorField(lambda t, q, u: np.array([u[0], u[0]])))
    return cp, ext


MISMATCHES = {
    "control": "control has 2 components but the problem has 1",
    "grid": r"candidate grid Grid\(a=0.0, b=2.0, m=200\) is not the problem's",
    "state": "state has 2 components but the problem has 1",
    "phi": "phi returns 2 components but the state has 1",
}


@pytest.mark.parametrize("check", HAMILTONIAN_CHECKS.values(), ids=HAMILTONIAN_CHECKS)
@pytest.mark.parametrize("case", MISMATCHES)
def test_hamiltonian_checks_reject_a_candidate_that_does_not_fit(check, case):
    """Each Hamiltonian check compares the candidate's grid, state and control
    dimensions, and phi's output, with the problem's before it evaluates a
    residual."""
    cp, ext = mismatched(case)
    with pytest.raises(ValueError, match=MISMATCHES[case]):
        check(cp, ext)


def test_control_problem_and_extremal_validation():
    """A control problem of order above 1, levels that do not match the
    constraints (the message VariationalProblem gives), and a costate whose
    dimension is not the state's."""
    cp = lifted_benchmark(Grid(0.0, 1.0, 20))
    with pytest.raises(ValueError, match="control layer needs 0 < alpha <= 1"):
        replace(cp, order=FracOrder(1.5))
    with pytest.raises(ValueError, match="1 constraints but 2 levels"):
        replace(cp, constraint_levels=[0.2, 0.3])
    q = benchmark_extremal(cp.grid)
    with pytest.raises(ValueError, match="state and costate dimensions disagree"):
        PontryaginExtremal(q, q, SampledFunction(cp.grid, np.zeros((21, 2))), [2.0])
