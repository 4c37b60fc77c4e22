"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines inline.
"""

import numpy as np
import pytest

from fracnoether import (
    ControlProblem,
    FracOrder,
    Grid,
    PointField,
    PontryaginExtremal,
    SampledFunction,
    SymmetryGenerator,
    VectorField,
    autonomous_energy_residual,
    certification_tolerance,
    constraint_values,
    euler_lagrange_residual,
    frac_pair_operator,
    frac_velocity,
    gamma,
    left_rl_derivative,
    left_rl_integral,
    make_report,
    momentum_law_residual,
    noether_law_residual,
    pontryagin_residuals,
    right_rl_derivative,
    right_rl_integral,
    sample,
    solve,
)

from conftest import benchmark_extremal, benchmark_problem, classical_problem

HALF = FracOrder(0.5)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def power_rule_rel_err(m: int) -> float:
    grid = Grid(0.0, 1.0, m)
    t = grid.nodes
    num = left_rl_derivative(sample(grid, lambda s: s * s), HALF).scalar
    exact = gamma(3.0) / gamma(2.5) * t**1.5
    mask = t >= 0.05
    return float(np.max(np.abs(num[mask] - exact[mask]) / exact[mask]))


def test_criterion_1_power_rule_and_order():
    err1000 = power_rule_rel_err(1000)
    err2000 = power_rule_rel_err(2000)
    order = float(np.log2(err1000 / err2000))
    ok = err2000 <= 1e-3 and order >= 1.4
    report(
        "criterion 1 (power rule)",
        ok,
        f"rel err {err2000:.2e} at m=2000 (<= 1e-3), empirical order {order:.2f} (>= 1.4)",
    )


def test_criterion_2_constant_rule():
    grid = Grid(0.0, 1.0, 2000)
    t = grid.nodes
    num = left_rl_derivative(sample(grid, lambda s: 1.0), HALF).scalar
    mask = t >= 0.05
    exact = t[mask] ** (-0.5) / gamma(0.5)
    err = float(np.max(np.abs(num[mask] - exact) / exact))
    report("criterion 2 (constant rule)", err <= 1e-3, f"rel err {err:.2e} (<= 1e-3)")


def test_criterion_3_benchmark_certification():
    problem = benchmark_problem(2000)
    grid = problem.grid
    q = benchmark_extremal(grid)
    lam = np.array([2.0])
    tol = certification_tolerance(problem)
    t = grid.nodes
    mask = t >= 0.05

    v = frac_velocity(q, problem.order).scalar
    err_v = float(np.max(np.abs(v[mask] - t[mask] ** 2) / t[mask] ** 2))
    ok_a = err_v <= 2e-3

    cons = float(constraint_values(problem, q)[0])
    ok_b = abs(cons - 0.2) <= 1e-4

    el = euler_lagrange_residual(problem, lam, q)
    ok_c = el.passes(tol)

    gen = SymmetryGenerator(tau=lambda tt, x: 1.0, xi=lambda tt, x: np.ones(1))
    law = noether_law_residual(problem, lam, q, gen)
    ok_d = law.passes(tol)

    bump = sample(grid, lambda tt: 0.1 * np.sin(np.pi * tt))
    el_bad = euler_lagrange_residual(problem, lam, q + bump)
    ratio = el_bad.sup_norm / el.sup_norm
    ok_e = ratio >= 10.0

    ok = ok_a and ok_b and ok_c and ok_d and ok_e
    report(
        "criterion 3 (benchmark certification)",
        ok,
        f"(a) velocity rel err {err_v:.2e} (<= 2e-3); "
        f"(b) constraint {cons:.6f} (1/5 +- 1e-4); "
        f"(c) EL sup {el.sup_norm:.2e} vs tol {tol:.2e}; "
        f"(d) law sup {law.sup_norm:.2e}; "
        f"(e) perturbation ratio {ratio:.0f}x (>= 10)",
    )


def test_criterion_4_solver_reproduction():
    problem = benchmark_problem(500)
    sol = solve(problem)
    exact = benchmark_extremal(problem.grid)
    scale = max(1.0, float(np.max(np.abs(exact.values))))
    dev = float(np.max(np.abs(sol.q.values - exact.values))) / scale
    lam_ok = abs(sol.lam[0] - 2.0) <= 0.05
    ok = sol.converged and lam_ok and dev <= 5e-3
    report(
        "criterion 4 (solver reproduction)",
        ok,
        f"converged={sol.converged}, lambda {sol.lam[0]:.4f} (2 +- 0.05), "
        f"scaled max deviation {dev:.2e} (<= 5e-3)",
    )


def test_criterion_5_classical_limit():
    # multiplier accuracy needs m = 5000: its discrete error is ~24 h^2
    problem = classical_problem(5000)
    sol = solve(problem)
    parabola = 6.0 * problem.grid.nodes * (1.0 - problem.grid.nodes)
    dev = float(np.max(np.abs(sol.q.scalar - parabola)))
    lam_err = abs(float(sol.lam[0]) - 24.0)

    # fractional laws reduce to classical counterparts at alpha = 1
    small = classical_problem(1000)
    q = sample(small.grid, lambda t: 6.0 * t * (1.0 - t))
    lam = np.array([24.0])
    el = euler_lagrange_residual(small, lam, q)
    gen_t = SymmetryGenerator(tau=lambda t, x: 1.0, xi=lambda t, x: np.zeros(1))
    law = noether_law_residual(small, lam, q, gen_t)
    fd_tol = 1e-5

    ok = (
        sol.converged
        and dev <= 1e-6
        and lam_err <= 1e-6
        and el.sup_norm <= fd_tol
        and law.sup_norm <= fd_tol
    )
    report(
        "criterion 5 (classical limit)",
        ok,
        f"converged={sol.converged}, deviation {dev:.2e} (<= 1e-6), "
        f"multiplier err {lam_err:.2e} (<= 1e-6), "
        f"classical EL sup {el.sup_norm:.2e}, classical law sup {law.sup_norm:.2e} "
        f"(<= {fd_tol:.0e})",
    )


def _lift(grid: Grid) -> ControlProblem:
    return ControlProblem(
        order=HALF,
        lagrangian=PointField(lambda t, q, u: t**4 + float(u[0] ** 2)),
        dynamics=VectorField(lambda t, q, u: u.copy()),
        grid=grid,
        initial=[0.0],
        constraints=[PointField(lambda t, q, u: t * t * float(u[0]))],
        constraint_levels=[0.2],
    )


def test_criterion_6_hamiltonian_layer():
    grid = Grid(0.0, 1.0, 2000)
    zero = SampledFunction(grid, np.zeros(grid.m + 1))
    band = 100

    ext = PontryaginExtremal(
        q=sample(grid, lambda t: 2.0 * t**2.5 / gamma(3.5)),
        u=sample(grid, lambda t: t * t),
        p=zero,
        lam=np.array([2.0]),
    )
    reps = pontryagin_residuals(_lift(grid), ext, band=band)
    pont_sup = max(r.sup_norm for r in reps)
    ok_pont = pont_sup <= 5e-3

    autonomous = ControlProblem(
        order=HALF,
        lagrangian=PointField(lambda t, q, u: float((u[0] - 1.0) ** 2)),
        dynamics=VectorField(lambda t, q, u: u.copy()),
        grid=grid,
        initial=[0.0],
        constraints=[PointField(lambda t, q, u: float(u[0]))],
        constraint_levels=[-1.0],
    )
    ext2 = PontryaginExtremal(
        q=sample(grid, lambda t: -(t**0.5) / gamma(1.5)),
        u=sample(grid, lambda t: -1.0),
        p=zero,
        lam=np.array([-4.0]),
    )
    energy = autonomous_energy_residual(autonomous, ext2)
    ok_energy = energy.sup_norm <= 1e-10

    # a nonzero-constant Hamiltonian is NOT conserved under D^alpha
    h_const = SampledFunction(grid, np.full(grid.m + 1, 3.0))
    dh = make_report(grid, left_rl_derivative(h_const, HALF).values, band=band)
    ok_not = dh.sup_norm > 1.0

    ok = ok_pont and ok_energy and ok_not
    report(
        "criterion 6 (hamiltonian layer)",
        ok,
        f"pontryagin sup {pont_sup:.2e} (<= 5e-3), energy law sup "
        f"{energy.sup_norm:.2e} (<= 1e-10), D^a(const H) sup {dh.sup_norm:.2f} (> 1)",
    )


def test_criterion_7_property_suites():
    rng = np.random.default_rng(2024)
    grid = Grid(0.0, 1.0, 128)
    checks = []

    # linearity of all four fractional operators, machine precision
    for op in (left_rl_integral, right_rl_integral, left_rl_derivative, right_rl_derivative):
        for _ in range(5):
            f = SampledFunction(grid, rng.standard_normal(grid.m + 1))
            g = SampledFunction(grid, rng.standard_normal(grid.m + 1))
            a, b = rng.standard_normal(2)
            lhs = op(f * float(a) + g * float(b), HALF).scalar
            rhs = a * op(f, HALF).scalar + b * op(g, HALF).scalar
            diff = np.abs(lhs[1:-1] - rhs[1:-1])
            checks.append(("linearity", float(np.max(diff)), 1e-10))

    # pair operator bilinearity
    for _ in range(5):
        f = SampledFunction(grid, rng.standard_normal(grid.m + 1))
        g = SampledFunction(grid, rng.standard_normal(grid.m + 1))
        h = SampledFunction(grid, rng.standard_normal(grid.m + 1))
        a, b = rng.standard_normal(2)
        lhs = frac_pair_operator(f * float(a) + g * float(b), h, HALF).scalar
        rhs = (
            a * frac_pair_operator(f, h, HALF).scalar
            + b * frac_pair_operator(g, h, HALF).scalar
        )
        checks.append(
            ("pair bilinearity", float(np.max(np.abs(lhs[1:-1] - rhs[1:-1]))), 1e-10)
        )

    # gamma = 1 product rule on smooth data
    fine = Grid(0.0, 1.0, 1000)
    t = fine.nodes
    for k in range(1, 4):
        f = sample(fine, lambda s, k=k: np.sin(k * s))
        h = sample(fine, lambda s, k=k: np.exp(-k * s))
        pair = frac_pair_operator(f, h, FracOrder(1.0)).scalar
        exact = (
            np.cos(k * t) * k * np.exp(-k * t) + np.sin(k * t) * (-k) * np.exp(-k * t)
        )
        checks.append(
            ("product rule", float(np.max(np.abs(pair[1:-1] - exact[1:-1]))), 1e-3)
        )

    # reflection duality: right operator == reflected left operator
    for order in (HALF, FracOrder(1.0)):
        for _ in range(5):
            f = SampledFunction(grid, rng.standard_normal(grid.m + 1))
            reflected = SampledFunction(grid, f.values[::-1])
            lhs = right_rl_derivative(f, order).scalar
            rhs = left_rl_derivative(reflected, order).scalar[::-1]
            checks.append(
                ("reflection duality", float(np.max(np.abs(lhs[:-1] - rhs[:-1]))), 1e-12)
            )
    # independent oracle for the right operator: the right power rule
    pg = Grid(0.0, 1.0, 2000)
    num = right_rl_derivative(sample(pg, lambda s: (1.0 - s) ** 2), HALF).scalar
    exact = gamma(3.0) / gamma(2.5) * (1.0 - pg.nodes) ** 1.5
    mask = pg.nodes <= 0.95
    checks.append(
        ("right power rule", float(np.max(np.abs(num[mask] - exact[mask]))), 1e-3)
    )

    # tau == 0 reduction of the full law to the constrained momentum law
    problem = benchmark_problem(400)
    q = benchmark_extremal(problem.grid)
    lam = np.array([2.0])
    gen = SymmetryGenerator(tau=lambda tt, x: 0.0, xi=lambda tt, x: np.ones(1))
    full = noether_law_residual(problem, lam, q, gen).pointwise.values[1:-1]
    mom = momentum_law_residual(problem, lam, q, gen).pointwise.values[1:-1]
    checks.append(("tau=0 reduction", float(np.max(np.abs(full - mom))), 1e-14))

    failures = [(n, v, tol) for n, v, tol in checks if v > tol]
    ok = not failures
    worst = max(checks, key=lambda c: c[1] / c[2])
    report(
        "criterion 7 (property suites)",
        ok,
        f"{len(checks)} randomized/property checks, worst margin "
        f"{worst[0]} {worst[1]:.2e} (tol {worst[2]:.0e})"
        + (f"; failures: {failures}" if failures else ""),
    )
