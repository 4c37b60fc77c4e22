import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fracnoether import (
    FracOrder,
    Grid,
    PointField,
    SolverError,
    VariationalProblem,
    augmented_lagrangian,
    constraint_values,
    euler_lagrange_residual,
    gamma,
    normality_check,
    objective_value,
    refine,
    sample,
    solve,
)
from fracnoether import frac_kernels as fk
from fracnoether import solver
from fracnoether.frac_kernels import _FFT_MIN_SIZE, _causal_convolve, left_derivative_matrix
from fracnoether.grids import fill_endpoints
from fracnoether.solver import (
    _Discretization,
    _NewtonOperator,
    _initial_state,
    _newton,
)

from conftest import (
    SweepCounter,
    benchmark_extremal,
    benchmark_fields,
    benchmark_problem,
    classical_problem,
)


def test_unconstrained_quadratic_gives_zero():
    L = PointField(
        lambda t, q, v: float(v[0] ** 2),
        grad_x=lambda t, q, v: np.zeros(1),
        grad_y=lambda t, q, v: 2.0 * v,
    )
    p = VariationalProblem(FracOrder(0.5), L, Grid(0.0, 1.0, 100), [0.0], [0.0])
    sol = solve(p)
    assert sol.converged
    assert np.max(np.abs(sol.q.values)) <= 1e-8
    assert sol.lam.size == 0


def test_benchmark_cold_start():
    p = benchmark_problem(500)
    sol = solve(p)
    assert sol.converged
    assert sol.lam[0] == pytest.approx(2.0, abs=0.05)
    exact = benchmark_extremal(p.grid)
    scale = max(1.0, float(np.max(np.abs(exact.values))))
    assert np.max(np.abs(sol.q.values - exact.values)) / scale <= 5e-3


def test_solution_passes_independent_recheck():
    """Module-level evaluators are the oracle for the solver's own reports."""
    p = benchmark_problem(300)
    sol = solve(p)
    assert sol.converged
    rep = euler_lagrange_residual(p, sol.lam, sol.q)
    assert rep.sup_norm == pytest.approx(sol.el_report.sup_norm, rel=1e-12)
    defects = constraint_values(p, sol.q) - p.constraint_levels
    assert np.max(np.abs(defects)) <= 1e-8


def test_multiplier_sign_tracks_constraint_orientation():
    p = benchmark_problem(300)
    g = p.constraints[0]
    neg = PointField(
        lambda t, q, v: -g(t, q, v),
        grad_x=lambda t, q, v: -g.d_x(t, q, v),
        grad_y=lambda t, q, v: -g.d_y(t, q, v),
    )
    p_neg = VariationalProblem(
        p.order, p.lagrangian, p.grid, p.boundary_a, p.boundary_b,
        constraints=[neg], constraint_levels=[-0.2],
    )
    sol = solve(p)
    sol_neg = solve(p_neg)
    assert sol_neg.lam[0] == pytest.approx(-sol.lam[0], rel=1e-9)
    assert np.allclose(sol_neg.q.values, sol.q.values, atol=1e-10)


def test_classical_benchmark():
    p = classical_problem(500)
    sol = solve(p)
    assert sol.converged
    parabola = 6.0 * p.grid.nodes * (1.0 - p.grid.nodes)
    assert np.max(np.abs(sol.q.scalar - parabola)) <= 1e-5
    assert sol.lam[0] == pytest.approx(24.0, abs=1e-4)


def stalling_problem() -> VariationalProblem:
    """L = v^2 - 50 cos 3q, g = q^2 at level 1/2, q(0) = 0, q(1) = 1, at
    alpha = 0.6 and m = 40."""
    L = PointField(
        lambda t, q, v: float(v[0] ** 2 - 50.0 * np.cos(3.0 * q[0])),
        grad_x=lambda t, q, v: 150.0 * np.sin(3.0 * q),
        grad_y=lambda t, q, v: 2.0 * v,
    )
    g = PointField(
        lambda t, q, v: float(q[0] ** 2),
        grad_x=lambda t, q, v: 2.0 * q,
        grad_y=lambda t, q, v: np.zeros(1),
    )
    return VariationalProblem(
        FracOrder(0.6), L, Grid(0.0, 1.0, 40), [0.0], [1.0],
        constraints=[g], constraint_levels=[0.5],
    )


def test_continuation_rescues_stalled_direct_solve():
    """From the straight-line start Newton stalls on stalling_problem, while
    stepping the order down from the classical solution converges."""
    p = stalling_problem()
    assert not solve(p).converged
    cont = solve(p, continuation_steps=4)
    assert cont.converged
    assert cont.lam[0] == pytest.approx(-7.375, abs=1e-3)
    assert np.max(np.abs(cont.constraint_residual)) <= 1e-8


def test_refine_improves_and_reports_order():
    p = benchmark_problem(250)
    sol = solve(p)
    fine = refine(p, sol, factor=2)
    assert fine.converged
    assert fine.q.grid.m == 500
    assert fine.empirical_order is not None
    exact_c = benchmark_extremal(p.grid)
    exact_f = benchmark_extremal(fine.q.grid)
    dev_c = np.max(np.abs(sol.q.values - exact_c.values))
    dev_f = np.max(np.abs(fine.q.values - exact_f.values))
    assert dev_c / dev_f >= 2.0


def test_refine_requires_convergence_and_sane_factor():
    p = benchmark_problem(200)
    sol = solve(p)
    with pytest.raises(ValueError):
        refine(p, sol, factor=1)
    with pytest.raises(ValueError, match="integer"):
        refine(p, sol, factor=2.5)
    assert refine(p, sol, factor=np.int64(2)).q.grid.m == 400
    with pytest.raises(ValueError, match="refine requires a converged input solution"):
        refine(p, replace(sol, converged=False))


def test_infeasible_level_reports_non_convergence():
    p = benchmark_problem(200)
    bad = VariationalProblem(
        p.order, p.lagrangian, p.grid, p.boundary_a, p.boundary_b,
        constraints=list(p.constraints), constraint_levels=[1e9],
    )
    sol = solve(bad)
    assert not sol.converged


def linear_problem() -> VariationalProblem:
    """L = q: zero Hessian, so the Newton system is singular."""
    L = PointField(
        lambda t, q, v: float(q[0]),
        grad_x=lambda t, q, v: np.ones(1),
        grad_y=lambda t, q, v: np.zeros(1),
    )
    return VariationalProblem(FracOrder(0.5), L, Grid(0.0, 1.0, 50), [0.0], [0.0])


def spy_on_matrix(monkeypatch) -> list[int]:
    """The grid size m of each Newton matrix the dense fallback forms."""
    formed = []
    real = _NewtonOperator.matrix

    def spy(self):
        formed.append(self.disc.grid.m)
        return real(self)

    monkeypatch.setattr(_NewtonOperator, "matrix", spy)
    return formed


def test_singular_jacobian_raises_with_suggestion():
    with pytest.raises(SolverError, match="singular"):
        solve(linear_problem())


def coupled_problem(alpha: float, m: int = 20) -> VariationalProblem:
    """dim=2 with nonzero off-diagonal second partials, Hqv not symmetric:
    L = v.v + q1 v2 + q1^2 q2, g = t^2 (v1 + v2)."""
    L = PointField(
        lambda t, q, v: float(v @ v + q[0] * v[1] + q[0] ** 2 * q[1]),
        grad_x=lambda t, q, v: np.array([v[1] + 2.0 * q[0] * q[1], q[0] ** 2]),
        grad_y=lambda t, q, v: np.array([2.0 * v[0], 2.0 * v[1] + q[0]]),
    )
    g = PointField(
        lambda t, q, v: t * t * float(v[0] + v[1]),
        grad_x=lambda t, q, v: np.zeros(2),
        grad_y=lambda t, q, v: np.full(2, t * t),
    )
    return VariationalProblem(
        FracOrder(alpha), L, Grid(0.0, 1.0, m), [0.0, 0.0], [0.3, -0.2],
        constraints=[g], constraint_levels=[0.1],
    )


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_jacobian_matches_central_differences_of_gradient(alpha):
    p = coupled_problem(alpha)
    disc = _Discretization(p, alpha)
    m, n = p.grid.m, p.dim
    rng = np.random.default_rng(11)
    q = rng.uniform(-1.0, 1.0, (m + 1, n))
    q[0], q[-1] = p.boundary_a, p.boundary_b
    z = np.concatenate([q[1:m].ravel(), [0.7]])

    def gradient(z):
        qz = q.copy()
        qz[1:m] = z[: (m - 1) * n].reshape(m - 1, n)
        return disc.gradient(qz, z[(m - 1) * n :])[0]

    J = newton_partials(disc, q, z[(m - 1) * n :]).matrix()
    step = 1e-5
    fd = np.column_stack(
        [(gradient(z + step * e) - gradient(z - step * e)) / (2.0 * step) for e in np.eye(z.size)]
    )
    assert np.max(np.abs(J - fd)) <= 1e-7 * np.max(np.abs(J))


def test_two_state_solve_matches_closed_form():
    """Two decoupled copies of the benchmark: L = t^4 + v.v,
    g = t^2 (v1 + v2); lambda = 5 * level, q_i = lambda t^(5/2) / Gamma(7/2)."""
    m, level = 200, 0.4
    lam = 5.0 * level
    L = PointField(
        lambda t, q, v: t**4 + float(v @ v),
        grad_x=lambda t, q, v: np.zeros(2),
        grad_y=lambda t, q, v: 2.0 * v,
    )
    g = PointField(
        lambda t, q, v: t * t * float(v[0] + v[1]),
        grad_x=lambda t, q, v: np.zeros(2),
        grad_y=lambda t, q, v: np.full(2, t * t),
    )
    p = VariationalProblem(
        FracOrder(0.5), L, Grid(0.0, 1.0, m), [0.0, 0.0], [lam / gamma(3.5)] * 2,
        constraints=[g], constraint_levels=[level],
    )
    sol = solve(p)
    assert sol.converged
    # relative error at the L1 scheme's order 2 - alpha
    tol = 10.0 * p.grid.h ** (2.0 - p.order.alpha)
    exact = lam * p.grid.nodes**2.5 / gamma(3.5)
    assert abs(sol.lam[0] - lam) / lam <= tol
    for i in range(2):
        assert np.max(np.abs(sol.q.component(i) - exact)) / np.max(exact) <= tol
    assert np.max(np.abs(sol.q.component(0) - sol.q.component(1))) <= 1e-12


def newton_partials(disc, q, lam):
    """The Newton operator at (q, lam), from the gradient's samples there."""
    return _NewtonOperator(disc, lam, disc.gradient(q, lam)[1])


def filled_derivative_matrix(disc):
    """The dense L1 matrix of ``disc``'s order with its first row filled like
    the velocity: the matrix that ``disc`` applies by convolution."""
    D = left_derivative_matrix(disc.grid, disc.problem.order)
    D[:3] = fill_endpoints(D[:3])
    return D


def dense_reference(disc, q, lam):
    """The Newton matrix J and the gradient from dense products, with P and D
    as full matrices: P = I and D = the filled L1 matrix at alpha < 1, the
    two-point endpoint average and slope at alpha = 1.  Partials are taken at the
    points of ``disc``'s gradient, as the solver takes them, so that the
    comparison isolates the assembly."""
    p, w, h = disc.problem, disc.w, disc.grid.h
    m, n, k = disc.grid.m, disc.n, disc.k
    if disc.midpoint:
        P, D, idx = np.zeros((m, m + 1)), np.zeros((m, m + 1)), np.arange(m)
        P[idx, idx] = P[idx, idx + 1] = 0.5
        D[idx, idx] = -1.0 / h
        D[idx, idx + 1] = 1.0 / h
    else:
        P, D = np.eye(m + 1), filled_derivative_matrix(disc)
    s = disc.gradient(q, lam)[1]
    t, x, v = s.t, s.x, s.v
    F = augmented_lagrangian(p, lam)

    def pullback(a, b):
        return P.T @ (w[:, None] * a) + D.T @ (w[:, None] * b)

    gel = pullback(F.d_x(t, x, v), F.d_y(t, x, v))
    defects = [np.dot(w, g(t, x, v)) for g in p.constraints] - p.constraint_levels
    G = np.concatenate([gel[1:m].ravel() / h, defects])
    Hqq, Hqv, Hvv = F.hessian(t, x, v)
    N = (m + 1) * n
    K = np.empty((N, N))
    for i in range(n):
        for j in range(n):
            Kij = K[i::n, j::n]
            Kij[...] = P.T @ ((w * Hqq[:, i, j])[:, None] * P)
            Kij += P.T @ ((w * Hqv[:, i, j])[:, None] * D)
            Kij += D.T @ ((w * Hqv[:, j, i])[:, None] * P)
            Kij += D.T @ ((w * Hvv[:, i, j])[:, None] * D)
    ni = N - 2 * n
    J = np.zeros((ni + k, ni + k))
    J[:ni, :ni] = K[n:-n, n:-n] / h
    for r, g in enumerate(p.constraints):
        col = pullback(g.d_x(t, x, v), g.d_y(t, x, v)).ravel()[n:-n]
        J[:ni, ni + r] = -col / h
        J[ni + r, :ni] = col
    return (P @ q, D @ q), J, G


@pytest.mark.parametrize(
    "make, bound",
    [(lambda: benchmark_problem(500), 1.8e-12), (lambda: coupled_problem(0.5), 3.6e-8)],
    ids=["benchmark", "coupled"],
)
def test_multiplier_is_the_sensitivity_of_the_optimum(make, bound):
    """For F = L - lambda g the multiplier is dJ*/dl, the derivative of the
    optimal objective in the constraint level, so solve and objective_value
    alone check it, with no closed form.  Central differences, delta = 1e-4;
    each bound is 10 times the relative agreement measured (1.8e-13 and
    3.6e-9).  alpha = 1 is left out: there the solver integrates g by the
    midpoint rule and the constraint check by the trapezoid rule, and that
    mismatch alone makes them differ by 1.2e-5 on classical_problem(500)."""
    p, delta = make(), 1e-4
    optima = []
    for level in (p.constraint_levels + delta, p.constraint_levels - delta):
        shifted = replace(p, constraint_levels=level)
        sol = solve(shifted)
        assert sol.converged
        optima.append(objective_value(shifted, sol.q))
    sol = solve(p)
    assert sol.converged
    sensitivity = (optima[0] - optima[1]) / (2.0 * delta)
    assert abs(sensitivity - sol.lam[0]) <= bound * abs(sol.lam[0])


def benchmark_at_order(alpha: float) -> VariationalProblem:
    return replace(benchmark_problem(500), order=FracOrder(alpha))


def self_coupled_problem(alpha: float) -> VariationalProblem:
    """dim=1 with all four second partials nonzero, so every diagonal entry
    of the Newton matrix sums four terms: L = v^2 + q^2 v + q^3."""
    L = PointField(
        lambda t, q, v: float(v[0] ** 2 + q[0] ** 2 * v[0] + q[0] ** 3),
        grad_x=lambda t, q, v: np.array([2.0 * q[0] * v[0] + 3.0 * q[0] ** 2]),
        grad_y=lambda t, q, v: np.array([2.0 * v[0] + q[0] ** 2]),
    )
    _, g = benchmark_fields()
    return VariationalProblem(
        FracOrder(alpha), L, Grid(0.0, 1.0, 40), [0.0], [0.5],
        constraints=[g], constraint_levels=[0.2],
    )


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("make", [coupled_problem, benchmark_at_order, self_coupled_problem])
def test_structured_assembly_matches_dense_reference(make, alpha):
    p = make(alpha)
    disc = _Discretization(p, alpha)
    m, n = p.grid.m, p.dim
    q = np.random.default_rng(3).uniform(-1.0, 1.0, (m + 1, n))
    q[0], q[-1] = p.boundary_a, p.boundary_b
    lam = np.array([0.7])
    (x_ref, v_ref), J_ref, G_ref = dense_reference(disc, q, lam)
    x, v = disc._points(q)
    J = newton_partials(disc, q, lam).matrix()
    G, samples = disc.gradient(q, lam)
    if alpha < 1.0:
        # the Newton operator's D q is the gradient's v, the L1 kernel's,
        # which the dense product equals up to rounding
        assert np.array_equal(x, x_ref) and np.array_equal(v, samples.v)
    else:
        assert np.max(np.abs(x - x_ref)) <= 1e-15 * np.max(np.abs(x_ref))
    assert np.max(np.abs(v - v_ref)) <= 1e-15 * np.max(np.abs(v_ref))
    assert np.max(np.abs(G - G_ref)) <= 1e-15 * np.max(np.abs(G_ref))
    # J is formed from the matrix-free product, which sums in another order
    assert np.max(np.abs(J - J_ref)) <= 1e-15 * np.max(np.abs(J_ref))


def forward_substitution(T: np.ndarray, y: np.ndarray) -> np.ndarray:
    """T^-1 y for a dense lower-triangular T, row by row."""
    x = np.zeros(y.shape)
    for i in range(len(y)):
        x[i] = (y[i] - T[i, :i] @ x[:i]) / T[i, i]
    return x


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("m", [50, _FFT_MIN_SIZE - 1, _FFT_MIN_SIZE, 3000])
def test_convolved_products_match_the_filled_matrix(m, alpha):
    """``_points`` and ``_pullback`` apply D and D^T W by convolution, direct
    below _FFT_MIN_SIZE and by rfft from it on (m = 511 convolves 511 terms,
    m = 512 convolves 512), for n = 1, 2 with and without a trailing column
    axis.  Against the filled dense matrix each output is off by at most a
    few ulps of its terms' scale, sum_j |D_ij| |q_j|, and the two products
    are adjoint up to ulps of the scale of <|q|, |D|^T |W b|>.  Measured on
    5 seeds per case: at most 7.6 ulps for D q, 14.9 for D^T W b (at m =
    3000) and 1.1 for the adjoint identity.

    The operator's Toeplitz solves T^-1 y and T^-T y, and the four products
    of the alpha = 1 slope operator against its dense m x (m+1) matrix, are
    held to the same 32 ulps.  T^-1 is nonnegative for both, so T^-1 |y| is
    the scale of T^-1 y's terms.  Measured on 5 seeds per case against
    forward substitution: at most 12.0 ulps for the L1 solves (at m = 3000),
    1.3 for the slope solves and 1.6 for the slope products."""
    disc = _Discretization(benchmark_problem(m), alpha)
    D = filled_derivative_matrix(disc)
    A, eps = np.abs(D), np.finfo(float).eps
    for shape in [(m + 1, 1), (m + 1, 2), (m + 1, 1, 3), (m + 1, 2, 3)]:
        q, b = np.random.default_rng([m, len(shape), shape[1]]).standard_normal((2,) + shape)
        x, v = disc._points(q)
        pulled = disc._pullback(np.zeros(shape), b)
        assert x is q and v.shape == pulled.shape == shape
        q, v, pulled = (y.reshape(m + 1, -1) for y in (q, v, pulled))
        wb = disc.w[:, None] * b.reshape(m + 1, -1)
        assert np.all(np.abs(v - D @ q) <= 32.0 * eps * np.max(A @ np.abs(q), axis=0))
        assert np.all(np.abs(pulled - D.T @ wb) <= 32.0 * eps * np.max(A.T @ np.abs(wb), axis=0))
        adjoint = np.sum(v * wb, axis=0) - np.sum(q * pulled, axis=0)
        assert np.all(np.abs(adjoint) <= 4.0 * eps * np.sum(np.abs(q) * (A.T @ np.abs(wb)), axis=0))
    slope = fk._SlopeOperator(disc.grid)
    S = (np.eye(m, m + 1, 1) - np.eye(m, m + 1)) / disc.grid.h
    for op, dense in [(disc.D, D), (slope, S)]:
        T = dense[op.t_rows, 1:m]
        for shape in [(m - 1,), (m - 1, 3)]:
            y = np.random.default_rng([m, len(shape)]).standard_normal(shape)
            got, ref = op.t_solve(y), forward_substitution(T, y)
            scale = np.max(forward_substitution(T, np.abs(y)), axis=0)
            assert got.shape == shape and np.all(np.abs(got - ref) <= 32.0 * eps * scale)
            got, ref = op.t_solve_transposed(y), forward_substitution(T.T[::-1, ::-1], y[::-1])[::-1]
            scale = np.max(forward_substitution(T.T[::-1, ::-1], np.abs(y)), axis=0)
            assert got.shape == shape and np.all(np.abs(got - ref) <= 32.0 * eps * scale)
    del D, A
    A = np.abs(S)
    for shape in [(m + 1, 1), (m + 1, 2, 3)]:
        q, b = np.random.default_rng([m, len(shape)]).standard_normal((2,) + shape)
        v, pulled = slope.apply(q), slope.transpose(b[:m])
        assert v.shape == (m,) + shape[1:] and pulled.shape == shape
        q, v, pulled, b = (y.reshape(len(y), -1) for y in (q, v, pulled, b[:m]))
        assert np.all(np.abs(v - S @ q) <= 32.0 * eps * np.max(A @ np.abs(q), axis=0))
        assert np.all(np.abs(pulled - S.T @ b) <= 32.0 * eps * np.max(A.T @ np.abs(b), axis=0))


@pytest.mark.parametrize("make, alpha", [(benchmark_problem, 0.5), (classical_problem, 1.0)])
def test_jacobian_peak_memory(make, alpha):
    """One call holds at most the Newton matrix and one block of its size
    (plus O(m) work arrays); no full node-space K or dense P."""
    p = make(1000)
    disc = _Discretization(p, alpha)
    q = np.linspace(0.0, 0.3, p.grid.m + 1)[:, None]
    tracemalloc.start()
    try:
        J = newton_partials(disc, q, np.array([0.7])).matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8.0 * J.shape[0] ** 2) <= 2.5


def test_discretization_keeps_no_dense_matrix():
    """At alpha < 1 the discretization keeps O(m) arrays: D is read for its
    Toeplitz column, boundary column and row 0, then dropped (72 MB at m =
    3000)."""
    p = benchmark_problem(3000)
    tracemalloc.start()
    try:
        disc = _Discretization(p, 0.5)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert disc.D.t_inv.weights.size == 2999
    assert kept < 1e6


# -- matrix-free Newton --------------------------------------------------------


def krylov_case(make, alpha):
    """A problem's discretization at a random state, its Newton operator,
    and ``dense_reference``'s Newton matrix and gradient as the oracle."""
    p = make(alpha)
    disc = _Discretization(p, alpha)
    m, n = p.grid.m, p.dim
    q = np.random.default_rng(3).uniform(-1.0, 1.0, (m + 1, n))
    q[0], q[-1] = p.boundary_a, p.boundary_b
    lam = np.array([0.7])
    _, J, G = dense_reference(disc, q, lam)
    return disc, newton_partials(disc, q, lam), J, G


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("make", [coupled_problem, benchmark_at_order, self_coupled_problem])
def test_krylov_product_matches_assembled_jacobian(make, alpha):
    disc, op, J, _ = krylov_case(make, alpha)
    ni = J.shape[0] - disc.k
    z = np.random.default_rng(5).standard_normal(ni)
    ref = J[:ni, :ni] @ z
    assert np.max(np.abs(op.interior(z) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("make", [coupled_problem, benchmark_at_order, self_coupled_problem])
def test_krylov_step_matches_dense_solve(make, alpha, monkeypatch):
    _, op, _, G = krylov_case(make, alpha)
    formed = spy_on_matrix(monkeypatch)
    step = op.step(G)
    assert formed == []  # the step took the Krylov path, not the fallback
    dense = np.linalg.solve(op.matrix(), -G)
    # at alpha = 1 these J are 7-260 times worse conditioned than at alpha =
    # 0.5 (6.5e7 on the benchmark, where the dense solve itself is off by
    # 1e-12 relative)
    tol = 1e-12 if alpha < 1.0 else 2e-11
    assert np.max(np.abs(step - dense)) <= tol * np.max(np.abs(dense))


def direct_toeplitz_inverse(col: np.ndarray) -> np.ndarray:
    """_toeplitz_inverse's doubling with np.convolve products at every size."""
    inv = np.array([1.0 / col[0]])
    while inv.size < col.size:
        size = min(2 * inv.size, col.size)
        defect = np.convolve(col[:size], inv)[:size]
        defect[0] -= 1.0
        inv = np.pad(inv, (0, size - inv.size)) - np.convolve(inv, defect)[:size]
    return inv


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 0.999, 1.0])
def test_toeplitz_inverse_and_preconditioner(alpha, monkeypatch):
    m = 2000
    convolved = []
    monkeypatch.setattr(fk, "_causal_convolve", lambda *args: convolved.append(1) or _causal_convolve(*args))
    disc = _Discretization(benchmark_problem(m), alpha)
    h, eps, D = disc.grid.h, np.finfo(float).eps, disc.D
    t_inv = D.t_inv.weights
    if alpha < 1.0:
        T = filled_derivative_matrix(disc)[1:m, 1:m]
        # T^-1 doubles by rfft products; the direct doubling's column is
        # within 6.4e-14 of it, relative to its largest entry (measured worst,
        # at alpha = 0.999)
        direct = direct_toeplitz_inverse(T[:, 0])
        assert convolved
        assert np.max(np.abs(t_inv - direct)) <= 1e-13 * np.max(np.abs(direct))
        assert np.array_equal(fk._toeplitz_inverse(T[:, 0]), t_inv)
    else:  # the slopes of intervals 0..m-2, so T^-1 = h * lower ones
        T = (np.eye(m - 1) - np.eye(m - 1, k=-1)) / h
        assert not convolved
        assert np.all(t_inv == h) and t_inv.shape == (m - 1,)
    identity = T @ t_inv  # T T^-1 is Toeplitz: its first column decides
    identity[0] -= 1.0
    assert np.max(np.abs(identity)) <= 4.0 * eps * m
    # on the benchmark the preconditioner inverts T^T C_vv T / h exactly
    x = np.random.default_rng(7).standard_normal((m - 1, 1))
    q = np.zeros((m + 1, 1))
    op = newton_partials(disc, q, np.array([0.7]))
    cvv = disc.w[D.t_rows] * op.Hvv[D.t_rows, 0, 0]
    leading = T.T @ (cvv[:, None] * (T @ x)) / disc.grid.h
    assert np.max(np.abs(op.precondition(leading) - x.ravel())) <= 1e-10 * np.max(np.abs(x))
    product = T @ x
    assert np.max(np.abs(_causal_convolve(T[:, 0], x, m - 1) - product)) <= 1e-12 * np.max(np.abs(product))


def test_classical_setup_makes_no_convolution(monkeypatch):
    """At alpha = 1, T^-1 is known in closed form: building the
    discretization convolves nothing, directly or by rfft."""
    calls = []
    for name in ("_direct_convolve", "_causal_convolve"):
        original = getattr(fk, name)
        monkeypatch.setattr(fk, name, lambda *args, f=original: calls.append(1) or f(*args))
    _Discretization(classical_problem(2000), 1.0)
    assert calls == []


def test_dense_fallback_only_where_krylov_cannot_solve(monkeypatch):
    """At every order the Newton matrix is formed only when C_vv is
    singular (a linear Lagrangian) or GMRES misses its tolerance within the
    iteration cap (lowered here below what the coupled problem needs), never
    on the benchmark or the classical problem; the fallback reaches the
    Krylov solve's solution."""
    formed = spy_on_matrix(monkeypatch)
    assert solve(benchmark_problem(500)).converged
    assert solve(classical_problem(500)).converged
    assert formed == []
    with pytest.raises(SolverError, match="singular"):
        solve(linear_problem())
    assert formed == [50]
    krylov = solve(coupled_problem(0.5))
    assert krylov.converged and formed == [50]
    monkeypatch.setattr(solver, "_KRYLOV_MAX_ITERATIONS", 2)
    dense = solve(coupled_problem(0.5))
    assert dense.converged and len(formed) == 1 + dense.iterations
    assert dense.lam[0] == pytest.approx(krylov.lam[0], rel=1e-10)
    assert np.max(np.abs(dense.q.values - krylov.q.values)) <= 1e-10


def test_gmres_returns_none_where_the_operator_is_singular_on_its_krylov_space():
    """A zero operator maps the first basis vector to 0, so the Arnoldi
    process breaks down before any solution is formed; the caller then
    takes the dense fallback."""
    b = np.array([1.0, -2.0, 0.5])
    assert solver._gmres(lambda x: np.zeros_like(x), lambda x: x, b) is None


def test_dense_fallback_solves_singular_cvv(monkeypatch):
    """L = (q - t)^2 has no v-dependence, so C_vv = 0 and the Krylov
    preconditioner does not exist, while J is nonsingular.  With g = q at
    level l and q = t at both ends, the discrete extremal is q = t + lambda/2
    at the interior nodes, lambda = 2 (l - 1/2) / (1 - h)."""
    L = PointField(lambda t, q, v: float((q[0] - t) ** 2))
    g = PointField(lambda t, q, v: float(q[0]))
    level, grid = 0.7, Grid(0.0, 1.0, 50)
    p = VariationalProblem(
        FracOrder(0.5), L, grid, [0.0], [1.0], constraints=[g], constraint_levels=[level]
    )
    formed = spy_on_matrix(monkeypatch)
    sol = solve(p)
    assert sol.converged and sol.iterations == 1 and formed == [50]
    lam = 2.0 * (level - 0.5) / (1.0 - grid.h)
    assert sol.lam[0] == pytest.approx(lam, rel=1e-12, abs=0.0)
    # the one Newton step carries the finite-difference Hessian's relative
    # error, about eps / 1e-6, into q - t = lambda / H_qq
    deviation = sol.q.scalar[1:-1] - (grid.nodes[1:-1] + lam / 2.0)
    assert np.max(np.abs(deviation)) <= 1e-10


@pytest.mark.parametrize("make", [benchmark_problem, classical_problem])
def test_krylov_newton_peak_memory(make):
    """A Krylov Newton solve holds nothing of the Newton matrix's size at
    either order: at m = 2000 its peak stays under a tenth of one (m - 1)^2
    matrix."""
    p = make(2000)
    disc = _Discretization(p, p.order.alpha)
    q, lam = _initial_state(p, None)
    tracemalloc.start()
    try:
        result = _newton(disc, q, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.stop_reason == "tolerance" and result.iterations == 1
    assert peak <= 0.1 * 8.0 * (p.grid.m - 1) ** 2


def test_discretization_holds_one_dense_derivative_matrix():
    """Filling the singular first row of D does not copy the (m+1)^2 matrix."""
    m = 2000
    tracemalloc.start()
    try:
        _Discretization(benchmark_problem(m), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 8.0 * (m + 1) ** 2


# -- one field sweep per Newton iterate ----------------------------------------


def counted_problem(
    alpha: float, dim: int, counter: SweepCounter, g_counter: SweepCounter | None = None
) -> VariationalProblem:
    """At alpha < 1 the benchmark in ``dim`` decoupled copies, L = t^4 + v.v and
    g = t^2 sum v; at alpha = 1 the classical problem, L = v^2 and g = q.  Every
    callable is per point and counted, g's by ``g_counter`` if given."""
    c, zeros = counter.wrap, np.zeros(dim)
    cg = (g_counter or counter).wrap
    if alpha < 1.0:
        L = PointField(
            c(lambda t, q, v: t**4 + float(v @ v)),
            grad_x=c(lambda t, q, v: zeros),
            grad_y=c(lambda t, q, v: 2.0 * v),
        )
        g = PointField(
            cg(lambda t, q, v: t * t * float(np.sum(v))),
            grad_x=cg(lambda t, q, v: zeros),
            grad_y=cg(lambda t, q, v: np.full(dim, t * t)),
        )
        return VariationalProblem(
            FracOrder(alpha), L, Grid(0.0, 1.0, 100), zeros, np.full(dim, 0.3),
            constraints=[g], constraint_levels=[0.2],
        )
    L = PointField(
        c(lambda t, q, v: float(v[0] ** 2)),
        grad_x=c(lambda t, q, v: np.zeros(1)),
        grad_y=c(lambda t, q, v: 2.0 * v),
    )
    g = PointField(
        cg(lambda t, q, v: float(q[0])),
        grad_x=cg(lambda t, q, v: np.ones(1)),
        grad_y=cg(lambda t, q, v: np.zeros(1)),
    )
    return VariationalProblem(
        FracOrder(1.0), L, Grid(0.0, 1.0, 100), [0.0], [0.0],
        constraints=[g], constraint_levels=[0.3],
    )


@pytest.mark.parametrize("alpha, dim, budget", [(0.5, 1, 13), (0.5, 2, 16), (1.0, 1, 18)])
def test_field_sweeps_per_solve(alpha, dim, budget):
    """A one-iteration solve sweeps L and g once per gradient, plus the 3n
    perturbed sweeps of L's partials for F's forward-difference Hessian at
    the cold start's lambda = 0, where F = L; its certificate folds the last
    gradient's samples at alpha < 1 and samples once at the nodes at
    alpha = 1."""
    counter = SweepCounter()
    sol = solve(counted_problem(alpha, dim, counter))
    assert sol.converged and sol.iterations == 1
    assert counter.sweeps == budget


class PointRecorder(SweepCounter):
    """A SweepCounter that also records each call's point (t, q, v)."""

    def __init__(self):
        super().__init__()
        self.points = []

    def wrap(self, fn):
        counted = super().wrap(fn)

        def recorded(t, *args):
            self.points.append(np.concatenate([[t], *args]))
            return counted(t, *args)

        return recorded


def newton_partials_calls(dim: int, lam: np.ndarray) -> tuple[PointRecorder, PointRecorder]:
    """Recorders of the calls that building the Newton operator makes to L's
    and to g's callables at the initial q and multiplier ``lam`` (101
    nodes), after asserting that none is at one of the gradient's points."""
    L_calls, g_calls = PointRecorder(), PointRecorder()
    p = counted_problem(0.5, dim, L_calls, g_calls)
    disc = _Discretization(p, 0.5)
    samples = disc.gradient(_initial_state(p, None)[0], lam)[1]
    for recorder in (L_calls, g_calls):
        recorder.sweeps, recorder.points = 0, []
    _NewtonOperator(disc, lam, samples)
    base = {tuple(point) for point in np.column_stack([samples.t, samples.x, samples.v])}
    for recorder in (L_calls, g_calls):
        assert not any(tuple(point) in base for point in recorder.points)
    return L_calls, g_calls


@pytest.mark.parametrize("dim", [1, 2])
def test_newton_partials_call_user_code_only_at_perturbed_points(dim):
    """F's forward-difference Hessian takes its base partials from the
    gradient's samples: at lambda = 0.7 the Newton operator makes 3n sweeps of
    L's partials and 3n of g's, all at perturbed points."""
    L_calls, g_calls = newton_partials_calls(dim, np.array([0.7]))
    assert L_calls.sweeps == g_calls.sweeps == 3 * dim
    assert len(L_calls.points) == len(g_calls.points) == 3 * dim * 101


@pytest.mark.parametrize("dim", [1, 2])
def test_cold_newton_partials_sweep_only_the_lagrangian(dim):
    """At a cold start's lambda = 0, F = L: the Hessian makes L's 3n
    perturbed sweeps and calls no callable of g."""
    L_calls, g_calls = newton_partials_calls(dim, np.zeros(1))
    assert L_calls.sweeps == 3 * dim and len(L_calls.points) == 3 * dim * 101
    assert g_calls.sweeps == 0 and g_calls.points == []


def test_newton_partials_take_the_base_partials_from_the_samples(monkeypatch):
    """F's Hessian is given F's partials at the samples' points, composed
    from the samples, so no field evaluates its partials there again."""
    given = []
    real = PointField.hessian
    monkeypatch.setattr(
        PointField, "hessian", lambda self, *args, base=None: given.append(base) or real(self, *args, base=base)
    )
    p, lam = benchmark_problem(200), np.array([0.7])
    disc = _Discretization(p, 0.5)
    samples = disc.gradient(_initial_state(p, None)[0], lam)[1]
    _NewtonOperator(disc, lam, samples)
    [(dx, dy)] = given
    assert np.array_equal(dx, samples.F_dx(lam)) and np.array_equal(dy, samples.F_dy(lam))


def certificate_problem(alpha: float, dim: int) -> VariationalProblem:
    """L = t^4 + v.v + q1^2 v1 and g = sum q, in ``dim`` states: a nonlinear
    L, so that a solve takes more than one Newton step, and a g linear in q,
    whose midpoint and trapezoid integrals agree at alpha = 1."""
    L = PointField(
        lambda t, q, v: t**4 + float(v @ v) + q[0] ** 2 * v[0],
        grad_x=lambda t, q, v: np.concatenate([[2.0 * q[0] * v[0]], np.zeros(dim - 1)]),
        grad_y=lambda t, q, v: 2.0 * v + np.concatenate([[q[0] ** 2], np.zeros(dim - 1)]),
    )
    g = PointField(
        lambda t, q, v: float(np.sum(q)),
        grad_x=lambda t, q, v: np.ones(dim),
        grad_y=lambda t, q, v: np.zeros(dim),
    )
    return VariationalProblem(
        FracOrder(alpha), L, Grid(0.0, 1.0, 60), np.zeros(dim), np.linspace(0.3, 0.1, dim),
        constraints=[g], constraint_levels=[0.4],
    )


def assert_certificate_is_public_checks(p: VariationalProblem, sol) -> None:
    el = euler_lagrange_residual(p, sol.lam, sol.q)
    assert np.array_equal(el.pointwise.values, sol.el_report.pointwise.values, equal_nan=True)
    assert el.sup_norm == sol.el_report.sup_norm and el.l2_norm == sol.el_report.l2_norm
    defects = constraint_values(p, sol.q) - p.constraint_levels
    assert np.array_equal(sol.constraint_residual, defects)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
def test_certificate_equals_public_checks_bitwise(alpha, dim):
    """The solution's EL report and constraint residual are bitwise the public
    checks' along it, after a direct solve, after continuation in the order,
    and from a converged initial guess (no Newton step)."""
    p = certificate_problem(alpha, dim)
    direct = solve(p)
    assert direct.converged and direct.iterations >= 2
    assert_certificate_is_public_checks(p, direct)
    continued = solve(p, continuation_steps=2)
    assert continued.converged
    assert_certificate_is_public_checks(p, continued)
    warm = solve(p, initial_guess=direct)
    assert warm.converged and warm.iterations == 0
    assert_certificate_is_public_checks(p, warm)


@pytest.mark.parametrize(
    "make, alpha, iterations, stop_reason",
    [
        pytest.param(lambda a: certificate_problem(a, 1), 0.3, 3, "tolerance", id="certificate-1-0.3"),
        pytest.param(lambda a: certificate_problem(a, 2), 0.3, 3, "tolerance", id="certificate-2-0.3"),
        pytest.param(lambda a: certificate_problem(a, 1), 0.5, 3, "tolerance", id="certificate-1-0.5"),
        pytest.param(lambda a: certificate_problem(a, 2), 0.5, 3, "tolerance", id="certificate-2-0.5"),
        pytest.param(lambda a: certificate_problem(a, 1), 1.0, 2, "tolerance", id="certificate-1-1.0"),
        pytest.param(lambda a: certificate_problem(a, 2), 1.0, 2, "tolerance", id="certificate-2-1.0"),
        pytest.param(self_coupled_problem, 0.3, 4, "tolerance", id="self_coupled-0.3"),
        pytest.param(self_coupled_problem, 0.5, 4, "tolerance", id="self_coupled-0.5"),
        pytest.param(self_coupled_problem, 1.0, 2, "constraint defect", id="self_coupled-1.0"),
        pytest.param(coupled_problem, 0.3, 3, "tolerance", id="coupled-0.3"),
        pytest.param(coupled_problem, 0.5, 3, "tolerance", id="coupled-0.5"),
        pytest.param(coupled_problem, 1.0, 2, "constraint defect", id="coupled-1.0"),
    ],
)
def test_newton_iterations_are_pinned(make, alpha, iterations, stop_reason):
    """Newton iterations and stop reasons of nonlinear and coupled solves: a
    less accurate Newton matrix must not cost steps unnoticed.  At alpha = 1
    the self-coupled and coupled problems stop with "constraint defect",
    the midpoint/trapezoid quadrature gap of g."""
    sol = solve(make(alpha))
    assert (sol.iterations, sol.stop_reason) == (iterations, stop_reason)


# -- why a solve stops ---------------------------------------------------------


def test_stop_reason_names_why_newton_stopped(monkeypatch):
    sol = solve(benchmark_problem(200))
    assert sol.converged and sol.stop_reason == "tolerance"
    sol = solve(stalling_problem())
    assert not sol.converged and sol.stop_reason == "line search stalled"
    # at alpha = 1 the gradient integrates g = q^2 by the midpoint rule, the
    # certificate by the trapezoid rule: they differ by O(h^2), above the
    # defect tolerance
    L = PointField(
        lambda t, q, v: float(v[0] ** 2),
        grad_x=lambda t, q, v: np.zeros(1),
        grad_y=lambda t, q, v: 2.0 * v,
    )
    g = PointField(
        lambda t, q, v: float(q[0] ** 2),
        grad_x=lambda t, q, v: 2.0 * q,
        grad_y=lambda t, q, v: np.zeros(1),
    )
    p = VariationalProblem(
        FracOrder(1.0), L, Grid(0.0, 1.0, 50), [0.0], [1.0],
        constraints=[g], constraint_levels=[0.5],
    )
    sol = solve(p)
    assert sol.stationarity_norm <= solver._NEWTON_TOL
    assert not sol.converged and sol.stop_reason == "constraint defect"
    monkeypatch.setattr(solver, "_MAX_ITERATIONS", 2)
    sol = solve(coupled_problem(0.5))
    assert not sol.converged and sol.iterations == 2 and sol.stop_reason == "iteration cap"


@pytest.mark.parametrize("alpha, level", [(0.5, 1.0), (0.5, 0.3), (1.0, 2.0)])
def test_singular_schur_complement_raises_solver_error(alpha, level):
    """A constant constraint has zero partials, so the multiplier rows of the
    Newton matrix vanish: the k x k Schur solve and the dense fallback are
    both singular."""
    L = PointField(
        lambda t, q, v: float(v[0] ** 2),
        grad_x=lambda t, q, v: np.zeros(1),
        grad_y=lambda t, q, v: 2.0 * v,
    )
    g = PointField(
        lambda t, q, v: 1.0,
        grad_x=lambda t, q, v: np.zeros(1),
        grad_y=lambda t, q, v: np.zeros(1),
    )
    p = VariationalProblem(
        FracOrder(alpha), L, Grid(0.0, 1.0, 50), [0.0], [1.0],
        constraints=[g], constraint_levels=[level],
    )
    with pytest.raises(SolverError, match="singular Jacobian"):
        solve(p)


def test_abnormal_problem_warns():
    """g = v integrates to q(1) - q(0) = 1 whatever q is: the constraint holds
    at the straight-line start, which is L = v^2's extremal, and g satisfies
    the Euler-Lagrange-type equation (d_v g = 1, so D_b^1 d_v g = 0)."""
    L = PointField(
        lambda t, q, v: float(v[0] ** 2),
        grad_x=lambda t, q, v: np.zeros(1),
        grad_y=lambda t, q, v: 2.0 * v,
    )
    g = PointField(
        lambda t, q, v: float(v[0]),
        grad_x=lambda t, q, v: np.zeros(1),
        grad_y=lambda t, q, v: np.ones(1),
    )
    p = VariationalProblem(
        FracOrder(1.0), L, Grid(0.0, 1.0, 50), [0.0], [1.0],
        constraints=[g], constraint_levels=[1.0],
    )
    with pytest.warns(UserWarning, match="abnormal problem"):
        sol = solve(p)
    assert sol.converged and sol.iterations == 0 and sol.lam[0] == 0.0
    assert normality_check(p, sol.q, 0).sup_norm < 1e-8
    assert_certificate_is_public_checks(p, sol)
