"""Direct transcription of the fractional isoperimetric problem.

The discrete unknowns are the interior node values of q (boundaries pinned)
plus the multiplier vector lambda.  The stationarity system is the exact
gradient of the discretized augmented objective: the right RL derivative in
the Euler-Lagrange residual is realized by the transpose of the left
derivative matrix, so damped Newton converges on a true stationary point of
the discrete problem.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import frac_kernels as fk
from .grids import FracOrder, Grid, SampledFunction, fill_endpoints
from .problems import (
    ResidualReport,
    VariationalProblem,
    augmented_lagrangian,
    constraint_values,
    euler_lagrange_residual,
    normality_check,
)

__all__ = ["Solution", "SolverError", "solve", "refine"]

#: Largest isoperimetric defect a converged solution may leave.
_CONSTRAINT_TOL = 1e-8
_MAX_ITERATIONS = 50
# scaled-gradient stopping test; the floor for fields with finite-difference
# gradients is about 1e-7, so do not tighten much
_NEWTON_TOL = 1e-6


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class Solution:
    q: SampledFunction
    lam: np.ndarray
    el_report: ResidualReport
    constraint_residual: np.ndarray
    converged: bool
    iterations: int
    stationarity_norm: float
    empirical_order: float | None = None


def _trapezoid_weights(grid: Grid) -> np.ndarray:
    w = np.full(grid.m + 1, grid.h)
    w[0] = w[-1] = grid.h / 2.0
    return w


class _Discretization:
    """Discrete augmented objective, its gradient, and a structured Jacobian.

    The objective is a quadrature sum over M points,

        Jd(q, lambda) = sum_s w_s F(theta_s, (P q)_s, (D q)_s),

    with P an evaluation operator and D the discrete fractional derivative.
    For alpha < 1, theta = grid nodes, P = identity, D = the dense L1
    matrix (singular first row extrapolated), w = trapezoid weights.  For
    alpha = 1 the quadrature is per-interval midpoint with P the endpoint
    average and D the interval slope; on piecewise-linear data this is the
    exact classical functional, which makes the classical benchmark
    solutions nodally exact.

    P is never formed: at alpha < 1 it is implicit, and at alpha = 1 both P
    and D are two-point stencils.  The Newton matrix is built per component
    pair from its structure; at alpha < 1 its one dense product is D^T W D.
    """

    def __init__(self, problem: VariationalProblem, alpha: float):
        self.problem = problem
        self.grid = problem.grid
        self.n = problem.dim
        self.k = problem.k
        self.midpoint = alpha == 1.0
        nodes = self.grid.nodes
        if self.midpoint:
            self.theta = 0.5 * (nodes[:-1] + nodes[1:])
            self.w = np.full(self.grid.m, self.grid.h)
        else:
            self.theta = nodes
            self.w = _trapezoid_weights(self.grid)
            self.D = fill_endpoints(fk.left_derivative_matrix(self.grid, FracOrder(alpha)))

    def _points(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.midpoint:
            return 0.5 * (q[:-1] + q[1:]), np.diff(q, axis=0) / self.grid.h
        return q, self.D @ q

    def _pullback(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """P^T W a + D^T W b: node-space gradient of sum_s w_s f(x_s, v_s)
        from the point-space partials a = d_x f, b = d_v f."""
        wa = self.w[:, None] * a
        wb = self.w[:, None] * b
        if not self.midpoint:
            return wa + self.D.T @ wb
        # each interval sends 0.5 w a -+ w b / h to its left/right node
        half, slope = 0.5 * wa, wb / self.grid.h
        out = np.zeros((self.grid.m + 1,) + a.shape[1:])
        out[:-1] += half - slope
        out[1:] += half + slope
        return out

    def _interior_block(
        self, cqq: np.ndarray, cqv: np.ndarray, cvq: np.ndarray, cvv: np.ndarray
    ) -> np.ndarray:
        """Interior rows/columns of P^T Cqq P + P^T Cqv D + D^T Cvq P + D^T Cvv D
        for one component pair, where C = diag(c) holds weighted second
        partials at the M points."""
        m, h = self.grid.m, self.grid.h
        if self.midpoint:
            # tridiagonal: interval s couples nodes s and s+1 through the
            # element matrix [p; d]^T [[cqq, cqv], [cvq, cvv]] [p; d],
            # p = (1/2, 1/2), d = (-1/h, 1/h)
            quarter, curv = 0.25 * cqq, cvv / (h * h)
            cross, skew = 0.5 * (cqv + cvq) / h, 0.5 * (cqv - cvq) / h
            B = np.zeros((m - 1, m - 1))
            # node s is the right end of interval s-1 and the left end of s
            np.fill_diagonal(B, (quarter + cross + curv)[:-1] + (quarter - cross + curv)[1:])
            np.fill_diagonal(B[:, 1:], (quarter + skew - curv)[1 : m - 1])
            np.fill_diagonal(B[1:], (quarter - skew - curv)[1 : m - 1])
            return B
        # P = I and D is lower triangular, so below the diagonal only Cqv D
        # meets D^T Cvv D and above it only D^T Cvq; the diagonal sums all
        # four terms in the order of the definition.  D^T Cvv D is formed
        # whole and then sliced, since BLAS may round a product of another
        # shape differently.
        D, Di = self.D, self.D[1:m, 1:m]
        B = (D.T @ (cvv[:, None] * D))[1:m, 1:m]
        d = np.diagonal(Di)
        diag = cqq[1:m] + cqv[1:m] * d + d * cvq[1:m] + np.diagonal(B)
        B += cqv[1:m, None] * Di
        B += Di.T * cvq[1:m]
        np.fill_diagonal(B, diag)
        return B

    def gradient(self, q: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Stacked [dJd/dq_interior ; constraint defects]."""
        x, v = self._points(q)
        F = augmented_lagrangian(self.problem, lam)
        gel = self._pullback(*F.grad_along(self.theta, x, v))
        defects = self.constraint_defects(x, v)
        # scale the stationarity rows to O(1) so the Newton tolerance is
        # grid-independent
        return np.concatenate([gel[1 : self.grid.m].ravel() / self.grid.h, defects])

    def constraint_defects(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        vals = np.array(
            [np.dot(self.w, g.along(self.theta, x, v)) for g in self.problem.constraints]
        )
        return vals - self.problem.constraint_levels

    def jacobian(self, q: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Exact Jacobian of ``gradient`` up to the finite-difference second
        partials of F.  Unknowns are ordered node-major, so component i of
        the state sits at rows/columns i::n of the interior block."""
        n, k, h = self.n, self.k, self.grid.h
        x, v = self._points(q)
        F = augmented_lagrangian(self.problem, lam)
        w = self.w[:, None, None]
        Hqq, Hqv, Hvv = (w * H for H in F.hessian_along(self.theta, x, v))
        # d(d_v F)_i / dq_j = d2F / dv_i dq_j = Hqv[:, j, i]
        blocks = {
            (i, j): self._interior_block(Hqq[:, i, j], Hqv[:, i, j], Hqv[:, j, i], Hvv[:, i, j])
            for i in range(n)
            for j in range(n)
        }
        # J is allocated after the blocks so one call holds at most two
        # matrices of its size
        ni = (self.grid.m - 1) * n
        J = np.zeros((ni + k, ni + k))
        for (i, j), B in blocks.items():
            np.divide(B, h, out=J[i:ni:n, j:ni:n])
        # multiplier coupling: d(gel)/d(lambda_r) = -(P^T W g_q + D^T W g_v)
        for r, g in enumerate(self.problem.constraints):
            col = self._pullback(*g.grad_along(self.theta, x, v)).ravel()[n:-n]
            J[:ni, ni + r] = -col / h
            J[ni + r, :ni] = col
        return J


def _initial_state(problem: VariationalProblem, guess: Solution | None):
    grid, n = problem.grid, problem.dim
    if guess is not None:
        q = guess.q.values.copy()
        lam = np.atleast_1d(np.asarray(guess.lam, float)).copy()
    else:
        s = (grid.nodes - grid.a) / (grid.b - grid.a)
        q = np.outer(1.0 - s, problem.boundary_a) + np.outer(s, problem.boundary_b)
        lam = np.zeros(problem.k)
    q[0] = problem.boundary_a
    q[-1] = problem.boundary_b
    return q, lam


def _newton(
    disc: _Discretization, q: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool, int, float]:
    m, n = disc.grid.m, disc.n
    G = disc.gradient(q, lam)
    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        if np.max(np.abs(G)) <= _NEWTON_TOL:
            return q, lam, True, iterations - 1, float(np.max(np.abs(G)))
        try:
            step = np.linalg.solve(disc.jacobian(q, lam), -G)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular Jacobian") from exc
        base_norm = np.linalg.norm(G)
        scale = 1.0
        for _ in range(30):
            q_try = q.copy()
            q_try[1:m] += scale * step[: (m - 1) * n].reshape(m - 1, n)
            lam_try = lam + scale * step[(m - 1) * n :]
            G_try = disc.gradient(q_try, lam_try)
            if np.linalg.norm(G_try) < base_norm:
                q, lam, G = q_try, lam_try, G_try
                break
            scale *= 0.5
        else:
            # no residual decrease found: report the best iterate
            return q, lam, False, iterations, float(np.max(np.abs(G)))
    converged = np.max(np.abs(G)) <= _NEWTON_TOL
    return q, lam, converged, iterations, float(np.max(np.abs(G)))


def solve(
    problem: VariationalProblem,
    continuation_steps: int = 0,
    initial_guess: Solution | None = None,
) -> Solution:
    """Find (q, lambda) annihilating the discrete Euler-Lagrange gradient
    and the isoperimetric defects.  Optional homotopy in the order: with
    continuation_steps > 0 the classical problem (alpha = 1) is solved first
    and the order stepped down, warm-starting each stage.
    """
    q, lam = _initial_state(problem, initial_guess)
    target = problem.order.alpha
    if continuation_steps > 0 and initial_guess is None and target < 1.0:
        alphas = np.linspace(1.0, target, continuation_steps + 1)
    else:
        alphas = np.array([target])

    converged, iterations, gnorm = False, 0, np.inf
    for alpha in alphas:
        disc = _Discretization(problem, float(alpha))
        q, lam, converged, its, gnorm = _newton(disc, q, lam)
        iterations += its

    qs = SampledFunction(problem.grid, q)
    el = euler_lagrange_residual(problem, lam, qs)
    defects = constraint_values(problem, qs) - problem.constraint_levels
    converged = converged and (
        problem.k == 0 or np.max(np.abs(defects)) <= _CONSTRAINT_TOL
    )
    if converged and problem.k > 0:
        abnormal = all(
            normality_check(problem, qs, j).sup_norm < 1e-8 for j in range(problem.k)
        )
        if abnormal:
            warnings.warn(
                "all constraints satisfy the Euler-Lagrange-type equation along "
                "the solution: abnormal problem, multipliers are not meaningful",
                stacklevel=2,
            )
    return Solution(
        q=qs,
        lam=lam,
        el_report=el,
        constraint_residual=defects,
        converged=converged,
        iterations=iterations,
        stationarity_norm=gnorm,
    )


def refine(problem: VariationalProblem, solution: Solution, factor: int = 2) -> Solution:
    """Re-solve on a factor-times finer grid, warm-started by interpolation;
    the result carries an empirical order estimate from the EL residuals."""
    if not solution.converged:
        raise ValueError("refine requires a converged input solution")
    if factor < 2:
        raise ValueError("refinement factor must be >= 2")
    fine_grid = problem.grid.refined(factor)
    fine_problem = replace(problem, grid=fine_grid)
    coarse_t = problem.grid.nodes
    fine_t = fine_grid.nodes
    q0 = np.column_stack(
        [
            np.interp(fine_t, coarse_t, solution.q.component(i))
            for i in range(solution.q.dim)
        ]
    )
    warm = replace(
        solution,
        q=SampledFunction(fine_grid, q0),
        el_report=solution.el_report,
    )
    fine = solve(fine_problem, initial_guess=warm)
    order = float(
        np.log(solution.el_report.sup_norm / fine.el_report.sup_norm) / np.log(factor)
    )
    return replace(fine, empirical_order=order)
