"""Direct transcription of the fractional isoperimetric problem.

The discrete unknowns are the interior node values of q (boundaries pinned)
plus the multiplier vector lambda.  The stationarity system is the exact
gradient of the discretized augmented objective: the right RL derivative in
the Euler-Lagrange residual is realized by the transpose of the left
derivative matrix, so damped Newton converges on a true stationary point of
the discrete problem.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import frac_kernels as fk
from .grids import FracOrder, Grid, SampledFunction, fill_endpoints
from .problems import (
    ResidualReport,
    VariationalProblem,
    _el_fold,
    _FieldSamples,
    _node_points,
    _sample_fields,
    _trapezoid,
    _velocity_filled,
    augmented_lagrangian,
)

__all__ = ["Solution", "SolverError", "solve", "refine"]

#: Largest isoperimetric defect a converged solution may leave.
_CONSTRAINT_TOL = 1e-8
_MAX_ITERATIONS = 50
# scaled-gradient stopping test; the floor for fields with finite-difference
# gradients is about 1e-7, so do not tighten much.  The Newton matrix's
# forward-difference Hessian is off by O(1e-6) relative with analytic
# gradients and by up to about 1e-4 with finite-difference ones: that can
# cost Newton steps, but it does not move the point they converge to.
_NEWTON_TOL = 1e-6
# A Newton system is solved by GMRES to this relative residual at every
# order; a solve that misses it within the iteration cap falls back to dense LU.
_KRYLOV_TOL = 1e-13
_KRYLOV_MAX_ITERATIONS = 60
# unit columns per product when the fallback forms the Newton matrix
_MATRIX_SLAB = 64


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class Solution:
    """A solve's result and its certificate.

    ``stop_reason`` says why Newton stopped: ``"tolerance"`` (converged),
    ``"line search stalled"`` (no step scale decreased the gradient),
    ``"iteration cap"``, or ``"constraint defect"`` (stationary, but an
    isoperimetric defect exceeds _CONSTRAINT_TOL).
    """

    q: SampledFunction
    lam: np.ndarray
    el_report: ResidualReport
    constraint_residual: np.ndarray
    converged: bool
    iterations: int
    stationarity_norm: float
    stop_reason: str
    empirical_order: float | None = None


def _trapezoid_weights(grid: Grid) -> np.ndarray:
    w = np.full(grid.m + 1, grid.h)
    w[0] = w[-1] = grid.h / 2.0
    return w


class _Discretization:
    """Discrete augmented objective, its gradient, and the Newton partials.

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
    and D are two-point stencils.  A Newton step is a preconditioned Krylov
    solve (_NewtonOperator) that never forms the Newton matrix; of its
    preconditioner only the Toeplitz section T (``t_rows``, ``t_inv``)
    depends on the order.

    D stays the Newton operator (``_points``, ``_pullback``).  The gradient
    samples the fields at alpha < 1 at v from the L1 kernel
    (``problems._velocity_filled``), which D q equals up to rounding; those
    are the points of the public checks, so ``solve`` certifies its result
    from the last gradient's samples.  The Newton partials are taken at the
    same points, the samples' own: F's forward-difference Hessian starts from
    partials that each per-point callable kept from that sweep, so it sweeps
    user code 3n times per field, all at perturbed points.  ``problem`` is
    held at order alpha.
    """

    def __init__(self, problem: VariationalProblem, alpha: float):
        self.problem = replace(problem, order=FracOrder(alpha))
        self.grid = problem.grid
        self.n = problem.dim
        self.k = problem.k
        self.midpoint = alpha == 1.0
        m, nodes = self.grid.m, self.grid.nodes
        if self.midpoint:
            self.theta = 0.5 * (nodes[:-1] + nodes[1:])
            self.w = np.full(m, self.grid.h)
            self.t_rows = slice(0, m - 1)
        else:
            self.theta = nodes
            self.w = _trapezoid_weights(self.grid)
            self.D = fk.left_derivative_matrix(self.grid, FracOrder(alpha))
            self.D[:3] = fill_endpoints(self.D[:3])  # in place, so D is held once
            self.t_rows = slice(1, m)
        # T, the rows t_rows of v = D q on the interior nodes, is lower-
        # triangular Toeplitz, and so is T^-1; its first column is D e_1
        unit = np.zeros((m + 1, 1))
        unit[1] = 1.0
        self.t_inv = _toeplitz_inverse(self._points(unit)[1][self.t_rows, 0])

    def _points(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x = P q and v = D q for q of shape (m + 1, n) or (m + 1, n, c)."""
        if self.midpoint:
            return 0.5 * (q[:-1] + q[1:]), np.diff(q, axis=0) / self.grid.h
        return q, (self.D @ q.reshape(len(q), -1)).reshape(q.shape)

    def _pullback(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """P^T W a + D^T W b: node-space gradient of sum_s w_s f(x_s, v_s)
        from the point-space partials a = d_x f, b = d_v f, with the same
        trailing axes as ``_points``."""
        w = self.w.reshape((-1,) + (1,) * (a.ndim - 1))
        wa, wb = w * a, w * b
        if not self.midpoint:
            return wa + (self.D.T @ wb.reshape(len(wb), -1)).reshape(wb.shape)
        # each interval sends 0.5 w a -+ w b / h to its left/right node
        half, slope = 0.5 * wa, wb / self.grid.h
        out = np.zeros((self.grid.m + 1,) + a.shape[1:])
        out[:-1] += half - slope
        out[1:] += half + slope
        return out

    def gradient(self, q: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, _FieldSamples]:
        """Stacked [dJd/dq_interior ; constraint defects], and the samples of
        L and each g_j it is composed from: one sweep of each per iterate.
        At alpha < 1 the points are the nodes, q and the kernel's v."""
        if self.midpoint:
            x, v = self._points(q)
        else:
            x, v = q, _velocity_filled(self.problem, SampledFunction(self.grid, q))
        s = _sample_fields(self.problem, self.theta, x, v)
        gel = self._pullback(s.F_dx(lam), s.F_dy(lam))
        defects = np.array([np.dot(self.w, g) for g in s.g]) - self.problem.constraint_levels
        # scale the stationarity rows to O(1) so the Newton tolerance is
        # grid-independent
        return np.concatenate([gel[1 : self.grid.m].ravel() / self.grid.h, defects]), s

    def newton_partials(self, lam: np.ndarray, samples: _FieldSamples):
        """What the Newton matrix at (q, lambda) is built from, given the
        gradient's ``samples`` at (q, lambda): F's second partials (Hqq, Hqv,
        Hvv) at the samples' points, and one column P^T W g_q + D^T W g_v
        per constraint at the interior unknowns.  The Hessian's base
        partials are the samples' sweep, which each per-point callable
        kept, so only its perturbed sweeps call user code."""
        n = self.n
        hessians = augmented_lagrangian(self.problem, lam).hessian(samples.t, samples.x, samples.v)
        cols = np.empty(((self.grid.m - 1) * n, self.k))
        for r, (g_dx, g_dy) in enumerate(zip(samples.g_dx, samples.g_dy)):
            cols[:, r] = self._pullback(g_dx, g_dy).ravel()[n:-n]
        return hessians, cols


def _toeplitz_inverse(col: np.ndarray) -> np.ndarray:
    """First column of T^-1 for the lower-triangular Toeplitz T with first
    column ``col``, by the Newton iteration u <- u + u (e_1 - T u) on leading
    sections of doubling size.  The products are direct convolutions: with
    rfft products the alpha = 1 inverse, h times ones, comes out 86 ulps of
    h off at m = 2000, and the error compounds with each doubling."""
    inv = np.array([1.0 / col[0]])
    while inv.size < col.size:
        size = min(2 * inv.size, col.size)
        defect = np.convolve(col[:size], inv)[:size]
        defect[0] -= 1.0
        inv = np.pad(inv, (0, size - inv.size)) - np.convolve(inv, defect)[:size]
    return inv


def _gmres(apply, precondition, b: np.ndarray) -> np.ndarray | None:
    """x with ||b - apply(x)|| <= _KRYLOV_TOL ||b||, by GMRES right-
    preconditioned by ``precondition``; None if _KRYLOV_MAX_ITERATIONS
    iterations do not reach it."""
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros_like(b)
    cap = _KRYLOV_MAX_ITERATIONS
    H = np.zeros((cap + 1, cap))  # Hessenberg matrix of the Arnoldi process
    basis = [b / beta]  # orthonormal, grown one vector per iteration
    rotations = []  # Givens rotations (cos, sin) that make H upper triangular
    residual = beta
    for j in range(cap):
        w = apply(precondition(basis[j]))
        V = np.array(basis)
        for _ in range(2):  # classical Gram-Schmidt, applied twice
            coefficients = V @ w
            w -= coefficients @ V
            H[: j + 1, j] += coefficients
        H[j + 1, j] = np.linalg.norm(w)
        col = H[: j + 2, j].tolist()
        for i, (cos, sin) in enumerate(rotations):
            col[i], col[i + 1] = cos * col[i] + sin * col[i + 1], cos * col[i + 1] - sin * col[i]
        r = math.hypot(col[j], col[j + 1])
        if r == 0.0:  # the operator is singular on the Krylov space
            return None
        rotations.append((col[j] / r, col[j + 1] / r))
        residual *= abs(col[j + 1]) / r
        if residual <= _KRYLOV_TOL * beta:
            rhs = np.zeros(j + 2)
            rhs[0] = beta
            y = np.linalg.lstsq(H[: j + 2, : j + 1], rhs, rcond=None)[0]
            return precondition(y @ V)
        basis.append(w / H[j + 1, j])
    return None


class _NewtonOperator:
    """The Newton matrix at any order, applied without forming it; only the
    dense fallback forms it, by ``matrix``.

    Its interior block is P^T Cqq P + P^T Cqv D + D^T Cvq P + D^T Cvv D over
    h.  T is D on rows ``t_rows`` and the interior nodes: D[1:m, 1:m] at
    alpha < 1, where P = I, and the slopes of intervals 0..m-2 at alpha = 1.
    With C_vv the blocks w_s Hvv[s] on those rows, T^T C_vv T / h is the
    leading term at alpha < 1 and all of D^T Cvv D but interval m-1 at
    alpha = 1; h T^-1 C_vv^-1 T^-T is its exact inverse and preconditions
    GMRES.
    """

    def __init__(self, disc: _Discretization, hessians, cols: np.ndarray):
        self.disc, self.cols = disc, cols
        self.Hqq, self.Hqv, self.Hvv = hessians

    @cached_property
    def cvv_inv(self) -> np.ndarray | None:
        """C_vv^-1 on the rows of T, or None if C_vv is singular on one."""
        rows = self.disc.t_rows
        try:
            inv = np.linalg.inv(self.disc.w[rows, None, None] * self.Hvv[rows])
        except np.linalg.LinAlgError:
            return None
        return inv if np.isfinite(inv).all() else None

    def interior(self, y: np.ndarray) -> np.ndarray:
        """The interior block times y, node-major like the unknowns, or times
        each column of y."""
        disc = self.disc
        m, n = disc.grid.m, disc.n
        z = np.zeros((m + 1, n) + y.shape[1:])
        z[1:m] = y.reshape(z[1:m].shape)
        x, v = disc._points(z)
        a = np.einsum("sij,sj...->si...", self.Hqq, x) + np.einsum("sij,sj...->si...", self.Hqv, v)
        b = np.einsum("sji,sj...->si...", self.Hqv, x) + np.einsum("sij,sj...->si...", self.Hvv, v)
        return disc._pullback(a, b)[1:m].reshape(y.shape) / disc.grid.h

    def matrix(self) -> np.ndarray:
        """The Newton matrix for the dense fallback: the interior block applied
        to slabs of unit columns, bordered by the multiplier columns."""
        (ni, k), h = self.cols.shape, self.disc.grid.h
        J = np.zeros((ni + k, ni + k))
        for start in range(0, ni, _MATRIX_SLAB):
            width = min(_MATRIX_SLAB, ni - start)
            J[:ni, start : start + width] = self.interior(np.eye(ni, width, -start))
        # J = [[A, -cols/h], [cols^T, 0]] with A the interior block
        J[:ni, ni:] = -self.cols / h
        J[ni:, :ni] = self.cols.T
        return J

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """h T^-1 C_vv^-1 T^-T r; T^-1 y is the causal convolution of its
        first column with y, and T^T is T conjugated by the reversal."""
        disc = self.disc
        t_inv, size = disc.t_inv, len(disc.t_inv)
        y = fk._causal_convolve(t_inv, r.reshape(-1, disc.n)[::-1], size)[::-1]
        y = np.einsum("sij,sj->si", self.cvv_inv, y)
        return disc.grid.h * fk._causal_convolve(t_inv, y, size).ravel()

    def step(self, G: np.ndarray) -> np.ndarray | None:
        """The Newton step -J^-1 G, or None if C_vv or the Schur complement
        is singular or a Krylov solve misses its tolerance.  The k multiplier
        rows go by a Schur complement: k + 1 Krylov solves with the interior
        block, then one k x k solve."""
        if self.cvv_inv is None:
            return None
        ni, h = self.cols.shape[0], self.disc.grid.h
        solves = []
        for b in [-G[:ni], *(-self.cols.T / h)]:
            x = _gmres(self.interior, self.precondition, b)
            if x is None:
                return None
            solves.append(x)
        base, coupled = solves[0], np.array(solves[1:]).reshape(-1, ni).T
        try:
            lam_step = np.linalg.solve(self.cols.T @ coupled, self.cols.T @ base + G[ni:])
        except np.linalg.LinAlgError:  # the Schur complement is singular
            return None
        return np.concatenate([base - coupled @ lam_step, lam_step])


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


def _newton_step(
    disc: _Discretization, lam: np.ndarray, G: np.ndarray, samples: _FieldSamples
) -> np.ndarray:
    """-J^-1 G: by the Krylov solve, or by dense LU of J when C_vv or the
    Schur complement is singular or GMRES falls short of its tolerance."""
    op = _NewtonOperator(disc, *disc.newton_partials(lam, samples))
    step = op.step(G)
    if step is not None:
        return step
    try:
        return np.linalg.solve(op.matrix(), -G)
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular Jacobian") from exc


class _NewtonResult(NamedTuple):
    """The last accepted iterate, why Newton stopped there, and the field
    samples its gradient took."""

    q: np.ndarray
    lam: np.ndarray
    iterations: int
    stationarity_norm: float
    stop_reason: str
    samples: _FieldSamples


def _newton(disc: _Discretization, q: np.ndarray, lam: np.ndarray) -> _NewtonResult:
    m, n = disc.grid.m, disc.n
    G, samples = disc.gradient(q, lam)
    for iterations in range(_MAX_ITERATIONS + 1):
        gnorm = float(np.max(np.abs(G)))
        if gnorm <= _NEWTON_TOL:
            return _NewtonResult(q, lam, iterations, gnorm, "tolerance", samples)
        if iterations == _MAX_ITERATIONS:
            return _NewtonResult(q, lam, iterations, gnorm, "iteration cap", samples)
        step = _newton_step(disc, lam, G, samples)
        base_norm = np.linalg.norm(G)
        scale = 1.0
        for _ in range(30):
            q_try = q.copy()
            q_try[1:m] += scale * step[: (m - 1) * n].reshape(m - 1, n)
            lam_try = lam + scale * step[(m - 1) * n :]
            G_try, samples_try = disc.gradient(q_try, lam_try)
            if np.linalg.norm(G_try) < base_norm:
                q, lam, G, samples = q_try, lam_try, G_try, samples_try
                break
            scale *= 0.5
        else:
            # no residual decrease found: report the best iterate
            return _NewtonResult(q, lam, iterations + 1, gnorm, "line search stalled", samples)


def solve(
    problem: VariationalProblem,
    continuation_steps: int = 0,
    initial_guess: Solution | None = None,
) -> Solution:
    """Find (q, lambda) annihilating the discrete Euler-Lagrange gradient
    and the isoperimetric defects.  Optional homotopy in the order: with
    continuation_steps > 0 the classical problem (alpha = 1) is solved first
    and the order stepped down, warm-starting each stage.

    The result is certified by the EL residual, the constraint defects and,
    once converged, the normality check: the folds of
    ``euler_lagrange_residual``, ``constraint_values`` and
    ``normality_check``.  At alpha < 1 they fold the samples the last
    gradient took, which are those checks' samples; at alpha = 1 the
    gradient sampled at interval midpoints, so the fields are sampled once
    more, at the nodes.
    """
    q, lam = _initial_state(problem, initial_guess)
    target = problem.order.alpha
    if continuation_steps > 0 and initial_guess is None and target < 1.0:
        alphas = np.linspace(1.0, target, continuation_steps + 1)
    else:
        alphas = np.array([target])

    iterations = 0
    for alpha in alphas:
        disc = _Discretization(problem, float(alpha))
        result = _newton(disc, q, lam)
        q, lam = result.q, result.lam
        iterations += result.iterations

    qs = SampledFunction(problem.grid, q)
    samples = result.samples
    if disc.midpoint:
        samples = _sample_fields(problem, *_node_points(problem, qs))
    el = _el_fold(problem, samples.F_dx(lam), samples.F_dy(lam))
    defects = np.array([_trapezoid(problem, g) for g in samples.g]) - problem.constraint_levels
    stop_reason = result.stop_reason
    if stop_reason == "tolerance" and not np.all(np.abs(defects) <= _CONSTRAINT_TOL):
        stop_reason = "constraint defect"
    converged = stop_reason == "tolerance"
    if converged and problem.k > 0:
        abnormal = all(
            _el_fold(problem, g_dx, g_dy).sup_norm < 1e-8
            for g_dx, g_dy in zip(samples.g_dx, samples.g_dy)
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
        stationarity_norm=result.stationarity_norm,
        stop_reason=stop_reason,
    )


def refine(problem: VariationalProblem, solution: Solution, factor: int = 2) -> Solution:
    """Re-solve on a factor-times finer grid, warm-started by interpolation;
    the result carries an empirical order estimate from the EL residuals."""
    if not solution.converged:
        raise ValueError("refine requires a converged input solution")
    if not isinstance(factor, (int, np.integer)) or factor < 2:
        raise ValueError(f"refinement factor must be an integer >= 2, got {factor!r}")
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
    warm = replace(solution, q=SampledFunction(fine_grid, q0))
    fine = solve(fine_problem, initial_guess=warm)
    order = float(
        np.log(solution.el_report.sup_norm / fine.el_report.sup_norm) / np.log(factor)
    )
    return replace(fine, empirical_order=order)
