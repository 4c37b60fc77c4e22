"""Direct transcription of the fractional isoperimetric problem.

The discrete unknowns are the interior node values of q (boundaries pinned)
plus the multiplier vector lambda.  The stationarity system is the exact
gradient of the discretized augmented objective: the right RL derivative in
the Euler-Lagrange residual is realized as D^T, the adjoint of the discrete
left derivative D, so damped Newton converges on a true stationary point of
the discrete problem.  frac_kernels' derivative operator applies D^T with no
matrix product: by a reversed convolution at alpha < 1 and by a difference
at alpha = 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import frac_kernels as fk
from .grids import FracOrder, Grid, SampledFunction
from .problems import (
    ResidualReport,
    VariationalProblem,
    _el_fold,
    _FieldSamples,
    _node_points,
    _sample_fields,
    _trapezoid,
    augmented_lagrangian,
)

__all__ = ["Solution", "SolverError", "solve", "refine"]

#: Largest isoperimetric defect a converged solution may leave.
_CONSTRAINT_TOL = 1e-8
_MAX_ITERATIONS = 50
# scaled-gradient stopping test; the floor for fields with finite-difference
# gradients is about 1e-7, so do not tighten much.  That floor applies only
# to callables without gradients.  Spec expressions carry exact partials;
# only gamma of a variable takes its derivative as a central difference of
# gamma alone, about 1e-10 relative away from its poles.  The Newton matrix's
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
    """Discrete augmented objective and its gradient.

    The objective is a quadrature sum over M points,

        Jd(q, lambda) = sum_s w_s F(theta_s, (P q)_s, (D q)_s),

    with P an evaluation operator and D the discrete fractional derivative.
    For alpha < 1, theta = grid nodes, P = identity, D = the L1 matrix
    (singular first row extrapolated), w = trapezoid weights.  For alpha = 1
    the quadrature is per-interval midpoint with P the endpoint average and
    D the interval slope; on piecewise-linear data this is the exact
    classical functional, which makes the classical benchmark solutions
    nodally exact.

    D is frac_kernels' discrete derivative operator (_L1Operator at alpha
    < 1, _SlopeOperator at alpha = 1): it applies D and D^T and solves with
    the Toeplitz section T of D that preconditions the Newton steps.  P is
    implicit at alpha < 1 and a two-point stencil at alpha = 1.

    The gradient takes its points from ``_points`` too.  At alpha < 1 its v
    is the public checks' (``problems._velocity_filled``), bit for bit, so
    ``solve`` certifies its result from the last gradient's samples.
    ``problem`` is held at order alpha.
    """

    def __init__(self, problem: VariationalProblem, alpha: float):
        self.problem = replace(problem, order=FracOrder(alpha))
        self.grid = problem.grid
        self.n = problem.dim
        self.k = problem.k
        self.midpoint = alpha == 1.0
        nodes = self.grid.nodes
        if self.midpoint:
            self.theta = 0.5 * (nodes[:-1] + nodes[1:])
            self.w = np.full(self.grid.m, self.grid.h)
            self.D = fk._SlopeOperator(self.grid)
        else:
            self.theta = nodes
            self.w = _trapezoid_weights(self.grid)
            self.D = fk._L1Operator(self.grid, self.problem.order)

    def _points(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x = P q and v = D q for q of shape (m + 1, n) or (m + 1, n, c)."""
        return (0.5 * (q[:-1] + q[1:]) if self.midpoint else q), self.D.apply(q)

    def _pullback(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """P^T W a + D^T W b: node-space gradient of sum_s w_s f(x_s, v_s)
        from the point-space partials a = d_x f, b = d_v f, with the same
        trailing axes as ``_points``."""
        w = self.w.reshape((-1,) + (1,) * (a.ndim - 1))
        wa = w * a
        if self.midpoint:  # each interval sends half its w a to either node
            half, wa = 0.5 * wa, np.zeros((self.grid.m + 1,) + a.shape[1:])
            wa[:-1] += half
            wa[1:] += half
        return wa + self.D.transpose(w * b)

    def gradient(self, q: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, _FieldSamples]:
        """Stacked [dJd/dq_interior ; constraint defects], and the samples of
        L and each g_j it is composed from: one sweep of each per iterate.
        At alpha < 1 the points are the nodes, q and the kernel's v."""
        x, v = self._points(q)
        s = _sample_fields(self.problem, self.theta, x, v)
        gel = self._pullback(s.F_dx(lam), s.F_dy(lam))
        defects = np.array([np.dot(self.w, g) for g in s.g]) - self.problem.constraint_levels
        # scale the stationarity rows to O(1) so the Newton tolerance is
        # grid-independent
        return np.concatenate([gel[1 : self.grid.m].ravel() / self.grid.h, defects]), s


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
    h, applied through the discretization's ``_points`` and ``_pullback``,
    so that at alpha < 1 a product costs O(m log m) per column, not the
    O(m^2) of a dense D.  T is the lower-triangular Toeplitz section of the
    discretization's operator D: D on the rows ``D.t_rows`` and the interior
    nodes.  With C_vv the blocks w_s Hvv[s] on those rows, T^T C_vv T / h is
    the leading term at alpha < 1, where P = I, and all of D^T Cvv D but
    interval m-1 at alpha = 1; h T^-1 C_vv^-1 T^-T is its exact inverse and
    preconditions GMRES.

    It is built at an iterate (q, lambda) from the gradient's ``samples``
    there: F's second partials (Hqq, Hqv, Hvv) at the samples' points, and
    one column P^T W g_q + D^T W g_v per constraint at the interior
    unknowns.  F's forward-difference Hessian starts from F's partials
    composed from the samples, so it sweeps user code 3n times per field of
    F, all at perturbed points.  A constraint with a zero multiplier is not
    a field of F, so the first Newton step of a cold solve, at lambda = 0,
    sweeps L's partials alone.
    """

    def __init__(self, disc: _Discretization, lam: np.ndarray, samples: _FieldSamples):
        self.disc, n = disc, disc.n
        F = augmented_lagrangian(disc.problem, lam)
        base = (samples.F_dx(lam), samples.F_dy(lam))
        self.Hqq, self.Hqv, self.Hvv = F.hessian(samples.t, samples.x, samples.v, base=base)
        self.cols = np.empty(((disc.grid.m - 1) * n, disc.k))
        for r, (g_dx, g_dy) in enumerate(zip(samples.g_dx, samples.g_dy)):
            self.cols[:, r] = disc._pullback(g_dx, g_dy).ravel()[n:-n]

    @cached_property
    def cvv_inv(self) -> np.ndarray | None:
        """C_vv^-1 on the rows of T, or None if C_vv is singular on one."""
        rows = self.disc.D.t_rows
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
        """h T^-1 C_vv^-1 T^-T r, by the operator's Toeplitz solves."""
        D = self.disc.D
        y = np.einsum("sij,sj->si", self.cvv_inv, D.t_solve_transposed(r.reshape(-1, self.disc.n)))
        return self.disc.grid.h * D.t_solve(y).ravel()

    def step(self, G: np.ndarray) -> np.ndarray:
        """The Newton step -J^-1 G: by the Krylov solve, or by dense LU of
        ``matrix()`` where C_vv or the Schur complement is singular or GMRES
        misses _KRYLOV_TOL.  SolverError if that LU fails too."""
        step = self._krylov_step(G)
        if step is not None:
            return step
        try:
            return np.linalg.solve(self.matrix(), -G)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular Jacobian") from exc

    def _krylov_step(self, G: np.ndarray) -> np.ndarray | None:
        """-J^-1 G with the k multiplier rows by a Schur complement: k + 1
        Krylov solves with the interior block, then one k x k solve.  None
        if C_vv or the Schur complement is singular or a Krylov solve misses
        its tolerance."""
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
        step = _NewtonOperator(disc, lam, samples).step(G)
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
