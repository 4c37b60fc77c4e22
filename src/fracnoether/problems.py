"""The fractional isoperimetric variational problem and its residuals.

A candidate trajectory is certified as an extremal of

    I[q] = int_a^b L(t, q, D^alpha q) dt,   int_a^b g_j(...) dt = l_j,

by evaluating the augmented-Lagrangian Euler-Lagrange residual

    r(t) = d_q F + D_b^alpha[ d_v F ],    F = L - lambda . g,

node-wise.  Residual norms exclude a configurable band at both endpoints,
where the right RL derivative is singular for generic data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import frac_kernels as fk
from .fields import PointField
from .grids import FracOrder, Grid, SampledFunction, fill_endpoints

__all__ = [
    "DEFAULT_BAND",
    "INVARIANCE_TOLERANCE",
    "endpoint_band",
    "VariationalProblem",
    "ResidualReport",
    "make_report",
    "certification_tolerance",
    "frac_velocity",
    "augmented_lagrangian",
    "constraint_values",
    "objective_value",
    "euler_lagrange_residual",
    "normality_check",
]

#: Nodes dropped at each end of the grid when taking residual norms.
DEFAULT_BAND = 2

#: Pass/fail bound on the invariance probe's dI/d(eps) estimates.
INVARIANCE_TOLERANCE = 1e-2


def endpoint_band(m: int) -> int:
    """Wider endpoint band, 5% of the m intervals per side (CLI checks).

    Pointwise scheme error concentrates near the ends when the data has a
    weak power singularity there; norms are then taken on the inner 90%.
    """
    return max(DEFAULT_BAND, round(0.05 * m))


@dataclass(frozen=True)
class VariationalProblem:
    """Data of the fractional isoperimetric problem (k >= 0 constraints)."""

    order: FracOrder
    lagrangian: PointField
    grid: Grid
    boundary_a: np.ndarray
    boundary_b: np.ndarray
    constraints: Sequence[PointField] = ()
    constraint_levels: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        object.__setattr__(self, "boundary_a", np.atleast_1d(np.asarray(self.boundary_a, float)))
        object.__setattr__(self, "boundary_b", np.atleast_1d(np.asarray(self.boundary_b, float)))
        object.__setattr__(self, "constraint_levels", np.atleast_1d(np.asarray(self.constraint_levels, float)))
        if self.boundary_a.shape != self.boundary_b.shape:
            raise ValueError("boundary value dimensions disagree")
        if len(self.constraints) != self.constraint_levels.size:
            raise ValueError(
                f"{len(self.constraints)} constraints but "
                f"{self.constraint_levels.size} levels"
            )

    @property
    def dim(self) -> int:
        return self.boundary_a.size

    @property
    def k(self) -> int:
        return len(self.constraints)

    def check_multipliers(self, lam: np.ndarray) -> np.ndarray:
        lam = np.atleast_1d(np.asarray(lam, float))
        if lam.size != self.k:
            raise ValueError(f"expected {self.k} multipliers, got {lam.size}")
        return lam


@dataclass(frozen=True)
class ResidualReport:
    """Signed pointwise residual components plus band-excluded norms."""

    grid: Grid
    pointwise: SampledFunction
    sup_norm: float
    l2_norm: float
    excluded_band: int

    def passes(self, tol: float) -> bool:
        return self.sup_norm <= tol


def make_report(grid: Grid, residual: np.ndarray, band: int = DEFAULT_BAND) -> ResidualReport:
    """Fold a nodewise residual (m+1, dim) into magnitudes and norms."""
    r = np.asarray(residual, float)
    if r.ndim == 1:
        r = r[:, None]
    mag = np.sqrt(np.sum(r * r, axis=1))
    lo = max(band, 1)
    hi = grid.m - lo
    window = mag[lo : hi + 1]
    window = window[np.isfinite(window)]
    if window.size == 0:
        raise ValueError("no finite residual values inside the exclusion band")
    sup = float(np.max(window))
    l2 = float(np.sqrt(grid.h * np.sum(window * window)))
    return ResidualReport(grid, SampledFunction(grid, r), sup, l2, band)


def certification_tolerance(problem, c: float = 10.0) -> float:
    """Scheme-order residual tolerance c * h^min(1, 2 - alpha).

    ``problem`` is any object with ``order`` and ``grid``; on a
    ControlProblem (alpha <= 1) this is c * h.
    """
    expo = min(1.0, 2.0 - problem.order.alpha)
    return c * problem.grid.h**expo


def frac_velocity(q: SampledFunction, order: FracOrder) -> SampledFunction:
    """D^alpha q component-wise (NaN marker at the first node for alpha < 1)."""
    return fk.left_rl_derivative(q, order)


def augmented_lagrangian(problem, lam: np.ndarray) -> PointField:
    """F = L - lambda . g as a single field with composed gradients.

    The library's only composition of F: ``problem`` is any object with
    ``lagrangian``, ``constraints`` and ``check_multipliers`` (a
    VariationalProblem, or a ControlProblem where v is the control u).
    F is whole-array when L and every g_j are.
    """
    lam = problem.check_multipliers(lam)
    L = problem.lagrangian
    gs = list(problem.constraints)

    def ev(t, x, y):
        val = L(t, x, y)
        for lj, gj in zip(lam, gs):
            val -= lj * gj(t, x, y)
        return val

    def dx(t, x, y):
        out = L.d_x(t, x, y).copy()
        for lj, gj in zip(lam, gs):
            out -= lj * gj.d_x(t, x, y)
        return out

    def dy(t, x, y):
        out = L.d_y(t, x, y).copy()
        for lj, gj in zip(lam, gs):
            out -= lj * gj.d_y(t, x, y)
        return out

    if all(f.whole_array for f in (L, *gs)):
        ev.whole_array = dx.whole_array = dy.whole_array = True
    return PointField(ev, grad_x=dx, grad_y=dy)


def _velocity_filled(problem: VariationalProblem, q: SampledFunction) -> np.ndarray:
    """Fractional velocity with the singular first node extrapolated."""
    return fill_endpoints(frac_velocity(q, problem.order).values)


def _integrals(problem: VariationalProblem, fields_, q: SampledFunction) -> np.ndarray:
    """int f(t, q, D^alpha q) dt by composite trapezoid, one entry per field."""
    t, v = problem.grid.nodes, _velocity_filled(problem, q)
    return np.array([np.trapezoid(f.along(t, q.values, v), dx=problem.grid.h) for f in fields_])


def constraint_values(problem: VariationalProblem, q: SampledFunction) -> np.ndarray:
    """Vector of int g_j(t, q, D^alpha q) dt by composite trapezoid."""
    return _integrals(problem, problem.constraints, q)


def objective_value(problem: VariationalProblem, q: SampledFunction) -> float:
    """int L(t, q, D^alpha q) dt by composite trapezoid."""
    return float(_integrals(problem, [problem.lagrangian], q)[0])


def _field_gradients_along(
    problem: VariationalProblem, field_: PointField, q: SampledFunction
) -> tuple[np.ndarray, np.ndarray]:
    """(d_q field, d_v field) sampled along the trajectory."""
    return field_.grad_along(problem.grid.nodes, q.values, _velocity_filled(problem, q))


def _el_type_residual(
    problem: VariationalProblem,
    field_: PointField,
    q: SampledFunction,
    band: int,
) -> ResidualReport:
    a, b = _field_gradients_along(problem, field_, q)
    rd = fk.right_rl_derivative(SampledFunction(problem.grid, b), problem.order)
    return make_report(problem.grid, a + rd.values, band=band)


def euler_lagrange_residual(
    problem: VariationalProblem,
    lam: np.ndarray,
    q: SampledFunction,
    band: int = DEFAULT_BAND,
) -> ResidualReport:
    """Residual of d_q F + D_b^alpha d_v F along q; small sup norm certifies
    a fractional isoperimetric extremal."""
    F = augmented_lagrangian(problem, lam)
    return _el_type_residual(problem, F, q, band)


def normality_check(
    problem: VariationalProblem,
    q: SampledFunction,
    j: int,
    band: int = DEFAULT_BAND,
) -> ResidualReport:
    """Residual of d_q g_j + D_b^alpha d_v g_j along q.

    A near-zero sup norm flags the trajectory as abnormal for constraint j
    (the constraint integrand itself satisfies the Euler-Lagrange-type
    equation, degenerating the multiplier rule).
    """
    if not 0 <= j < problem.k:
        raise IndexError(f"constraint index {j} out of range (k = {problem.k})")
    return _el_type_residual(problem, problem.constraints[j], q, band)
