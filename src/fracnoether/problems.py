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

#: Pass/fail bound on invariance_first_order_check's linearized dI/d(eps),
#: one value per subinterval.
INVARIANCE_TOLERANCE = 1e-2

# The constant c of certification_tolerance's c * h.
_CERTIFICATION_FACTOR = 10.0


def endpoint_band(m: int) -> int:
    """Wider endpoint band, 5% of the m intervals per side (CLI checks).

    Pointwise scheme error concentrates near the ends when the data has a
    weak power singularity there; norms are then taken on the inner 90%.
    """
    return max(DEFAULT_BAND, round(0.05 * m))


def _checked_levels(constraints: Sequence, levels) -> np.ndarray:
    """The constraint levels as a 1-d float array, one per constraint (a
    variational or a control problem's)."""
    levels = np.atleast_1d(np.asarray(levels, float))
    if len(constraints) != levels.size:
        raise ValueError(f"{len(constraints)} constraints but {levels.size} levels")
    return levels


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
        if self.boundary_a.shape != self.boundary_b.shape:
            raise ValueError("boundary value dimensions disagree")
        object.__setattr__(self, "constraint_levels", _checked_levels(self.constraints, self.constraint_levels))

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


def _magnitude(r: np.ndarray) -> np.ndarray:
    """Each node's Euclidean magnitude of a nodewise residual (m+1, dim):
    hypot folded over the components from 0, so no square under- or
    overflows, and with one component it is exactly |r1|."""
    return np.hypot.reduce(r, axis=1, initial=0.0)


def make_report(grid: Grid, residual: np.ndarray, band: int = DEFAULT_BAND) -> ResidualReport:
    """Fold a nodewise residual (m+1, dim) into magnitudes and norms over
    the nodes that ``band`` leaves at each end.  Those are interior nodes,
    where ``SampledFunction`` requires finite values.  ``sup_norm`` is the
    largest magnitude; ``l2_norm`` is sqrt(h sum |r|^2) as written, so it
    is inf where a magnitude's square overflows."""
    pointwise = SampledFunction(grid, residual)
    r = pointwise.values
    lo = max(band, 1)
    window = _magnitude(r)[lo : grid.m - lo + 1]
    if window.size == 0:
        raise ValueError(f"an endpoint band of {band} leaves no node of {grid.m + 1} to fold")
    sup = float(np.max(window))
    l2 = float(np.sqrt(grid.h * np.sum(window * window)))
    return ResidualReport(grid, pointwise, sup, l2, band)


def certification_tolerance(problem) -> float:
    """Scheme-order residual tolerance 10 * h.

    ``problem`` is any object with a ``grid``.  The scheme-order exponent
    min(1, 2 - alpha) is 1 at every order a residual is taken at: alpha
    <= 1, and a derivative of a higher order raises
    ``UnsupportedOrderError``.
    """
    return _CERTIFICATION_FACTOR * problem.grid.h


def frac_velocity(q: SampledFunction, order: FracOrder) -> SampledFunction:
    """D^alpha q component-wise (NaN marker at the first node for alpha < 1)."""
    return fk.left_rl_derivative(q, order)


def _compose(lam: np.ndarray, of_L, of_gs) -> np.ndarray:
    """L's value or partial minus lambda . (each g_j's): F's at the same
    points.  The library's only composition of F, so F's values keep their
    bits wherever they are formed.  A g_j whose lambda_j is 0 is left out:
    with a finite g_j that changes no value, as x - 0 g_j = x, and a NaN or
    inf in it does not reach F."""
    out = np.array(of_L, dtype=float)
    for lj, gj in zip(lam, of_gs):
        if lj != 0.0:
            out -= lj * gj
    return out


def augmented_lagrangian(problem, lam: np.ndarray) -> PointField:
    """F = L - lambda . g as a single field with composed gradients.

    ``problem`` is any object with ``lagrangian``, ``constraints`` and
    ``check_multipliers`` (a VariationalProblem, or a ControlProblem where v
    is the control u).  F takes M points at once, as L and every g_j do.
    A constraint whose multiplier is 0 adds nothing to F and is never
    evaluated, so F at lambda = 0 is L, and a NaN or inf that such a g_j
    would return does not reach F.
    """
    lam = problem.check_multipliers(lam)
    L = problem.lagrangian
    active = np.flatnonzero(lam)
    lam, gs = lam[active], [problem.constraints[j] for j in active]

    def ev(t, x, y):
        return _compose(lam, L(t, x, y), [gj(t, x, y) for gj in gs])

    def dx(t, x, y):
        return _compose(lam, L.d_x(t, x, y), [gj.d_x(t, x, y) for gj in gs])

    def dy(t, x, y):
        return _compose(lam, L.d_y(t, x, y), [gj.d_y(t, x, y) for gj in gs])

    ev.whole_array = dx.whole_array = dy.whole_array = True
    return PointField(ev, grad_x=dx, grad_y=dy)


@dataclass(frozen=True)
class _FieldSamples:
    """The problem's fields at M points (t, x, v), one sweep each: the
    points, L's partials, and each constraint's value and partials (tuples
    over j).  F's partials are composed from them, not sampled again."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    L_dx: np.ndarray
    L_dy: np.ndarray
    g: tuple[np.ndarray, ...]
    g_dx: tuple[np.ndarray, ...]
    g_dy: tuple[np.ndarray, ...]

    def F_dx(self, lam: np.ndarray) -> np.ndarray:
        return _compose(lam, self.L_dx, self.g_dx)

    def F_dy(self, lam: np.ndarray) -> np.ndarray:
        return _compose(lam, self.L_dy, self.g_dy)


def _sample_fields(problem: VariationalProblem, t, x, v) -> _FieldSamples:
    """L and each g_j at the points (t, x, v): what the solver's gradient
    needs, and at the nodes' points what its certificate folds."""
    L, gs = problem.lagrangian, problem.constraints
    return _FieldSamples(
        t,
        x,
        v,
        L.d_x(t, x, v),
        L.d_y(t, x, v),
        tuple(gj(t, x, v) for gj in gs),
        tuple(gj.d_x(t, x, v) for gj in gs),
        tuple(gj.d_y(t, x, v) for gj in gs),
    )


def _velocity_filled(problem: VariationalProblem, q: SampledFunction) -> np.ndarray:
    """Fractional velocity with the singular first node extrapolated."""
    return fill_endpoints(frac_velocity(q, problem.order).values)


# Each check below is a sample step, the fields at the nodes' points
# (_node_points), then a fold of those samples into a report or integral.
# The solver certifies its solution with the same folds, on the samples its
# last gradient took at the same points.


def _check_candidate(problem: VariationalProblem, q: SampledFunction) -> None:
    """A ValueError naming the mismatch unless q lives on ``problem.grid``
    with ``problem.dim`` components (a variational or a control problem)."""
    if q.grid != problem.grid:
        raise ValueError(f"candidate grid {q.grid} is not the problem's {problem.grid}")
    if q.dim != problem.dim:
        raise ValueError(f"state has {q.dim} components but the problem has {problem.dim}")


def _node_points(problem: VariationalProblem, q: SampledFunction):
    """(t, x, v) at q's nodes: t, q and its filled velocity of order
    ``problem.order`` (a variational or a control problem), once q is
    checked to fit the problem."""
    _check_candidate(problem, q)
    return q.grid.nodes, q.values, _velocity_filled(problem, q)


def _trapezoid(problem: VariationalProblem, values: np.ndarray) -> float:
    """Fold: composite trapezoid of one field's node samples."""
    return np.trapezoid(values, dx=problem.grid.h)


def _el_fold(
    problem: VariationalProblem, a: np.ndarray, b: np.ndarray, band: int = DEFAULT_BAND
) -> ResidualReport:
    """Fold: report of a + D_b^alpha b from a field's node partials
    a = d_x f, b = d_v f."""
    rd = fk.right_rl_derivative(SampledFunction(problem.grid, b), problem.order)
    return make_report(problem.grid, a + rd.values, band=band)


def _integrals(problem: VariationalProblem, fields_, q: SampledFunction) -> np.ndarray:
    """int f(t, q, D^alpha q) dt by composite trapezoid, one entry per field."""
    t, x, v = _node_points(problem, q)
    return np.array([_trapezoid(problem, f(t, x, v)) for f in fields_])


def constraint_values(problem: VariationalProblem, q: SampledFunction) -> np.ndarray:
    """Vector of int g_j(t, q, D^alpha q) dt by composite trapezoid."""
    return _integrals(problem, problem.constraints, q)


def objective_value(problem: VariationalProblem, q: SampledFunction) -> float:
    """int L(t, q, D^alpha q) dt by composite trapezoid."""
    return float(_integrals(problem, [problem.lagrangian], q)[0])


def _el_type_residual(
    problem: VariationalProblem,
    field_: PointField,
    q: SampledFunction,
    band: int,
) -> ResidualReport:
    t, x, v = _node_points(problem, q)
    return _el_fold(problem, field_.d_x(t, x, v), field_.d_y(t, x, v), band)


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
