"""Fractional conservation-law machinery.

The central object is the pair operator

    D^gamma(f, h) = -h . D_b^gamma f + f . D_t^gamma h,

a fractional surrogate for (f h)'.  The Noether laws state that specific
pair-operator expressions built from the augmented Lagrangian vanish along
extremals of invariant functionals; they are evaluated here as residual
fields, not as pointwise-constant scalars, because for alpha < 1 the
operator is not a total derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import frac_kernels as fk
from .fields import PointField
from .grids import FracOrder, Grid, SampledFunction, fill_endpoints
from .problems import (
    DEFAULT_BAND,
    ResidualReport,
    VariationalProblem,
    _field_gradients_along,
    _velocity_filled,
    augmented_lagrangian,
    make_report,
)

__all__ = [
    "SymmetryGenerator",
    "frac_pair_operator",
    "invariance_necessary_condition",
    "momentum_law_residual",
    "noether_law_residual",
    "invariance_first_order_check",
]


@dataclass(frozen=True)
class SymmetryGenerator:
    """Infinitesimal fields of t -> t + eps*tau(t,q), q -> q + eps*xi(t,q)."""

    tau: Callable[[float, np.ndarray], float]
    xi: Callable[[float, np.ndarray], np.ndarray]

    def sampled_along(
        self, grid: Grid, q: SampledFunction
    ) -> tuple[np.ndarray, np.ndarray]:
        """(tau, xi) at the nodes, shapes (M,) and (M, dim): one call on all
        nodes for a callable marked ``whole_array``, else one per node."""
        t, Q = grid.nodes, q.values
        if getattr(self.tau, "whole_array", False):
            taus = np.asarray(self.tau(t, Q.T), float)
        else:
            taus = np.array([float(self.tau(t[j], Q[j])) for j in range(t.size)])
        if getattr(self.xi, "whole_array", False):
            xis = np.asarray(self.xi(t, Q.T), float).reshape(-1, t.size).T
        else:
            xis = np.vstack(
                [np.atleast_1d(np.asarray(self.xi(t[j], Q[j]), float)) for j in range(t.size)]
            )
        return taus, xis


def frac_pair_operator(
    f: SampledFunction, h: SampledFunction, order: FracOrder
) -> SampledFunction:
    """D^gamma(f, h) node-wise; vector pairs are contracted component-wise.

    NaN markers at both endpoint nodes for gamma < 1 (one singular operator
    on each side); gamma = 1 falls back to f'h + fh' via central differences.
    """
    if f.grid != h.grid:
        raise ValueError("pair operator needs both arguments on one grid")
    if f.dim != h.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {h.dim}")
    right_f = fk.right_rl_derivative(f, order).values
    left_h = fk.left_rl_derivative(h, order).values
    return SampledFunction(f.grid, np.sum(-h.values * right_f + f.values * left_h, axis=1))


def invariance_necessary_condition(
    problem: VariationalProblem,
    lam: np.ndarray,
    q: SampledFunction,
    gen: SymmetryGenerator,
    band: int = DEFAULT_BAND,
) -> ResidualReport:
    """Residual of d_q F . xi + d_v F . D^alpha[xi(t, q(t))].

    Requires tau == 0: this is the no-time-transformation notion of
    invariance.  xi(t, q(t)) is differentiated as a sampled composite
    function of t (there is no fractional chain rule to apply instead).
    """
    taus, xis = gen.sampled_along(problem.grid, q)
    if np.max(np.abs(taus)) > 0.0:
        raise ValueError("necessary condition of invariance requires tau == 0")
    F = augmented_lagrangian(problem, lam)
    a, b = _field_gradients_along(problem, F, q)
    dxi = fk.left_rl_derivative(SampledFunction(problem.grid, xis), problem.order)
    r = np.sum(a * xis, axis=1) + np.sum(b * fill_endpoints(dxi.values), axis=1)
    return make_report(problem.grid, r, band=band)


def momentum_law_residual(
    problem: VariationalProblem,
    lam: np.ndarray,
    q: SampledFunction,
    gen: SymmetryGenerator,
    band: int = DEFAULT_BAND,
) -> ResidualReport:
    """Residual of D^alpha(d_v F, xi): fractional conservation of momentum."""
    taus, xis = gen.sampled_along(problem.grid, q)
    if np.max(np.abs(taus)) > 0.0:
        raise ValueError("momentum law applies to generators with tau == 0")
    F = augmented_lagrangian(problem, lam)
    b = F.d_y_along(problem.grid.nodes, q.values, _velocity_filled(problem, q))
    r = frac_pair_operator(
        SampledFunction(problem.grid, b),
        SampledFunction(problem.grid, xis),
        problem.order,
    )
    return make_report(problem.grid, r.values, band=band)


def noether_law_residual(
    problem: VariationalProblem,
    lam: np.ndarray,
    q: SampledFunction,
    gen: SymmetryGenerator,
    band: int = DEFAULT_BAND,
) -> ResidualReport:
    """Residual of the full fractional isoperimetric Noether law:

        D^alpha(F - alpha d_v F . D^alpha q, tau) + D^alpha(d_v F, xi).
    """
    grid = problem.grid
    taus, xis = gen.sampled_along(grid, q)
    F = augmented_lagrangian(problem, lam)
    v = _velocity_filled(problem, q)
    b = F.d_y_along(grid.nodes, q.values, v)
    fhat = F.along(grid.nodes, q.values, v) - problem.order.alpha * np.sum(b * v, axis=1)
    term1 = frac_pair_operator(
        SampledFunction(grid, fhat), SampledFunction(grid, taus), problem.order
    )
    term2 = frac_pair_operator(
        SampledFunction(grid, b), SampledFunction(grid, xis), problem.order
    )
    return make_report(grid, term1.values + term2.values, band=band)


# --------------------------------------------------------------------------
# first-order invariance probe
# --------------------------------------------------------------------------

#: Nested subintervals (as fractions of [a, b]) over which dI/d(eps) is probed.
_SUBINTERVALS = ((0.05, 0.95), (0.1, 0.9), (0.2, 0.8))
_EPS = 1e-4


def _transformed_value(
    problem: VariationalProblem,
    F: PointField,
    q: SampledFunction,
    taus: np.ndarray,
    xis: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Integrand of the transformed functional, in the original parameter.

    Builds (t-bar, q-bar) samples, resamples q-bar on a uniform grid over the
    transformed window (the fractional operator's lower limit moves with the
    window, matching the time-translation computation for autonomous data),
    and returns F(t-bar, q-bar, D^alpha q-bar) * dt-bar/dt at the original
    nodes, ready for quadrature over any fixed subinterval of [a, b].
    """
    grid = problem.grid
    t = grid.nodes
    tbar = t + eps * taus
    if np.any(np.diff(tbar) <= 0.0):
        raise ValueError("transformed time map is not monotone for the probe eps")
    qbar = q.values + eps * xis

    tgrid = Grid(float(tbar[0]), float(tbar[-1]), grid.m)
    s = tgrid.nodes
    qres = np.column_stack(
        [np.interp(s, tbar, qbar[:, i]) for i in range(qbar.shape[1])]
    )
    vres = fill_endpoints(
        fk.left_rl_derivative(SampledFunction(tgrid, qres), problem.order).values
    )
    fres = F.along(s, qres, vres)
    fbar = np.interp(tbar, s, fres)
    return fbar * np.gradient(tbar, t)


def invariance_first_order_check(
    problem: VariationalProblem,
    lam: np.ndarray,
    q: SampledFunction,
    gen: SymmetryGenerator,
) -> ResidualReport:
    """Centered, Richardson-combined estimate of dI/d(eps) at eps = 0.

    One estimate per nested subinterval; the report's pointwise samples hold
    the per-subinterval values (not a time profile) and the sup norm is
    their largest magnitude.  Near-zero certifies first-order invariance.
    """
    F = augmented_lagrangian(problem, lam)
    grid = problem.grid
    t = grid.nodes
    taus, xis = gen.sampled_along(grid, q)

    integrands = {
        eps: _transformed_value(problem, F, q, taus, xis, eps)
        for eps in (_EPS, -_EPS, _EPS / 2.0, -_EPS / 2.0)
    }

    estimates = []
    for lo_f, hi_f in _SUBINTERVALS:
        j0 = int(round(lo_f * grid.m))
        j1 = int(round(hi_f * grid.m))

        def ival(eps: float) -> float:
            return float(np.trapezoid(integrands[eps][j0 : j1 + 1], t[j0 : j1 + 1]))

        d1 = (ival(_EPS) - ival(-_EPS)) / (2.0 * _EPS)
        d2 = (ival(_EPS / 2.0) - ival(-_EPS / 2.0)) / _EPS
        estimates.append((4.0 * d2 - d1) / 3.0)

    est = np.array(estimates)
    probe_grid = Grid(0.0, 1.0, len(estimates) - 1)
    sup = float(np.max(np.abs(est)))
    l2 = float(np.sqrt(np.mean(est * est)))
    return ResidualReport(probe_grid, SampledFunction(probe_grid, est), sup, l2, 0)
