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
from .fields import PointField, _pointwise
from .grids import FracOrder, Grid, SampledFunction
from .problems import (
    DEFAULT_BAND,
    ResidualReport,
    VariationalProblem,
    _node_points,
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
    """Infinitesimal fields of t -> t + eps*tau(t,q), q -> q + eps*xi(t,q).

    tau and xi are called once per point, or once per sweep when marked
    ``whole_array``, as a ``PointField``'s callables are.  Per-point ones
    must be functions of their arguments: a sweep at the nodes and a
    trajectory bitwise equal to the previous sweep's returns the previous
    values without calling them, so after changing a parameter that tau or
    xi reads, build a new generator.
    """

    tau: Callable[[float, np.ndarray], float]
    xi: Callable[[float, np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", _pointwise(self.tau))
        object.__setattr__(self, "xi", _pointwise(self.xi, ndim=1))

    def sampled_along(self, grid: Grid, q: SampledFunction) -> tuple[np.ndarray, np.ndarray]:
        """(tau, xi) at the nodes, shapes (M,) and (M, dim), each from one
        call on all nodes; xi must have q's dim components."""
        t, Q = grid.nodes, q.values
        taus = np.asarray(self.tau(t, Q), float)
        xis = np.asarray(self.xi(t, Q), float).reshape(t.size, -1)
        if xis.shape[1] != q.dim:
            raise ValueError(f"xi has {xis.shape[1]} components but q has {q.dim}")
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


def _noether_fold(
    grid: Grid, order: FracOrder, energy, taus, momentum: np.ndarray, xis: np.ndarray, band: int
) -> ResidualReport:
    """Fold: report of D^alpha(energy, tau) + D^alpha(momentum, xi) from node
    samples, without the tau term when energy is None.  The Lagrangian,
    momentum and Hamiltonian laws all fold here."""

    def pair(f: np.ndarray, h: np.ndarray) -> np.ndarray:
        return frac_pair_operator(SampledFunction(grid, f), SampledFunction(grid, h), order).values

    r = pair(momentum, xis)
    if energy is not None:
        r = pair(energy, taus) + r
    return make_report(grid, r, band=band)


def _zero_tau_xis(gen: SymmetryGenerator, grid: Grid, q: SampledFunction, law: str) -> np.ndarray:
    """xi at the nodes, for a law that needs tau exactly 0 there (NaN is not)."""
    taus, xis = gen.sampled_along(grid, q)
    if np.any(taus != 0.0):
        raise ValueError(f"{law} requires tau == 0")
    return xis


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
    xis = _zero_tau_xis(gen, problem.grid, q, "the necessary condition of invariance")
    F = augmented_lagrangian(problem, lam)
    t, x, v = _node_points(problem, q)
    a, b = F.d_x(t, x, v), F.d_y(t, x, v)
    dxi = _velocity_filled(problem, SampledFunction(problem.grid, xis))
    r = np.sum(a * xis, axis=1) + np.sum(b * dxi, axis=1)
    return make_report(problem.grid, r, band=band)


def momentum_law_residual(
    problem: VariationalProblem,
    lam: np.ndarray,
    q: SampledFunction,
    gen: SymmetryGenerator,
    band: int = DEFAULT_BAND,
) -> ResidualReport:
    """Residual of D^alpha(d_v F, xi): fractional conservation of momentum,
    the tau == 0 case of the Noether law."""
    xis = _zero_tau_xis(gen, problem.grid, q, "the momentum law")
    b = augmented_lagrangian(problem, lam).d_y(*_node_points(problem, q))
    return _noether_fold(problem.grid, problem.order, None, None, b, xis, band)


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
    taus, xis = gen.sampled_along(problem.grid, q)
    F = augmented_lagrangian(problem, lam)
    t, x, v = _node_points(problem, q)
    b = F.d_y(t, x, v)
    energy = F(t, x, v) - problem.order.alpha * np.sum(b * v, axis=1)
    return _noether_fold(problem.grid, problem.order, energy, taus, b, xis, band)


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
    first: int,
    last: int,
) -> np.ndarray:
    """Integrand of the transformed functional, in the original parameter.

    Builds (t-bar, q-bar) samples, resamples q-bar on a uniform grid over the
    transformed window (the fractional operator's lower limit moves with the
    window, matching the time-translation computation for autonomous data),
    and returns F(t-bar, q-bar, D^alpha q-bar) * dt-bar/dt at the original
    nodes first..last, ready for quadrature over any subinterval there.  F
    is evaluated only at the resampling nodes that bracket those t-bar.
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
    vres = _velocity_filled(problem, SampledFunction(tgrid, qres))
    # s[0] = tbar[0] and s[-1] = tbar[-1], so the bracket is inside the grid;
    # interpolating between the same two nodes keeps np.interp's bits
    lo = np.searchsorted(s, tbar[first], side="right") - 1
    hi = np.searchsorted(s, tbar[last], side="left") + 1
    fres = F(s[lo:hi], qres[lo:hi], vres[lo:hi])
    fbar = np.interp(tbar[first : last + 1], s[lo:hi], fres)
    return fbar * np.gradient(tbar, t)[first : last + 1]


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
    windows = [(round(lo_f * grid.m), round(hi_f * grid.m)) for lo_f, hi_f in _SUBINTERVALS]
    first = min(j0 for j0, _ in windows)
    last = max(j1 for _, j1 in windows)

    integrands = {
        eps: _transformed_value(problem, F, q, taus, xis, eps, first, last)
        for eps in (_EPS, -_EPS, _EPS / 2.0, -_EPS / 2.0)
    }

    estimates = []
    for j0, j1 in windows:

        def ival(eps: float) -> float:
            values = integrands[eps][j0 - first : j1 - first + 1]
            return float(np.trapezoid(values, t[j0 : j1 + 1]))

        d1 = (ival(_EPS) - ival(-_EPS)) / (2.0 * _EPS)
        d2 = (ival(_EPS / 2.0) - ival(-_EPS / 2.0)) / _EPS
        estimates.append((4.0 * d2 - d1) / 3.0)

    est = np.array(estimates)
    probe_grid = Grid(0.0, 1.0, len(estimates) - 1)
    sup = float(np.max(np.abs(est)))
    l2 = float(np.sqrt(np.mean(est * est)))
    return ResidualReport(probe_grid, SampledFunction(probe_grid, est), sup, l2, 0)
