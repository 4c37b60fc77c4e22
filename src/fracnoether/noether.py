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
from .fields import _pointwise
from .gammafn import reciprocal_gamma
from .grids import FracOrder, Grid, SampledFunction, fill_endpoints
from .problems import (
    DEFAULT_BAND,
    ResidualReport,
    VariationalProblem,
    _node_points,
    _trapezoid,
    augmented_lagrangian,
    frac_velocity,
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

    def sampled_along(self, q: SampledFunction) -> tuple[np.ndarray, np.ndarray]:
        """(tau, xi) at q's nodes, shapes (M,) and (M, dim), each from one
        call on all nodes; tau must have one value per node, as a float or a
        one-element array, and xi q's dim components."""
        t, Q = q.grid.nodes, q.values
        taus = np.asarray(self.tau(t, Q), float)
        if taus.size != t.size:
            raise ValueError(f"tau has shape {taus.shape} but there are {t.size} nodes")
        taus = taus.reshape(t.size)
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


def _zero_tau_xis(gen: SymmetryGenerator, q: SampledFunction, law: str) -> np.ndarray:
    """xi at q's nodes, for a law that needs tau exactly 0 there (NaN is not)."""
    taus, xis = gen.sampled_along(q)
    if np.any(taus != 0.0):
        raise ValueError(f"{law} requires tau == 0")
    return xis


def _invariance_integrand(
    problem: VariationalProblem,
    lam: np.ndarray,
    q: SampledFunction,
    points: tuple[np.ndarray, np.ndarray, np.ndarray],
    taus: np.ndarray,
    xis: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(tau F, r) at q's nodes, whose ``points`` (t, x, v) are
    ``_node_points(problem, q)``, so that dI/d(eps) over [t_i, t_j] is
    [tau F]_i^j + int_i^j r dt.  With Olver's characteristic eta = xi - tau q',

        r = d_q F . eta + d_v F . (D^alpha eta + alpha tau(a) q(a) (t - a)^(-alpha-1) / Gamma(1 - alpha)),

    the last term from the moving lower limit, added at nodes 1..m; node 0
    is filled as the velocity is.  With tau == 0 at every node, eta is xi
    and F's value is not sampled.
    """
    t, x, v = points
    F, alpha = augmented_lagrangian(problem, lam), problem.order.alpha
    eta, tau_F = xis, np.zeros(t.size)
    if np.any(taus != 0.0):
        eta = xis - taus[:, None] * fk.left_rl_derivative(q, FracOrder(1.0)).values
        tau_F = taus * F(t, x, v)
    d_eta = frac_velocity(SampledFunction(problem.grid, eta), problem.order).values
    lower = taus[0] * q.values[0]
    if alpha < 1.0 and np.any(lower != 0.0):
        limit = alpha * reciprocal_gamma(1.0 - alpha) * lower
        d_eta[1:] += limit * (t[1:, None] - t[0]) ** (-alpha - 1.0)
    d_eta = fill_endpoints(d_eta)
    r = np.sum(F.d_x(t, x, v) * eta, axis=1) + np.sum(F.d_y(t, x, v) * d_eta, axis=1)
    return tau_F, r


def invariance_necessary_condition(
    problem: VariationalProblem,
    lam: np.ndarray,
    q: SampledFunction,
    gen: SymmetryGenerator,
    band: int = DEFAULT_BAND,
) -> ResidualReport:
    """Residual of d_q F . xi + d_v F . D^alpha[xi(t, q(t))].

    Requires tau == 0: this is the no-time-transformation notion of
    invariance, the invariance integrand r with eta = xi.  xi(t, q(t)) is
    differentiated as a sampled composite function of t (there is no
    fractional chain rule to apply instead).
    """
    points = _node_points(problem, q)
    xis = _zero_tau_xis(gen, q, "the necessary condition of invariance")
    _, r = _invariance_integrand(problem, lam, q, points, np.zeros(len(xis)), xis)
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
    points = _node_points(problem, q)
    xis = _zero_tau_xis(gen, q, "the momentum law")
    b = augmented_lagrangian(problem, lam).d_y(*points)
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
    t, x, v = _node_points(problem, q)
    taus, xis = gen.sampled_along(q)
    F = augmented_lagrangian(problem, lam)
    b = F.d_y(t, x, v)
    energy = F(t, x, v) - problem.order.alpha * np.sum(b * v, axis=1)
    return _noether_fold(problem.grid, problem.order, energy, taus, b, xis, band)


#: Nested subintervals (as fractions of [a, b]) over which dI/d(eps) is taken.
_SUBINTERVALS = ((0.05, 0.95), (0.1, 0.9), (0.2, 0.8))


def invariance_first_order_check(
    problem: VariationalProblem,
    lam: np.ndarray,
    q: SampledFunction,
    gen: SymmetryGenerator,
) -> ResidualReport:
    """dI/d(eps) at eps = 0 over each nested subinterval [t_i, t_j]:
    [tau F]_i^j plus the trapezoid integral of the invariance integrand.

    The report's pointwise samples hold the per-subinterval values (not a
    time profile) and the sup norm is their largest magnitude.  Near-zero
    certifies first-order invariance.
    """
    grid = problem.grid
    points = _node_points(problem, q)
    tau_F, r = _invariance_integrand(problem, lam, q, points, *gen.sampled_along(q))
    windows = [(round(lo * grid.m), round(hi * grid.m)) for lo, hi in _SUBINTERVALS]
    est = np.array([tau_F[j] - tau_F[i] + _trapezoid(problem, r[i : j + 1]) for i, j in windows])
    rows = Grid(0.0, 1.0, len(est) - 1)
    sup = float(np.max(np.abs(est)))
    l2 = float(np.sqrt(np.mean(est * est)))
    return ResidualReport(rows, SampledFunction(rows, est), sup, l2, 0)
