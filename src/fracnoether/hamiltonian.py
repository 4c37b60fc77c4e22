"""Fractional isoperimetric optimal control: Pontryagin-side residuals.

This layer certifies or refutes candidate quadruples (q, u, p, lambda)
against the Hamiltonian system, the stationary condition, the
Hamiltonian-form Noether law, and the autonomous energy law.  It never
synthesizes controls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import frac_kernels as fk
from .fields import PointField, VectorField
from .grids import FracOrder, Grid, SampledFunction
from .noether import SymmetryGenerator, _noether_fold
from .problems import (
    DEFAULT_BAND, ResidualReport, VariationalProblem, _node_points, augmented_lagrangian, make_report
)

__all__ = [
    "ControlProblem",
    "PontryaginExtremal",
    "hamiltonian_value",
    "pontryagin_residuals",
    "hamiltonian_noether_residual",
    "autonomous_energy_residual",
    "AutonomyError",
]


_AUTONOMY_TOL = 1e-8  # absolute


class AutonomyError(ValueError):
    """Raised when a problem required to be autonomous depends on t."""


@dataclass(frozen=True)
class ControlProblem:
    """Data of the fractional isoperimetric optimal control problem.

    lagrangian and constraints are fields of (t, q, u); dynamics maps
    (t, q, u) -> R^n and defines D^alpha q = phi(t, q, u).
    """

    order: FracOrder
    lagrangian: PointField
    dynamics: VectorField
    grid: Grid
    initial: np.ndarray
    control_dim: int = 1
    constraints: Sequence[PointField] = ()
    constraint_levels: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        if self.order.alpha > 1.0:
            raise ValueError("control layer needs 0 < alpha <= 1")
        object.__setattr__(self, "initial", np.atleast_1d(np.asarray(self.initial, float)))
        object.__setattr__(self, "constraint_levels", np.atleast_1d(np.asarray(self.constraint_levels, float)))
        if len(self.constraints) != self.constraint_levels.size:
            raise ValueError("constraint/level count mismatch")

    @property
    def dim(self) -> int:
        return self.initial.size

    @property
    def k(self) -> int:
        return len(self.constraints)

    check_multipliers = VariationalProblem.check_multipliers


@dataclass(frozen=True)
class PontryaginExtremal:
    """Candidate quadruple (state, control, costate, multipliers)."""

    q: SampledFunction
    u: SampledFunction
    p: SampledFunction
    lam: np.ndarray

    def __post_init__(self) -> None:
        if not (self.q.grid == self.u.grid == self.p.grid):
            raise ValueError("q, u, p must share one grid")
        if self.q.dim != self.p.dim:
            raise ValueError("state and costate dimensions disagree")
        object.__setattr__(self, "lam", np.atleast_1d(np.asarray(self.lam, float)))


def hamiltonian_value(
    cp: ControlProblem,
    t: float | np.ndarray,
    q: np.ndarray,
    u: np.ndarray,
    p: np.ndarray,
    lam: np.ndarray,
) -> float | np.ndarray:
    """H = F + p . phi, F = L - lambda . g: the library's only composition
    of H.  At one point (scalar t) a float; at M points, points first as for
    a field (t of shape (M,), q, u and p of shape (M, n)), shape (M,)."""
    q, u, p = (np.atleast_1d(np.asarray(x, float)) for x in (q, u, p))
    h = augmented_lagrangian(cp, lam)(t, q, u) + np.sum(p * cp.dynamics(t, q, u), axis=-1)
    return h if np.ndim(t) else float(h)


def _checked_dynamics(cp: ControlProblem, ext: PontryaginExtremal) -> np.ndarray:
    """phi at the candidate's nodes, after checking that the candidate fits
    the problem: its grid is cp.grid, its state has cp.dim components, its
    control cp.control_dim, and phi returns cp.dim components.  A mismatch
    is a ValueError that names it."""
    if ext.q.grid != cp.grid:
        raise ValueError(f"candidate grid {ext.q.grid} is not the problem's {cp.grid}")
    if ext.q.dim != cp.dim:
        raise ValueError(f"state has {ext.q.dim} components but the problem has {cp.dim}")
    if ext.u.dim != cp.control_dim:
        raise ValueError(
            f"control has {ext.u.dim} components but the problem has {cp.control_dim}"
        )
    phi = cp.dynamics(cp.grid.nodes, ext.q.values, ext.u.values)
    if phi.shape[-1] != cp.dim:
        raise ValueError(f"phi returns {phi.shape[-1]} components but the state has {cp.dim}")
    return phi


def pontryagin_residuals(
    cp: ControlProblem,
    ext: PontryaginExtremal,
    band: int = DEFAULT_BAND,
) -> tuple[ResidualReport, ResidualReport, ResidualReport]:
    """Residuals of the state equation, the costate equation, and the
    stationary condition:

        (i)   D^alpha q - d_p H        (= D^alpha q - phi, used exactly)
        (ii)  D_b^alpha p - d_q H
        (iii) d_u H
    """
    phi_values = _checked_dynamics(cp, ext)
    grid = cp.grid
    t, Q, U, P = grid.nodes, ext.q.values, ext.u.values, ext.p.values
    v = fk.left_rl_derivative(ext.q, cp.order).values
    rp = fk.right_rl_derivative(ext.p, cp.order).values
    # d_q H = d_q F + (d_q phi)^T p, and likewise in u
    F, phi = augmented_lagrangian(cp, ext.lam), cp.dynamics
    r_state = v - phi_values
    r_costate = rp - (F.d_x(t, Q, U) + np.einsum("sij,si->sj", phi.d_x(t, Q, U), P))
    r_stationary = F.d_y(t, Q, U) + np.einsum("sij,si->sj", phi.d_y(t, Q, U), P)
    return (
        make_report(grid, r_state, band=band),
        make_report(grid, r_costate, band=band),
        make_report(grid, r_stationary, band=band),
    )


def _reduced_hamiltonian(cp: ControlProblem, ext: PontryaginExtremal) -> np.ndarray:
    """H - (1 - alpha) p . D^alpha q at the nodes, the velocity filled."""
    t, Q, v = _node_points(cp, ext.q)
    P = ext.p.values
    h = hamiltonian_value(cp, t, Q, ext.u.values, P, ext.lam)
    return h - (1.0 - cp.order.alpha) * np.sum(P * v, axis=1)


def hamiltonian_noether_residual(
    cp: ControlProblem,
    ext: PontryaginExtremal,
    sym: SymmetryGenerator,
    band: int = DEFAULT_BAND,
) -> ResidualReport:
    """Residual of the Hamiltonian-form Noether law:

        D^alpha(H - (1 - alpha) p . D^alpha q, tau) - D^alpha(p, xi).
    """
    _checked_dynamics(cp, ext)
    taus, xis = sym.sampled_along(cp.grid, ext.q)
    energy = _reduced_hamiltonian(cp, ext)
    # D^alpha(p, xi) = -D^alpha(-p, xi) bitwise: negation is exact
    return _noether_fold(cp.grid, cp.order, energy, taus, -ext.p.values, xis, band)


def _check_autonomous(cp: ControlProblem) -> None:
    """Compare L, each g_j and phi at two random times on 8 random points
    (q, u), one call per field and set of times.  Every value must be finite,
    or autonomy could not be checked, and every change at most _AUTONOMY_TOL;
    either failure is an AutonomyError."""
    rng = np.random.default_rng(0)
    probes = [
        (rng.uniform(-1.0, 1.0, cp.dim), rng.uniform(-1.0, 1.0, cp.control_dim),
         rng.uniform(cp.grid.a, cp.grid.b, 2))
        for _ in range(8)
    ]
    Q, U, T = (np.array(column) for column in zip(*probes))
    fields_ = (cp.lagrangian, *cp.constraints, cp.dynamics)
    before, after = (np.concatenate([np.ravel(f(t, Q, U)) for f in fields_]) for t in T.T)
    if not (np.isfinite(before).all() and np.isfinite(after).all()):
        raise AutonomyError(
            "problem data is not finite at a probe point, so autonomy could not be checked"
        )
    if np.any(np.abs(after - before) > _AUTONOMY_TOL):
        raise AutonomyError("problem data depends explicitly on t")


def autonomous_energy_residual(
    cp: ControlProblem,
    ext: PontryaginExtremal,
    band: int = DEFAULT_BAND,
) -> ResidualReport:
    """Residual of D^alpha[ H + (alpha - 1) p . D^alpha q ] for autonomous
    data: the fractional replacement for conservation of the Hamiltonian.
    """
    _checked_dynamics(cp, ext)
    _check_autonomous(cp)
    grid = cp.grid
    r = fk.left_rl_derivative(SampledFunction(grid, _reduced_hamiltonian(cp, ext)), cp.order)
    return make_report(grid, r.values, band=band)
