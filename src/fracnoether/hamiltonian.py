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
from .grids import FracOrder, Grid, SampledFunction, fill_endpoints
from .noether import SymmetryGenerator, frac_pair_operator
from .problems import DEFAULT_BAND, ResidualReport, VariationalProblem, augmented_lagrangian, make_report

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
    t: float,
    q: np.ndarray,
    u: np.ndarray,
    p: np.ndarray,
    lam: np.ndarray,
) -> float:
    """H = F + p . phi at one point, F = L - lambda . g."""
    q, u, p = (np.atleast_1d(np.asarray(x, float)) for x in (q, u, p))
    return augmented_lagrangian(cp, lam)(t, q, u) + float(np.dot(p, cp.dynamics(t, q, u)))


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
    grid = ext.q.grid
    t, Q, U, P = grid.nodes, ext.q.values, ext.u.values, ext.p.values
    v = fk.left_rl_derivative(ext.q, cp.order).values
    rp = fk.right_rl_derivative(ext.p, cp.order).values
    # d_q H = d_q F + (d_q phi)^T p, and likewise in u
    F, phi = augmented_lagrangian(cp, ext.lam), cp.dynamics
    r_state = v - phi(t, Q, U)
    r_costate = rp - (F.d_x(t, Q, U) + np.einsum("sij,si->sj", phi.d_x(t, Q, U), P))
    r_stationary = F.d_y(t, Q, U) + np.einsum("sij,si->sj", phi.d_y(t, Q, U), P)
    return (
        make_report(grid, r_state, band=band),
        make_report(grid, r_costate, band=band),
        make_report(grid, r_stationary, band=band),
    )


def _hamiltonian_samples(
    cp: ControlProblem, ext: PontryaginExtremal
) -> tuple[np.ndarray, np.ndarray]:
    """(H(t_j), p_j . D^alpha q_j) along the candidate, velocity filled."""
    t, Q, U, P = ext.q.grid.nodes, ext.q.values, ext.u.values, ext.p.values
    v = fill_endpoints(fk.left_rl_derivative(ext.q, cp.order).values)
    F = augmented_lagrangian(cp, ext.lam)
    hs = F(t, Q, U) + np.sum(P * cp.dynamics(t, Q, U), axis=1)
    return hs, np.sum(P * v, axis=1)


def hamiltonian_noether_residual(
    cp: ControlProblem,
    ext: PontryaginExtremal,
    sym: SymmetryGenerator,
    band: int = DEFAULT_BAND,
) -> ResidualReport:
    """Residual of the Hamiltonian-form Noether law:

        D^alpha(H - (1 - alpha) p . D^alpha q, tau) - D^alpha(p, xi).
    """
    grid = ext.q.grid
    taus, xis = sym.sampled_along(grid, ext.q)
    hs, pv = _hamiltonian_samples(cp, ext)
    hhat = hs - (1.0 - cp.order.alpha) * pv
    term1 = frac_pair_operator(
        SampledFunction(grid, hhat), SampledFunction(grid, taus), cp.order
    )
    term2 = frac_pair_operator(ext.p, SampledFunction(grid, xis), cp.order)
    return make_report(grid, term1.values - term2.values, band=band)


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
    _check_autonomous(cp)
    grid = ext.q.grid
    hs, pv = _hamiltonian_samples(cp, ext)
    energy = hs + (cp.order.alpha - 1.0) * pv
    r = fk.left_rl_derivative(SampledFunction(grid, energy), cp.order)
    return make_report(grid, r.values, band=band)
