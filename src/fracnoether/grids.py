"""Uniform time meshes and sampled trajectories.

Everything downstream (kernels, residual checks, the solver) lives on a
uniform grid over [a, b].  Sampled values are stored as an (m+1, dim) array;
the two endpoint nodes are allowed to carry NaN markers because the
Riemann-Liouville derivative of a generic function is singular there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["FracOrder", "Grid", "SampledFunction", "sample"]


@dataclass(frozen=True)
class FracOrder:
    """Order of fractional differentiation/integration."""

    alpha: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"fractional order must be positive, got {self.alpha}")

    @property
    def is_classical(self) -> bool:
        return self.alpha == 1.0


@dataclass(frozen=True)
class Grid:
    """Uniform mesh t_i = a + i*h, i = 0..m, with h = (b - a) / m."""

    a: float
    b: float
    m: int

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        if self.m < 2:
            raise ValueError(f"need at least 2 intervals, got m = {self.m}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.m

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.m + 1)

    def refined(self, factor: int) -> "Grid":
        return Grid(self.a, self.b, self.m * factor)


@dataclass(frozen=True)
class SampledFunction:
    """Vector-valued samples on a grid; shape (m+1, dim).

    Interior values must be finite; the endpoint nodes may be NaN to flag the
    singular-boundary values of fractional derivatives.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.m + 1:
            raise ValueError(f"expected (m+1, dim) values, got shape {v.shape}")
        if not np.isfinite(v[1:-1]).all():
            raise ValueError("non-finite sample at an interior node")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def component(self, i: int) -> np.ndarray:
        return self.values[:, i]

    @property
    def scalar(self) -> np.ndarray:
        if self.dim != 1:
            raise ValueError(f"expected scalar samples, got dim = {self.dim}")
        return self.values[:, 0]

    def filled(self) -> "SampledFunction":
        """Copy with NaN endpoint markers replaced by linear extrapolation."""
        return SampledFunction(self.grid, fill_endpoints(self.values))

    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        _check_same_grid(self, other)
        return SampledFunction(self.grid, self.values + other.values)

    def __mul__(self, c: float) -> "SampledFunction":
        return SampledFunction(self.grid, self.values * c)

    __rmul__ = __mul__


def _check_same_grid(f: SampledFunction, g: SampledFunction) -> None:
    if f.grid != g.grid:
        raise ValueError("sampled functions live on different grids")


def fill_endpoints(values: np.ndarray) -> np.ndarray:
    """Replace NaN at the first/last node by linear extrapolation inward."""
    v = np.array(values, dtype=float)
    one_d = v.ndim == 1
    if one_d:
        v = v[:, None]
    bad0 = ~np.isfinite(v[0])
    if bad0.any():
        v[0, bad0] = 2.0 * v[1, bad0] - v[2, bad0]
    badm = ~np.isfinite(v[-1])
    if badm.any():
        v[-1, badm] = 2.0 * v[-2, badm] - v[-3, badm]
    return v[:, 0] if one_d else v


def sample(grid: Grid, fn: Callable[[float], float | np.ndarray]) -> SampledFunction:
    """Sample a callable t -> scalar or t -> R^dim on the grid nodes: in one
    call on all nodes when ``fn`` is marked ``whole_array`` (it then returns
    (M,) or (dim, M)), else one call per node."""
    if getattr(fn, "whole_array", False):
        return SampledFunction(grid, np.asarray(fn(grid.nodes), dtype=float).T)
    rows = [np.atleast_1d(np.asarray(fn(t), dtype=float)) for t in grid.nodes]
    return SampledFunction(grid, np.vstack(rows))
