"""Pointwise integrand fields L(t, q, v) and their partial derivatives.

Analytic gradients are used when supplied; otherwise central finite
differences with a relative step.  A self-check compares supplied gradients
against the finite-difference ones on random probes.

The ``*_along`` methods sample a field at the M points (t_s, X_s, Y_s) of a
trajectory.  A field is ``whole_array`` when its evaluator and every given
partial carry ``whole_array = True``, the mark of the callables that
``ProblemSpec.compile`` returns: they take t of shape (M,) and x, y of shape
(n, M), so each ``*_along`` method makes one call over all the points.  For
any other callable, ``_nodewise`` is the fallback: the library's only loop
over points calling a field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["PointField", "VectorField"]

_FD_STEP = 1e-6
# random points and relative tolerance of PointField.check_partials
_PARTIALS_PROBES = 10
_PARTIALS_TOL = 1e-6


def _central(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central differences of f in each component x_i along x's first axis,
    with step _FD_STEP * (1 + |x_i|); the i axis is last in the result.

    x is one point (n,) with f scalar or (k,)-valued, giving (n,) or (k, n),
    or a batch (n, M) with f returning (k, M), giving (M, k, n).
    """
    cols = []
    for i in range(len(x)):
        step = _FD_STEP * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        cols.append((f(xp) - f(xm)) / (2.0 * step))
    return np.array(cols).T


def _whole_array(*fns: Optional[Callable]) -> bool:
    """Whether every given callable is marked as taking whole arrays."""
    return all(getattr(f, "whole_array", False) for f in fns if f is not None)


def _nodewise(fn: Callable, t: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Stack fn(t_s, X_s, Y_s) over the points s = 0..M-1."""
    return np.array([fn(t[s], X[s], Y[s]) for s in range(len(t))])


def _sweep(
    whole_array: bool, fn: Callable, t: np.ndarray, X: np.ndarray, Y: np.ndarray
) -> np.ndarray:
    """fn at the points (t_s, X_s, Y_s), points on the first axis: one call
    with x, y of shape (n, M) for a whole-array field, else one per point.
    The whole-array result of ``fn`` must have the points first already, as
    a PointField's values (M,) and the partials from ``_central`` do."""
    if whole_array:
        return fn(t, np.asarray(X, float).T, np.asarray(Y, float).T)
    return _nodewise(fn, t, X, Y)


@dataclass(frozen=True)
class PointField:
    """Scalar field (t, x, y) -> R with x, y in R^n (e.g. L(t, q, D^alpha q)).

    grad_x / grad_y, when given, must return arrays of shape (n,).  A
    whole-array field also takes t of shape (M,) and x, y of shape (n, M);
    then the value has shape (M,) and d_x, d_y have shape (M, n).
    """

    evaluator: Callable[[float, np.ndarray, np.ndarray], float]
    grad_x: Optional[Callable[[float, np.ndarray, np.ndarray], np.ndarray]] = None
    grad_y: Optional[Callable[[float, np.ndarray, np.ndarray], np.ndarray]] = None

    @property
    def whole_array(self) -> bool:
        return _whole_array(self.evaluator, self.grad_x, self.grad_y)

    def __call__(self, t: float, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
        value = self.evaluator(t, np.asarray(x, float), np.asarray(y, float))
        # isinstance, not np.ndim: this runs once per point for opaque fields
        if isinstance(t, np.ndarray) and t.ndim > 0:
            return np.asarray(value, float)
        return float(value)

    def d_x(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        if self.grad_x is not None:
            return np.atleast_1d(np.asarray(self.grad_x(t, x, y), float))
        return _central(lambda xx: self.evaluator(t, xx, y), x)

    def d_y(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        if self.grad_y is not None:
            return np.atleast_1d(np.asarray(self.grad_y(t, x, y), float))
        return _central(lambda yy: self.evaluator(t, x, yy), y)

    def along(self, t: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Values at the points (t_s, X_s, Y_s); shape (M,)."""
        return _sweep(self.whole_array, self, t, X, Y)

    def grad_along(
        self, t: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(d_x, d_y) at the points (t_s, X_s, Y_s); each of shape (M, n)."""
        return _sweep(self.whole_array, self.d_x, t, X, Y), self.d_y_along(t, X, Y)

    def d_y_along(self, t: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """d_y alone at the points (t_s, X_s, Y_s); shape (M, n)."""
        return _sweep(self.whole_array, self.d_y, t, X, Y)

    def hessian_along(
        self, t: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Second partials at the points by central differences of d_x and
        d_y, each of shape (M, n, n): Hxx[s, k, i] = d(d_x)_k / dx_i,
        Hxy[s, k, i] = d(d_x)_k / dy_i and Hyy[s, k, i] = d(d_y)_k / dy_i."""
        X = np.asarray(X, float)
        Y = np.asarray(Y, float)
        n = X.shape[1]
        Hxx = _central(lambda XT: _sweep(self.whole_array, self.d_x, t, XT.T, Y).T, X.T)
        H = _central(lambda YT: np.hstack(self.grad_along(t, X, YT.T)).T, Y.T)
        return Hxx, H[:, :n], H[:, n:]

    def check_partials(
        self, t_range: tuple[float, float], dim: int, rng: np.random.Generator
    ) -> None:
        """Verify analytic gradients against finite differences."""
        if self.grad_x is None and self.grad_y is None:
            return
        for _ in range(_PARTIALS_PROBES):
            t = rng.uniform(*t_range)
            x = rng.uniform(-1.0, 1.0, dim)
            y = rng.uniform(-1.0, 1.0, dim)
            bound = _PARTIALS_TOL * (1.0 + abs(self(t, x, y))) * 100
            if self.grad_x is not None:
                fd = _central(lambda xx: self.evaluator(t, xx, y), x)
                if np.max(np.abs(self.d_x(t, x, y) - fd)) > bound:
                    raise ValueError("grad_x disagrees with finite differences")
            if self.grad_y is not None:
                fd = _central(lambda yy: self.evaluator(t, x, yy), y)
                if np.max(np.abs(self.d_y(t, x, y) - fd)) > bound:
                    raise ValueError("grad_y disagrees with finite differences")


@dataclass(frozen=True)
class VectorField:
    """Vector field (t, x, y) -> R^n (e.g. control dynamics phi(t, q, u)).

    jac_x / jac_y, when given, return Jacobians of shape (n, dim_x/dim_y).
    A whole-array field also takes t of shape (M,) and x, y of shape
    (dim_x, M) and (dim_y, M); then the value has shape (n, M) and d_x, d_y
    have shapes (M, n, dim_x) and (M, n, dim_y).
    """

    evaluator: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    jac_x: Optional[Callable[[float, np.ndarray, np.ndarray], np.ndarray]] = None
    jac_y: Optional[Callable[[float, np.ndarray, np.ndarray], np.ndarray]] = None

    @property
    def whole_array(self) -> bool:
        return _whole_array(self.evaluator, self.jac_x, self.jac_y)

    def __call__(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.atleast_1d(np.asarray(self.evaluator(t, np.asarray(x, float), np.asarray(y, float)), float))
        return out

    def d_x(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.jac_x is not None:
            return np.atleast_2d(np.asarray(self.jac_x(t, x, y), float))
        return _central(lambda xx: self(t, xx, y), np.asarray(x, float))

    def d_y(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.jac_y is not None:
            return np.atleast_2d(np.asarray(self.jac_y(t, x, y), float))
        return _central(lambda yy: self(t, x, yy), np.asarray(y, float))

    def along(self, t: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Values at the points (t_s, X_s, Y_s); shape (M, n)."""
        if self.whole_array:
            return self(t, np.asarray(X, float).T, np.asarray(Y, float).T).T
        return _nodewise(self, t, X, Y)

    def jac_along(
        self, t: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(d_x, d_y) at the points; shapes (M, n, dim_x) and (M, n, dim_y)."""
        whole = self.whole_array
        return _sweep(whole, self.d_x, t, X, Y), _sweep(whole, self.d_y, t, X, Y)
