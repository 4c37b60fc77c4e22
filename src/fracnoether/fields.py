"""Pointwise integrand fields L(t, q, v) and their partial derivatives.

Analytic gradients are used when supplied; otherwise central finite
differences with a relative step.  Second partials are forward differences
of the gradients with the same step, from base partials at the point
itself: the caller's, when it holds them (the solver passes its gradient's
samples), else one evaluation of each gradient there.  A self-check
compares supplied gradients against the finite-difference ones on random
probes.

A field takes one point (scalar t, x and y of shape (n,)) or M points at
once, points first as in ``SampledFunction``: t of shape (M,) and x, y of
shape (M, n), so a trajectory's samples go in as they are.  Every callable
that enters the library takes that form: ``_pointwise`` passes through the
callables marked ``whole_array`` (those that ``ProblemSpec.compile`` returns,
and any user callable so marked), and wraps any other one once, at
construction, in the library's only loop over points calling user code,
which keeps each callable's last sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["PointField", "VectorField"]

_FD_STEP = 1e-6
# random points and relative tolerance of PointField.check_partials
_PARTIALS_PROBES = 10
_PARTIALS_TOL = 1e-4


def _differences(
    f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, base: Optional[np.ndarray] = None
) -> np.ndarray:
    """Finite differences of f in each component x_i along x's last axis,
    with step _FD_STEP * (1 + |x_i|); the i axis is last in the result.
    Central differences, or with ``base`` = f(x) given, forward differences
    (f(x + step e_i) - base) / step: half the evaluations, with an O(step)
    error in place of O(step^2).

    x is one point (n,) with f scalar or (k,)-valued, giving (n,) or (k, n),
    or M points (M, n) with f returning (M,) or (M, k), giving (M, n) or
    (M, k, n).
    """
    cols = []
    for i in range(x.shape[-1]):
        step = _FD_STEP * (1.0 + np.abs(x[..., i]))
        xp = x.copy()
        xp[..., i] += step
        if base is None:
            xm = x.copy()
            xm[..., i] -= step
            diff, width = f(xp) - f(xm), 2.0 * step
        else:
            diff, width = f(xp) - base, step
        # transposed, the point axis is last and the (M,) step broadcasts on it
        cols.append((np.transpose(diff) / width).T)
    return np.stack(cols, axis=-1)


def _sweep_key(arrays: list[np.ndarray]) -> tuple:
    """The content of contiguous arrays: each one's dtype and shape, and one
    sha256 digest of their bytes in order."""
    # imported at the first sweep, not with the package: loading OpenSSL's
    # hashes adds about 14 ms to a fresh process (2-core Xeon VM), which a
    # program that only evaluates whole-array fields never needs
    import hashlib

    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a)
    return tuple((a.dtype.str, a.shape) for a in arrays), digest.digest()


def _pointwise(fn: Optional[Callable], ndim: int = 0) -> Optional[Callable]:
    """fn taking t of shape (M,) and further arguments of shape (M, n):
    unchanged when marked ``whole_array``, else wrapped to call fn once per
    point and stack the results, points first, each promoted to ``ndim``
    dimensions as ``np.atleast_1d``/``atleast_2d`` do.  At a scalar t the
    wrapper calls fn once.

    fn must be a function of its arguments alone.  The wrapper keeps its last
    sweep: a sweep at points bitwise equal to the previous one (same dtypes,
    shapes and bytes, compared by a sha256 digest) returns a copy of the
    previous values and does not call fn.  A sweep at any other points calls
    fn once per point and replaces the kept one.  Callers and fn never see
    the kept array itself.
    """
    if fn is None or getattr(fn, "whole_array", False):
        return fn
    # (key, values) of the last sweep, replaced by one assignment, so a
    # concurrent sweep reads a consistent pair; at worst both sweeps miss
    last = (None, None)

    def lifted(t, *xs):
        nonlocal last
        if np.ndim(t) == 0:
            return fn(t, *xs)
        # rows are contiguous, as a per-point caller passes them, and hashable
        t, *rows = [np.ascontiguousarray(a) for a in (t, *xs)]
        key = _sweep_key([t, *rows])
        kept_key, kept = last
        if key == kept_key:
            return kept.copy()
        # the library's only loop over points calling user code, so its body is
        # the call alone
        out = np.array([fn(*point) for point in zip(t, *rows, strict=True)], dtype=float)
        while out.ndim <= ndim:
            out = out[:, None]
        last = (key, out.copy())
        return out

    lifted.whole_array = True
    return lifted


def _partial(field: Callable, exact: Optional[Callable], promote: Callable, wrt: int,
             t, x, y) -> np.ndarray:
    """The partial of ``field`` in x (``wrt`` = 1) or in y (``wrt`` = 2) at
    (t, x, y): ``exact`` there, promoted to the field's rank by ``promote``
    (``np.atleast_1d`` or ``atleast_2d``), or without it central
    differences of the field's values."""
    args = [t, np.asarray(x, float), np.asarray(y, float)]
    if exact is not None:
        return promote(np.asarray(exact(*args), float))
    return _differences(lambda z: field(*args[:wrt], z, *args[wrt + 1:]), args[wrt])


@dataclass(frozen=True)
class PointField:
    """Scalar field (t, x, y) -> R with x, y in R^n (e.g. L(t, q, D^alpha q)).

    grad_x / grad_y, when given, must return arrays of shape (n,).  At one
    point the value is a float and d_x, d_y have shape (n,); at M points
    (t of shape (M,), x and y of shape (M, n)) the value has shape (M,) and
    d_x, d_y have shape (M, n).

    Each callable is called once per point, unless it has the attribute
    ``whole_array = True``: it then receives the M points of a sweep in one
    call, t of shape (M,) and x, y of shape (M, n), returns the M results
    points first, and still takes one point as a per-point callable does.
    Per-point callables must be functions of their arguments: a sweep at
    points bitwise equal to the same callable's previous sweep returns the
    previous values without calling it, so after changing a parameter that
    a callable reads, build a new field.
    """

    evaluator: Callable[[float, np.ndarray, np.ndarray], float]
    grad_x: Optional[Callable[[float, np.ndarray, np.ndarray], np.ndarray]] = None
    grad_y: Optional[Callable[[float, np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "evaluator", _pointwise(self.evaluator))
        object.__setattr__(self, "grad_x", _pointwise(self.grad_x, ndim=1))
        object.__setattr__(self, "grad_y", _pointwise(self.grad_y, ndim=1))

    def __call__(self, t: float, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
        value = self.evaluator(t, np.asarray(x, float), np.asarray(y, float))
        if isinstance(t, np.ndarray) and t.ndim > 0:
            return np.asarray(value, float)
        return float(value)

    def d_x(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _partial(self, self.grad_x, np.atleast_1d, 1, t, x, y)

    def d_y(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _partial(self, self.grad_y, np.atleast_1d, 2, t, x, y)

    def hessian(
        self,
        t: float,
        x: np.ndarray,
        y: np.ndarray,
        base: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Second partials by forward differences of d_x and d_y, each of
        shape (n, n) at one point or (M, n, n) at M points:
        Hxx[..., k, i] = d(d_x)_k / dx_i, Hxy[..., k, i] = d(d_x)_k / dy_i and
        Hyy[..., k, i] = d(d_y)_k / dy_i.

        The step is the central differences' _FD_STEP * (1 + |x_i|), and the
        error is O(step).  The base partials are ``base`` = (d_x, d_y) at
        (t, x, y) when the caller holds them, else one d_x and one d_y taken
        there first.  Either way the Hessian then makes 3n sweeps of the
        partials, all at perturbed points."""
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        n = x.shape[-1]
        gx, gy = base if base is not None else (self.d_x(t, x, y), self.d_y(t, x, y))
        Hxx = _differences(lambda xx: self.d_x(t, xx, y), x, gx)
        H = _differences(
            lambda yy: np.concatenate([self.d_x(t, x, yy), self.d_y(t, x, yy)], axis=-1),
            y,
            np.concatenate([gx, gy], axis=-1),
        )
        return Hxx, H[..., :n, :], H[..., n:, :]

    def check_partials(
        self, t_range: tuple[float, float], dim: int, rng: np.random.Generator
    ) -> None:
        """Verify analytic gradients against finite differences at
        _PARTIALS_PROBES random points, drawn and checked as one sweep."""
        if self.grad_x is None and self.grad_y is None:
            return
        t = rng.uniform(*t_range, _PARTIALS_PROBES)
        x, y = rng.uniform(-1.0, 1.0, (2, _PARTIALS_PROBES, dim))
        bound = _PARTIALS_TOL * (1.0 + np.abs(self(t, x, y)))
        for name, exact, wrt in (("grad_x", self.grad_x, 1), ("grad_y", self.grad_y, 2)):
            if exact is not None:
                fd = _partial(self, None, np.atleast_1d, wrt, t, x, y)
                error = np.abs(_partial(self, exact, np.atleast_1d, wrt, t, x, y) - fd)
                if np.any(np.max(error, axis=-1) > bound):
                    raise ValueError(f"{name} disagrees with finite differences")


@dataclass(frozen=True)
class VectorField:
    """Vector field (t, x, y) -> R^n (e.g. control dynamics phi(t, q, u)).

    jac_x / jac_y, when given, return Jacobians of shape (n, dim_x/dim_y).
    At M points (t of shape (M,), x and y of shapes (M, dim_x) and
    (M, dim_y)) the value has shape (M, n) and d_x, d_y have shapes
    (M, n, dim_x) and (M, n, dim_y).  Callables are per point or marked
    ``whole_array``, and per-point ones must be functions of their
    arguments, as for ``PointField``.
    """

    evaluator: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    jac_x: Optional[Callable[[float, np.ndarray, np.ndarray], np.ndarray]] = None
    jac_y: Optional[Callable[[float, np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "evaluator", _pointwise(self.evaluator, ndim=1))
        object.__setattr__(self, "jac_x", _pointwise(self.jac_x, ndim=2))
        object.__setattr__(self, "jac_y", _pointwise(self.jac_y, ndim=2))

    def __call__(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.evaluator(t, np.asarray(x, float), np.asarray(y, float)), float))

    def d_x(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _partial(self, self.jac_x, np.atleast_2d, 1, t, x, y)

    def d_y(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _partial(self, self.jac_y, np.atleast_2d, 2, t, x, y)
