"""Riemann-Liouville fractional integrals and derivatives on uniform grids.

The default derivative scheme is L1 product integration: the samples are
interpreted as a piecewise-linear interpolant, the weakly singular kernel is
integrated exactly against it, and the outer classical derivative is carried
out in closed form.  The scheme is linear in the samples and converges with
empirical order 2 - alpha for smooth data.  A shifted Grunwald-Letnikov
scheme is available as an independent cross-check.

Every L1 and integral rule is a causal convolution of the samples with a
weight sequence (_causal_convolve).  Once both operands have at least
_FFT_MIN_SIZE terms it goes by np.fft.rfft/irfft at a power-of-two length,
O(m log m) instead of O(m^2), and differs from direct convolution by a few
ulps of the largest output.  Below that size, and whenever an operand holds
a NaN or inf, it is np.convolve: direct convolution keeps a NaN endpoint
marker at its own node and the ones after it, where an FFT would spread it
to all.  The Grunwald-Letnikov scheme always convolves directly, so that it
stays an independent check, and left_derivative_matrix writes its columns
out from the L1 weights, so that D carries no FFT rounding.

Left derivatives are undefined (singular) at the first node, right
derivatives at the last one; those entries are returned as NaN markers.
Right operators are the left ones conjugated by the reflection
t -> a + b - t, at every order, alpha = 1 included.  left_derivative_matrix
is the matrix of left_rl_derivative, NaN first row included; callers that
need a finite first row fill it like the velocity, with fill_endpoints.

The solver's discrete derivative D is one operator per grid and order:
_L1Operator (the filled L1 matrix) at alpha < 1, _SlopeOperator (the
interval slopes of the midpoint rule) at alpha = 1.  Each gives D q, D^T y
and the solves with D's lower-triangular Toeplitz section T and with T^T,
from kept kernels.  Only _L1Operator's constructor knows where D's parts
come from: it reads them from left_derivative_matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gammafn import GammaPoleError, _is_nonpositive_integer, gamma, reciprocal_gamma
from .grids import FracOrder, Grid, SampledFunction, fill_endpoints

__all__ = [
    "UnsupportedOrderError",
    "Constant",
    "PowerShifted",
    "left_rl_integral",
    "right_rl_integral",
    "left_rl_derivative",
    "right_rl_derivative",
    "closed_form_left_derivative",
    "left_derivative_matrix",
]


class UnsupportedOrderError(ValueError):
    """Raised for derivative orders outside (0, 1]."""


# --------------------------------------------------------------------------
# closed-form atoms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    """The constant function f(t) = c on [a, b]."""

    c: float
    a: float = 0.0


@dataclass(frozen=True)
class PowerShifted:
    """f(t) = coefficient * (t - a)**exponent, exponent > -1."""

    coefficient: float
    exponent: float
    a: float = 0.0

    def __post_init__(self) -> None:
        if self.exponent <= -1.0:
            raise ValueError(f"power atom needs exponent > -1, got {self.exponent}")


def closed_form_left_derivative(
    atom: Constant | PowerShifted, order: FracOrder, t: float
) -> float:
    """Exact left RL derivative of a constant or shifted-power atom at t."""
    alpha = order.alpha
    if isinstance(atom, Constant):
        if t <= atom.a:
            raise ValueError(f"need t > a = {atom.a} for the constant rule")
        return atom.c * reciprocal_gamma(1.0 - alpha) * (t - atom.a) ** (-alpha)
    ups = atom.exponent
    tail = ups - alpha
    if _is_nonpositive_integer(tail + 1.0):
        raise GammaPoleError(
            f"degenerate pairing: exponent {ups} minus order {alpha} hits a gamma pole"
        )
    if t < atom.a or (t == atom.a and tail < 0.0):
        raise ValueError(f"atom derivative undefined at t = {t} (base point {atom.a})")
    base = (t - atom.a) ** tail if t > atom.a else (1.0 if tail == 0.0 else 0.0)
    return atom.coefficient * gamma(ups + 1.0) / gamma(tail + 1.0) * base


# --------------------------------------------------------------------------
# causal convolution
# --------------------------------------------------------------------------

#: Both operands need at least this many terms before a convolution goes by
#: rfft; below it np.convolve is as fast (crossover near 512 on a 2-core Xeon).
_FFT_MIN_SIZE = 512


def _direct_convolve(kernel: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """First n terms of kernel * x along axis 0 by np.convolve, x of shape
    (M,) or (M, k)."""
    if x.ndim == 1:
        return np.convolve(kernel, x)[:n]
    return np.column_stack([np.convolve(kernel, col)[:n] for col in x.T])


class _CausalKernel:
    """A causal-convolution kernel that keeps its rfft spectrum per transform
    length, for a caller that applies the same kernel many times.
    ``convolve(x, n)`` is ``_causal_convolve(weights, x, n)`` bit for bit:
    a kept spectrum is the one that call would compute again."""

    def __init__(self, weights: np.ndarray):
        self.weights = weights
        self.finite = bool(np.isfinite(weights).all())
        self._spectra: dict[int, np.ndarray] = {}

    def convolve(self, x: np.ndarray, n: int) -> np.ndarray:
        """First n terms of weights * x along axis 0, x of shape (M,) or
        (M, k).

        With at least _FFT_MIN_SIZE terms in both operands this is an rfft
        product at a power-of-two length, O(n log n); otherwise, and whenever
        an operand is not finite, it is np.convolve.  Direct convolution keeps
        a NaN marker at node j in outputs j and later; an FFT would spread it
        to all.
        """
        kernel = self.weights
        if min(len(kernel), len(x)) < _FFT_MIN_SIZE or not (self.finite and np.isfinite(x).all()):
            return _direct_convolve(kernel, x, n)
        size = 1 << (len(kernel) + len(x) - 2).bit_length()
        spectrum = self._spectra.get(size)
        if spectrum is None:
            spectrum = self._spectra[size] = np.fft.rfft(kernel, size)
        spectrum = spectrum.reshape((-1,) + (1,) * (x.ndim - 1))
        return np.fft.irfft(spectrum * np.fft.rfft(x, size, axis=0), size, axis=0)[:n]


def _causal_convolve(kernel: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """First n terms of kernel * x along axis 0, x of shape (M,) or (M, k),
    by ``_CausalKernel.convolve``: rfft from _FFT_MIN_SIZE terms on, direct
    below it and for non-finite operands."""
    return _CausalKernel(kernel).convolve(x, n)


# --------------------------------------------------------------------------
# fractional integrals (product trapezoid, exact for piecewise-linear data)
# --------------------------------------------------------------------------

def _pl_integral(f: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """Left RL integral of the piecewise-linear interpolant, all nodes, along
    axis 0 of f."""
    m = len(f) - 1
    r = np.arange(m, dtype=float)
    # Kernel moments over one interval at history distance r*h:
    #   m0_r = int_{rh}^{(r+1)h} u^(alpha-1) du
    #   m1_r = int u^(alpha-1) (u1 - u) du   with u1 = (r+1)h
    m0 = h**alpha * ((r + 1.0) ** alpha - r**alpha) / alpha
    m1 = h ** (alpha + 1.0) * (
        (r + 1.0) * ((r + 1.0) ** alpha - r**alpha) / alpha
        - ((r + 1.0) ** (alpha + 1.0) - r ** (alpha + 1.0)) / (alpha + 1.0)
    )
    d = np.diff(f, axis=0) / h
    out = np.zeros(f.shape)
    out[1:] = (_causal_convolve(m0, f[:-1], m) + _causal_convolve(m1, d, m)) / gamma(alpha)
    return out


def _reflected(f: SampledFunction) -> SampledFunction:
    """Samples of f(a + b - t)."""
    return SampledFunction(f.grid, f.values[::-1])


def left_rl_integral(f: SampledFunction, order: FracOrder) -> SampledFunction:
    """Node-wise left RL integral of order alpha > 0; zero at the left end."""
    return SampledFunction(f.grid, _pl_integral(f.values, f.grid.h, order.alpha))


def right_rl_integral(f: SampledFunction, order: FracOrder) -> SampledFunction:
    """Mirror image of left_rl_integral; zero at the right end."""
    return _reflected(left_rl_integral(_reflected(f), order))


# --------------------------------------------------------------------------
# fractional derivatives
# --------------------------------------------------------------------------

def _l1_weights(m: int, alpha: float) -> np.ndarray:
    """b_r = (r+1)^(1-alpha) - r^(1-alpha), r = 0..m-1: the L1 kernel integrated
    over the interval at history distance r (in units of h)."""
    r = np.arange(m, dtype=float)
    return (r + 1.0) ** (1.0 - alpha) - r ** (1.0 - alpha)


class _L1Kernel(_CausalKernel):
    """The L1 weights _l1_weights(m, alpha) as a kept kernel, with the
    constants that apply them on step h: the boundary decay (k h)^(-alpha),
    k = 1..m, 1/Gamma(1-alpha) and the slope scale h^(-alpha)/Gamma(2-alpha)."""

    def __init__(self, m: int, h: float, alpha: float):
        super().__init__(_l1_weights(m, alpha))
        self.decay = (np.arange(1, m + 1, dtype=float) * h) ** (-alpha)
        self.boundary = reciprocal_gamma(1.0 - alpha)
        self.scale = h ** (-alpha) / gamma(2.0 - alpha)


def _l1_left(f: np.ndarray, kernel: _L1Kernel) -> np.ndarray:
    """L1 left RL derivative of the piecewise-linear interpolant, along axis 0,
    with ``kernel`` the _L1Kernel of f's grid and order.

    Splits off the boundary term f(a) (t-a)^(-alpha) / Gamma(1-alpha), then
    integrates the kernel exactly against the interpolant's slope.  NaN at
    the first node.
    """
    m = len(f) - 1
    out = np.empty(f.shape)
    out[0] = np.nan
    out[1:] = f[0] * kernel.boundary * kernel.decay.reshape((m,) + (1,) * (f.ndim - 1))
    out[1:] += kernel.scale * kernel.convolve(np.diff(f, axis=0), m)
    return out


def _gl_left(f: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """Shifted Grunwald-Letnikov left derivative along axis 0; the independent
    cross-check of the L1 scheme, so it convolves directly and shares no
    FFT rounding with it."""
    m = len(f) - 1
    w = np.cumprod(np.concatenate([[1.0], 1.0 - (alpha + 1.0) / np.arange(1, m + 1)]))
    out = np.empty(f.shape)
    out[0] = np.nan
    out[1:] = h ** (-alpha) * _direct_convolve(w, f, m + 1)[1:]
    return out


def _classical_derivative(f: np.ndarray, h: float) -> np.ndarray:
    """Second-order central differences along axis 0, one-sided at the ends."""
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return out


def _check_derivative_order(order: FracOrder) -> None:
    if order.alpha > 1.0:
        raise UnsupportedOrderError(
            f"derivative orders above 1 are unsupported, got alpha = {order.alpha}"
        )


def left_rl_derivative(
    f: SampledFunction, order: FracOrder, scheme: str = "l1"
) -> SampledFunction:
    """Left RL derivative for 0 < alpha <= 1 (alpha = 1: classical fallback)."""
    _check_derivative_order(order)
    h = f.grid.h
    if order.is_classical:
        vals = _classical_derivative(f.values, h)
    elif scheme == "l1":
        vals = _l1_left(f.values, _L1Kernel(f.grid.m, h, order.alpha))
    elif scheme == "gl":
        vals = _gl_left(f.values, h, order.alpha)
    else:
        raise ValueError(f"unknown scheme {scheme!r}; expected 'l1' or 'gl'")
    return SampledFunction(f.grid, vals)


def right_rl_derivative(
    f: SampledFunction, order: FracOrder, scheme: str = "l1"
) -> SampledFunction:
    """Right RL derivative: the left operator conjugated by t -> a + b - t."""
    return _reflected(left_rl_derivative(_reflected(f), order, scheme=scheme))


def left_derivative_matrix(grid: Grid, order: FracOrder) -> np.ndarray:
    """Dense (m+1) x (m+1) matrix of left_rl_derivative (default scheme).

    Column i is the derivative of the i-th unit vector, so the first row is
    the NaN marker row; fill_endpoints replaces it by 2*row_1 - row_2.
    """
    _check_derivative_order(order)
    m, h = grid.m, grid.h
    if order.is_classical:
        return _classical_derivative(np.eye(m + 1), h)
    # the columns are the responses to unit vectors, written out from the L1
    # weights rather than convolved, so that no FFT rounding enters D
    l1 = _L1Kernel(m, h, order.alpha)
    b, c = l1.weights, l1.scale
    A = np.empty((m + 1, m + 1))
    A[0] = np.nan
    A[1:, 0] = l1.boundary * l1.decay - c * b
    # columns 1..m are the response at node 1, c (b_k - b_(k-1)), shifted down
    # (Toeplitz): row i is col1[i], ..., col1[0], 0, ..., the window at m-1-i
    # of the reversed column, which is copied with a forward stride
    col1 = c * np.diff(b, prepend=0.0)
    A[1:, 1:] = sliding_window_view(np.concatenate([col1[::-1], np.zeros(m - 1)]), m)[::-1]
    return A


# --------------------------------------------------------------------------
# the solver's discrete derivative operators
# --------------------------------------------------------------------------

def _toeplitz_inverse(col: np.ndarray) -> np.ndarray:
    """First column of T^-1 for the lower-triangular Toeplitz T with first
    column ``col``, by the Newton iteration u <- u + u (e_1 - T u) on leading
    sections of doubling size (Ng, Iterative Methods for Toeplitz Systems).

    The products are causal convolutions (_causal_convolve), by rfft once a
    section has _FFT_MIN_SIZE terms, so the last doubling is O(m log m), not
    O(m^2).  Its column is within 6.4e-14 of np.convolve doubling's,
    relative to its largest entry, at m = 2000 and alpha < 1."""
    inv = np.array([1.0 / col[0]])
    while inv.size < col.size:
        size = min(2 * inv.size, col.size)
        defect = _causal_convolve(col[:size], inv, size)
        defect[0] -= 1.0
        inv = np.pad(inv, (0, size - inv.size)) - _causal_convolve(inv, defect, size)
    return inv


class _DerivativeOperator:
    """A discrete derivative D on a grid's m + 1 nodes, with the lower-
    triangular Toeplitz section T of D that the solver preconditions with:
    D on the rows ``t_rows`` and the interior nodes 1..m-1.  ``apply(q)`` is
    D q and ``transpose(y)`` is D^T y, along axis 0 with any trailing axes.
    T^-1 is kept as the causal kernel ``t_inv`` of its first column, so the
    solves cost O(m log m) per column from _FFT_MIN_SIZE terms on."""

    def t_solve(self, y: np.ndarray) -> np.ndarray:
        """T^-1 y: the causal convolution of T^-1's first column with y."""
        return self.t_inv.convolve(y, len(y))

    def t_solve_transposed(self, y: np.ndarray) -> np.ndarray:
        """T^-T y: T^T is T conjugated by the reversal."""
        return self.t_inv.convolve(y[::-1], len(y))[::-1]


class _L1Operator(_DerivativeOperator):
    """D at alpha < 1: left_derivative_matrix with row 0 filled like the
    velocity, applied by convolution.  D q is the filled _l1_left from the
    kept L1 kernel, bit for bit ``problems._velocity_filled``, and rejects a
    non-finite interior sample as SampledFunction does.  D^T y is the
    reversed convolution of the Toeplitz column D[1:, 1] plus the boundary
    column D[1:, 0] and row 0, nonzero in columns 0-2.  These parts are read
    from the dense matrix, which is dropped before T^-1's work arrays are
    allocated.  T = D[1:m, 1:m]; _toeplitz_inverse doubles T^-1's column."""

    def __init__(self, grid: Grid, order: FracOrder):
        m = grid.m
        self.grid, self.t_rows = grid, slice(1, m)
        self.l1 = _L1Kernel(m, grid.h, order.alpha)
        D = left_derivative_matrix(grid, order)
        self.toeplitz = _CausalKernel(D[1:, 1].copy())
        self.col0 = D[1:, 0].copy()
        self.row0 = fill_endpoints(D[:3, :3])[0]
        del D
        self.t_inv = _CausalKernel(_toeplitz_inverse(self.toeplitz.weights[: m - 1]))

    def apply(self, q: np.ndarray) -> np.ndarray:
        f = SampledFunction(self.grid, q.reshape(len(q), -1)).values
        return fill_endpoints(_l1_left(f, self.l1)).reshape(q.shape)

    def transpose(self, y: np.ndarray) -> np.ndarray:
        y2, m = y.reshape(len(y), -1), len(y) - 1
        out = np.empty_like(y2)
        out[0] = self.col0 @ y2[1:]
        out[1:] = self.toeplitz.convolve(y2[:0:-1], m)[::-1]
        out[:3] += self.row0[:, None] * y2[0]
        return out.reshape(y.shape)


class _SlopeOperator(_DerivativeOperator):
    """D at alpha = 1: the m x (m+1) matrix of the interval slopes
    (q_(i+1) - q_i) / h.  T is the slopes of intervals 0..m-2, (I - S)/h
    with S the shift, so T^-1 is exactly h times lower ones."""

    def __init__(self, grid: Grid):
        self.h, self.t_rows = grid.h, slice(0, grid.m - 1)
        self.t_inv = _CausalKernel(np.full(grid.m - 1, grid.h))

    def apply(self, q: np.ndarray) -> np.ndarray:
        return np.diff(q, axis=0) / self.h

    def transpose(self, y: np.ndarray) -> np.ndarray:
        return -np.diff(y / self.h, axis=0, prepend=0.0, append=0.0)
