import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracnoether import (
    Constant,
    FracOrder,
    GammaPoleError,
    Grid,
    PowerShifted,
    SampledFunction,
    UnsupportedOrderError,
    closed_form_left_derivative,
    fill_endpoints,
    gamma,
    left_derivative_matrix,
    left_rl_derivative,
    left_rl_integral,
    right_rl_derivative,
    right_rl_integral,
    sample,
)
from fracnoether.frac_kernels import _FFT_MIN_SIZE, _causal_convolve, _gl_left, _l1_weights

HALF = FracOrder(0.5)


def rel_err_on_window(grid, numeric, exact, t_min=0.05):
    mask = grid.nodes >= t_min
    return float(np.max(np.abs(numeric[mask] - exact[mask]) / np.abs(exact[mask])))


def test_power_rule():
    grid = Grid(0.0, 1.0, 2000)
    t = grid.nodes
    num = left_rl_derivative(sample(grid, lambda s: s * s), HALF).scalar
    exact = gamma(3.0) / gamma(2.5) * t**1.5
    assert rel_err_on_window(grid, num, exact) <= 1e-3


def test_power_rule_empirical_order():
    errs = {}
    for m in (1000, 2000):
        grid = Grid(0.0, 1.0, m)
        num = left_rl_derivative(sample(grid, lambda s: s * s), HALF).scalar
        exact = gamma(3.0) / gamma(2.5) * grid.nodes**1.5
        errs[m] = rel_err_on_window(grid, num, exact)
    order = np.log2(errs[1000] / errs[2000])
    assert order >= 1.4


def test_constant_rule():
    grid = Grid(0.0, 1.0, 2000)
    t = grid.nodes
    num = left_rl_derivative(sample(grid, lambda s: 3.0), HALF).scalar
    mask = t >= 0.05
    exact = 3.0 / gamma(0.5) * t[mask] ** (-0.5)
    assert np.max(np.abs(num[mask] - exact) / exact) <= 1e-3


def test_closed_form_atoms():
    t = 0.7
    val = closed_form_left_derivative(PowerShifted(1.0, 2.0), HALF, t)
    assert val == pytest.approx(gamma(3.0) / gamma(2.5) * t**1.5, rel=1e-12)
    val = closed_form_left_derivative(Constant(2.0), HALF, t)
    assert val == pytest.approx(2.0 / gamma(0.5) * t ** (-0.5), rel=1e-12)


def test_closed_form_degenerate_pairing_raises():
    # exponent - alpha + 1 at a non-positive integer
    with pytest.raises(GammaPoleError):
        closed_form_left_derivative(PowerShifted(1.0, -0.5), HALF, 0.5)


def test_singular_markers():
    grid = Grid(0.0, 1.0, 64)
    d = left_rl_derivative(sample(grid, lambda s: s + 1.0), HALF).scalar
    assert np.isnan(d[0]) and np.all(np.isfinite(d[1:]))
    r = right_rl_derivative(sample(grid, lambda s: s + 1.0), HALF).scalar
    assert np.isnan(r[-1]) and np.all(np.isfinite(r[:-1]))


def test_gl_cross_check():
    grid = Grid(0.0, 1.0, 1000)
    f = sample(grid, lambda s: np.sin(2.0 * s) + s)
    l1 = left_rl_derivative(f, HALF, scheme="l1").scalar
    gl = left_rl_derivative(f, HALF, scheme="gl").scalar
    assert np.max(np.abs(l1[20:-1] - gl[20:-1])) <= 1e-2


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.77, 0.999])
def test_gl_weights_bitwise_equal_recurrence(alpha):
    """With h = 1 the GL derivative of a unit impulse at t = 0 is the weight
    sequence; it must be bitwise w_k = w_{k-1} (1 - (alpha + 1) / k)."""
    m = 5000
    w = np.empty(m + 1)
    w[0] = 1.0
    for k in range(1, m + 1):
        w[k] = w[k - 1] * (1.0 - (alpha + 1.0) / k)
    impulse = np.zeros(m + 1)
    impulse[0] = 1.0
    out = _gl_left(impulse, 1.0, alpha)
    assert np.isnan(out[0])
    assert np.array_equal(out[1:], w[1:])


def test_unknown_scheme():
    grid = Grid(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        left_rl_derivative(sample(grid, lambda s: s), HALF, scheme="magic")


def test_semigroup_integral_then_derivative():
    grid = Grid(0.0, 1.0, 2000)
    f = sample(grid, lambda s: np.cos(2.0 * s))
    back = left_rl_derivative(left_rl_integral(f, HALF), HALF).scalar
    inner = slice(50, -1)
    assert np.max(np.abs(back[inner] - f.scalar[inner])) <= 2e-3


def test_integral_power_rule():
    # I^alpha t = t^(1+alpha) * gamma(2)/gamma(2+alpha); the scheme is the
    # exact integral of the piecewise-linear interpolant, and t is linear
    grid = Grid(0.0, 1.0, 200)
    t = grid.nodes
    num = left_rl_integral(sample(grid, lambda s: s), HALF).scalar
    exact = t**1.5 / gamma(2.5)
    assert np.max(np.abs(num - exact)) <= 1e-13


def test_right_integral_mirror():
    grid = Grid(0.0, 1.0, 200)
    num = right_rl_integral(sample(grid, lambda s: 1.0 - s), HALF).scalar
    exact = (1.0 - grid.nodes) ** 1.5 / gamma(2.5)
    assert np.max(np.abs(num - exact)) <= 1e-13


def test_right_power_rule():
    # D_b^alpha (b - t)^2 = gamma(3)/gamma(2.5) (b - t)^1.5
    grid = Grid(0.0, 1.0, 2000)
    t = grid.nodes
    num = right_rl_derivative(sample(grid, lambda s: (1.0 - s) ** 2), HALF).scalar
    exact = gamma(3.0) / gamma(2.5) * (1.0 - t) ** 1.5
    mask = t <= 0.95
    assert np.max(np.abs(num[mask] - exact[mask])) <= 1e-3


def test_classical_limit_matches_derivative():
    grid = Grid(0.0, 1.0, 1000)
    one = FracOrder(1.0)
    d = left_rl_derivative(sample(grid, lambda s: np.sin(s)), one).scalar
    assert np.max(np.abs(d - np.cos(grid.nodes))) <= 1e-5
    r = right_rl_derivative(sample(grid, lambda s: np.sin(s)), one).scalar
    assert np.max(np.abs(r + np.cos(grid.nodes))) <= 1e-5


def test_alpha_near_one_approaches_classical():
    grid = Grid(0.0, 1.0, 2000)
    f = sample(grid, lambda s: s**3)
    near = left_rl_derivative(f, FracOrder(0.999)).scalar
    classic = 3.0 * grid.nodes**2
    mask = grid.nodes >= 0.05
    assert np.max(np.abs(near[mask] - classic[mask])) <= 2e-2


def test_derivative_matrix_matches_convolution():
    grid = Grid(0.0, 1.0, 50)
    rng = np.random.default_rng(3)
    f = SampledFunction(grid, rng.standard_normal(grid.m + 1))
    A = left_derivative_matrix(grid, HALF)
    direct = left_rl_derivative(f, HALF).scalar
    via_matrix = A @ f.scalar
    assert np.max(np.abs(via_matrix[1:] - direct[1:])) <= 1e-12
    assert np.all(np.isnan(A[0]))


def test_derivative_matrix_extrapolate_row():
    grid = Grid(0.0, 1.0, 50)
    A = left_derivative_matrix(grid, HALF)
    filled = fill_endpoints(A)
    assert np.array_equal(filled[0], 2.0 * A[1] - A[2])
    assert np.array_equal(filled[1:], A[1:])


def _row_loop_l1_matrix(grid, alpha):
    """Independent oracle: the L1 matrix assembled row by row from its weights."""
    m, h = grid.m, grid.h
    A = np.zeros((m + 1, m + 1))
    r = np.arange(m, dtype=float)
    b = (r + 1.0) ** (1.0 - alpha) - r ** (1.0 - alpha)
    c = h ** (-alpha) / gamma(2.0 - alpha)
    for j in range(1, m + 1):
        A[j, 0] = (j * h) ** (-alpha) / gamma(1.0 - alpha) - c * b[j - 1]
        if j >= 2:
            A[j, 1:j] = c * (b[j - 1 : 0 : -1] - b[j - 2 :: -1])
        A[j, j] = c * b[0]
    A[0] = np.nan
    return A


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.999])
@pytest.mark.parametrize("m", [3, 17, 200])
def test_derivative_matrix_matches_row_loop_oracle(alpha, m):
    grid = Grid(0.0, 1.0, m)
    A = left_derivative_matrix(grid, FracOrder(alpha))
    oracle = _row_loop_l1_matrix(grid, alpha)
    assert np.all(np.isnan(A[0]))
    scale = np.max(np.abs(oracle[1:]))
    assert np.max(np.abs(A[1:] - oracle[1:])) <= 1e-14 * scale


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.999, 1.0])
@pytest.mark.parametrize("m", [2, 3, 17, 200])
def test_derivative_matrix_is_kernel_of_identity(alpha, m):
    grid = Grid(0.0, 2.0, m)
    order = FracOrder(alpha)
    A = left_derivative_matrix(grid, order)
    columns = left_rl_derivative(SampledFunction(grid, np.eye(m + 1)), order).values
    assert np.array_equal(A, columns, equal_nan=True)


def test_orders_above_one_rejected():
    grid = Grid(0.0, 1.0, 16)
    with pytest.raises(UnsupportedOrderError):
        left_rl_derivative(sample(grid, lambda s: s), FracOrder(1.5))


def test_vector_samples_componentwise():
    grid = Grid(0.0, 1.0, 100)
    f = sample(grid, lambda s: np.array([s, s * s]))
    d = left_rl_derivative(f, HALF)
    d0 = left_rl_derivative(sample(grid, lambda s: s), HALF).scalar
    d1 = left_rl_derivative(sample(grid, lambda s: s * s), HALF).scalar
    assert np.allclose(d.component(0)[1:], d0[1:])
    assert np.allclose(d.component(1)[1:], d1[1:])


# --------------------------------------------------------------------------
# causal convolution: rfft above _FFT_MIN_SIZE, np.convolve below
# --------------------------------------------------------------------------


@pytest.mark.parametrize("columns", [None, 3])
@pytest.mark.parametrize("n", [511, 512, 513, 4097, 16001])
def test_causal_convolve_matches_np_convolve(n, columns):
    """Against np.convolve, the FFT path is off by a few ulps of the largest
    output per doubling of the transform length; below the threshold the
    helper is np.convolve itself."""
    rng = np.random.default_rng(n)
    kernel = _l1_weights(n, 0.7)
    x = rng.standard_normal(n if columns is None else (n, columns))
    got = _causal_convolve(kernel, x, n)
    ref = np.convolve(kernel, x)[:n] if columns is None else np.column_stack(
        [np.convolve(kernel, col)[:n] for col in x.T]
    )
    assert got.shape == ref.shape
    if n < _FFT_MIN_SIZE:
        assert np.array_equal(got, ref)
    size = 1 << (2 * n - 2).bit_length()
    tol = 2.0 * np.finfo(float).eps * np.log2(size) * np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= tol


def test_nan_marker_stays_at_its_node_above_fft_threshold():
    """A NaN sample poisons only the outputs that depend on it, as under
    direct convolution; an FFT product would spread it to every node."""
    m = 2 * _FFT_MIN_SIZE
    grid = Grid(0.0, 1.0, m)
    clean = sample(grid, lambda s: np.cos(3.0 * s) + s)
    last = clean.values.copy()
    last[-1] = np.nan
    for op in (left_rl_derivative, left_rl_integral):
        got, ref = op(SampledFunction(grid, last), HALF).scalar, op(clean, HALF).scalar
        assert np.all(np.isfinite(got[1:m])) and np.isnan(got[m])
        assert np.max(np.abs(got[1:m] - ref[1:m])) <= 1e-13 * np.max(np.abs(ref[1:m]))
    first = clean.values.copy()
    first[0] = np.nan
    got = right_rl_derivative(SampledFunction(grid, first), HALF).scalar
    ref = right_rl_derivative(clean, HALF).scalar
    assert np.all(np.isfinite(got[1:m])) and np.isnan(got[0])
    assert np.max(np.abs(got[1:m] - ref[1:m])) <= 1e-13 * np.max(np.abs(ref[1:m]))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.999])
def test_derivative_matrix_columns_are_closed_form_weights(alpha):
    """Above the FFT threshold the first two columns of D are still exactly
    the L1 weights: c (b_k - b_(k-1)) below the diagonal of column 1, and
    the boundary term minus c b_k in column 0."""
    m = 2000
    grid = Grid(0.0, 1.0, m)
    h = grid.h
    A = left_derivative_matrix(grid, FracOrder(alpha))
    r = np.arange(m, dtype=float)
    b = (r + 1.0) ** (1.0 - alpha) - r ** (1.0 - alpha)
    c = h ** (-alpha) / gamma(2.0 - alpha)
    assert np.array_equal(A[1:, 1], c * np.concatenate([[b[0]], b[1:] - b[:-1]]))
    boundary = grid.nodes[1:] ** (-alpha) / gamma(1.0 - alpha)
    assert np.all(np.abs(A[1:, 0] - (boundary - c * b)) <= 1e-14 * (boundary + c * b))


@pytest.fixture(scope="module")
def differint_oracle():
    """mpmath's quadrature RL derivative of sin and exp at nodes shared by
    every grid below; it shares no code with the kernels."""
    mpmath = pytest.importorskip("mpmath")
    nodes = np.array([0.25, 0.375, 0.5, 0.75, 1.0])
    return nodes, {
        (name, alpha): np.array([float(mpmath.differint(mf, x, alpha)) for x in nodes])
        for name, mf in (("sin", mpmath.sin), ("exp", mpmath.exp))
        for alpha in (0.3, 0.5)
    }


@pytest.mark.parametrize("alpha", [0.3, 0.5])
@pytest.mark.parametrize("name", ["sin", "exp"])
def test_l1_matches_mpmath_differint(differint_oracle, name, alpha):
    """On grids above the FFT threshold the L1 derivative converges to
    mpmath's with empirical order 2 - alpha."""
    nodes, exact = differint_oracle
    f = {"sin": np.sin, "exp": np.exp}[name]
    errs = []
    for m in (1024, 2048):
        grid = Grid(0.0, 1.0, m)
        d = left_rl_derivative(sample(grid, f), FracOrder(alpha)).scalar
        errs.append(np.max(np.abs(d[np.rint(nodes * m).astype(int)] - exact[name, alpha])))
    assert errs[1] <= 10.0 * (1.0 / 2048) ** (2.0 - alpha)
    assert np.log2(errs[0] / errs[1]) >= 2.0 - alpha - 0.1


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("beta", [0.3, 0.6])
def test_l1_order_drops_on_non_smooth_power(beta, alpha):
    """On t^beta with beta < 1 the L1 derivative converges with order
    min(2 - alpha, 1 + beta), against the power rule evaluated by mpmath's
    gamma, which shares no code with the library's."""
    mpmath = pytest.importorskip("mpmath")
    nodes = np.array([0.25, 0.5, 0.75, 1.0])
    scale = mpmath.gamma(beta + 1.0) / mpmath.gamma(beta + 1.0 - alpha)
    exact = np.array([float(scale * mpmath.mpf(x) ** (beta - alpha)) for x in nodes])
    errs = []
    for m in (1024, 2048):
        grid = Grid(0.0, 1.0, m)
        d = left_rl_derivative(sample(grid, lambda t: t**beta), FracOrder(alpha)).scalar
        errs.append(np.max(np.abs(d[np.rint(nodes * m).astype(int)] - exact)))
    assert abs(np.log2(errs[0] / errs[1]) - min(2.0 - alpha, 1.0 + beta)) <= 0.1


# --------------------------------------------------------------------------
# properties (hypothesis), oracles that share no code with the kernels
# --------------------------------------------------------------------------

_OPERATORS = {
    "left derivative": left_rl_derivative,
    "right derivative": right_rl_derivative,
    "left integral": left_rl_integral,
    "right integral": right_rl_integral,
}
EPS = np.finfo(float).eps


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(
    st.sampled_from(sorted(_OPERATORS)),
    st.one_of(st.integers(2, 64), st.integers(_FFT_MIN_SIZE - 2, 4096)),
    st.floats(0.01, 1.0),
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0),
    st.integers(0, 2**32 - 1),
)
def test_operators_are_linear(name, m, alpha, a, b, seed):
    """K(a f + b g) = a K f + b K g for random two-component samples, below
    and above the FFT threshold, up to rounding in the scale of the terms.
    Measured on 300 random cases at m up to 3000: at most 33 ulps for the
    derivatives and 7.4 for the integrals."""
    op, order = _OPERATORS[name], FracOrder(alpha)
    grid = Grid(0.0, 1.0, m)
    rng = np.random.default_rng(seed)
    f, g = rng.standard_normal((2, m + 1, 2))
    lhs = op(SampledFunction(grid, a * f + b * g), order).values
    kf, kg = (op(SampledFunction(grid, x), order).values for x in (f, g))
    rhs = a * kf + b * kg
    assert np.array_equal(np.isnan(lhs), np.isnan(rhs))
    scale = np.nanmax(np.abs(a * kf) + np.abs(b * kg))
    ulps = 128.0 if "derivative" in name else 32.0
    assert np.nanmax(np.abs(lhs - rhs)) <= ulps * EPS * scale


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.floats(0.3, 0.8), st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_derivative_inverts_integral(alpha, coefficients):
    """D^alpha I^alpha f = f for f = c1 e^t + c2 sin 3t + c3 (1 + t^2), away
    from the left end (t >= 0.1), with an error that falls with m.  Measured
    on each term at alpha in [0.3, 0.8]: at most 3.6e-4 at m = 1024 and
    6.8e-5 at m = 4096, both at alpha = 0.8."""
    order = FracOrder(alpha)
    c1, c2, c3 = coefficients
    for m, bound in ((1024, 4e-4), (4096, 7.5e-5)):
        grid = Grid(0.0, 1.0, m)
        t = grid.nodes
        f = c1 * np.exp(t) + c2 * np.sin(3.0 * t) + c3 * (1.0 + t * t)
        back = left_rl_derivative(left_rl_integral(SampledFunction(grid, f), order), order)
        err = np.max(np.abs(back.scalar - f)[t >= 0.1])
        assert err <= bound * (abs(c1) + abs(c2) + abs(c3))
