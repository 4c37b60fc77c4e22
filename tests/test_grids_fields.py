import numpy as np
import pytest

from fracnoether import (
    FracOrder,
    Grid,
    PointField,
    SampledFunction,
    VectorField,
    fill_endpoints,
    sample,
)


def test_frac_order_validation_and_flags():
    assert not FracOrder(0.5).is_classical
    assert FracOrder(1.0).is_classical
    with pytest.raises(ValueError):
        FracOrder(0.0)
    with pytest.raises(ValueError):
        FracOrder(-0.3)


def test_grid_nodes_and_refinement():
    grid = Grid(0.0, 2.0, 4)
    assert grid.h == 0.5
    assert np.allclose(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert grid.refined(3).m == 12
    assert Grid(0.0, 1.0, np.int64(10)).nodes.size == 11
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 4)
    for a, b in ((0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            Grid(a, b, 10)
    with pytest.raises(ValueError, match="integer"):
        Grid(0.0, 1.0, 10.0)


def test_sampled_function_shapes_and_nan_policy():
    grid = Grid(0.0, 1.0, 4)
    f = SampledFunction(grid, np.array([np.nan, 1.0, 2.0, 3.0, np.nan]))
    assert f.dim == 1
    assert np.isnan(f.scalar[0])
    filled = fill_endpoints(f.scalar)
    assert filled[0] == 2.0 * 1.0 - 2.0  # linear extrapolation inward
    assert filled[-1] == 2.0 * 3.0 - 2.0
    with pytest.raises(ValueError):
        SampledFunction(grid, np.array([0.0, np.nan, 2.0, 3.0, 4.0]))


def test_non_finite_interior_sample_names_its_node():
    grid = Grid(0.0, 1.0, 4)
    values = np.zeros((5, 2))
    values[2, 1] = np.inf
    values[3, 0] = np.nan
    with pytest.raises(ValueError, match=r"interior node 2 \(t = 0\.5\)"):
        SampledFunction(grid, values)


def test_fill_endpoints_vector():
    v = np.array([[np.nan, 0.0], [1.0, 1.0], [2.0, 4.0]])
    out = fill_endpoints(v)
    assert out[0, 0] == 0.0 and out[0, 1] == 0.0


def test_sample_scalar_and_vector():
    grid = Grid(0.0, 1.0, 2)
    s = sample(grid, lambda t: t * 2.0)
    assert np.allclose(s.scalar, [0.0, 1.0, 2.0])
    v = sample(grid, lambda t: np.array([t, -t]))
    assert v.dim == 2


def test_point_field_fd_fallback_matches_analytic():
    analytic = PointField(
        lambda t, x, y: float(x[0] ** 2 + 3.0 * x[0] * y[0]),
        grad_x=lambda t, x, y: np.array([2.0 * x[0] + 3.0 * y[0]]),
        grad_y=lambda t, x, y: np.array([3.0 * x[0]]),
    )
    fd = PointField(analytic.evaluator)
    x, y = np.array([0.4]), np.array([-0.7])
    assert fd.d_x(0.1, x, y)[0] == pytest.approx(analytic.d_x(0.1, x, y)[0], abs=1e-6)
    assert fd.d_y(0.1, x, y)[0] == pytest.approx(analytic.d_y(0.1, x, y)[0], abs=1e-6)


def test_point_field_self_check():
    good = PointField(
        lambda t, x, y: float(x[0] * y[0]),
        grad_x=lambda t, x, y: y.copy(),
        grad_y=lambda t, x, y: x.copy(),
    )
    good.check_partials((0.0, 1.0), 1, np.random.default_rng(0))
    bad = PointField(
        lambda t, x, y: float(x[0] * y[0]),
        grad_x=lambda t, x, y: 5.0 + y,
    )
    with pytest.raises(ValueError):
        bad.check_partials((0.0, 1.0), 1, np.random.default_rng(0))


def test_vector_field_fd_jacobian():
    vf = VectorField(lambda t, x, y: np.array([x[0] * y[0], y[0] ** 2]))
    x, y = np.array([2.0]), np.array([3.0])
    J = vf.d_y(0.0, x, y)
    assert J.shape == (2, 1)
    assert J[0, 0] == pytest.approx(2.0, abs=1e-6)
    assert J[1, 0] == pytest.approx(6.0, abs=1e-6)


class _Counting:
    """Wraps an evaluator and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, t, x, y):
        self.calls += 1
        return self.fn(t, x, y)


@pytest.mark.parametrize("dim, expected", [(1, 2), (2, 4)])
def test_vector_field_fd_jacobian_evaluation_count(dim, expected):
    ev = _Counting(lambda t, x, y: np.array([x @ x * y[0], np.sin(x[0])]))
    vf = VectorField(ev)
    J = vf.d_x(0.3, np.linspace(0.1, 0.5, dim), np.array([0.7]))
    assert J.shape == (2, dim)
    assert ev.calls == expected


def test_point_field_hessian_evaluation_count():
    ev = _Counting(lambda t, x, y: float(np.sin(t) * x[0] ** 2 * y[0] + y[0] ** 3))
    M = 5
    t = np.linspace(0.1, 0.9, M)
    X = np.linspace(-0.5, 0.5, M)[:, None]
    Y = np.linspace(0.2, 1.0, M)[:, None]
    Hxx, Hxy, Hyy = PointField(ev).hessian(t, X, Y)
    assert Hxx.shape == Hxy.shape == Hyy.shape == (M, 1, 1)
    # base d_x and d_y (2 calls each), then one forward step in x of d_x and
    # one in y of d_x and d_y, each of those a central difference (2 calls)
    assert ev.calls == 10 * M
    assert Hxy[:, 0, 0] == pytest.approx(2.0 * np.sin(t) * X[:, 0], abs=1e-4)
    assert Hyy[:, 0, 0] == pytest.approx(6.0 * Y[:, 0], abs=1e-4)


def nonlinear_field(analytic: bool) -> PointField:
    """f = sin(t) x^2 y + y^3 + exp(x y) in one state, with its analytic
    gradient or none (central differences)."""

    def ev(t, x, y):
        return np.sin(t) * x[0] ** 2 * y[0] + y[0] ** 3 + np.exp(x[0] * y[0])

    if not analytic:
        return PointField(ev)
    return PointField(
        ev,
        grad_x=lambda t, x, y: np.array([2.0 * np.sin(t) * x[0] * y[0] + y[0] * np.exp(x[0] * y[0])]),
        grad_y=lambda t, x, y: np.array(
            [np.sin(t) * x[0] ** 2 + 3.0 * y[0] ** 2 + x[0] * np.exp(x[0] * y[0])]
        ),
    )


EPS = np.finfo(float).eps
# On t in [0, 1] and x, y in [-1, 1]: a forward difference's step
# 1e-6 (1 + |z|) lies in [1e-6, 2e-6]; |f| <= 2 + e; each gradient's terms
# sum to at most 4 + e; and the second partials, and the third ones in the
# truncation error (step / 2) f''' (f_xxx = y^3 e^(xy),
# f_xyy = (2x + x^2 y) e^(xy) and f_yyy = 6 + x^3 e^(xy)), are at most 6 + e.
STEP_MIN, STEP_MAX = 1e-6, 2e-6
F_MAX, GRAD_MAX, DERIV_MAX = 2.0 + np.e, 4.0 + np.e, 6.0 + np.e
# Rounding of one gradient value: a few ulps of its terms when analytic; for
# a central difference, the rounding of f over the width 2 step plus the
# representation error eps |z| <= eps of the perturbed coordinate.
GRAD_ROUNDING = {
    True: 8.0 * EPS * GRAD_MAX,
    False: 4.0 * EPS * F_MAX / (2.0 * STEP_MIN) + 2.0 * EPS * GRAD_MAX / STEP_MIN,
}


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
def test_point_field_hessian_matches_closed_form(analytic):
    """Forward differences of the gradient against the closed-form second
    partials at M points.  The error bound is the O(step) truncation,
    STEP_MAX / 2 * DERIV_MAX = 8.7e-6, plus twice a gradient's rounding and
    the step's own representation error over the step: 2.6e-8 more with
    analytic gradients (measured worst 6.2e-6), and 1.0e-2 more with central
    differences, whose rounding the second difference divides by the step
    again (measured worst 2.0e-4)."""
    rng = np.random.default_rng(17)
    M = 60
    t = rng.uniform(0.0, 1.0, M)
    X = rng.uniform(-1.0, 1.0, (M, 1))
    Y = rng.uniform(-1.0, 1.0, (M, 1))
    x, y, e = X[:, 0], Y[:, 0], np.exp(X[:, 0] * Y[:, 0])
    exact = (
        2.0 * np.sin(t) * y + y * y * e,
        2.0 * np.sin(t) * x + e + x * y * e,
        6.0 * y + x * x * e,
    )
    bound = 0.5 * STEP_MAX * DERIV_MAX + (2.0 * GRAD_ROUNDING[analytic] + EPS * DERIV_MAX) / STEP_MIN
    for H, H_exact in zip(nonlinear_field(analytic).hessian(t, X, Y), exact):
        assert H.shape == (M, 1, 1)
        assert np.max(np.abs(H[:, 0, 0] - H_exact)) <= bound
