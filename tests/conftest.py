import numpy as np
import pytest

from fracnoether import (
    ControlProblem,
    FracOrder,
    Grid,
    PointField,
    VariationalProblem,
    VectorField,
    gamma,
    sample,
)

ALPHA = 0.5


def benchmark_fields() -> tuple[PointField, PointField]:
    """L = t^4 + v^2 and g = t^2 v with analytic gradients."""
    L = PointField(
        lambda t, q, v: t**4 + float(v[0] ** 2),
        grad_x=lambda t, q, v: np.zeros(1),
        grad_y=lambda t, q, v: 2.0 * v,
    )
    g = PointField(
        lambda t, q, v: t * t * float(v[0]),
        grad_x=lambda t, q, v: np.zeros(1),
        grad_y=lambda t, q, v: np.array([t * t]),
    )
    return L, g


def benchmark_problem(m: int = 2000) -> VariationalProblem:
    """Order-1/2 isoperimetric problem with closed-form extremal."""
    L, g = benchmark_fields()
    return VariationalProblem(
        order=FracOrder(ALPHA),
        lagrangian=L,
        grid=Grid(0.0, 1.0, m),
        boundary_a=[0.0],
        boundary_b=[2.0 / gamma(ALPHA + 3.0)],
        constraints=[g],
        constraint_levels=[0.2],
    )


def benchmark_extremal(grid: Grid):
    """q(t) = 2 t^(alpha+2) / gamma(alpha+3); fractional velocity t^2."""
    c = 2.0 / gamma(ALPHA + 3.0)
    return sample(grid, lambda t: c * t ** (ALPHA + 2.0))


def lifted_benchmark(grid: Grid = Grid(0.0, 1.0, 2000)) -> ControlProblem:
    """phi = u turns the variational benchmark into a control problem."""
    return ControlProblem(
        order=FracOrder(ALPHA),
        lagrangian=PointField(lambda t, q, u: t**4 + float(u[0] ** 2)),
        dynamics=VectorField(lambda t, q, u: u.copy()),
        grid=grid,
        initial=[0.0],
        constraints=[PointField(lambda t, q, u: t * t * float(u[0]))],
        constraint_levels=[0.2],
    )


def classical_problem(m: int = 500, level: float = 1.0) -> VariationalProblem:
    """alpha = 1: L = qdot^2, int q = level, zero boundary; extremal
    q = 6*level*t*(1-t) with multiplier 24*level."""
    L = PointField(
        lambda t, q, v: float(v[0] ** 2),
        grad_x=lambda t, q, v: np.zeros(1),
        grad_y=lambda t, q, v: 2.0 * v,
    )
    g = PointField(
        lambda t, q, v: float(q[0]),
        grad_x=lambda t, q, v: np.ones(1),
        grad_y=lambda t, q, v: np.zeros(1),
    )
    return VariationalProblem(
        order=FracOrder(1.0),
        lagrangian=L,
        grid=Grid(0.0, 1.0, m),
        boundary_a=[0.0],
        boundary_b=[0.0],
        constraints=[g],
        constraint_levels=[level],
    )


class SweepCounter:
    """Wraps per-point callables and counts their sweeps: a sweep is a run of
    calls at increasing t, which is how the library evaluates a field at M
    points."""

    def __init__(self):
        self.sweeps = 0

    def wrap(self, fn):
        last = [np.inf]

        def counted(t, *args):
            if t <= last[0]:
                self.sweeps += 1
            last[0] = t
            return fn(t, *args)

        return counted


@pytest.fixture(scope="session")
def bench2000():
    return benchmark_problem(2000)


@pytest.fixture(scope="session")
def bench2000_q(bench2000):
    return benchmark_extremal(bench2000.grid)
