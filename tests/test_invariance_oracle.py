"""The invariance check against the eps-probe it replaced, as an oracle.

``invariance_first_order_check`` linearizes the transformed functional:
[tau F] at each window's ends plus the integral of d_q F . eta + d_v F .
(D^alpha eta + the moving-limit term), eta = xi - tau q'.  The probe below
transforms the curve itself: it resamples (t + eps tau, q + eps xi) on the
moved window at eps = +-1e-4 and +-5e-5, integrates F there and
Richardson-combines the centred differences.  The probe takes no partial
of F, no q' and no moving-limit term, so their agreement, shrinking with
the grid, checks each term of the linearization.
"""

import numpy as np
import pytest

from fracnoether import (
    FracOrder,
    Grid,
    PointField,
    SampledFunction,
    SymmetryGenerator,
    VariationalProblem,
    augmented_lagrangian,
    invariance_first_order_check,
    sample,
)
from fracnoether.noether import _SUBINTERVALS
from fracnoether.problems import _velocity_filled

_PROBE_EPS = 1e-4


def epsilon_probe(problem, lam, q, gen) -> np.ndarray:
    """Centered, Richardson-combined dI/d(eps) at eps = 0 over each window,
    from the transformed curve resampled on a uniform grid over the moved
    interval (the derivative's lower limit moves with it)."""
    F = augmented_lagrangian(problem, lam)
    grid = problem.grid
    t = grid.nodes
    taus, xis = gen.sampled_along(q)

    def integrand(eps):
        tbar = t + eps * taus
        assert np.all(np.diff(tbar) > 0.0), "transformed time map is not monotone"
        qbar = q.values + eps * xis
        moved = Grid(float(tbar[0]), float(tbar[-1]), grid.m)
        s = moved.nodes
        qres = np.column_stack([np.interp(s, tbar, qbar[:, i]) for i in range(q.dim)])
        vres = _velocity_filled(problem, SampledFunction(moved, qres))
        return np.interp(tbar, s, F(s, qres, vres)) * np.gradient(tbar, t)

    epsilons = (_PROBE_EPS, -_PROBE_EPS, _PROBE_EPS / 2, -_PROBE_EPS / 2)
    values = {eps: integrand(eps) for eps in epsilons}
    estimates = []
    for lo, hi in _SUBINTERVALS:
        i, j = round(lo * grid.m), round(hi * grid.m)

        def ival(eps):
            return np.trapezoid(values[eps][i : j + 1], t[i : j + 1])

        d1 = (ival(_PROBE_EPS) - ival(-_PROBE_EPS)) / (2.0 * _PROBE_EPS)
        d2 = (ival(_PROBE_EPS / 2) - ival(-_PROBE_EPS / 2)) / _PROBE_EPS
        estimates.append((4.0 * d2 - d1) / 3.0)
    return np.array(estimates)


def whole_array(fn):
    fn.whole_array = True
    return fn


def benchmark_at(alpha: float, m: int) -> VariationalProblem:
    """The benchmark's L = t^4 + v^2 and g = t^2 v at order alpha, whole-array."""
    L = PointField(
        whole_array(lambda t, x, v: t**4 + v[:, 0] ** 2),
        grad_x=whole_array(lambda t, x, v: np.zeros_like(x)),
        grad_y=whole_array(lambda t, x, v: 2.0 * v),
    )
    g = PointField(
        whole_array(lambda t, x, v: t * t * v[:, 0]),
        grad_x=whole_array(lambda t, x, v: np.zeros_like(x)),
        grad_y=whole_array(lambda t, x, v: (t * t)[:, None]),
    )
    return VariationalProblem(
        FracOrder(alpha), L, Grid(0.0, 1.0, m), [0.0], [1.0], constraints=[g], constraint_levels=[0.2]
    )


def two_state(m: int) -> VariationalProblem:
    """L = |v|^2, g = |q|^2 at 0.6, alpha = 0.5, q(0) = (1, 0), q(1) = (0.2,
    0.9): both fields are invariant under rotations of q."""
    L = PointField(
        whole_array(lambda t, x, v: np.sum(v * v, axis=1)),
        grad_x=whole_array(lambda t, x, v: np.zeros_like(x)),
        grad_y=whole_array(lambda t, x, v: 2.0 * v),
    )
    g = PointField(
        whole_array(lambda t, x, v: np.sum(x * x, axis=1)),
        grad_x=whole_array(lambda t, x, v: 2.0 * x),
        grad_y=whole_array(lambda t, x, v: np.zeros_like(v)),
    )
    return VariationalProblem(
        FracOrder(0.5), L, Grid(0.0, 1.0, m), [1.0, 0.0], [0.2, 0.9], constraints=[g], constraint_levels=[0.6]
    )


def one_state_curve(q_a: float):
    """A non-extremal curve from q(0) = q_a."""
    return lambda t: q_a + 0.8 * t + 0.3 * np.sin(3.0 * t)


def two_state_curve(t):
    """A non-extremal curve between the two-state problem's boundary values."""
    s = 0.2 * np.sin(np.pi * t)
    return np.array([1.0 - 0.8 * t + s, 0.9 * t + s])


ONE_STATE_XI = lambda t, x: np.array([0.2 + 0.5 * t * x[0]])
ONE_STATE_TAUS = {
    "tau=0.5t": lambda t, x: 0.5 * t,
    "tau=1+t^2": lambda t, x: 1.0 + t * t,
    "tau=0.2q": lambda t, x: 0.2 * x[0],
}

CASES = [
    pytest.param(
        lambda m, alpha=alpha: benchmark_at(alpha, m),
        one_state_curve(q_a),
        SymmetryGenerator(tau=tau, xi=ONE_STATE_XI),
        (1000, 4000) if alpha < 1.0 else (500, 2000),
        id=f"alpha={alpha}-q(a)={q_a}-{name}",
    )
    for alpha in (0.5, 1.0)
    for q_a in (0.0, 0.4)
    for name, tau in ONE_STATE_TAUS.items()
] + [
    pytest.param(
        two_state,
        two_state_curve,
        SymmetryGenerator(tau=lambda t, x: t, xi=lambda t, x: 0.5 * x),
        (1000, 4000),
        id="two-state-stretch",
    ),
    pytest.param(
        two_state,
        two_state_curve,
        SymmetryGenerator(tau=lambda t, x: 1.0 + t * t, xi=lambda t, x: np.zeros(2)),
        (1000, 4000),
        id="two-state-tau=1+t^2",
    ),
]

ROTATION = SymmetryGenerator(tau=lambda t, x: 0.0, xi=lambda t, x: np.array([-x[1], x[0]]))


def relative_gap(problem, curve, gen) -> float:
    """Largest gap between the check's and the probe's estimates, relative
    to the probe's largest."""
    q = sample(problem.grid, curve)
    lam = np.array([2.0])
    check = invariance_first_order_check(problem, lam, q, gen).pointwise.values[:, 0]
    probe = epsilon_probe(problem, lam, q, gen)
    return float(np.max(np.abs(check - probe)) / np.max(np.abs(probe)))


@pytest.mark.parametrize("build, curve, gen, sizes", CASES)
def test_the_linearized_check_converges_to_the_probe(build, curve, gen, sizes):
    """The gap shrinks at the scheme's order 2 - alpha: by 4^(2 - alpha)
    when m grows 4-fold, 8 at alpha = 1/2 and 16 at alpha = 1.  Measured
    ratios are 7.8-8.4 at alpha = 1/2 (17.9 for the two-state tau = 1 + t^2)
    and 15.4-16.2 at alpha = 1, so the floor is 7/8 of the limit ratio."""
    coarse, fine = (build(m) for m in sizes)
    floor = 0.875 * (fine.grid.m / coarse.grid.m) ** (2.0 - coarse.order.alpha)
    coarse_gap, fine_gap = (relative_gap(problem, curve, gen) for problem in (coarse, fine))
    assert fine_gap <= 1e-4
    assert coarse_gap >= floor * fine_gap


@pytest.mark.parametrize("m", [1000, 4000])
def test_rotation_reads_zero_on_both(m):
    """|v|^2 and |q|^2 are invariant under rotations of q, so the check and
    the probe both read 0 up to rounding."""
    problem = two_state(m)
    q = sample(problem.grid, two_state_curve)
    lam = np.array([2.0])
    check = invariance_first_order_check(problem, lam, q, ROTATION)
    assert check.sup_norm <= 1e-10
    assert np.max(np.abs(epsilon_probe(problem, lam, q, ROTATION))) <= 1e-10
