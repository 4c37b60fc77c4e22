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
    certification_tolerance,
    constraint_values,
    euler_lagrange_residual,
    frac_velocity,
    invariance_first_order_check,
    invariance_necessary_condition,
    make_report,
    momentum_law_residual,
    noether_law_residual,
    normality_check,
    objective_value,
    sample,
)

from fracnoether.problems import _compose, _sample_fields

from conftest import benchmark_extremal, benchmark_problem


def test_make_report_band_and_norms():
    grid = Grid(0.0, 1.0, 10)
    r = np.zeros(11)
    r[0] = np.nan
    r[1] = 100.0  # inside the default band, must not count
    r[5] = 2.0
    rep = make_report(grid, r, band=2)
    assert rep.sup_norm == 2.0
    assert rep.l2_norm == pytest.approx(np.sqrt(grid.h * 4.0))
    assert rep.excluded_band == 2
    assert rep.passes(2.0) and not rep.passes(1.9)
    # pointwise keeps the signed values including the excluded ones
    assert rep.pointwise.values[1, 0] == 100.0


def test_make_report_all_nan_rejected():
    grid = Grid(0.0, 1.0, 10)
    with pytest.raises(ValueError, match="non-finite sample at interior node 1"):
        make_report(grid, np.full(11, np.nan))


def test_make_report_rejects_a_band_that_leaves_no_node():
    grid = Grid(0.0, 1.0, 10)
    assert make_report(grid, np.ones(11), band=5).sup_norm == 1.0
    with pytest.raises(ValueError, match="leaves no node"):
        make_report(grid, np.ones(11), band=6)


def test_make_report_keeps_a_magnitude_that_overflows():
    """A finite residual whose square overflows keeps its size in sup_norm,
    with one component and with two; l2_norm, sqrt(h sum |r|^2), overflows
    to inf.  Neither is left out of the norms."""
    r = np.zeros(11)
    r[3], r[5] = 1.0, 1e200
    with np.errstate(over="ignore"):
        rep = make_report(Grid(0.0, 1.0, 10), r)
        pair = make_report(Grid(0.0, 1.0, 10), np.column_stack([r, r]))
    assert rep.sup_norm == 1e200 and rep.l2_norm == np.inf and not rep.passes(1.0)
    assert pair.sup_norm == np.hypot(1e200, 1e200) and pair.l2_norm == np.inf


def test_certification_tolerance_scales_with_scheme_order():
    p = benchmark_problem(100)
    assert certification_tolerance(p) == pytest.approx(10.0 * (1.0 / 100.0))
    p2 = benchmark_problem(200)
    assert certification_tolerance(p2) == pytest.approx(certification_tolerance(p) / 2.0)


def test_problem_validation():
    L = PointField(lambda t, q, v: 0.0)
    with pytest.raises(ValueError, match="boundary"):
        VariationalProblem(FracOrder(0.5), L, Grid(0.0, 1.0, 8), [0.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="levels"):
        VariationalProblem(
            FracOrder(0.5), L, Grid(0.0, 1.0, 8), [0.0], [0.0], constraints=[L]
        )
    p = benchmark_problem(8)
    with pytest.raises(ValueError, match="multipliers"):
        p.check_multipliers([1.0, 2.0])


def test_frac_velocity_of_extremal_is_t_squared(bench2000, bench2000_q):
    v = frac_velocity(bench2000_q, bench2000.order).scalar
    t = bench2000.grid.nodes
    mask = t >= 0.05
    assert np.max(np.abs(v[mask] - t[mask] ** 2) / t[mask] ** 2) <= 2e-3


def test_constraint_and_objective_values(bench2000, bench2000_q):
    cons = constraint_values(bench2000, bench2000_q)
    assert cons[0] == pytest.approx(0.2, abs=1e-4)
    # objective = int t^4 + t^4 dt = 2/5 along the extremal
    assert objective_value(bench2000, bench2000_q) == pytest.approx(0.4, abs=1e-4)


def test_augmented_lagrangian_composition(bench2000):
    F = augmented_lagrangian(bench2000, np.array([2.0]))
    t, q, v = 0.3, np.array([0.1]), np.array([0.4])
    expected = t**4 + v[0] ** 2 - 2.0 * t * t * v[0]
    assert F(t, q, v) == pytest.approx(expected, rel=1e-12)
    assert F.d_y(t, q, v)[0] == pytest.approx(2.0 * v[0] - 2.0 * t * t, rel=1e-12)


def test_el_residual_certifies_extremal(bench2000, bench2000_q):
    rep = euler_lagrange_residual(bench2000, np.array([2.0]), bench2000_q)
    assert rep.passes(certification_tolerance(bench2000))


def test_el_residual_rejects_wrong_multiplier(bench2000, bench2000_q):
    rep = euler_lagrange_residual(bench2000, np.array([0.0]), bench2000_q)
    assert not rep.passes(certification_tolerance(bench2000))
    assert rep.sup_norm > 1.0


def test_el_residual_rejects_perturbation(bench2000, bench2000_q):
    bump = sample(bench2000.grid, lambda t: 0.1 * np.sin(np.pi * t))
    good = euler_lagrange_residual(bench2000, np.array([2.0]), bench2000_q)
    bad = euler_lagrange_residual(bench2000, np.array([2.0]), bench2000_q + bump)
    assert bad.sup_norm >= 10.0 * good.sup_norm


def test_normality_check_flags_normal_problem(bench2000, bench2000_q):
    rep = normality_check(bench2000, bench2000_q, 0)
    assert rep.sup_norm > 1.0  # far from abnormal
    with pytest.raises(IndexError):
        normality_check(bench2000, bench2000_q, 1)


def test_classical_el_reduces_to_second_order_equation():
    # alpha = 1: residual of d_q F + (-d/dt) d_v F = -lambda - 2 qddot
    from conftest import classical_problem

    p = classical_problem(400)
    q = sample(p.grid, lambda t: 6.0 * t * (1.0 - t))
    rep = euler_lagrange_residual(p, np.array([24.0]), q)
    assert rep.sup_norm <= 1e-6


def whole_array(fn):
    fn.whole_array = True
    return fn


def two_constraint_problem(g2: PointField | None = None) -> VariationalProblem:
    """Two states and two constraints with analytic partials, none of them 0
    on the positive orthant:
    L = exp(x1) y1^2 + sin(x2) y2 + t, g1 = x1 x2 + y1 y2^2 + 1 and
    g2 = t x1^2 + x2^3 + exp(y2) + y1^3, unless ``g2`` is given."""
    L = PointField(
        whole_array(lambda t, x, y: np.exp(x[:, 0]) * y[:, 0] ** 2 + np.sin(x[:, 1]) * y[:, 1] + t),
        grad_x=whole_array(
            lambda t, x, y: np.column_stack([np.exp(x[:, 0]) * y[:, 0] ** 2, np.cos(x[:, 1]) * y[:, 1]])
        ),
        grad_y=whole_array(
            lambda t, x, y: np.column_stack([2.0 * np.exp(x[:, 0]) * y[:, 0], np.sin(x[:, 1])])
        ),
    )
    g1 = PointField(
        whole_array(lambda t, x, y: x[:, 0] * x[:, 1] + y[:, 0] * y[:, 1] ** 2 + 1.0),
        grad_x=whole_array(lambda t, x, y: x[:, ::-1].copy()),
        grad_y=whole_array(lambda t, x, y: np.column_stack([y[:, 1] ** 2, 2.0 * y[:, 0] * y[:, 1]])),
    )
    if g2 is None:
        g2 = PointField(
            whole_array(lambda t, x, y: t * x[:, 0] ** 2 + x[:, 1] ** 3 + np.exp(y[:, 1]) + y[:, 0] ** 3),
            grad_x=whole_array(lambda t, x, y: np.column_stack([2.0 * t * x[:, 0], 3.0 * x[:, 1] ** 2])),
            grad_y=whole_array(lambda t, x, y: np.column_stack([3.0 * y[:, 0] ** 2, np.exp(y[:, 1])])),
        )
    return VariationalProblem(
        FracOrder(0.5), L, Grid(0.0, 1.0, 10), [0.0, 0.0], [1.0, 1.0],
        constraints=[g1, g2], constraint_levels=[0.1, 0.2],
    )


def positive_points(M: int = 40):
    rng = np.random.default_rng(23)
    return rng.uniform(0.1, 0.9, M), rng.uniform(0.2, 1.0, (M, 2)), rng.uniform(0.2, 1.0, (M, 2))


def written_out(p: VariationalProblem, lam: np.ndarray) -> PointField:
    """F = L - lam_1 g_1 - lam_2 g_2 with every constraint subtracted, zero
    multipliers included."""

    def composed(part: str):
        def fn(t, x, y):
            out = np.array(getattr(p.lagrangian, part)(t, x, y), dtype=float)
            for lj, gj in zip(lam, p.constraints):
                out -= lj * getattr(gj, part)(t, x, y)
            return out

        return whole_array(fn)

    return PointField(composed("__call__"), grad_x=composed("d_x"), grad_y=composed("d_y"))


@pytest.mark.parametrize("lam", [(0.0, 0.0), (0.0, 0.7), (0.3, 0.7)])
def test_zero_multipliers_leave_F_bitwise_unchanged(lam):
    """A constraint with a zero multiplier is left out of F, which changes no
    bit of F, its partials, the solver's composition of them from samples, or
    its Hessian with or without given base partials."""
    p, lam = two_constraint_problem(), np.array(lam)
    t, X, Y = positive_points()
    F, ref = augmented_lagrangian(p, lam), written_out(p, lam)
    samples = _sample_fields(p, t, X, Y)
    for got, want in [
        (F(t, X, Y), ref(t, X, Y)),
        (F.d_x(t, X, Y), ref.d_x(t, X, Y)),
        (F.d_y(t, X, Y), ref.d_y(t, X, Y)),
        (samples.F_dx(lam), ref.d_x(t, X, Y)),
        (samples.F_dy(lam), ref.d_y(t, X, Y)),
    ]:
        assert got.tobytes() == want.tobytes()
    base = (samples.F_dx(lam), samples.F_dy(lam))
    for given, own, want in zip(F.hessian(t, X, Y, base=base), F.hessian(t, X, Y), ref.hessian(t, X, Y)):
        assert given.tobytes() == own.tobytes() == want.tobytes()


def test_a_zero_multiplier_keeps_a_non_finite_constraint_out_of_F():
    """g2 is NaN everywhere but at the sample points.  With its multiplier 0
    it is never evaluated, so F's Hessian, whose perturbed points are off
    the samples, stays finite (with every constraint subtracted, 0 NaN = NaN
    would fill it)."""
    t, X, Y = positive_points()

    def nan_off_samples(width: int | None):
        def fn(t, x, y):
            at_samples = np.all(x == X, axis=-1) & np.all(y == Y, axis=-1)
            if width is None:
                return np.where(at_samples, 1.0, np.nan)
            return np.where(at_samples[:, None], np.ones((len(t), width)), np.nan)

        return whole_array(fn)

    g2 = PointField(nan_off_samples(None), grad_x=nan_off_samples(2), grad_y=nan_off_samples(2))
    p, lam = two_constraint_problem(g2), np.array([0.3, 0.0])
    samples = _sample_fields(p, t, X, Y)
    assert all(np.isfinite(a).all() for a in (*samples.g, *samples.g_dx, *samples.g_dy))
    F = augmented_lagrangian(p, lam)
    for H in F.hessian(t, X, Y, base=(samples.F_dx(lam), samples.F_dy(lam))):
        assert np.isfinite(H).all()
    assert np.isnan(written_out(p, lam).hessian(t, X, Y)[0]).all()
    # nor does a NaN sample of g2 reach F's partials composed from samples
    nan = np.full_like(samples.L_dx, np.nan)
    assert np.isfinite(_compose(lam, samples.L_dx, [samples.g_dx[0], nan])).all()


FITTING_GEN = SymmetryGenerator(tau=lambda t, q: 0.0, xi=lambda t, q: np.ones_like(q))

VARIATIONAL_CHECKS = {
    "el": lambda p, q: euler_lagrange_residual(p, np.array([2.0]), q),
    "normality": lambda p, q: normality_check(p, q, 0),
    "constraint": constraint_values,
    "objective": objective_value,
    "noether": lambda p, q: noether_law_residual(p, np.array([2.0]), q, FITTING_GEN),
    "momentum": lambda p, q: momentum_law_residual(p, np.array([2.0]), q, FITTING_GEN),
    "invariance-necessary": lambda p, q: invariance_necessary_condition(p, np.array([2.0]), q, FITTING_GEN),
    "invariance-first-order": lambda p, q: invariance_first_order_check(p, np.array([2.0]), q, FITTING_GEN),
}

CANDIDATE_MISFITS = {
    "grid": (
        lambda grid: benchmark_extremal(Grid(0.0, 2.0, grid.m)),
        r"candidate grid Grid\(a=0.0, b=2.0, m=200\) is not the problem's Grid\(a=0.0, b=1.0, m=200\)",
    ),
    # a generator sampled before the check would name tau's shape instead
    "grid-size": (
        lambda grid: benchmark_extremal(Grid(0.0, 1.0, grid.m // 2)),
        r"candidate grid Grid\(a=0.0, b=1.0, m=100\) is not the problem's Grid\(a=0.0, b=1.0, m=200\)",
    ),
    "state": (
        lambda grid: SampledFunction(grid, np.column_stack([benchmark_extremal(grid).values] * 2)),
        "state has 2 components but the problem has 1",
    ),
}


@pytest.mark.parametrize("check", VARIATIONAL_CHECKS.values(), ids=VARIATIONAL_CHECKS)
@pytest.mark.parametrize("misfit", CANDIDATE_MISFITS)
def test_variational_checks_reject_a_candidate_that_does_not_fit(check, misfit):
    """A candidate on another grid, or with another number of states, is a
    ValueError naming the mismatch, as in the Hamiltonian checks, not a
    number (the EL sup of a two-state q would read 2.9e-3 and pass)."""
    problem = benchmark_problem(200)
    candidate, message = CANDIDATE_MISFITS[misfit]
    with pytest.raises(ValueError, match=message):
        check(problem, candidate(problem.grid))
