"""Certifying a fractional isoperimetric extremal end to end.

The benchmark problem at alpha = 1/2:

    min  int_0^1 (t^4 + (D^0.5 q)^2) dt
    s.t. int_0^1 t^2 D^0.5 q dt = 1/5,   q(0) = 0,  q(1) = 2/gamma(3.5).

The trajectory q(t) = 2 t^2.5 / gamma(3.5) has fractional velocity t^2 and
is an extremal with multiplier lambda = 2.  We certify it, show that the
certificate is sharp (perturbations fail), and evaluate the conservation
laws along it.
"""

import numpy as np

from fracnoether import (
    FracOrder,
    Grid,
    PointField,
    SymmetryGenerator,
    VariationalProblem,
    certification_tolerance,
    constraint_values,
    euler_lagrange_residual,
    gamma,
    invariance_first_order_check,
    noether_law_residual,
    normality_check,
    sample,
)

order = FracOrder(0.5)
grid = Grid(0.0, 1.0, 2000)
L = PointField(lambda t, q, v: t**4 + float(v[0] ** 2))
g = PointField(lambda t, q, v: t * t * float(v[0]))
problem = VariationalProblem(
    order, L, grid,
    boundary_a=[0.0], boundary_b=[2.0 / gamma(3.5)],
    constraints=[g], constraint_levels=[0.2],
)
q = sample(grid, lambda t: 2.0 * t**2.5 / gamma(3.5))
lam = np.array([2.0])
tol = certification_tolerance(problem)

print("= Certification =")
print(f"constraint integral = {constraint_values(problem, q)[0]:.8f} (target 0.2)")
rep = euler_lagrange_residual(problem, lam, q)
print(f"EL residual sup = {rep.sup_norm:.3e}   tolerance = {tol:.3e}   "
      f"{'certified' if rep.passes(tol) else 'refuted'}")

print()
print("= The certificate is sharp =")
bump = sample(grid, lambda t: 0.1 * np.sin(np.pi * t))
rep_bad = euler_lagrange_residual(problem, lam, q + bump)
print(f"boundary-preserving 0.1-amplitude perturbation: sup = {rep_bad.sup_norm:.3e}")
print(f"ratio to the extremal's residual = {rep_bad.sup_norm / rep.sup_norm:.0f}x")
rep_lam = euler_lagrange_residual(problem, np.array([0.0]), q)
print(f"wrong multiplier (lambda = 0): sup = {rep_lam.sup_norm:.3e}")

print()
print("= Conservation law =")
print("With the constant generators tau = 1, xi = 1 the full fractional")
print("law D^alpha(F - alpha F_v v, tau) + D^alpha(F_v, xi) vanishes:")
gen = SymmetryGenerator(tau=lambda t, x: 1.0, xi=lambda t, x: np.ones(1))
rep_n = noether_law_residual(problem, lam, q, gen)
print(f"law residual sup = {rep_n.sup_norm:.3e}   ({'passes' if rep_n.passes(tol) else 'fails'})")

print()
print("= First-order invariance =")
print("dI/d(eps) at eps = 0, linearized: [tau F] at each window's ends plus the")
print("integral of d_q F . eta + d_v F . (D^alpha eta + moving-limit term),")
print("eta = xi - tau q'.  Under time translation (tau = 1, xi = 0):")
gen_shift = SymmetryGenerator(tau=lambda t, x: 1.0, xi=lambda t, x: np.zeros(1))
est = invariance_first_order_check(problem, lam, q, gen_shift)
print(f"  along the extremal with lambda = 2: {est.sup_norm:.3e} (near zero)")
est_bad = invariance_first_order_check(problem, np.array([0.0]), q, gen_shift)
print(f"  unaugmented (lambda = 0):           {est_bad.sup_norm:.3e} (not invariant)")

print()
print("= Normality =")
rep_g = normality_check(problem, q, 0)
print(f"constraint EL residual sup = {rep_g.sup_norm:.2f} (far from zero: the")
print("problem is normal and the multiplier is meaningful)")
