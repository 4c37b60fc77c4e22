"""Command line front end.

    fracnoether check   [--which el|noether|momentum|hamiltonian|invariance] SPEC
    fracnoether solve   SPEC
    fracnoether selftest

Every run writes a JSON report plus per-node CSV residual/trajectory
profiles into the output directory.  Exit codes: 0 all checks passed,
1 a residual exceeded its tolerance, 2 the computation failed or the
output directory cannot be written, 3 the spec file is invalid.  Formats
are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import math
import os
import sys

import numpy as np

from . import frac_kernels as fk
from . import gammafn, solver
from .exprspec import ProblemSpec, SpecError, parse_spec
from .fields import PointField, VectorField
from .grids import FracOrder, Grid, SampledFunction, sample
from .hamiltonian import (
    ControlProblem,
    PontryaginExtremal,
    autonomous_energy_residual,
    pontryagin_residuals,
)
from .noether import (
    SymmetryGenerator,
    invariance_first_order_check,
    momentum_law_residual,
    noether_law_residual,
)
from .problems import (
    INVARIANCE_TOLERANCE,
    ResidualReport,
    VariationalProblem,
    certification_tolerance,
    constraint_values,
    endpoint_band,
    euler_lagrange_residual,
)

__all__ = ["main"]

EXIT_PASS = 0
EXIT_RESIDUAL = 1
EXIT_COMPUTE = 2
EXIT_SPEC = 3

_CHECK_KINDS = ("el", "noether", "momentum", "hamiltonian", "invariance")


# --------------------------------------------------------------------------
# spec -> library objects
# --------------------------------------------------------------------------


def _load_spec(args: argparse.Namespace) -> ProblemSpec:
    """The spec file ``args.spec`` with the command-line overrides applied; a
    path that cannot be read as UTF-8 text (missing, a directory, unreadable,
    binary) or an override out of range is a SpecError."""
    try:
        spec = parse_spec(args.spec)
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(str(exc)) from exc
    if getattr(args, "grid", None) is not None:
        spec.m = int(args.grid)
        if spec.m < 2:
            raise SpecError("--grid must be >= 2")
    if getattr(args, "alpha", None) is not None:
        spec.alpha = float(args.alpha)
        if not 0.0 < spec.alpha <= 1.0:
            raise SpecError("--alpha must lie in (0, 1]")
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise SpecError("--tol must be finite and >= 0")
    return spec


def _time_curve(spec: ProblemSpec, key: str, texts: list[str]) -> SampledFunction:
    return sample(Grid(spec.a, spec.b, spec.m), spec.compile(key, texts))


def _generator(spec: ProblemSpec) -> SymmetryGenerator:
    if spec.tau is None and spec.xi is None:
        raise SpecError("this check needs symmetry generators: add 'tau' and/or 'xi1..'")
    return SymmetryGenerator(
        tau=spec.compile("tau", spec.tau or "0"),
        xi=spec.compile("xi", spec.xi or ["0"] * spec.dim),
    )


def build_variational(spec: ProblemSpec) -> VariationalProblem:
    if spec.is_control:
        raise SpecError("spec declares dynamics (phi1..); use a control check instead")
    if spec.q_b is None:
        raise SpecError("variational specs need final boundary values 'q_b1..'")
    return VariationalProblem(
        order=FracOrder(spec.alpha),
        lagrangian=PointField(spec.compile("L", spec.lagrangian)),
        grid=Grid(spec.a, spec.b, spec.m),
        boundary_a=np.array(spec.q_a),
        boundary_b=np.array(spec.q_b),
        constraints=[PointField(spec.compile("g", g)) for g in spec.constraints],
        constraint_levels=np.array(spec.levels),
    )


def build_control(spec: ProblemSpec) -> ControlProblem:
    if not spec.is_control:
        raise SpecError("hamiltonian checks need dynamics expressions 'phi1..'")
    return ControlProblem(
        order=FracOrder(spec.alpha),
        lagrangian=PointField(spec.compile("L", spec.lagrangian)),
        dynamics=VectorField(spec.compile("phi", spec.dynamics)),
        grid=Grid(spec.a, spec.b, spec.m),
        initial=np.array(spec.q_a),
        control_dim=spec.control_dim,
        constraints=[PointField(spec.compile("g", g)) for g in spec.constraints],
        constraint_levels=np.array(spec.levels),
    )


def _candidate(spec: ProblemSpec) -> SampledFunction:
    if spec.trajectory is None:
        raise SpecError("this command needs a candidate trajectory ('trajectory1..')")
    return _time_curve(spec, "trajectory", spec.trajectory)


def _multipliers(spec: ProblemSpec) -> np.ndarray:
    if spec.k == 0:
        return np.zeros(0)
    if spec.multipliers is None:
        raise SpecError("this check needs multipliers ('lambda1..')")
    return np.array(spec.multipliers)


def _extremal(spec: ProblemSpec) -> PontryaginExtremal:
    if spec.control is None or spec.costate is None:
        raise SpecError("hamiltonian checks need 'control1..' and 'costate1..'")
    return PontryaginExtremal(
        q=_candidate(spec),
        u=_time_curve(spec, "control", spec.control),
        p=_time_curve(spec, "costate", spec.costate),
        lam=_multipliers(spec),
    )


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------


class _OutputError(Exception):
    """The output directory cannot be created, or a file in it written."""


def _output_dir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise _OutputError(exc) from exc
    return path


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _OutputError(exc) from exc


def _write_json(path: str, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """CSV of the columns side by side, each number as its float repr (so
    NaN is written as nan); no field needs quoting."""
    table = np.column_stack(columns)
    # %r formats a float by its repr; one join sizes the text exactly, where
    # one format over the whole table grows its buffer and fragments the heap
    row = ",".join(["%r"] * table.shape[1]) + "\n"
    lines = map(row.__mod__, map(tuple, table.tolist()))
    _write_text(path, "".join([",".join(header) + "\n", *lines]))


def _write_profile(path: str, report: ResidualReport) -> None:
    """CSV with columns t, r1..rn, abs_r; endpoint NaN markers written as nan."""
    values = report.pointwise.values
    mag = np.sqrt(np.sum(values * values, axis=1))
    header = ["t"] + [f"r{i + 1}" for i in range(values.shape[1])] + ["abs_r"]
    _write_csv(path, header, [report.grid.nodes, values, mag])


def _report_entry(name: str, report: ResidualReport, tol: float, profile: str | None) -> dict:
    entry = {
        "name": name,
        "sup_norm": report.sup_norm,
        "l2_norm": report.l2_norm,
        "excluded_band": report.excluded_band,
        "tolerance": tol,
        "pass": bool(report.passes(tol)),
    }
    if profile is not None:
        entry["profile"] = profile
    return entry


def _grid_meta(spec: ProblemSpec) -> dict:
    return {"a": spec.a, "b": spec.b, "m": spec.m, "h": (spec.b - spec.a) / spec.m}


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    out = _output_dir(args.out)
    which = args.which
    problem = build_control(spec) if which == "hamiltonian" else build_variational(spec)
    default = INVARIANCE_TOLERANCE if which == "invariance" else certification_tolerance(problem)
    tol = args.tol if args.tol is not None else default
    band = endpoint_band(spec.m)

    entries = []
    if which == "hamiltonian":
        ext = _extremal(spec)
        names = ("state", "costate", "stationarity")
        for name, rep in zip(names, pontryagin_residuals(problem, ext, band=band)):
            profile = os.path.join(out, f"hamiltonian_{name}_profile.csv")
            _write_profile(profile, rep)
            entries.append(_report_entry(f"hamiltonian_{name}", rep, tol, profile))
    else:
        q = _candidate(spec)
        lam = _multipliers(spec)
        if which == "el":
            rep = euler_lagrange_residual(problem, lam, q, band=band)
        elif which == "noether":
            rep = noether_law_residual(problem, lam, q, _generator(spec), band=band)
        elif which == "momentum":
            # the momentum law is the tau == 0 specialization; ignore any
            # declared time component of the generator
            gen = SymmetryGenerator(tau=spec.compile("tau", "0"), xi=_generator(spec).xi)
            rep = momentum_law_residual(problem, lam, q, gen, band=band)
        elif which == "invariance":
            rep = invariance_first_order_check(problem, lam, q, _generator(spec))
        else:
            raise SpecError(f"unknown check kind {which!r}")
        profile = os.path.join(out, f"{which}_profile.csv")
        _write_profile(profile, rep)
        entries.append(_report_entry(which, rep, tol, profile))

    passed = all(e["pass"] for e in entries)
    doc = {
        "command": "check",
        "which": which,
        "spec": args.spec,
        "alpha": spec.alpha,
        "grid": _grid_meta(spec),
        "checks": entries,
        "passed": passed,
    }
    report_path = os.path.join(out, "report.json")
    _write_json(report_path, doc)
    for e in entries:
        print(f"{e['name']:<26} sup = {e['sup_norm']:.3e}  tol = {e['tolerance']:.3e}  "
              f"{'PASS' if e['pass'] else 'FAIL'}")
    print(f"report: {report_path}")
    return EXIT_PASS if passed else EXIT_RESIDUAL


def _write_trajectory(
    path: str, q: SampledFunction, reference: SampledFunction | None
) -> None:
    header = ["t"] + [f"q{i + 1}" for i in range(q.dim)]
    columns = [q.grid.nodes, q.values]
    if reference is not None:
        header += [f"deviation{i + 1}" for i in range(q.dim)]
        columns.append(q.values - reference.values)
    _write_csv(path, header, columns)


def cmd_solve(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    out = _output_dir(args.out)
    problem = build_variational(spec)
    sol = solver.solve(problem)

    reference = _candidate(spec) if spec.trajectory is not None else None
    traj_path = os.path.join(out, "trajectory.csv")
    _write_trajectory(traj_path, sol.q, reference)
    profile = os.path.join(out, "el_profile.csv")
    _write_profile(profile, sol.el_report)

    tol = args.tol if args.tol is not None else certification_tolerance(problem)
    doc = {
        "command": "solve",
        "spec": args.spec,
        "alpha": spec.alpha,
        "grid": _grid_meta(spec),
        "converged": bool(sol.converged),
        "iterations": sol.iterations,
        "stationarity_norm": sol.stationarity_norm,
        "stop_reason": sol.stop_reason,
        "multipliers": [float(v) for v in sol.lam],
        "constraint_residual": [float(v) for v in sol.constraint_residual],
        "el": _report_entry("el", sol.el_report, tol, profile),
        "trajectory": traj_path,
    }
    if reference is not None:
        dev = np.nanmax(np.abs(sol.q.values - reference.values))
        scale = max(1.0, float(np.nanmax(np.abs(reference.values))))
        doc["max_deviation"] = float(dev)
        doc["scaled_max_deviation"] = float(dev / scale)
    report_path = os.path.join(out, "report.json")
    _write_json(report_path, doc)

    print(f"converged = {sol.converged} after {sol.iterations} iterations")
    print(f"multipliers = {[float(v) for v in sol.lam]}")
    print(f"el sup = {sol.el_report.sup_norm:.3e}  tol = {tol:.3e}")
    print(f"report: {report_path}")
    if not sol.converged:
        print(f"solver did not converge: {sol.stop_reason}", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_PASS if doc["el"]["pass"] else EXIT_RESIDUAL


# --------------------------------------------------------------------------
# selftest
# --------------------------------------------------------------------------


def _bundled_spec(name: str) -> str:
    return str(importlib.resources.files("fracnoether") / "specs" / name)


def _selftest_cases() -> list[tuple[str, float, float]]:
    """(name, measured value, threshold) triples; value <= threshold passes."""
    cases = []

    # gamma oracle: exact values on both sides of the origin
    gerr = max(
        abs(gammafn.gamma(0.5) - math.sqrt(math.pi)),
        abs(gammafn.gamma(6.0) - 120.0),
        abs(gammafn.gamma(-0.5) + 2.0 * math.sqrt(math.pi)),
    )
    cases.append(("gamma-values", gerr, 1e-12))

    # kernel oracles: power and constant closed-form rules at alpha = 1/2
    order = FracOrder(0.5)
    grid = Grid(0.0, 1.0, 2000)
    t = grid.nodes
    mask = t >= 0.05
    power = fk.PowerShifted(1.0, 2.0, 0.0)
    num = fk.left_rl_derivative(sample(grid, lambda s: s * s), order).scalar
    exact = np.array([fk.closed_form_left_derivative(power, order, s) for s in t[mask]])
    cases.append(
        ("kernel-power-rule", float(np.max(np.abs(num[mask] - exact) / np.abs(exact))), 1e-3)
    )
    num = fk.left_rl_derivative(sample(grid, lambda s: 1.0), order).scalar
    exact = np.array(
        [fk.closed_form_left_derivative(fk.Constant(1.0, 0.0), order, s) for s in t[mask]]
    )
    cases.append(
        ("kernel-constant-rule", float(np.max(np.abs(num[mask] - exact) / np.abs(exact))), 1e-3)
    )

    # benchmark spec end to end: certification, constraint, conservation law
    spec = parse_spec(_bundled_spec("example1.spec"))
    problem = build_variational(spec)
    q = _candidate(spec)
    lam = _multipliers(spec)
    tol = certification_tolerance(problem)
    cases.append(("benchmark-el", euler_lagrange_residual(problem, lam, q).sup_norm, tol))
    cases.append(
        (
            "benchmark-constraint",
            float(np.max(np.abs(constraint_values(problem, q) - problem.constraint_levels))),
            1e-4,
        )
    )
    cases.append(
        ("benchmark-noether", noether_law_residual(problem, lam, q, _generator(spec)).sup_norm, tol)
    )

    # classical limit: quadratic-velocity isoperimetric problem, exact parabola
    cgrid = Grid(0.0, 1.0, 500)
    cl_problem = VariationalProblem(
        order=FracOrder(1.0),
        lagrangian=PointField(
            lambda tt, x, y: float(y[0] ** 2),
            grad_x=lambda tt, x, y: np.zeros(1),
            grad_y=lambda tt, x, y: 2.0 * y,
        ),
        grid=cgrid,
        boundary_a=np.zeros(1),
        boundary_b=np.zeros(1),
        constraints=[
            PointField(
                lambda tt, x, y: float(x[0]),
                grad_x=lambda tt, x, y: np.ones(1),
                grad_y=lambda tt, x, y: np.zeros(1),
            )
        ],
        constraint_levels=np.array([1.0]),
    )
    sol = solver.solve(cl_problem)
    parabola = 6.0 * cgrid.nodes * (1.0 - cgrid.nodes)
    cases.append(
        ("classical-trajectory", float(np.max(np.abs(sol.q.scalar - parabola))), 1e-5)
    )
    cases.append(("classical-multiplier", abs(float(sol.lam[0]) - 24.0), 1e-4))

    # control lift of the benchmark: phi = u, control = fractional velocity
    lift = ControlProblem(
        order=FracOrder(spec.alpha),
        lagrangian=PointField(lambda tt, x, y: tt**4 + float(y[0] ** 2)),
        dynamics=VectorField(lambda tt, x, y: y.copy()),
        grid=Grid(spec.a, spec.b, spec.m),
        initial=np.array(spec.q_a),
        constraints=[PointField(lambda tt, x, y: tt * tt * float(y[0]))],
        constraint_levels=np.array(spec.levels),
    )
    spec.control, spec.costate = ["t^2"], ["0"]
    reps = pontryagin_residuals(lift, _extremal(spec))
    cases.append(("pontryagin-system", max(r.sup_norm for r in reps), tol))

    # autonomous control spec: energy law holds exactly along its extremal
    spec2 = parse_spec(_bundled_spec("example2.spec"))
    energy = autonomous_energy_residual(build_control(spec2), _extremal(spec2))
    cases.append(("autonomous-energy-law", energy.sup_norm, 1e-8))
    return cases


def cmd_selftest(args: argparse.Namespace) -> int:
    out = _output_dir(args.out)
    cases = _selftest_cases()
    entries = []
    for name, value, threshold in cases:
        ok = value <= threshold
        entries.append({"name": name, "value": value, "threshold": threshold, "pass": ok})
        print(f"{name:<26} {value:.3e} <= {threshold:.3e}  {'PASS' if ok else 'FAIL'}")
    passed = all(e["pass"] for e in entries)
    doc = {"command": "selftest", "checks": entries, "passed": passed}
    report_path = os.path.join(out, "report.json")
    _write_json(report_path, doc)
    print(f"report: {report_path}")
    return EXIT_PASS if passed else EXIT_RESIDUAL


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracnoether",
        description="Fractional isoperimetric variational calculus: "
        "residual checks, conservation laws, and a direct solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_spec: bool) -> None:
        p.add_argument("--grid", type=int, default=None, help="override grid size m")
        p.add_argument("--alpha", type=float, default=None, help="override the order alpha")
        p.add_argument("--tol", type=float, default=None, help="override residual tolerance")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        if needs_spec:
            p.add_argument("spec", help="problem spec file")

    pc = sub.add_parser("check", help="evaluate residuals along a candidate trajectory")
    pc.add_argument(
        "--which", choices=_CHECK_KINDS, default="el", help="which residual to evaluate"
    )
    common(pc, needs_spec=True)
    pc.set_defaults(func=cmd_check)

    ps = sub.add_parser("solve", help="solve for an extremal by direct transcription")
    common(ps, needs_spec=True)
    ps.set_defaults(func=cmd_solve)

    pt = sub.add_parser("selftest", help="run the bundled oracle suite")
    common(pt, needs_spec=False)
    pt.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (
        gammafn.GammaPoleError,
        fk.UnsupportedOrderError,
        solver.SolverError,
        ValueError,
        ArithmeticError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
