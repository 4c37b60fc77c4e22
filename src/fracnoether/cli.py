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
import dataclasses
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
    _magnitude,
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
    binary), an override that breaks a rule of the spec's values, or a bad
    ``--tol`` is a SpecError."""
    try:
        spec = parse_spec(args.spec)
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(str(exc)) from exc
    overrides = {"m": args.grid, "alpha": args.alpha}
    spec = dataclasses.replace(spec, **{k: v for k, v in overrides.items() if v is not None})
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise SpecError("--tol must be finite and >= 0")
    return spec


def _time_curve(spec: ProblemSpec, key: str, texts: list[str]) -> SampledFunction:
    """``texts`` sampled on the spec's grid.  A non-finite value is
    SampledFunction's error, which names its node, so numpy's warnings on
    the way to it are not shown."""
    f = spec.compile(key, texts)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return sample(Grid(spec.a, spec.b, spec.m), f)


def _generator(spec: ProblemSpec) -> SymmetryGenerator:
    if spec.tau is None and spec.xi is None:
        raise SpecError("this check needs symmetry generators: add 'tau' and/or 'xi1..'")
    return SymmetryGenerator(
        tau=spec.compile("tau", spec.tau or "0"),
        xi=spec.compile("xi", spec.xi or ["0"] * spec.dim),
    )


def _point_field(spec: ProblemSpec, key: str, text: str) -> PointField:
    """The field of ``text`` under ``key``, with the partials of its tree."""
    return PointField(spec.compile(key, text), *spec.partials(key, text))


def _isoperimetric(spec: ProblemSpec) -> dict:
    """The arguments that variational and control problems share."""
    return dict(
        order=FracOrder(spec.alpha),
        lagrangian=_point_field(spec, "L", spec.lagrangian),
        grid=Grid(spec.a, spec.b, spec.m),
        constraints=[_point_field(spec, "g", g) for g in spec.constraints],
        constraint_levels=np.array(spec.levels),
    )


def build_variational(spec: ProblemSpec) -> VariationalProblem:
    if spec.is_control:
        raise SpecError("spec declares dynamics (phi1..); use a control check instead")
    if spec.q_b is None:
        raise SpecError("variational specs need final boundary values 'q_b1..'")
    return VariationalProblem(
        boundary_a=np.array(spec.q_a), boundary_b=np.array(spec.q_b), **_isoperimetric(spec)
    )


def build_control(spec: ProblemSpec) -> ControlProblem:
    if not spec.is_control:
        raise SpecError("hamiltonian checks need dynamics expressions 'phi1..'")
    return ControlProblem(
        dynamics=VectorField(
            spec.compile("phi", spec.dynamics), *spec.partials("phi", spec.dynamics)
        ),
        initial=np.array(spec.q_a),
        control_dim=spec.control_dim,
        **_isoperimetric(spec),
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


def _reprs(values: np.ndarray) -> list[str]:
    """Each number of the 1-D float array ``values`` as its float repr."""
    return list(map(repr, values.tolist()))


def _write_csv(path: str, header: list[str], columns: list[np.ndarray | list[str]]) -> None:
    """CSV of the columns side by side: each number of a float array (1-D,
    or 2-D for several columns) as its float repr, so NaN is written as nan,
    and a list of strings as its text; no field needs quoting.  Each column
    is made text once, and one join of the header, the rows and a final
    empty line makes the whole file."""
    cells = []
    for column in columns:
        if isinstance(column, list):
            cells.append(column)
        else:
            cells += map(_reprs, column.reshape(len(column), -1).T)
    _write_text(path, "\n".join([",".join(header), *map(",".join, zip(*cells)), ""]))


def _write_profile(path: str, report: ResidualReport, t: list[str]) -> None:
    """CSV with columns t, r1..rn, abs_r; endpoint NaN markers written as nan.
    ``t`` is the text of the report's grid nodes, which a command makes once
    for all the files it writes on that grid.  With one component abs_r is
    exactly |r1|, so its text is r1's without the sign, and each residual
    is formatted once."""
    values = report.pointwise.values
    header = ["t"] + [f"r{i + 1}" for i in range(values.shape[1])] + ["abs_r"]
    if values.shape[1] == 1:
        r1 = _reprs(values[:, 0])
        columns = [t, r1, [text.removeprefix("-") for text in r1]]
    else:
        columns = [t, values, _magnitude(values)]
    _write_csv(path, header, columns)


def _report_entry(name: str, report: ResidualReport, tol: float, profile: str) -> dict:
    return {
        "name": name,
        "sup_norm": report.sup_norm,
        "l2_norm": report.l2_norm,
        "excluded_band": report.excluded_band,
        "tolerance": tol,
        "pass": bool(report.passes(tol)),
        "profile": profile,
    }


def _spec_fields(args: argparse.Namespace, spec: ProblemSpec) -> dict:
    """The report fields that check and solve share."""
    grid = {"a": spec.a, "b": spec.b, "m": spec.m, "h": (spec.b - spec.a) / spec.m}
    return {"spec": args.spec, "alpha": spec.alpha, "grid": grid}


def _write_report(out: str, doc: dict, lines: list[str]) -> None:
    """Write ``doc`` as ``out``/report.json, then print ``lines`` and the
    report's path."""
    path = os.path.join(out, "report.json")
    _write_json(path, doc)
    for line in lines:
        print(line)
    print(f"report: {path}")


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def _check_reports(
    which: str, spec: ProblemSpec, problem: VariationalProblem | ControlProblem, band: int
) -> list[tuple[str, ResidualReport]]:
    """(name, report) pairs of the check ``which``: three for hamiltonian,
    one for the others."""
    if which == "hamiltonian":
        reps = pontryagin_residuals(problem, _extremal(spec), band=band)
        return [(f"hamiltonian_{part}", rep)
                for part, rep in zip(("state", "costate", "stationarity"), reps)]
    q = _candidate(spec)
    lam = _multipliers(spec)
    if which == "el":
        rep = euler_lagrange_residual(problem, lam, q, band=band)
    elif which == "noether":
        rep = noether_law_residual(problem, lam, q, _generator(spec), band=band)
    elif which == "momentum":
        # the momentum law is the tau == 0 specialization; ignore any
        # declared time component of the generator.  Without xi it would
        # be identically zero, and pass.
        if spec.xi is None:
            raise SpecError("the momentum check needs 'xi1..'")
        gen = SymmetryGenerator(tau=spec.compile("tau", "0"), xi=spec.compile("xi", spec.xi))
        rep = momentum_law_residual(problem, lam, q, gen, band=band)
    else:
        rep = invariance_first_order_check(problem, lam, q, _generator(spec))
    return [(which, rep)]


def cmd_check(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    which = args.which
    problem = build_control(spec) if which == "hamiltonian" else build_variational(spec)
    default = INVARIANCE_TOLERANCE if which == "invariance" else certification_tolerance(problem)
    tol = args.tol if args.tol is not None else default
    # computed first, so that a spec error leaves no output directory
    reports = _check_reports(which, spec, problem, endpoint_band(spec.m))

    out = _output_dir(args.out)
    # the nodes of each distinct grid are formatted once: a hamiltonian
    # check's three reports share the spec's grid, an invariance report
    # has its own rows
    node_text = {grid: _reprs(grid.nodes) for grid in {rep.grid for _, rep in reports}}
    entries = []
    for name, rep in reports:
        profile = os.path.join(out, f"{name}_profile.csv")
        _write_profile(profile, rep, node_text[rep.grid])
        entries.append(_report_entry(name, rep, tol, profile))

    passed = all(e["pass"] for e in entries)
    doc = {
        "command": "check",
        "which": which,
        **_spec_fields(args, spec),
        "checks": entries,
        "passed": passed,
    }
    _write_report(out, doc, [
        f"{e['name']:<26} sup = {e['sup_norm']:.3e}  tol = {e['tolerance']:.3e}  "
        f"{'PASS' if e['pass'] else 'FAIL'}"
        for e in entries
    ])
    return EXIT_PASS if passed else EXIT_RESIDUAL


def _write_trajectory(
    path: str, t: list[str], q: SampledFunction, deviation: np.ndarray | None
) -> None:
    """CSV with columns t, q1..qn and, with a reference, deviation1..n;
    ``t`` is the text of q's grid nodes."""
    header = ["t"] + [f"q{i + 1}" for i in range(q.dim)]
    columns = [t, q.values]
    if deviation is not None:
        header += [f"deviation{i + 1}" for i in range(q.dim)]
        columns.append(deviation)
    _write_csv(path, header, columns)


def cmd_solve(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    problem = build_variational(spec)
    # sampled first, so that a reference that cannot be sampled leaves no
    # output directory and costs no solve
    reference = _candidate(spec) if spec.trajectory is not None else None
    out = _output_dir(args.out)
    sol = solver.solve(problem)

    # the solution, its reference and its EL report share the problem's grid
    t = _reprs(problem.grid.nodes)
    deviation = None if reference is None else sol.q.values - reference.values
    traj_path = os.path.join(out, "trajectory.csv")
    _write_trajectory(traj_path, t, sol.q, deviation)
    profile = os.path.join(out, "el_profile.csv")
    _write_profile(profile, sol.el_report, t)

    tol = args.tol if args.tol is not None else certification_tolerance(problem)
    doc = {
        "command": "solve",
        **_spec_fields(args, spec),
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
        dev = np.nanmax(np.abs(deviation))
        scale = max(1.0, float(np.nanmax(np.abs(reference.values))))
        doc["max_deviation"] = float(dev)
        doc["scaled_max_deviation"] = float(dev / scale)
    _write_report(out, doc, [
        f"converged = {sol.converged} after {sol.iterations} iterations",
        f"multipliers = {doc['multipliers']}",
        f"el sup = {sol.el_report.sup_norm:.3e}  tol = {tol:.3e}",
    ])
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
    for name, values, form in (
        ("kernel-power-rule", t * t, fk.PowerShifted(1.0, 2.0, 0.0)),
        ("kernel-constant-rule", np.ones_like(t), fk.Constant(1.0, 0.0)),
    ):
        num = fk.left_rl_derivative(SampledFunction(grid, values), order).scalar
        exact = np.array([fk.closed_form_left_derivative(form, order, s) for s in t[mask]])
        cases.append((name, float(np.max(np.abs(num[mask] - exact) / np.abs(exact))), 1e-3))

    # benchmark spec end to end: certification, constraint, conservation law,
    # and the order-1/2 solver, D^T included, recovering the multiplier
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
    sol = solver.solve(problem)
    lam_err = float(abs(sol.lam[0] - lam[0]) / abs(lam[0])) if sol.converged else math.inf
    cases.append(("benchmark-solve", lam_err, tol))

    # classical limit: quadratic-velocity isoperimetric problem, exact parabola
    classical = dataclasses.replace(
        spec, alpha=1.0, m=500, lagrangian="v1^2", constraints=["q1"], levels=[1.0],
        q_a=[0.0], q_b=[0.0],
    )
    sol = solver.solve(build_variational(classical))
    parabola = 6.0 * sol.q.grid.nodes * (1.0 - sol.q.grid.nodes)
    cases.append(
        ("classical-trajectory", float(np.max(np.abs(sol.q.scalar - parabola))), 1e-5)
    )
    cases.append(("classical-multiplier", abs(float(sol.lam[0]) - 24.0), 1e-4))

    # control lift of the benchmark: phi = u, control = fractional velocity
    lift = dataclasses.replace(
        spec, lagrangian="t^4 + u1^2", constraints=["t^2 * u1"], dynamics=["u1"],
        control=["t^2"], costate=["0"],
    )
    reps = pontryagin_residuals(build_control(lift), _extremal(lift))
    cases.append(("pontryagin-system", max(r.sup_norm for r in reps), tol))

    # autonomous control spec: energy law holds exactly along its extremal
    spec2 = parse_spec(_bundled_spec("example2.spec"))
    energy = autonomous_energy_residual(build_control(spec2), _extremal(spec2))
    cases.append(("autonomous-energy-law", energy.sup_norm, 1e-8))
    return cases


def cmd_selftest(args: argparse.Namespace) -> int:
    out = _output_dir(args.out)
    entries = [
        {"name": name, "value": value, "threshold": threshold, "pass": value <= threshold}
        for name, value, threshold in _selftest_cases()
    ]
    passed = all(e["pass"] for e in entries)
    doc = {"command": "selftest", "checks": entries, "passed": passed}
    _write_report(out, doc, [
        f"{e['name']:<26} {e['value']:.3e} <= {e['threshold']:.3e}  "
        f"{'PASS' if e['pass'] else 'FAIL'}"
        for e in entries
    ])
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
        if needs_spec:
            p.add_argument("spec", help="problem spec file")
            p.add_argument("--grid", type=int, default=None, help="override grid size m")
            p.add_argument("--alpha", type=float, default=None, help="override the order alpha")
            p.add_argument("--tol", type=float, default=None, help="override residual tolerance")
        p.add_argument("--out", default="out", help="output directory (default: out)")

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
    # ValueError covers GammaPoleError, UnsupportedOrderError and LinAlgError
    except (solver.SolverError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
