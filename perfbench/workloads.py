"""The four workloads: seeded inputs, one op each, and its correctness gates.

Each op draws a constraint level ``l`` from the workload seed; the closed
forms below follow from it and are the oracle the gates compare against.
The library only ever receives the generated inputs.

- Order-1/2 problem, ``dim`` decoupled copies: ``L = c t^4 + sum v_i^2``,
  ``g = t^2 sum v_i``, level ``l``.  Extremal ``q_i = lam t^(5/2)/Gamma(7/2)``
  with ``lam = 10 l / dim``; the ``t^4`` coefficient does not enter it.  With
  ``c = 25 l^2`` (``dim = 1``) the time-translation Noether law holds too,
  which is what the certification workloads need.
- Classical problem (alpha = 1): ``L = qdot^2``, ``g = q``, level ``l``;
  ``q = 6 l t (1 - t)``, ``lam = 24 l``.
- Control spec (example2): ``L = (u - 1)^2``, ``phi = u``, ``g = u``, level
  ``l``; ``u = l``, ``lam = 2 (l - 1)``, ``q = l t^(1/2)/Gamma(3/2)``, ``p = 0``.

Accuracy figures are scale-free so that seeds compare: ``lam_err`` and
``traj_err`` are relative to the exact multiplier and trajectory sup, and
``resid_sup`` is the largest certified residual sup norm divided by ``l``
(every dominant residual here is linear in ``l``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import fracnoether as fn
from fracnoether import cli

LEVEL_RANGE = (0.1, 0.4)
#: Level pool size; ops cycle through it.
POOL = 16
#: The CLI's default tolerance for ``check --which invariance``.
INVARIANCE_TOL = 1e-2
#: A refuted candidate must miss by at least this factor over the extremal.
REFUTE_FACTOR = 10.0

G35 = math.gamma(3.5)


class Reference:
    """Fixed work, timed before every timed block of an untraced run.

    A shared host's speed moves by up to 2x, in phases from seconds to
    minutes long.  Each timed block is divided by the mean time of this
    block in the two reference runs around it, so those phases cancel: a
    slower host slows both, a slower program only the op.  Host phases slow
    dense BLAS products and interpreted vector code by different factors,
    so the block is the kind of work that dominates the workload: a dense
    product on every BLAS thread for the solver workloads, numpy vector
    arithmetic for the rest.  Before each timed block it runs until it has
    taken ``SHARE`` of the previous timed block's time, at least once.
    """

    #: Reference time before a timed block, as a share of the previous one.
    SHARE = 0.10

    def __init__(self, blas: bool) -> None:
        rng = np.random.default_rng(0)
        if blas:
            matrix = rng.standard_normal((2000, 2000))
            self._block = lambda: matrix @ matrix
        else:
            vector = rng.standard_normal(100_000)
            self._block = lambda: _vector_ops(vector)
        #: mean block time of each ``run``, in call order
        self.segments: list[float] = []
        self.last = 0.0  # seconds of the previous timed block

    def run(self) -> None:
        times = []
        while True:
            t0 = time.perf_counter()
            self._block()
            times.append(time.perf_counter() - t0)
            if sum(times) >= self.SHARE * self.last:
                self.segments.append(sum(times) / len(times))
                return

    def normalised(self, blocks: list[tuple[float, int]]) -> float:
        """A Stopwatch's ``blocks``, each in units of the reference block
        around it; needs a ``run`` after the last block."""
        seg = self.segments
        return sum(took / (0.5 * (seg[k] + seg[k + 1])) for took, k in blocks)


def _vector_ops(a: np.ndarray) -> np.ndarray:
    for _ in range(5):
        a = np.sin(a) + 0.5 * a
    return a


class Stopwatch:
    """Accumulates the seconds spent inside ``with`` blocks: the timed op.

    With a ``reference``, its block runs before each timed block starts,
    and ``blocks`` holds each timed block's seconds with the index of the
    reference run just before it.
    """

    def __init__(self, reference: Reference | None = None) -> None:
        self.seconds = 0.0
        self.reference = reference
        self.blocks: list[tuple[float, int]] = []

    def __enter__(self) -> "Stopwatch":
        if self.reference is not None:
            self.reference.run()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        took = time.perf_counter() - self._t0
        self.seconds += took
        if self.reference is not None:
            self.reference.last = took
            self.blocks.append((took, len(self.reference.segments) - 1))


@dataclass
class Outcome:
    """Gates and accuracy figures of one op (None where not applicable)."""

    failures: list[str] = field(default_factory=list)
    lam_err: float | None = None
    traj_err: float | None = None
    resid_sup: float = 0.0
    bytes_written: int = 0

    def gate(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def worst(self, name: str, value: float) -> None:
        current = getattr(self, name)
        setattr(self, name, value if current is None else max(current, value))


def scheme_tolerance(alpha: float, m: int) -> float:
    """Relative accuracy gate 10 h^(2 - alpha): the L1 scheme's order."""
    return 10.0 * (1.0 / m) ** (2.0 - alpha)


# --------------------------------------------------------------------------
# problems with closed forms
# --------------------------------------------------------------------------


def fractional_problem(level: float, m: int, dim: int = 1, c: float = 1.0):
    """The order-1/2 problem above with analytic partials; returns
    (problem, exact multiplier, exact trajectory on the nodes)."""
    zeros = np.zeros(dim)
    L = fn.PointField(
        lambda t, q, v: c * t**4 + float(v @ v),
        grad_x=lambda t, q, v: zeros,
        grad_y=lambda t, q, v: 2.0 * v,
    )
    g = fn.PointField(
        lambda t, q, v: t * t * float(np.sum(v)),
        grad_x=lambda t, q, v: zeros,
        grad_y=lambda t, q, v: np.full(dim, t * t),
    )
    lam = 10.0 * level / dim
    grid = fn.Grid(0.0, 1.0, m)
    problem = fn.VariationalProblem(
        order=fn.FracOrder(0.5),
        lagrangian=L,
        grid=grid,
        boundary_a=np.zeros(dim),
        boundary_b=np.full(dim, lam / G35),
        constraints=[g],
        constraint_levels=[level],
    )
    q = np.outer(lam * grid.nodes**2.5 / G35, np.ones(dim))
    return problem, lam, q


def classical_problem(level: float, m: int):
    """alpha = 1: L = qdot^2, g = q; returns (problem, lam, trajectory)."""
    L = fn.PointField(
        lambda t, q, v: float(v[0] ** 2),
        grad_x=lambda t, q, v: np.zeros(1),
        grad_y=lambda t, q, v: 2.0 * v,
    )
    g = fn.PointField(
        lambda t, q, v: float(q[0]),
        grad_x=lambda t, q, v: np.ones(1),
        grad_y=lambda t, q, v: np.zeros(1),
    )
    grid = fn.Grid(0.0, 1.0, m)
    problem = fn.VariationalProblem(
        order=fn.FracOrder(1.0),
        lagrangian=L,
        grid=grid,
        boundary_a=[0.0],
        boundary_b=[0.0],
        constraints=[g],
        constraint_levels=[level],
    )
    t = grid.nodes
    return problem, 24.0 * level, (6.0 * level * t * (1.0 - t))[:, None]


def check_solution(out: Outcome, tag: str, problem, sol, lam, q, level: float) -> None:
    """Gate a Solution against its closed form and record its accuracy."""
    alpha, m = problem.order.alpha, problem.grid.m
    tol = scheme_tolerance(alpha, m)
    lam_err = abs(float(sol.lam[0]) - lam) / abs(lam)
    traj_err = float(np.max(np.abs(sol.q.values - q))) / float(np.max(np.abs(q)))
    out.gate(bool(sol.converged), f"{tag}: not converged")
    out.gate(lam_err <= tol, f"{tag}: multiplier rel. error {lam_err:.3e} > {tol:.3e}")
    out.gate(traj_err <= tol, f"{tag}: trajectory rel. error {traj_err:.3e} > {tol:.3e}")
    el = sol.el_report.sup_norm
    el_tol = fn.certification_tolerance(problem)
    out.gate(el <= el_tol, f"{tag}: EL sup {el:.3e} > {el_tol:.3e}")
    out.worst("lam_err", lam_err)
    out.worst("traj_err", traj_err)
    out.resid_sup = max(out.resid_sup, el / level)


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class Workload:
    """One closed-loop workload: ``setup`` draws the inputs, ``op`` runs one."""

    name = ""
    #: layers the op must reach in a traced run
    layers: tuple[str, ...] = ()
    #: dense BLAS products dominate the op (see ``Reference``)
    blas_bound = False

    def __init__(self, seed: int, quick: bool, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.quick = quick
        self.workdir = workdir
        self.levels = [float(x) for x in self.rng.uniform(*LEVEL_RANGE, POOL)]
        self.setup()

    def setup(self) -> None:
        pass

    def level(self, i: int) -> float:
        return self.levels[i % POOL]

    def op(self, i: int, clock: Stopwatch) -> Outcome:
        raise NotImplementedError


class SolveLarge(Workload):
    name = "solve-large"
    layers = ("solver", "solver.linsolve", "fields", "kernels.apply", "kernels.matrix", "problems")
    blas_bound = True

    def op(self, i, clock):
        level = self.level(i)
        out = Outcome()
        problem, lam, q = fractional_problem(level, 400 if self.quick else 3000)
        with clock:
            sol = fn.solve(problem)
        check_solution(out, "solve", problem, sol, lam, q, level)
        return out


class SolvePaths(Workload):
    name = "solve-paths"
    layers = SolveLarge.layers
    blas_bound = True

    def op(self, i, clock):
        level = self.level(i)
        out = Outcome()
        quick = self.quick
        problem, lam, q = fractional_problem(level, 200 if quick else 1000, dim=2)
        with clock:
            sol = fn.solve(problem)
        check_solution(out, "dim=2 solve", problem, sol, lam, q, level)
        problem, lam, q = classical_problem(level, 400 if quick else 2000)
        with clock:
            sol = fn.solve(problem)
        check_solution(out, "classical solve", problem, sol, lam, q, level)
        return out


def _set_keys(text: str, values: dict[str, str]) -> str:
    """Replace the right-hand side of each ``key = value`` line named."""
    for key, value in values.items():
        text, n = re.subn(rf"(?m)^{re.escape(key)}\s*=.*$", f"{key} = {value}", text)
        if n != 1:
            raise ValueError(f"bundled spec has {n} lines for key {key!r}")
    return text


class CliSpec(Workload):
    name = "cli-spec"
    layers = (
        "cli", "exprspec", "grids.sample", "fields", "kernels.apply", "kernels.matrix",
        "solver", "solver.linsolve", "problems", "noether", "hamiltonian",
    )

    def setup(self):
        specs = os.path.join(os.path.dirname(fn.__file__), "specs")
        with open(os.path.join(specs, "example1.spec"), encoding="utf-8") as fh:
            ex1 = fh.read()
        with open(os.path.join(specs, "example2.spec"), encoding="utf-8") as fh:
            ex2 = fh.read()
        self.paths = []
        for j, level in enumerate(self.levels):
            lam = 10.0 * level
            p1 = os.path.join(self.workdir, f"example1-{j}.spec")
            p2 = os.path.join(self.workdir, f"example2-{j}.spec")
            with open(p1, "w", encoding="utf-8") as fh:
                fh.write(_set_keys(ex1, {
                    "L": f"{25.0 * level * level!r} * t^4 + v1^2",
                    "l1": repr(level),
                    "q_b1": f"{lam!r} / gamma(3.5)",
                    "lambda1": repr(lam),
                    "trajectory1": f"{lam!r} * t^2.5 / gamma(3.5)",
                }))
            with open(p2, "w", encoding="utf-8") as fh:
                fh.write(_set_keys(ex2, {
                    "l1": repr(level),
                    "lambda1": repr(2.0 * (level - 1.0)),
                    "trajectory1": f"{level!r} * t^0.5 / gamma(1.5)",
                    "control1": repr(level),
                    "costate1": "0",
                }))
            self.paths.append((p1, p2))

    def op(self, i, clock):
        level = self.level(i)
        ex1, ex2 = self.paths[i % POOL]
        check_grid = ["--grid", "400"] if self.quick else []
        solve_grid = "100" if self.quick else "500"
        commands = [
            (f"check-{w}", ["check", "--which", w, *check_grid, ex1])
            for w in ("el", "noether", "momentum", "invariance")
        ]
        commands.append(("check-hamiltonian", ["check", "--which", "hamiltonian", *check_grid, ex2]))
        commands.append(("solve", ["solve", "--grid", solve_grid, ex1]))
        out = Outcome()
        for tag, argv in commands:
            dest = os.path.join(self.workdir, "out", tag)
            shutil.rmtree(dest, ignore_errors=True)
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                with clock:
                    code = cli.main([*argv[:-1], "--out", dest, argv[-1]])
            out.bytes_written += len(text.getvalue().encode()) + _tree_bytes(dest)
            out.gate(code == 0, f"{tag}: exit code {code}")
            if code != 0:
                continue
            with open(os.path.join(dest, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            if tag == "solve":
                self._check_solve(out, report, level, int(solve_grid))
            else:
                out.gate(report["passed"] is True, f"{tag}: report not passed")
                for entry in report["checks"]:
                    out.resid_sup = max(out.resid_sup, entry["sup_norm"] / level)
        return out

    @staticmethod
    def _check_solve(out: Outcome, report: dict, level: float, m: int) -> None:
        tol = scheme_tolerance(0.5, m)
        lam = 10.0 * level
        lam_err = abs(report["multipliers"][0] - lam) / lam
        traj_err = report["max_deviation"] / (lam / G35)
        out.gate(report["converged"] is True, "solve: not converged")
        out.gate(report["el"]["pass"] is True, "solve: EL check failed")
        out.gate(lam_err <= tol, f"solve: multiplier rel. error {lam_err:.3e} > {tol:.3e}")
        out.gate(traj_err <= tol, f"solve: trajectory rel. error {traj_err:.3e} > {tol:.3e}")
        out.worst("lam_err", lam_err)
        out.worst("traj_err", traj_err)
        out.resid_sup = max(out.resid_sup, report["el"]["sup_norm"] / level)


def _tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f)) for root, _, files in os.walk(path) for f in files
    )


class CertifyFine(Workload):
    name = "certify-fine"
    layers = ("fields", "kernels.apply", "problems", "noether")

    def setup(self):
        self.refuters = [
            (float(a), int(k))
            for a, k in zip(self.rng.uniform(0.002, 0.01, POOL), self.rng.integers(1, 6, POOL))
        ]

    def op(self, i, clock):
        level = self.level(i)
        amp, k = self.refuters[i % POOL]
        out = Outcome()
        problem, lam, q = fractional_problem(
            level, 2000 if self.quick else 16000, c=25.0 * level * level
        )
        grid = problem.grid
        cand = fn.SampledFunction(grid, q)
        bad = fn.SampledFunction(grid, q[:, 0] + amp * np.sin(k * np.pi * grid.nodes))
        shift = fn.SymmetryGenerator(tau=lambda t, x: 1.0, xi=lambda t, x: np.ones(1))
        state_shift = fn.SymmetryGenerator(tau=lambda t, x: 0.0, xi=lambda t, x: np.ones(1))
        lam = np.array([lam])
        # one timed block per call, so the reference block runs between them
        with clock:
            el = fn.euler_lagrange_residual(problem, lam, cand)
        with clock:
            defect = abs(float(fn.constraint_values(problem, cand)[0]) - level)
        with clock:
            noether = fn.noether_law_residual(problem, lam, cand, shift)
        with clock:
            momentum = fn.momentum_law_residual(problem, lam, cand, state_shift)
        with clock:
            invariance = fn.invariance_first_order_check(problem, lam, cand, shift)
        with clock:
            refuted = fn.euler_lagrange_residual(problem, lam, bad)
        tol = fn.certification_tolerance(problem)
        for tag, rep, limit in (
            ("EL", el, tol),
            ("Noether", noether, tol),
            ("momentum", momentum, tol),
            ("invariance", invariance, INVARIANCE_TOL),
        ):
            out.gate(rep.sup_norm <= limit, f"{tag} sup {rep.sup_norm:.3e} > {limit:.3e}")
            out.resid_sup = max(out.resid_sup, rep.sup_norm / level)
        out.gate(defect <= tol, f"constraint defect {defect:.3e} > {tol:.3e}")
        out.gate(
            refuted.sup_norm >= REFUTE_FACTOR * el.sup_norm,
            f"refuted candidate EL sup {refuted.sup_norm:.3e} < {REFUTE_FACTOR:g}x extremal",
        )
        return out


WORKLOADS = {w.name: w for w in (SolveLarge, SolvePaths, CliSpec, CertifyFine)}
