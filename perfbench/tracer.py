"""Outside-in tracer: wraps the public functions of each fracnoether layer.

The library is not edited.  While a traced op runs, every wrapped function
is replaced, in every module namespace that holds it (``solver``
imports ``euler_lagrange_residual`` by name, ``cli`` imports the noether
functions, the package re-exports everything), by a wrapper that records a
span.  ``numpy.linalg.solve`` is wrapped the same way, and the field classes
get wrapped ``__call__``/``d_x``/``d_y`` methods.

Self time of a layer is the duration of its spans minus the part covered by
child spans of any layer.  A call is counted when a layer is entered from a
different layer, so ``right_rl_derivative`` delegating to
``left_rl_derivative`` is one kernel call.  Field spans are only aggregated
(there are hundreds of thousands per op); every other span is kept in memory
as ``(op, id, parent, layer, start, end)`` and written out at the end.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

_FIELD_METHODS = ("__call__", "d_x", "d_y")


def layer_table(fn) -> dict[str, list[tuple[object, str]]]:
    """Layer name -> (owner, attribute) pairs to wrap.

    ``fn`` is the imported ``fracnoether`` package.  Owners are modules
    (the function is replaced wherever it was imported) or classes (the
    method is replaced on the class).
    """
    from fracnoether import cli, exprspec, grids, hamiltonian, noether, problems, solver
    from fracnoether import frac_kernels as fk

    def public(mod, *names):
        return [(mod, n) for n in names]

    return {
        "solver": public(solver, "solve", "refine"),
        "solver.linsolve": [(np.linalg, "solve")],
        "fields": [(fn.PointField, m) for m in _FIELD_METHODS]
        + [(fn.VectorField, m) for m in _FIELD_METHODS],
        "kernels.apply": public(
            fk, "left_rl_derivative", "right_rl_derivative", "left_rl_integral", "right_rl_integral"
        ),
        "kernels.matrix": public(fk, "left_derivative_matrix"),
        "problems": public(
            problems,
            "euler_lagrange_residual",
            "normality_check",
            "constraint_values",
            "objective_value",
            "frac_velocity",
            "augmented_lagrangian",
            "make_report",
            "certification_tolerance",
        ),
        "noether": public(
            noether,
            "frac_pair_operator",
            "invariance_necessary_condition",
            "momentum_law_residual",
            "noether_law_residual",
            "invariance_first_order_check",
        ),
        "hamiltonian": public(
            hamiltonian,
            "hamiltonian_value",
            "pontryagin_residuals",
            "hamiltonian_noether_residual",
            "autonomous_energy_residual",
        ),
        "grids.sample": public(grids, "sample"),
        "exprspec": public(exprspec, "parse_spec", "parse_expression"),
        "cli": public(cli, "main"),
    }


class Tracer:
    """Span recorder; use as a context manager around each traced op.

    Figures accumulate over every entry."""

    def __init__(self, fn):
        self._table = layer_table(fn)
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # frames: [layer, child_seconds, span_id]
        self._next_id = 0
        self.op = -1
        self.top_seconds = 0.0  # summed duration of spans entered from the benchmark
        self.stats = {layer: [0, 0.0] for layer in self._table}  # calls, self seconds
        self.spans: list[tuple] = []
        self.newton_iterations = 0

    # -- installation --------------------------------------------------------
    def __enter__(self) -> "Tracer":
        owners_by_original = {}
        for layer, targets in self._table.items():
            for owner, name in targets:
                original = getattr(owner, name)
                wrapper = self._wrap(layer, original, name == "solve" and layer == "solver")
                owners_by_original[id(original)] = (original, wrapper)
                self._swap(owner, name, wrapper)
        # the same function objects, imported by name into other modules
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "fracnoether" or modname.startswith("fracnoether.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = owners_by_original.get(id(value))
                if hit is not None and hit[0] is value:
                    self._swap(mod, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _swap(self, owner, name, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, layer: str, fn, counts_iterations: bool):
        stats = self.stats[layer]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        keep = layer != "fields"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [layer, 0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stats[1] += dur - frame[1]
                if parent is None:
                    tracer.top_seconds += dur
                    stats[0] += 1
                else:
                    parent[1] += dur
                    if parent[0] != layer:
                        stats[0] += 1
                if keep:
                    spans.append((tracer.op, sid, parent[2] if parent else None, layer, t0, t1))
            if counts_iterations:
                tracer.newton_iterations += result.iterations
            return result

        return wrapper

    # -- reading -------------------------------------------------------------
    def snapshot(self) -> dict[str, tuple[int, float]]:
        return {layer: (s[0], s[1]) for layer, s in self.stats.items()}
