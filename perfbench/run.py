"""Layered benchmark for fracnoether.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  Each workload is a closed loop
with one client in this process: the next op starts when the previous one
has finished and been checked.  See ``workloads.py`` for what an op is.

``--trace 0`` reports the end-to-end metrics.  The timing gate ``op_norm``
is the mean op time in units of a fixed reference block timed around
each timed block of the op (``workloads.Reference``), so that the shared
host's speed phases cancel.  ``setup_s`` is the best of the run's own set-up
and fresh-process probes spread over the run, each scaled by the pure-Python
reference loop timed around it to a host on which that loop takes
``NOMINAL_LOOP_MS``, for the same reason.  ``--trace 1`` alternates
untraced ops with ops traced by ``tracer.py``, and reports per-layer
figures per op.  The last line of standard output is one JSON
object; the lines before it are a readable table, the environment and
details such as the tail percentile used.  ``--quick`` runs one op at a
reduced grid size (see ``selftest.py``).
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Extra fresh processes that time import plus input generation.
SETUP_PROBES = 12
#: ``setup_s`` is in seconds on a host where ``reference_loop_ms`` reads this.
NOMINAL_LOOP_MS = 8.0
#: A traced run fails if time outside every wrapped layer exceeds this share.
MAX_UNTRACED_SHARE = 0.10
#: Percentiles tried for the tail, highest first; one needs ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="one op at a reduced grid size")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_library():
    """Import fracnoether from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "fracnoether", "__init__.py")):
        sys.exit(f"perfbench: no fracnoether sources under {SRC}")
    sys.path.insert(0, SRC)
    import fracnoether

    if not os.path.abspath(fracnoether.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported fracnoether from {fracnoether.__file__}, not {SRC}")
    import workloads

    return fracnoether, workloads


# --------------------------------------------------------------------------
# environment record
# --------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(np) -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def reference_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop.

    The machine's speed at the time: on a shared host it moves between
    phases, and this figure shows which phase a run met.  ``setup_s`` is
    scaled by it.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(100_000):
            acc += i * 0.5
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(np),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
    }


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------


class SetupProbes:
    """Import plus input generation, each in a fresh process.

    The probes are due at even intervals over the timed run, so that they
    meet the same phases of a shared host's speed as the ops do.  Each
    sample is (seconds, reference loop ms around the probe).
    """

    def __init__(self, args, count: int) -> None:
        self.args = args
        self.due = [args.seconds * (k + 0.5) / count for k in range(count)]
        self.samples: list[tuple[float, float]] = []

    def _probe(self) -> tuple[float, float]:
        args = self.args
        before = reference_loop_ms()
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
        if args.quick:
            cmd.append("--quick")
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        seconds = float(done.stdout.strip().splitlines()[-1])
        return seconds, 0.5 * (before + reference_loop_ms())

    def catch_up(self, elapsed: float = float("inf")) -> None:
        """Run every probe due by ``elapsed`` seconds into the run."""
        while self.due and self.due[0] <= elapsed:
            self.due.pop(0)
            self.samples.append(self._probe())


@dataclass
class OpRecord:
    index: int
    seconds: float  # timed library calls only
    wall: float  # the whole op, checks included
    outcome: object  # workloads.Outcome
    untraced: float = 0.0  # timed seconds outside every wrapped layer
    blocks: list = None  # Stopwatch.blocks, for the reference normalisation

    @property
    def ok(self) -> bool:
        return not self.outcome.failures


def _run_ops(wl, workloads, seconds: float, tracer=None, reference=None,
             probes=None) -> list[OpRecord]:
    """Closed loop: ops until the next one would likely end past ``seconds``.

    With a ``tracer`` the odd-numbered ops run traced, so the records
    alternate untraced, traced, untraced, ...; at least one of each is run.
    A ``reference`` runs before each timed block; ``probes`` due after an
    op run before the next one.
    """
    records = []
    begin = time.perf_counter()
    least = 2 if tracer else 1
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        clock = workloads.Stopwatch(reference)
        top0 = tracer.top_seconds if traced else 0.0
        if traced:
            tracer.op = i
        t0 = time.perf_counter()
        with tracer if traced else contextlib.nullcontext():
            try:
                outcome = wl.op(i, clock)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                outcome = workloads.Outcome(failures=[f"{type(exc).__name__}: {exc}"])
        rec = OpRecord(i, clock.seconds, time.perf_counter() - t0, outcome, blocks=clock.blocks)
        if traced:
            rec.untraced = clock.seconds - (tracer.top_seconds - top0)
        records.append(rec)
        i += 1
        if probes is not None:
            probes.catch_up(time.perf_counter() - begin)
        elapsed = time.perf_counter() - begin
        typical = statistics.median(r.wall for r in records)
        if len(records) >= least and (wl.quick or elapsed + typical > seconds):
            return records


def _tail(times: list[float]) -> tuple[float, str, int]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    n = len(times)
    ordered = sorted(times)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return statistics.quantiles(ordered, n=1000, method="inclusive")[int(p * 10) - 1], f"p{p:g}", n
    return ordered[-1], "max", n


def end_to_end(records: list[OpRecord], setup_samples: list[tuple[float, float]],
               reference) -> tuple[dict, dict]:
    """Run-level metrics: the gated ones first, then those only printed."""
    ok = [r for r in records if r.ok]
    times = sorted(r.seconds for r in (ok or records))
    norms = [reference.normalised(r.blocks) for r in (ok or records)]
    tail, tail_label, n = _tail(times)
    outcomes = [r.outcome for r in records]
    metrics = {
        # the best of the set-ups: the slower ones show the host's slow
        # phases, which come and go within a run
        "setup_s": (min(sec * NOMINAL_LOOP_MS / loop for sec, loop in setup_samples), "s"),
        "op_norm": (statistics.mean(norms), "ref_blocks"),
        "op_p50_s": (statistics.median(times), "s"),
        "ops_per_s": (len(ok) / sum(r.seconds for r in records), "1/s"),
        "setup_raw_s": (min(sec for sec, _ in setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "resid_sup": (max(o.resid_sup for o in outcomes), "per_level"),
        "op_tail_s": (tail, "s"),
        "fail_ratio": ((len(records) - len(ok)) / len(records), "ratio"),
    }
    for name in ("lam_err", "traj_err"):
        vals = [getattr(o, name) for o in outcomes if getattr(o, name) is not None]
        if vals:
            metrics[name] = (max(vals), "rel")
    details = {
        "ops": len(records),
        "op_seconds": [round(r.seconds, 4) for r in records],
        "op_tail": {"percentile": tail_label, "samples": n},
        "setup_samples_s_loop_ms": setup_samples,
        "op_norm": [round(x, 3) for x in norms],
        "reference_block_s": statistics.median(reference.segments),
    }
    return metrics, details


PER_LAYER_TIMES = {
    "solver.self_s": "solver",
    "solver.linsolve_s": "solver.linsolve",
    "fields.self_s": "fields",
    "kernels.apply_s": "kernels.apply",
    "kernels.matrix_s": "kernels.matrix",
    "problems.self_s": "problems",
    "noether.self_s": "noether",
    "hamiltonian.self_s": "hamiltonian",
    "grids.sample_s": "grids.sample",
    "exprspec.parse_s": "exprspec",
    "cli.self_s": "cli",
}
PER_LAYER_COUNTS = {
    "solver.linsolve_calls": "solver.linsolve",
    "fields.calls": "fields",
    "kernels.apply_calls": "kernels.apply",
}


def per_layer(tracer, plain: list[OpRecord], traced: list[OpRecord]) -> tuple[dict, dict]:
    """Per-op layer figures from the traced ops, and each layer's share."""
    n = len(traced)
    stats = tracer.snapshot()
    op_seconds = sum(r.seconds for r in traced)
    metrics = {name: (stats[layer][1] / n, "s") for name, layer in PER_LAYER_TIMES.items()}
    metrics.update({name: (stats[layer][0] / n, "count") for name, layer in PER_LAYER_COUNTS.items()})
    metrics["solver.newton_iters"] = (tracer.newton_iterations / n, "count")
    metrics["cli.bytes_written"] = (sum(r.outcome.bytes_written for r in traced) / n, "bytes")
    # each traced op against the untraced op just before it
    pairs = list(zip(plain, traced))
    metrics["trace.overhead_ratio"] = (statistics.median(t.seconds / p.seconds for p, t in pairs),
                                       "ratio")
    metrics["trace.pairs"] = (len(pairs), "count")
    metrics["trace.untraced_share"] = (sum(r.untraced for r in traced) / op_seconds, "ratio")
    shares = {layer: round(s[1] / op_seconds, 4) for layer, s in stats.items()}
    return metrics, shares


def _traced_run(fracnoether, wl, workloads, args) -> tuple[list, dict, dict, list[str]]:
    """Untraced and traced ops in turn; fails on missing layers or on op
    time that no wrapped layer accounts for."""
    from tracer import Tracer

    tracer = Tracer(fracnoether)
    records = _run_ops(wl, workloads, args.seconds, tracer)
    plain, traced = records[0::2], records[1::2]
    metrics, shares = per_layer(tracer, plain, traced)
    problems = [f"layer {layer} recorded no calls" for layer in wl.layers
                if tracer.stats[layer][0] == 0]
    share = metrics["trace.untraced_share"][0]
    if share > MAX_UNTRACED_SHARE:
        problems.append(f"untraced share {share:.3f} > {MAX_UNTRACED_SHARE}")
    details = {"ops": len(records), "traced_ops": len(traced),
               "layer_shares": shares, "spans_file": _write_spans(tracer, args)}
    return records, metrics, details, problems


def _gated_names(trace: int) -> set[str]:
    """Metric names BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    fracnoether, workloads = _import_library()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    gated = _gated_names(args.trace)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.quick, workdir)
        own_setup = time.perf_counter() - _T_START
        if args.setup_probe:
            print(repr(own_setup))
            return 0
        import numpy as np

        env = environment(np)
        ref_before = reference_loop_ms()
        if args.trace == 0:
            reference = workloads.Reference(wl.blas_bound)
            probes = SetupProbes(args, SETUP_PROBES)
            records = _run_ops(wl, workloads, args.seconds, reference=reference, probes=probes)
            reference.run()  # the last timed block is bracketed too
            probes.catch_up()
            own = (own_setup, ref_before)
            metrics, details = end_to_end(records, [own] + probes.samples, reference)
            problems = []
        else:
            records, metrics, details, problems = _traced_run(fracnoether, wl, workloads, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env["ref_loop_ms"] = [ref_before, reference_loop_ms()]
    failures = [(r.index, r.outcome.failures) for r in records if not r.ok]
    details["failures"] = failures[:5]
    details["trace_problems"] = problems
    print(f"# {args.workload}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:<22} {value:>14.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    for message in problems:
        print(f"perfbench: traced run failed: {message}", file=sys.stderr)
    for index, why in failures[:5]:
        print(f"perfbench: op {index} failed: {'; '.join(why)}", file=sys.stderr)
    result = {
        "correct": not failures and not problems,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name in gated},
    }
    print(json.dumps(result))
    return 0


def _write_spans(tracer, args) -> str:
    """Write the in-memory spans of a traced run; returns the path."""
    outdir = os.path.join(ROOT, ".perfbench-spans")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for op, sid, parent, layer, t0, t1 in tracer.spans:
            fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "layer": layer,
                                 "start": t0, "end": t1}) + "\n")
    return os.path.relpath(path, ROOT)


if __name__ == "__main__":
    sys.exit(main())
