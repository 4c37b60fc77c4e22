"""One quick op of every benchmark workload under the benchmark's tracer.

Each op must pass its correctness gates and reach every layer its workload
declares, so that a change which leaves a layer silent fails here rather
than in a traced benchmark run.  perfbench is imported through sys.path,
as the benchmark itself runs it.
"""

import importlib
from pathlib import Path

import fracnoether

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_op_passes_and_reaches_its_layers(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    tracer_module = importlib.import_module("tracer")
    problems = []
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        wl = workload(seed=0, quick=True, workdir=str(workdir))
        tracer = tracer_module.Tracer(fracnoether)
        with tracer:
            outcome = wl.op(0, workloads.Stopwatch())
        problems += [f"{name}: {failure}" for failure in outcome.failures]
        problems += [
            f"{name}: layer {layer} recorded no calls"
            for layer in workload.layers
            if tracer.stats[layer][0] == 0
        ]
    assert workloads.WORKLOADS
    assert not problems, problems
