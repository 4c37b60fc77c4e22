"""Repeatability check: ``python3 perfbench/steadiness.py``.

Runs every workload of BENCHMARK.json ``RUNS`` times with seeds 1..RUNS for
its ``run_seconds`` (untraced), then prints, per workload and metric, the
median and the quartile spread (q3 - q1) / median with
``statistics.quantiles(n=4)``, next to the metric's bound.  Every metric of
the readable table is kept, the ungated ones too.  For each gated metric it
also prints how far the median moved, in the worse direction, from the one
in ``baseline.json``; then it overwrites ``baseline.json`` with this set and
the environment record of its last run.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed} failed: {done.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: correctness gates failed")
    table = {}
    for line in lines:
        if line.startswith("#   "):
            name, value, unit = line[4:].split()
            table[name] = (float(value), unit)
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    # the result line carries full precision for the gated metrics
    table.update({k: (v["value"], v["unit"]) for k, v in result["metrics"].items()})
    return table, env


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    gated = {m["name"]: m for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    previous = {}
    if os.path.exists(BASELINE):
        with open(BASELINE, encoding="utf-8") as fh:
            previous = json.load(fh)["workloads"]
    summary = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    env = None
    for workload in whys:
        values: dict[str, list[float]] = {}
        units = {}
        for seed in range(1, RUNS + 1):
            table, env = run_once(workload, seed, spec["run_seconds"])
            table["ref_loop_ms"] = (statistics.mean(env["ref_loop_ms"]), "ms")
            for name, (value, unit) in table.items():
                values.setdefault(name, []).append(value)
                units[name] = unit
        rows = {}
        print(f"{workload}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": units[name]}
            note = ""
            if name in gated:
                bound = gated[name]["bound"]
                note = f"  bound {bound}  spread/bound {spread / bound:.2f}"
                before = previous.get(workload, {}).get("metrics", {}).get(name)
                if before:
                    worse = (med - before["median"]) / before["median"]
                    if gated[name]["better"] == "higher":
                        worse = -worse
                    note += f"  worse than baseline by {worse:+.3f}"
            print(f"  {name:<14} median {med:<12.5g} {units[name]:<9} spread {spread:.4f}{note}",
                  flush=True)
        summary["workloads"][workload] = {"why": whys[workload], "metrics": rows}
    summary["environment"] = env
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
