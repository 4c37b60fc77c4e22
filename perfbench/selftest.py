"""Fast self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload for one op at a reduced grid size (``run.py --quick``),
untraced and traced, and checks that each op passes its correctness gates
and that every metric named in BENCHMARK.json is reported with its unit.
Then runs the benchmark in a directory holding only BENCHMARK.json and the
benchmark files, where it must fail without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    done = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit code {done.returncode}: {done.stderr.strip()[-400:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: gates failed: {done.stderr.strip()[-400:]}")
    for metric in spec["end_to_end" if trace == 0 else "per_layer"]:
        got = result["metrics"].get(metric["name"])
        if got is None:
            errors.append(f"{where}: metric {metric['name']} missing")
        elif got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
            errors.append(f"{where}: metric {metric['name']} reported as {got}")
    return errors


def check_bare_directory() -> list[str]:
    """Without the library sources the benchmark must fail and print no result."""
    bare = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, "cli-spec", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 or (lines and lines[-1].startswith("{")):
        return ["bare directory: the benchmark did not fail"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_workload(spec, workload, trace)
            print(f"{workload:<14} trace {trace}  {'FAIL' if found else 'ok'}", flush=True)
            errors += found
    found = check_bare_directory()
    print(f"{'bare directory':<22}  {'FAIL' if found else 'ok'}")
    errors += found
    for message in errors:
        print(message, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
