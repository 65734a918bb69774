"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload on the shipped corpus only (``--corpus-only``), untraced
and traced, and checks that the last line of output names every metric of
``BENCHMARK.json`` with its unit and reports no failed job.  It also checks
that the traced counters repeat exactly and that the benchmark refuses to
run, without printing a result, where the program's sources are missing.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 180


def bench(workload, trace, cwd=ROOT, seed=1):
    """Run the benchmark; return (exit code, parsed last line or None)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--corpus-only"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return proc.returncode, None


def expect(ok, message):
    if not ok:
        sys.exit(f"smoke: {message}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    counts = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, res = bench(workload, trace)
            where = f"{workload} --trace {trace}"
            expect(code == 0 and res is not None, f"{where}: exit {code}, no result")
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys {sorted(res)}")
            expect(res["failed"] == 0 and res["correct"] and res["attempted"] >= 1,
                   f"{where}: failed_frac {res['failed']}/{res['attempted']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == wanted[trace], f"{where}: metrics {got}")
            if trace:
                counts[workload] = {k: v["value"] for k, v in res["metrics"].items()
                                    if v["unit"] == "count"}
            print(f"ok {where}")

    workload = spec["workloads"][0]["name"]
    _, again = bench(workload, 1)
    expect({k: v["value"] for k, v in again["metrics"].items()
            if v["unit"] == "count"} == counts[workload],
           f"{workload}: traced counters differ between two runs")
    print(f"ok {workload} counters repeat")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, res = bench(workload, 0, cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and res is None, "ran without the program's sources")
    print("ok refuses to run without the program")


if __name__ == "__main__":
    main()
