#!/usr/bin/env python3
"""Smoke test of the benchmark on tiny inputs.

    python3 perfbench/smoke_test.py

Runs perfbench/run.py on every workload of BENCHMARK.json with --scale tiny
and --seconds 1, once untraced and once traced. Each run must exit 0, print
every metric BENCHMARK.json names (end_to_end untraced, per_layer traced)
with its unit, both in the table and in the result line, and report
failed_frac = 0. Exits 1 on the first problem.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(workload, trace, metrics):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"attempted={result.get('attempted')} failed={result.get('failed')}")
    printed = result.get("metrics", {})
    if set(printed) != {m["name"] for m in metrics}:
        problems.append(f"{where}: metrics {sorted(printed)} differ from BENCHMARK.json")
    table = {}  # first row per name: the metric table precedes the ledger
    for line in lines[:-1]:
        if line.strip():
            table.setdefault(line.split()[0], line.split())
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        entry = printed.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{where}: {name} = {entry}, want a number in {unit}")
        row = table.get(name)
        if row is None or row[2] != unit:
            problems.append(f"{where}: table row for {name} missing or not in {unit}")
    frac = table.get("failed_frac")
    if frac is None or float(frac[1]) != 0.0:
        problems.append(f"{where}: failed_frac row {frac}")
    return problems


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            found = check_run(workload, trace, metrics)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
