#!/usr/bin/env python3
"""Smoke-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload in BENCHMARK.json at smoke size (a tenth of the corpus,
3 seconds), untraced and traced, through perfbench/run.py. Fails unless each
run exits 0, ends with a valid result line that holds exactly the metrics
BENCHMARK.json names (end-to-end untraced, per-layer traced) with their
units, and reports no failed operation (error_rate 0).
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check(spec, workload, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "3",
               "--trace", str(trace), "--smoke"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    label = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return [f"{label}: exit {out.returncode}\n{out.stderr[-2000:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"{label}: error_rate is not 0: {result.get('failed')}"
                        f" of {result.get('attempted')} operations failed")
    if result.get("attempted", 0) < 1:
        problems.append(f"{label}: no operation attempted")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"{label}: missing {sorted(set(wanted) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        m = got.get(name)
        if m is not None and (m.get("unit") != unit or
                              not isinstance(m.get("value"), (int, float))):
            problems.append(f"{label}: {name} = {m}, want unit {unit}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check(spec, workload["name"], trace)
            print(f"{workload['name']} --trace {trace}: "
                  f"{'FAIL' if found else 'ok'}")
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
