"""Self-test of the benchmark: every workload at a tiny size.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Runs ``run.py --scale tiny`` for each workload in ``BENCHMARK.json``,
untraced and traced, and fails unless every run exits 0, passes its
correctness gate with no failed operation, and prints exactly the
metric names and units that ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
from typing import List

ROOT = pathlib.Path(__file__).resolve().parent.parent


def check(workload: str, trace: int, expected: dict) -> List[str]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--scale", "tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    label = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append(f"{label}: correctness gate failed")
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append(f"{label}: attempted {result['attempted']}, "
                        f"failed {result['failed']} (fail share must be 0)")
    printed = {name: entry["unit"]
               for name, entry in result["metrics"].items()}
    if printed != expected:
        problems.append(f"{label}: metrics {printed} != {expected}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            problems.append(f"{label}: {name} is not a number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in spec["workloads"]:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            found = check(workload["name"], trace, expected)
            print(f"{workload['name']} trace={trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems.extend(found)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
