#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, traced and untraced, on tiny grids.

    python3 perfbench/smoke.py

Runs ``run.py --smoke`` once per workload and trace mode, and checks that
each run exits 0, that its last line is a result object with the required
keys, and that its metric names and units are exactly those BENCHMARK.json
lists for that mode.  Check outcomes are not asserted: tiny grids are not
expected to meet the acceptance tolerances.  Takes about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def expected(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: expected(spec, "end_to_end"), 1: expected(spec, "per_layer")}
    problems = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=300)
            tag = f"{wl['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if not result["attempted"] >= 1:
                problems.append(f"{tag}: attempted {result['attempted']}")
            got = {m: v.get("unit") for m, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                                f"extra {sorted(set(got) - set(want[trace]))}, "
                                f"missing {sorted(set(want[trace]) - set(got))}, "
                                f"unit mismatch {sorted(m for m in got if m in want[trace] and got[m] != want[trace][m])}")
            print(f"{tag}: ok, correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
