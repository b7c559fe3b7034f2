"""Run every workload once and print its metrics as a table.

    python3 bench/report.py [--seed 1] [--trace]

Each workload runs for the ``run_seconds`` of ``BENCHMARK.json`` in its own
``run.py`` process, which also checks every item against its oracle.  The table gives each end-to-end metric with its
unit and sample count, and the failure ratio with its base; ``--trace``
adds a traced run per workload and prints its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_one(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("record "))
    return record, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    ok = True
    for trace in (0, 1) if args.trace else (0,):
        for workload in WORKLOADS:
            record, result = run_one(workload, args.seed, SPEC["run_seconds"], trace)
            ok &= result["correct"]
            print(f"\n== {workload} (seed {args.seed}, trace {trace}, "
                  f"{record['requests']} requests, correct={result['correct']})")
            for name, m in result["metrics"].items():
                n = record["samples"].get(name, record["samples"].get("traced_requests"))
                print(f"  {name:46s} {m['value']:14.6g} {m['unit']:12s} n={n}")
            if trace == 0:
                print(f"  {'fail_ratio':46s} {record['fail_ratio']:14.6g} {'ratio':12s} "
                      f"n={record['items']} ({record['failed']} without a right value, "
                      f"{record['uncertified_agreeing_with_oracle']} uncertified but right)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
