"""Benchmark a change against its parent commit and write BENCH_<n>.json.

    python3 tools/bench_pair.py --parent HEAD~1 --out BENCH_14.json

The parent's tree is extracted from git into a temporary directory (by
``git archive``, which leaves no entry in the repository's own ``.git``),
and the change is the working tree this script sits in.  For each workload
of ``BENCHMARK.json`` and each of ten seeds the two sides run
``bench/run.py`` untraced for the benchmark's ``run_seconds``, one after the
other, in alternating order (the parent first on odd seeds), so that slow
and fast phases of a shared host fall on both.  Each side runs and parses
its runs by its own ``bench/report.py``, as the benchmark builds what it
runs from the source in its checkout.

The output holds, per workload and side, every run's requests, wall time,
failed and flagged items and end-to-end metrics; the median and quartiles
of each metric over the seeds, the median wall time and request count
(the oracle check of every request sets the run length), and the failed,
flagged and attempted items summed over the seeds; the number of seeds on
which the change is better; the machine facts; and the line counts of
``src/`` on both sides.
The temporary tree is removed afterwards, also when a run fails.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Ten alternating parent/change pairs per workload.
SEEDS = tuple(range(1, 11))


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract(rev: str, dest: Path) -> None:
    """Write the tree of commit ``rev`` into ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def load_report(root: Path):
    """The ``bench/report.py`` of the checkout at ``root``: its ``SPEC`` and
    its ``run_one``, which runs and parses one benchmark run there."""
    spec = importlib.util.spec_from_file_location(f"report_{root.name}", root / "bench" / "report.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_bench(report, workload: str, seed: int) -> dict:
    """One untraced benchmark run of ``workload`` by the checkout's own report module."""
    record, result = report.run_one(workload, seed, report.SPEC["run_seconds"], 0)
    return {
        "seed": seed,
        "requests": record["requests"],
        "wall_s": record["wall_s"],
        "failed": result["failed"],
        "flagged": record["flagged"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of each metric, the median run length in wall
    time and in requests, and the failed, flagged and attempted items summed
    over the runs."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    out["wall_s_median"] = statistics.median(r["wall_s"] for r in runs)
    out["requests_median"] = statistics.median(r["requests"] for r in runs)
    for key in ("failed", "flagged", "attempted"):
        out[key] = sum(r[key] for r in runs)
    return out


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--parent", default="HEAD~1", help="commit to compare against")
    parser.add_argument("--out", required=True, help="output JSON path")
    args = parser.parse_args(argv)

    parent_sha = _git("rev-parse", args.parent).decode().strip()
    tmp = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        extract(parent_sha, tmp)
        reports = {"parent": load_report(tmp), "change": load_report(ROOT)}
        spec = reports["change"].SPEC
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        workloads = {}
        for workload in reports["change"].WORKLOADS:
            runs = {"parent": [], "change": []}
            for seed in SEEDS:
                order = ["parent", "change"] if seed % 2 else ["change", "parent"]
                for side in order:
                    run = run_bench(reports[side], workload, seed)
                    runs[side].append(run)
                    print(f"{workload} seed {seed} {side}: "
                          f"p50 {run['metrics']['req_p50_ms']:.3g} ms, "
                          f"{run['requests']} requests, {run['wall_s']:.1f} s", flush=True)
            wins = {}
            for name, direction in better.items():
                sign = 1.0 if direction == "lower" else -1.0
                wins[name] = sum(
                    sign * (c["metrics"][name] - p["metrics"][name]) < 0.0
                    for p, c in zip(runs["parent"], runs["change"])
                )
            workloads[workload] = {
                side: {"summary": summarize(runs[side]), "runs": runs[side]} for side in runs
            } | {"change_better_on_seeds": wins}
        lines = {"parent": src_lines(tmp), "change": src_lines(ROOT)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    report = {
        "parent": parent_sha,
        "change": "working tree at " + _git("rev-parse", "HEAD").decode().strip()
                  + (" with uncommitted changes" if _git("status", "--porcelain") else ""),
        "command": "python3 bench/run.py --workload W --seed S "
                   f"--seconds {spec['run_seconds']} --trace 0",
        "seeds": list(SEEDS),
        "machine": machine(),
        "src_lines": lines | {"net": lines["change"] - lines["parent"]},
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
