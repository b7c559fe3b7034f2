"""Time the exact ensemble sums at a parent commit and in the working tree.

    python3 tools/time_exact_sums.py --parent HEAD~1 --out BENCH_23.json

Each call of ROWS runs REPEATS times in one fresh interpreter per side, and
the median CPU time (``time.process_time``) is kept.  The change's
``normalization`` cache is cleared before each call, so every repeat pays
the cold cost.  The parent's tree is extracted by ``bench_pair.extract`` into a
temporary directory, removed afterwards; the change is the working tree this
script sits in.  A row marked as not run at the parent took too long there
to repeat.  Each value is compared with the parent's: ``within_tol`` says
whether they differ by at most the row's tol.  The output also holds the
machine facts and the line counts of ``src/`` on both sides.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pair import ROOT, _git, extract, machine, src_lines

REPEATS = 5

# (call, expression, tol, run at the parent); exact values have tol 0
ROWS = [
    ("word_gap(4, 30, alpha=100)", "word_gap(4, 30, alpha=100.0)", 1e-8, True),
    ("word_gap(5, 20, alpha=40)", "word_gap(5, 20, alpha=40.0)", 1e-8, True),
    ("Meixner(2, 20, 0.9), E[1], tol 1e-10",
     "expectation(Meixner(2, 20, 0.9), ONE, tol=1e-10)", 1e-10, True),
    ("PoissonizedPlancherel(8), gap 5, tol 1e-10",
     "expectation(PoissonizedPlancherel(8.0), gap(5), tol=1e-10)", 1e-10, True),
    ("PoissonizedPlancherel(1.2), f = 1.3 at site 1, tol 1e-12",
     "expectation(PoissonizedPlancherel(1.2), BUMP, tol=1e-12)", 1e-12, True),
    ("Meixner(1, 10, 0.97), E[1], tol 1e-10",
     "expectation(Meixner(1, 10, 0.97), ONE, tol=1e-10)", 1e-10, True),
    ("Meixner(1, 30, 0.95), E[1], tol 1e-6",
     "expectation(Meixner(1, 30, 0.95), ONE, tol=1e-6)", 1e-6, True),
    ("Meixner(1, 10, 0.99), E[1], tol 1e-10",
     "expectation(Meixner(1, 10, 0.99), ONE, tol=1e-10)", 1e-10, True),
    ("word_gap(20, 5, alpha=5)", "word_gap(20, 5, alpha=5.0)", 1e-8, True),
    ("percolation_gap(1/2, 12, 12, 6)", "percolation_gap(Fraction(1, 2), 12, 12, 6)", 0.0, True),
    ("hexagon_slice_pmf(10, 10, (18, 16, ..., 0))",
     "hexagon_slice_pmf(10, 10, range(0, 20, 2))", 0.0, True),
    ("percolation-exact verify suite, checks passed",
     "sum(ok for _, ok, _ in cli._suite_percolation_exact())", 0.0, True),
    ("Charlier(21, 163.2), gap 2", "expectation(Charlier(21, 163.2), gap(2))", 1e-10, False),
]

CHILD = """
import json, statistics, sys, time
from fractions import Fraction
from dope import cli
from dope.ensembles import *
from dope.models import hexagon_slice_pmf, percolation_gap, word_gap
ONE = MultiplicativeFunctional(lambda s: 1.0)
BUMP = MultiplicativeFunctional(lambda s: 1.3 if s == 1 else 1.0, bound=1.3)
gap = MultiplicativeFunctional.indicator_gap
clear = getattr(normalization, "cache_clear", lambda: None)
out = []
for expr in json.loads(sys.argv[1]):
    times = []
    for _ in range(REPEATS):
        clear()
        t = time.process_time()
        value = eval(expr)
        times.append(time.process_time() - t)
    out.append({"median_s": statistics.median(times), "times_s": times, "value": float(value)})
print(json.dumps(out))
"""


def run_side(src: Path, rows: list) -> list:
    """Time ``rows`` (None where a row is skipped) against the ``dope`` in ``src``."""
    todo = [expr for expr in rows if expr is not None]
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = f"REPEATS = {REPEATS}\n" + CHILD
    proc = subprocess.run([sys.executable, "-c", child, json.dumps(todo)], env=env,
                          cwd=src.parent, check=True, capture_output=True, text=True)
    results = iter(json.loads(proc.stdout))
    return [None if expr is None else next(results) for expr in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--parent", default="HEAD~1", help="commit to compare against")
    parser.add_argument("--out", required=True, help="output JSON path")
    args = parser.parse_args(argv)

    parent_sha = _git("rev-parse", args.parent).decode().strip()
    tmp = Path(tempfile.mkdtemp(prefix="exact-sums-parent-"))
    try:
        extract(parent_sha, tmp)
        start = time.time()
        parent = run_side(tmp / "src", [e if p else None for _, e, _, p in ROWS])
        print(f"parent: {time.time() - start:.1f} s", flush=True)
        start = time.time()
        change = run_side(ROOT / "src", [e for _, e, _, _ in ROWS])
        print(f"change: {time.time() - start:.1f} s", flush=True)
        lines = {"parent": src_lines(tmp), "change": src_lines(ROOT)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rows = []
    for (call, _, tol, _), p, c in zip(ROWS, parent, change):
        within = None if p is None else abs(p["value"] - c["value"]) <= tol
        rows.append({"call": call, "tol": tol, "parent": p, "change": c, "within_tol": within})
        p_ms = "not run" if p is None else f"{1e3 * p['median_s']:.1f} ms"
        print(f"{call}: {p_ms} -> {1e3 * c['median_s']:.1f} ms, within tol {within}")
    report = {
        "parent": parent_sha,
        "change": "working tree at " + _git("rev-parse", "HEAD").decode().strip()
                  + (" with uncommitted changes" if _git("status", "--porcelain") else ""),
        "clock": "time.process_time, median over repeats in one interpreter per side",
        "repeats": REPEATS,
        "machine": machine(),
        "src_lines": lines | {"net": lines["change"] - lines["parent"]},
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
