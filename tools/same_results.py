"""Check that a change leaves the benchmark's determinant results bit for bit.

    python3 tools/same_results.py --parent HEAD~1

The parent's tree is extracted by ``bench_pair.extract``, and the change is
the working tree this script sits in.  Each side runs in its own process,
with its own ``src`` and ``bench`` first on the path, the seed-1 requests
0-99 of the tw, bessel-gap (the ten rows and the two-row law) and
charlier-gap workloads, with the parameters of its own
``bench/workloads.py``.  Every result's value, truncation_size,
tail_estimate and converged are compared by ``repr``; the two-row law has
a value only, and a call that raises compares as its exception's name.
The script prints, per workload, how many results it compared and how many
differ, and exits 1 on any difference.  The temporary tree is removed
afterwards, also when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pair import ROOT, extract

SEED = 1
REQUESTS = range(100)
WORKLOADS = ("tw", "bessel-gap", "charlier-gap")


def results() -> dict:
    """The compared fields of every result, as ``repr`` strings, computed by
    the ``dope`` and ``workloads`` first on ``sys.path``."""
    import workloads
    from dope import fredholm, kernels
    from dope.ensembles import MultiplicativeFunctional
    from dope.specfun import ConvergenceError

    def fields(call):
        try:
            res = call()
        except ConvergenceError:
            return ["ConvergenceError"]
        if isinstance(res, fredholm.FredholmResult):
            return [repr(res.value), repr(res.truncation_size), repr(res.tail_estimate),
                    repr(res.converged)]
        return [repr(res)]

    gap = MultiplicativeFunctional.indicator_gap
    out = {name: [] for name in WORKLOADS}
    for i in REQUESTS:
        t = workloads.TracyWidom.params(SEED, i)["t"]
        out["tw"].append(fields(lambda: fredholm.det_continuum(kernels.AiryKernel(), t)))
        p = workloads.BesselGap.params(SEED, i)
        kernel = kernels.Bessel(p["alpha"])
        for n in p["rows"]:
            out["bessel-gap"].append(fields(lambda: fredholm.det_discrete(kernel, gap(n))))
        system = fredholm.IntervalSystem(p["pair"])
        out["bessel-gap"].append(fields(lambda: fredholm.joint_rows(kernel, system)))
        p = workloads.CharlierGap.params(SEED, i)
        out["charlier-gap"].append(fields(
            lambda: fredholm.charlier_expectation_det(p["alpha"], p["m"], gap(p["n"]))
        ))
    return out


def side_results(root: Path) -> dict:
    """``results`` of the checkout at ``root``, in a fresh process."""
    path = os.pathsep.join(str(d) for d in (root / "src", root / "bench", Path(__file__).parent))
    code = "import json, same_results; print(json.dumps(same_results.results()))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root, env=dict(os.environ, PYTHONPATH=path), check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--parent", default="HEAD~1", help="commit to compare against")
    args = parser.parse_args(argv)

    tmp = Path(tempfile.mkdtemp(prefix="same-results-"))
    try:
        extract(args.parent, tmp)
        parent, change = side_results(tmp), side_results(ROOT)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    differ = 0
    for name in WORKLOADS:
        old, new = parent[name], change[name]
        diffs = [i for i, (p, c) in enumerate(zip(old, new)) if p != c]
        differ += len(diffs) + abs(len(old) - len(new))
        print(f"{name}: {len(old)} parent and {len(new)} change results, {len(diffs)} differ")
        for i in diffs[:5]:
            print(f"  result {i}: parent {old[i]}, change {new[i]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
