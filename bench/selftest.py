"""Self-test of the benchmark's own accounting.

    python3 bench/selftest.py

Checks that a seed fixes the request list and the Monte Carlo draws, that
an oracle value moved past the tolerance is a failed item, that a
``converged=False`` result is counted in ``fail_ratio`` but a right value
is not a failed item, that a request's time is put on the host
speed scale by the probes around it, that ``BENCHMARK.json`` lists exactly the
metrics and workloads ``run.py`` reports, and that the benchmark refuses to
run without the library's sources.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Item, Tally, judge  # noqa: E402


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        sys.exit(1)


def same_seed_same_requests() -> None:
    for w in workloads.WORKLOADS.values():
        first = [w.params(7, i) for i in range(300)]
        check(first == [w.params(7, i) for i in range(300)], f"{w.name}: seed 7 repeats its requests")
        check(first != [w.params(8, i) for i in range(300)], f"{w.name}: seed 8 differs from seed 7")
        check(len({json.dumps(p) for p in first}) == len(first), f"{w.name}: no request repeats")
    mc = workloads.McRsk
    p = mc.params(7, 3)
    draws = [(i.kind, i.value) for i in mc.run(p, 4)]
    check(draws == [(i.kind, i.value) for i in mc.run(p, 4)], "mc-rsk: seed and stream repeat the draws")
    items = mc.run(p, 4)
    check(mc.references(items) == [mc.oracle(i) for i in items],
          "mc-rsk: the batched oracle gives each item's own")


class _Shifted:
    """A workload whose oracle answers twice the allowed distance away, or
    one off for the exact Monte Carlo statistics."""

    def __init__(self, workload):
        self.workload = workload

    def oracle(self, item):
        ref, err = self.workload.oracle(item)
        return ref + (2.0 * (item.tol + err) if item.tol else 1), err


def perturbed_oracle_fails() -> None:
    tw = workloads.TracyWidom
    items = tw.run(tw.params(1, 0), 1)
    honest = Tally()
    honest.check(tw, items)
    check(honest.failed == 0, "tw: a library value within tolerance of the oracle passes")
    moved = Tally()
    moved.check(_Shifted(tw), items)
    check(
        moved.failed == moved.flagged == moved.attempted == moved.mismatch
        == moved.certified_wrong == 1,
        "tw: an oracle value moved past the tolerance is a failure",
    )
    mc = workloads.McRsk
    moved = Tally()
    moved.check(_Shifted(mc), mc.run(mc.params(1, 0), 1))
    check(moved.failed == moved.attempted > 0, "mc-rsk: a statistic off by one is a failure")


def unconverged_counts_in_fail_ratio() -> None:
    exact = judge(Item("gap", (), 0.5, True, 1e-10), 0.5, 0.0)
    check(not exact.failed and not exact.flagged, "a converged value equal to the oracle passes")
    flagged = judge(Item("gap", (), 0.5, False, 1e-10), 0.5, 0.0)
    check(flagged.flagged and flagged.uncertified and not flagged.failed and not flagged.mismatch,
          "a converged=False value equal to the oracle counts in fail_ratio, not as failed")
    wrong = judge(Item("gap", (), 0.6, False, 1e-10), 0.5, 0.0)
    check(wrong.failed and wrong.flagged and wrong.mismatch,
          "a converged=False value off the oracle is a failure")
    raised = judge(Item("gap", (), None, False, 1e-10, "ConvergenceError"), None, None)
    check(raised.failed and raised.flagged and raised.uncertified, "a ConvergenceError is a failure")
    tally = Tally()
    tally.check(workloads.BesselGap, [
        Item("gap", (100.0, 25), None, False, 1e-10, "ConvergenceError"),
        Item("gap", (100.0, 25), workloads.oracles.bessel_gap(100.0, 25)[0], False, 1e-10),
    ])
    check((tally.attempted, tally.failed, tally.flagged, tally.certified_wrong) == (2, 1, 2, 0),
          "a raised item fails, an unconverged right one is flagged, neither is judged wrong")


def scale_follows_probes() -> None:
    # The host turns 2x slower halfway: both halves' requests took 3 probes.
    probes = [1e-3] * 20 + [2e-3] * 21
    times = [3e-3] * 20 + [6e-3] * 20
    ref = hostspeed.normalise(times, probes)
    check(all(abs(t - 3 * hostspeed.REF_S) < 1e-15 for t in ref[:16] + ref[24:]),
          "a request is scaled by the probes around it, not by the run's")


def manifest_matches() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    check([(w["name"], w["why"]) for w in spec["workloads"]]
          == [(w.name, w.why) for w in workloads.WORKLOADS.values()],
          "BENCHMARK.json lists the workloads run.py knows, with their reasons")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
          "BENCHMARK.json lists the end-to-end metrics run.py reports")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics(),
          "BENCHMARK.json lists the per-layer metrics run.py reports")


def refuses_without_sources() -> None:
    bare = HERE.parent / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tw", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py exits nonzero with no result where src/ is missing")


if __name__ == "__main__":
    same_seed_same_requests()
    perturbed_oracle_fails()
    unconverged_counts_in_fail_ratio()
    scale_follows_probes()
    manifest_matches()
    refuses_without_sources()
    print("self-test passed")
