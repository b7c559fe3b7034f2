"""Benchmark of the `dope` library: one closed-loop client, one process.

    python3 bench/run.py --workload tw --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory, and the run stops with exit code 2 when there is none.

The run times the fresh-interpreter import that every `dope` command pays
(``setup_s``, median of several subprocesses), imports the library, sends
one untimed warm-up request, then sends seeded requests one after another
until the requests have been busy for ``--seconds`` and at least 100 have
completed.  A request's latency is the process's CPU time over the request
(``time.process_time``; the loop is one thread with no I/O), put on the
reference scale of ``hostspeed``: divided by the time of a fixed probe run
right before it and its neighbours, times the probe's time on an
uncontended core.  The times are thus in milliseconds of that reference
core, not of whatever speed the shared host had during the run.
``setup_s`` is the CPU time of each fresh interpreter up to the end of the
import, on the same scale, set by probes the interpreter runs right after.
``peak_rss_mb`` is read right after request 100, so that every commit is
measured after the same requests.  The raw CPU and wall-clock latencies and
the probe times are written with the run record under ``.bench_out/``.

After each request, untimed, every item it returned is checked against an
independent oracle (see ``oracles.py``).  An item fails when the
call raised ``ConvergenceError`` or disagrees with the oracle: it gave no
value or a wrong one, and the result line counts it in ``failed``.
``fail_ratio`` also counts the items that returned ``converged=False``,
right or not, so the certificate's false alarms show there (in the table
and the run record, and as a per-layer metric of the traced run) without
counting a right value as a failed operation.  ``correct`` turns false
only when an item the library certified as converged disagrees.

With ``--trace 0`` the last output line reports the end-to-end metrics.
With ``--trace 1`` every second request runs with the layers wrapped by
``spans.Tracer``; the last line reports the per-layer metrics per traced
request, and the tracing overhead as the traced minus the untraced mean
latency on the reference scale.  Span times are wall-clock.  The line
before it is the run record (machine, versions, sample counts); both it and
the spans are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_REQUESTS = 100
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
SETUP_CODE = "import dope, dope.cli"
# Appended to SETUP_CODE in the timed interpreters: prints the CPU seconds
# up to the end of the import and the median probe time in that process.
SETUP_REPORT = """
import time
t = time.process_time()
import hostspeed, statistics
hostspeed.warm()
print(t, statistics.median([hostspeed.probe() for _ in range(8)]))
"""
IMPORTS = ("dope.specfun", "dope.sampler", "dope.cli", "scipy.integrate", "scipy.stats")

END_TO_END = [
    ("setup_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# Span names reported with calls and self time per traced request.
LAYERS = [
    "specfun.airy",
    "specfun.bessel_j",
    "specfun.bessel_j_orderderiv",
    "specfun.charlier",
    "kernels.Bessel.eval",
    "kernels.bessel_diag_tail",
    "kernels.CharlierKernel.eval",
    "kernels.CharlierKernel.projection_eval",
    "fredholm.det_continuum",
    "fredholm.det_discrete",
    "fredholm.charlier_expectation_det",
    "fredholm.joint_rows",
    "sampler.sample_poisson",
    "sampler.sample_word",
    "sampler.sample_geometric_matrix",
    "rsk.longest_weakly_increasing",
    "rsk.matrix_rsk_shape",
]
TRUNCATED = ("fredholm.det_continuum", "fredholm.det_discrete", "fredholm.charlier_expectation_det")


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count/req"), (f"{layer}.self_ms", "ms/req")]
        if layer.startswith("specfun.bessel_j"):
            out.append((f"{layer}.hit_ratio", "ratio"))
        if layer.startswith("rsk."):
            out.append((f"{layer}.letters", "letters/req"))
    out += [
        ("fredholm.linalg_det.calls", "count/req"),
        ("fredholm.linalg_det.total_ms", "ms/req"),
        ("fredholm.linalg_det.flops_computed", "flop/req"),
        ("fredholm.truncation_size.mean", "sites"),
        ("fredholm.uncertified", "count"),
        ("fail_ratio", "ratio"),
        ("fredholm.oracle_mismatch", "count"),
    ]
    out += [(f"setup.import_ms.{m}", "ms") for m in IMPORTS]
    out += [
        ("trace.requests", "count"),
        ("trace.request_ms", "ms/req"),
        ("trace.outside_ms", "ms/req"),
        ("trace.overhead_ms", "ms/req"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    ours = os.pathsep.join([str(SRC), str(Path(__file__).resolve().parent)])
    return dict(os.environ, PYTHONPATH=ours + (os.pathsep + path if path else ""))


def time_setup(samples: int) -> list[float]:
    """CPU seconds of fresh interpreters running ``import dope, dope.cli``,
    after one untimed run that writes bytecode and warms the file cache, on
    the reference scale set by the probes each interpreter runs after it."""
    cmd = [sys.executable, "-c", SETUP_CODE + SETUP_REPORT]
    env = _child_env()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)
    out = []
    for _ in range(samples):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        cpu, probe = map(float, proc.stdout.split())
        out.append(cpu * hostspeed.REF_S / probe)
    return out


def import_times(samples: int) -> dict:
    """Median cumulative import milliseconds per module, from
    ``python -X importtime`` in fresh interpreters."""
    cmd = [sys.executable, "-X", "importtime", "-c", SETUP_CODE]
    seen = {m: [] for m in IMPORTS}
    for _ in range(samples):
        proc = subprocess.run(
            cmd, env=_child_env(), cwd=ROOT, check=True, capture_output=True, text=True
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in seen:
                seen[parts[2].strip()].append(int(parts[1]) / 1e3)
    return {m: statistics.median(v) for m, v in seen.items()}


def drive(workload, seed: int, seconds: float, tally, tracer=None) -> dict:
    """Closed loop: requests 0, 1, ... until ``seconds`` of request CPU time
    and MIN_REQUESTS requests, judging each request's items into ``tally``.
    Returns per request, in order, the CPU and the wall latency, whether it
    was traced, and the probe time before it (plus one after the last), and
    the peak RSS after request MIN_REQUESTS."""
    workload.run(workload.params(seed, -1), 0)
    hostspeed.warm()
    run = {"cpu": [], "wall": [], "traced": [], "probes": [], "rss_mb": None}
    busy, index = 0.0, 0
    while busy < seconds or index < MIN_REQUESTS:
        params = workload.params(seed, index)
        stream = index + 1
        traced = tracer is not None and index % 2 == 1
        run["probes"].append(hostspeed.probe())
        if traced:
            tracer.install()
        t0, c0 = perf_counter(), process_time()
        try:
            if traced:
                items = tracer.request_span(index, lambda: workload.run(params, stream))
            else:
                items = workload.run(params, stream)
        finally:
            dt = process_time() - c0
            run["wall"].append(perf_counter() - t0)
            if traced:
                tracer.uninstall()
        run["cpu"].append(dt)
        run["traced"].append(traced)
        busy += dt
        index += 1
        if index == MIN_REQUESTS:
            run["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tally.check(workload, items)
    run["probes"].append(hostspeed.probe())
    return run


def end_to_end(setup, latencies, tally, rss_mb) -> tuple[dict, dict]:
    values = {
        "setup_s": statistics.median(setup),
        "req_p50_ms": 1e3 * statistics.median(latencies),
        "req_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "items_per_s": tally.attempted / sum(latencies),
        "peak_rss_mb": rss_mb,
    }
    samples = {
        "setup_s": len(setup),
        "req_p50_ms": len(latencies),
        "req_p90_ms": len(latencies),
        "items_per_s": tally.attempted,
        "peak_rss_mb": MIN_REQUESTS,
    }
    return values, samples


def per_layer(tracer, plain, traced, tally, imports) -> dict:
    spans = tracer.summary()
    n = len(traced)
    values = {}
    for layer in LAYERS:
        s = spans[layer]
        values[f"{layer}.calls"] = s["calls"] / n
        values[f"{layer}.self_ms"] = 1e3 * s["self_s"] / n
        if layer.startswith("rsk."):
            values[f"{layer}.letters"] = s["measure"] / n
    for name, (hits, misses) in tracer.hits.items():
        values[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    det = spans["fredholm.linalg_det"]
    values["fredholm.linalg_det.calls"] = det["calls"] / n
    values["fredholm.linalg_det.total_ms"] = 1e3 * det["total_s"] / n
    values["fredholm.linalg_det.flops_computed"] = det["measure"] / n
    calls = sum(spans[name]["calls"] for name in TRUNCATED)
    values["fredholm.truncation_size.mean"] = (
        sum(spans[name]["measure"] for name in TRUNCATED) / calls if calls else 0.0
    )
    values["fredholm.uncertified"] = tally.uncertified
    values["fail_ratio"] = tally.flagged / tally.attempted
    values["fredholm.oracle_mismatch"] = tally.mismatch
    for module, ms in imports.items():
        values[f"setup.import_ms.{module}"] = ms
    mean_plain, mean_traced = statistics.fmean(plain), statistics.fmean(traced)
    values["trace.requests"] = n
    values["trace.request_ms"] = 1e3 * spans["request"]["total_s"] / n
    values["trace.outside_ms"] = 1e3 * spans["request"]["self_s"] / n
    values["trace.overhead_ms"] = 1e3 * (mean_traced - mean_plain)
    values["trace.overhead_ratio"] = mean_traced / mean_plain
    return values


def versions() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "dope" / "__init__.py").is_file():
        print(f"error: no dope sources under {SRC}", file=sys.stderr)
        return 2

    # One client and no threads: a single BLAS thread, set before numpy
    # loads, and the CLI's row thread pool left at its default of one.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    os.environ.pop("DOPE_THREADS", None)
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    wall0 = perf_counter()
    if args.trace:
        imports = import_times(IMPORT_SAMPLES)
        tracer = Tracer()
    else:
        setup = time_setup(SETUP_SAMPLES)
        tracer = None
    tally = workloads.Tally()
    run = drive(workload, args.seed, args.seconds, tally, tracer)
    latencies = hostspeed.normalise(run["cpu"], run["probes"])
    plain = [t for t, traced in zip(latencies, run["traced"]) if not traced]
    traced = [t for t, traced in zip(latencies, run["traced"]) if traced]

    if args.trace:
        values = per_layer(tracer, plain, traced, tally, imports)
        units = dict(per_layer_metrics())
        metrics = {name: values[name] for name in units}
        samples = {
            "traced_requests": len(traced),
            "untraced_requests": len(plain),
            "fail_ratio": tally.attempted,
        }
    else:
        metrics, samples = end_to_end(setup, latencies, tally, run["rss_mb"])
        units = dict(END_TO_END)

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": len(latencies),
        "busy_cpu_s": sum(run["cpu"]),
        "probe_ms_median": 1e3 * statistics.median(run["probes"]),
        "wall_s": perf_counter() - wall0,
        "items": tally.attempted,
        "failed": tally.failed,
        "flagged": tally.flagged,
        "fail_ratio": tally.flagged / tally.attempted,
        "oracle_mismatch": tally.mismatch,
        "certified_wrong": tally.certified_wrong,
        "uncertified": tally.uncertified,
        "uncertified_agreeing_with_oracle": tally.uncertified_agreeing,
        "samples": samples,
        "machine": versions(),
    }
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    if "fail_ratio" not in metrics:
        print(f"{'fail_ratio':48s} {record['fail_ratio']:14.6g} "
              f"({tally.flagged}/{tally.attempted} items)")
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps(dict(
            record,
            ref_latencies_ms=[1e3 * t for t in latencies],
            cpu_latencies_ms=[1e3 * t for t in run["cpu"]],
            wall_latencies_ms=[1e3 * t for t in run["wall"]],
            probes_ms=[1e3 * t for t in run["probes"]],
        ))
    )
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.npz")
    print("record " + json.dumps(record))
    result = {
        "correct": tally.certified_wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
