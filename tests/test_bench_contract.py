"""The benchmark's hooks into the package keep resolving.

`bench/spans.py` wraps named attributes of the package for the traced run,
`bench/workloads.py` reads the `tol` defaults of the public determinant
functions, and `bench/run.py` reports the import times of the modules it
names in IMPORTS.  These tests import the benchmark's modules as they are,
without changing them, so a refactor that renames or bypasses a hooked
attribute, or stops importing a timed module, fails here instead of
silently emptying a per-layer metric.
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dope import fredholm, kernels, specfun
from dope.ensembles import MultiplicativeFunctional

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture(scope="module")
def spans():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        return importlib.import_module("spans")


def test_every_traced_target_resolves(spans):
    for owner, attr, name, _ in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


@pytest.mark.parametrize(
    "name", ["det_discrete", "charlier_expectation_det", "det_continuum", "joint_rows"]
)
def test_public_determinants_keep_a_tol_default(name):
    default = inspect.signature(getattr(fredholm, name)).parameters["tol"].default
    assert isinstance(default, float) and default > 0.0


def _traced_summary(spans, call):
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.request_span(0, call)
    finally:
        tracer.uninstall()
    return tracer.summary()


def test_traced_lattice_call_reaches_the_hooked_layers(spans):
    summary = _traced_summary(
        spans,
        lambda: fredholm.det_discrete(
            kernels.Bessel(2.0), MultiplicativeFunctional.indicator_gap(3)
        ),
    )
    for name in ("fredholm.det_discrete", "kernels.bessel_diag_tail", "fredholm.linalg_det"):
        assert summary[name]["calls"] >= 1, name
    assert summary["fredholm.det_discrete"]["measure"] > 0


def test_traced_tracy_widom_call_reaches_the_hooked_layers(spans):
    summary = _traced_summary(spans, lambda: fredholm.tracy_widom(-2.0))
    for name in ("specfun.airy", "fredholm.det_continuum", "fredholm.linalg_det"):
        assert summary[name]["calls"] >= 1, name
    assert summary["fredholm.det_continuum"]["measure"] > 0


def test_cached_special_functions_keep_their_cache(spans):
    # the traced run reads hits and misses of these through cache_info
    for attr in ("bessel_j", "bessel_j_orderderiv"):
        fn = getattr(specfun, attr)
        assert callable(getattr(fn, "cache_info", None)), attr
        assert spans.CACHED[f"specfun.{attr}"] is fn


def test_every_timed_import_is_imported_by_the_setup_code():
    # the traced run takes the median import time of each module in
    # IMPORTS, which has no value when the package stops importing one
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        run = importlib.import_module("run")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", run.SETUP_CODE],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
    )
    imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()}
    for module in run.IMPORTS:
        assert module in imported, module
