"""Span recorder for the traced run, attached to `dope` from outside.

`Tracer.install` replaces the public functions of each layer (module
attributes and class methods) by wrappers that record a span: name, start,
end, the enclosing span, and the request it belongs to.  The enclosing span
is carried in a context variable, so nesting follows the real call stack.
Spans stay in flat arrays in memory and are written out once, at the end.
`uninstall` puts the original attributes back, so untraced requests run the
unmodified library.

A span's self time is its duration minus the durations of its direct
children.  The benchmark wraps each request in a root span, so the self
times of all spans of a request add up to the request's wall latency by
construction; the root's own self time is the time spent outside every
wrapped call.  What can go wrong is the nesting, so `summary` checks that
no span's children last longer than the span itself.
"""

from __future__ import annotations

import contextvars
import functools
from array import array
from time import perf_counter

import numpy as np

from dope import fredholm, kernels, rsk, sampler, specfun

ROOT = "request"


def _lu_flops(args, result) -> float:
    return 2.0 * float(np.shape(args[0])[0]) ** 3 / 3.0


def _truncation(args, result) -> float:
    return float(getattr(result, "truncation_size", 0))


def _letters_word(args, result) -> float:
    return float(len(args[0]))


def _letters_matrix(args, result) -> float:
    return float(np.sum(args[0]))


# (owner, attribute, span name, optional measure of the call).  Names group
# the attributes the per-layer metrics are reported under.
TARGETS = [
    (specfun, "airy_ai", "specfun.airy", None),
    (specfun, "airy_ai_prime", "specfun.airy", None),
    (specfun, "bessel_j", "specfun.bessel_j", None),
    (specfun, "bessel_j_orderderiv", "specfun.bessel_j_orderderiv", None),
    (specfun, "charlier_auxiliary_A", "specfun.charlier", None),
    (specfun, "charlier_contour_D_witherr", "specfun.charlier", None),
    (specfun, "charlier_cut_F_witherr", "specfun.charlier", None),
    (kernels.Bessel, "eval", "kernels.Bessel.eval", None),
    (kernels, "bessel_diag_tail", "kernels.bessel_diag_tail", None),
    (kernels.CharlierKernel, "eval", "kernels.CharlierKernel.eval", None),
    (kernels.CharlierKernel, "projection_eval", "kernels.CharlierKernel.projection_eval", None),
    (fredholm, "det_continuum", "fredholm.det_continuum", _truncation),
    (fredholm, "det_discrete", "fredholm.det_discrete", _truncation),
    (fredholm, "charlier_expectation_det", "fredholm.charlier_expectation_det", _truncation),
    (fredholm, "joint_rows", "fredholm.joint_rows", None),
    # fredholm reaches LAPACK through this attribute; the oracles also call
    # it, but they run only while the tracer is uninstalled.
    (np.linalg, "det", "fredholm.linalg_det", _lu_flops),
    (sampler, "sample_poisson", "sampler.sample_poisson", None),
    (sampler, "sample_word", "sampler.sample_word", None),
    (sampler, "sample_geometric_matrix", "sampler.sample_geometric_matrix", None),
    (rsk, "longest_weakly_increasing", "rsk.longest_weakly_increasing", _letters_word),
    (rsk, "matrix_rsk_shape", "rsk.matrix_rsk_shape", _letters_matrix),
]

CACHED = {
    "specfun.bessel_j": specfun.bessel_j,
    "specfun.bessel_j_orderderiv": specfun.bessel_j_orderderiv,
}


class Tracer:
    """Records spans of the wrapped layers while installed."""

    def __init__(self):
        self.names = [ROOT]
        self._ids = {ROOT: 0}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.measure = array("d")
        self._current = contextvars.ContextVar("span", default=-1)
        self._request = -1
        self._wrappers = [self._wrap(*target) for target in TARGETS]
        # Cache hits and misses of CACHED while installed.
        self.hits = {name: [0, 0] for name in CACHED}
        self._cache_before = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._current.get())
        self.request.append(self._request)
        self.start.append(0.0)
        self.end.append(0.0)
        self.measure.append(0.0)
        return idx

    def _wrap(self, owner, attr, name, how):
        fn = getattr(owner, attr)
        name_id = self._id(name)
        current, start, end, measure = self._current, self.start, self.end, self.measure

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            token = current.set(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                current.reset(token)
                start[idx] = t0
                end[idx] = t1
            if how is not None:
                measure[idx] = how(args, result)
            return result

        return owner, attr, fn, traced

    def install(self) -> None:
        for owner, attr, _, traced in self._wrappers:
            setattr(owner, attr, traced)
        self._cache_before = {n: f.cache_info() for n, f in CACHED.items()}

    def uninstall(self) -> None:
        for owner, attr, fn, _ in self._wrappers:
            setattr(owner, attr, fn)
        for n, f in CACHED.items():
            info, before = f.cache_info(), self._cache_before[n]
            self.hits[n][0] += info.hits - before.hits
            self.hits[n][1] += info.misses - before.misses

    def request_span(self, index: int, call):
        """Run call() as request ``index`` inside a root span and return its
        result."""
        self._request = index
        idx = self._open(0)
        token = self._current.set(idx)
        t0 = perf_counter()
        try:
            result = call()
        finally:
            t1 = perf_counter()
            self._current.reset(token)
            self.start[idx] = t0
            self.end[idx] = t1
            self._request = -1
        return result

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds and the summed
        measure of its calls."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        if np.any(child > dur):
            raise RuntimeError("spans overlap: a span's children outlast it")
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        total = np.bincount(name, weights=dur, minlength=size)
        own = np.bincount(name, weights=dur - child, minlength=size)
        measured = np.bincount(name, weights=np.frombuffer(self.measure), minlength=size)
        return {
            n: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
                "measure": float(measured[i]),
            }
            for i, n in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write every span as compressed numpy columns."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            measure=np.frombuffer(self.measure),
        )
