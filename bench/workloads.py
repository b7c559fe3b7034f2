"""The four benchmark workloads: seeded requests, the library calls that
answer them, and the oracle check of every item.

A request's parameters come from the workload seed alone.  Request i takes
point i of an additive (Kronecker) sequence with step (1/g, 1/g^2, ...),
g the plastic-type root of x^(d+1) = x + 1 (Roberts' R_d sequence), shifted
by an offset drawn from the seed.  Every parameter is continuous and new to
the run, so the special-function caches start cold on each request, as in a
fresh `dope` call; unlike independent draws, every prefix of the sequence
covers the parameter range evenly, which keeps the latency quantiles of a
time-bounded run steady from seed to seed.

Each workload's `run` sends one request through the public API and is
timed; its `oracle` recomputes one returned item by an independent route in
`oracles` (`McRsk.references` does a request's words at once), and
`Tally.check` judges the items.  Neither of the last two is timed.
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass

import oracles

from dope import fredholm, kernels, rsk, sampler
from dope.ensembles import MultiplicativeFunctional
from dope.specfun import ConvergenceError

_TOL_DISCRETE = inspect.signature(fredholm.det_discrete).parameters["tol"].default
_TOL_CHARLIER = inspect.signature(
    fredholm.charlier_expectation_det
).parameters["tol"].default
_TOL_CONTINUUM = inspect.signature(fredholm.det_continuum).parameters["tol"].default
_TOL_JOINT = inspect.signature(fredholm.joint_rows).parameters["tol"].default


@dataclass
class Item:
    """One determinant value or one Monte Carlo draw as the library gave it.

    ``args`` is what the oracle needs to recompute it.  ``value`` is None
    when the call raised, with the exception named in ``error``.
    """

    kind: str
    args: tuple
    value: float | None
    converged: bool = True
    tol: float = 0.0
    error: str | None = None


@dataclass
class Verdict:
    """An item's oracle comparison.

    ``failed``: the call gave no value or a wrong one (it raised, or it
    differs from the oracle).  ``flagged``: it failed or reported
    converged=False, the failure of the ``fail_ratio`` metric.
    """

    failed: bool
    flagged: bool
    mismatch: bool
    uncertified: bool


def judge(item: Item, reference: float, reference_err: float) -> Verdict:
    """An item fails when the call raised or differs from the oracle by
    more than its tolerance plus the oracle's own error; it is flagged when
    it fails or reported converged=False."""
    if item.error is not None:
        return Verdict(True, True, False, True)
    mismatch = bool(abs(item.value - reference) > item.tol + reference_err)
    return Verdict(mismatch, mismatch or not item.converged, mismatch, not item.converged)


class Tally:
    """Item accounting over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.flagged = 0
        self.mismatch = 0
        self.certified_wrong = 0
        self.uncertified = 0
        self.uncertified_agreeing = 0

    def check(self, workload, items) -> None:
        """Judge each item against the workload's oracle."""
        batch = getattr(workload, "references", None)
        refs = batch(items) if batch is not None else [
            workload.oracle(item) if item.error is None else (None, None) for item in items
        ]
        for item, (ref, err) in zip(items, refs):
            verdict = judge(item, ref, err)
            self.attempted += 1
            self.failed += verdict.failed
            self.flagged += verdict.flagged
            self.mismatch += verdict.mismatch
            self.certified_wrong += verdict.mismatch and item.converged
            self.uncertified += verdict.uncertified
            self.uncertified_agreeing += (
                verdict.uncertified and not verdict.mismatch and item.error is None
            )


def _r_step(dim: int) -> list[float]:
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    return [g ** -(k + 1) for k in range(dim)]


def unit_point(seed: int, index: int, dim: int) -> list[float]:
    """Point ``index`` of the seeded R_d sequence in [0, 1)^dim."""
    offset = random.Random(f"{seed}:{dim}").random
    return [(offset() + (index + 1) * s) % 1.0 for s in _r_step(dim)]


def _fredholm_item(kind, args, tol, call) -> Item:
    try:
        res = call()
    except ConvergenceError:
        return Item(kind, args, None, False, tol, "ConvergenceError")
    if isinstance(res, fredholm.FredholmResult):
        return Item(kind, args, res.value, res.converged, tol)
    return Item(kind, args, float(res), True, tol)


class TracyWidom:
    name = "tw"
    why = (
        "F(t) on the Airy kernel by Nystrom doubling, t uniform on [-8, 5]: "
        "the Airy special-function and continuum-determinant path, no lattice kernel"
    )

    @staticmethod
    def params(seed: int, index: int) -> dict:
        (u,) = unit_point(seed, index, 1)
        return {"t": -8.0 + 13.0 * u}

    @staticmethod
    def run(p: dict, stream: int) -> list[Item]:
        t = p["t"]
        return [
            _fredholm_item(
                "tw", (t,), _TOL_CONTINUUM,
                lambda: fredholm.det_continuum(kernels.AiryKernel(), t),
            )
        ]

    @staticmethod
    def oracle(item: Item):
        return oracles.tracy_widom(*item.args)


class BesselGap:
    name = "bessel-gap"
    why = (
        "ten Bessel gap rows from the deep tail to the bulk plus one two-row "
        "law, alpha log-uniform on [1, 1e4]: lattice kernel, certificate and LAPACK"
    )

    @staticmethod
    def params(seed: int, index: int) -> dict:
        (u,) = unit_point(seed, index, 1)
        alpha = 10.0 ** (4.0 * u)
        edge, width = 2.0 * math.sqrt(alpha), alpha ** (1.0 / 6.0)
        # Thresholds below zero are P = 0 and not a valid gap; they clamp
        # to n = 0, where P = e^{-alpha} is still a deep-tail value.
        rows = [max(0, round(edge + k * width)) for k in range(-6, 4)]
        return {"alpha": alpha, "rows": rows, "pair": (edge + width, edge - width)}

    @staticmethod
    def run(p: dict, stream: int) -> list[Item]:
        alpha = p["alpha"]
        kernel = kernels.Bessel(alpha)
        items = [
            _fredholm_item(
                "gap", (alpha, n), _TOL_DISCRETE,
                lambda n=n: fredholm.det_discrete(
                    kernel, MultiplicativeFunctional.indicator_gap(n)
                ),
            )
            for n in p["rows"]
        ]
        a1, a2 = p["pair"]
        items.append(
            _fredholm_item(
                "pair", (alpha, a1, a2), _TOL_JOINT,
                lambda: fredholm.joint_rows(kernel, fredholm.IntervalSystem([a1, a2])),
            )
        )
        return items

    @staticmethod
    def oracle(item: Item):
        if item.kind == "gap":
            return oracles.bessel_gap(*item.args)
        return oracles.bessel_two_rows(*item.args)


class CharlierGap:
    name = "charlier-gap"
    why = (
        "one rank-m Charlier gap, alpha log-uniform on [25, 400], m in "
        "[sqrt a, 2 sqrt a]: the second lattice path, with the trace-identity tail"
    )

    @staticmethod
    def params(seed: int, index: int) -> dict:
        u_alpha, u_m, u_n = unit_point(seed, index, 3)
        alpha = 25.0 * 16.0**u_alpha
        root = math.ceil(math.sqrt(alpha))
        m = root + min(root, int(u_m * (root + 1)))
        n = round(alpha / m + 2.0 * math.sqrt(alpha) + (3.0 * u_n - 2.0) * alpha ** (1.0 / 6.0))
        return {"alpha": alpha, "m": m, "n": n}

    @staticmethod
    def run(p: dict, stream: int) -> list[Item]:
        alpha, m, n = p["alpha"], p["m"], p["n"]
        return [
            _fredholm_item(
                "charlier", (alpha, m, n), _TOL_CHARLIER,
                lambda: fredholm.charlier_expectation_det(
                    alpha, m, MultiplicativeFunctional.indicator_gap(n)
                ),
            )
        ]

    @staticmethod
    def oracle(item: Item):
        return oracles.charlier_gap(*item.args)


class McRsk:
    name = "mc-rsk"
    why = (
        "Poisson-length words tallied by patience LIS beside 6x6 geometric "
        "matrices tallied by row insertion: sampler and both uses of rsk"
    )
    WORDS = 12
    MATRICES = 12
    SIDE = 6

    @staticmethod
    def params(seed: int, index: int) -> dict:
        u_alpha, u_q = unit_point(seed, index, 2)
        return {"seed": seed, "alpha": 100.0 + 1500.0 * u_alpha, "q": 0.2 + 0.4 * u_q}

    @classmethod
    def run(cls, p: dict, stream: int) -> list[Item]:
        alpha, q = p["alpha"], p["q"]
        m = math.ceil(math.sqrt(alpha))
        items = []
        rng = sampler.make_rng(p["seed"], 2 * stream)
        for _ in range(cls.WORDS):
            word = sampler.sample_word(m, sampler.sample_poisson(alpha, rng), rng)
            items.append(Item("word", (word, m), rsk.longest_weakly_increasing(word)))
        rng = sampler.make_rng(p["seed"], 2 * stream + 1)
        for _ in range(cls.MATRICES):
            a = sampler.sample_geometric_matrix(cls.SIDE, q, rng)
            items.append(Item("matrix", (a,), rsk.matrix_rsk_shape(a).part(1)))
        return items

    @staticmethod
    def oracle(item: Item):
        if item.kind == "word":
            return oracles.weak_lis(*item.args), 0.0
        return oracles.last_passage(*item.args), 0.0

    @staticmethod
    def references(items: list[Item]) -> list:
        """`oracle` of each item, with the request's words (all on the
        same letters) run through the letter DP together."""
        words = [item.args for item in items if item.kind == "word"]
        lis = iter(oracles.weak_lis_many([w for w, _ in words], words[0][1]))
        return [
            (next(lis) if item.kind == "word" else oracles.last_passage(*item.args), 0.0)
            for item in items
        ]


WORKLOADS = {w.name: w for w in (TracyWidom, BesselGap, CharlierGap, McRsk)}
