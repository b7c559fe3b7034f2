"""Command-line front end: gap tables, Tracy-Widom values, samplers, verifiers.

Outputs are plot-ready CSV (header row, 17 significant digits, no locale
dependence) or JSON for empirical data.  Every file written with --out gets a
sidecar `<out>.manifest.json` recording the command, parameters, seed,
package version, the numpy and scipy versions the numbers depend on, wall
time, and a checksum of the output bytes, so the run can be reproduced
byte-identically.  Without --out the data goes to stdout and the manifest
to stderr.

Exit codes: 0 success, 1 failed verification, 2 invalid arguments,
3 numerical non-convergence.

Grid arguments accept `a..b:step` (inclusive, step optional with default 1)
or comma-separated lists.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import math
import sys
import time
from csv import writer as csv_writer
from fractions import Fraction

import numpy as np
import scipy

from . import __version__, ensembles, fredholm, kernels, models, rsk, sampler
from .ensembles import MultiplicativeFunctional
from .partitions import Partition, enumerate_partitions
from .specfun import ConvergenceError, bessel_j

# ---------------------------------------------------------------------------
# small plumbing


def _fmt(v) -> str:
    """Fixed 17-significant-digit formatting so reruns are byte-identical."""
    if isinstance(v, Fraction):
        v = float(v)
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _parse_scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_range(text: str) -> list:
    """`a..b:step` (inclusive grid), a comma list, or a single number."""
    text = text.strip()
    if ".." in text:
        lo_s, rest = text.split("..", 1)
        if ":" in rest:
            hi_s, step_s = rest.split(":", 1)
            step = _parse_scalar(step_s)
        else:
            hi_s, step = rest, 1
        lo, hi = _parse_scalar(lo_s), _parse_scalar(hi_s)
        if step <= 0:
            raise ValueError("grid step must be positive")
        if hi < lo:
            raise ValueError("grid end must not precede its start")
        count = int(math.floor((hi - lo) / step + 1e-9))
        vals = [lo + i * step for i in range(count + 1)]
        if all(isinstance(v, int) for v in (lo, hi, step)):
            return [int(v) for v in vals]
        return [float(v) for v in vals]
    if "," in text:
        return [_parse_scalar(p) for p in text.split(",") if p.strip()]
    return [_parse_scalar(text)]


def _parse_prob(text: str):
    """Probabilities given as `a/b` stay exact rationals; decimals are floats."""
    text = text.strip()
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"probability {text!r} has a zero denominator") from None
    return float(text)


def _thresholds(text: str) -> list[int]:
    """The integer threshold grid of `dope gap`; non-whole values are errors."""
    vals = parse_range(text)
    if not all(isinstance(v, int) or v.is_integer() for v in vals):
        raise ValueError(f"thresholds {text!r} are not all whole numbers")
    return [int(v) for v in vals]


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv_writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _manifest_params(args: argparse.Namespace) -> dict:
    skip = {"func", "out"}
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in skip or val is None:
            continue
        if isinstance(val, Fraction):
            val = str(val)
        out[key] = val
    return out


def _emit(args: argparse.Namespace, text: str, t0: float, seed=None) -> None:
    data = text.encode()
    manifest = {
        "command": args.command,
        "parameters": _manifest_params(args),
        "seed": seed,
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "wall_time_s": round(time.time() - t0, 6),
        "output_sha256": hashlib.sha256(data).hexdigest(),
    }
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as f:
            f.write(text)
        with open(out + ".manifest.json", "w") as f:
            f.write(manifest_text)
    else:
        sys.stdout.write(text)
        sys.stderr.write(manifest_text)


def _outcome_key(outcome) -> str:
    if isinstance(outcome, Partition):
        return ",".join(str(p) for p in outcome)
    if isinstance(outcome, tuple):
        return ",".join(str(p) for p in outcome)
    if isinstance(outcome, float):
        return _fmt(outcome)
    return str(outcome)


# ---------------------------------------------------------------------------
# gap tables


def _cmd_gap(args) -> int:
    t0 = time.time()
    chosen = [x for x in (args.kernel, args.model) if x]
    if len(chosen) != 1:
        raise ValueError("choose exactly one of --kernel or --model")
    if args.kernel == "bessel":
        if args.alpha is None or args.n is None:
            raise ValueError("--kernel bessel needs --alpha and --n")
        ker = kernels.Bessel(float(args.alpha))

        def one(n):
            res = fredholm.det_discrete(
                ker, MultiplicativeFunctional.indicator_gap(n), tol=args.tol
            )
            if not res.converged:
                raise ConvergenceError(f"gap at threshold {n} did not converge")
            return (n, res.value, res.tail_estimate)

        rows = [one(n) for n in _thresholds(args.n)]
    elif args.model == "percolation":
        if args.M is None or args.N is None or args.p is None or args.n is None:
            raise ValueError("--model percolation needs --M, --N, --p and --n")
        p = _parse_prob(args.p)
        rows = [
            (n, models.percolation_gap(p, args.M, args.N, n), 0.0) for n in _thresholds(args.n)
        ]
    else:
        if args.M is None or args.n is None:
            raise ValueError("--model word needs --M and --n (thresholds)")
        if (args.N is None) == (args.alpha is None):
            raise ValueError("--model word needs exactly one of --N or --alpha")
        rows = []
        for t in _thresholds(args.n):
            if args.N is not None:
                rows.append((t, models.word_gap(args.M, t, n=args.N), 0.0))
            else:
                value = models.word_gap(args.M, t, alpha=args.alpha, tol=args.tol)
                rows.append((t, value, args.tol))
    _emit(args, _csv_text(("threshold", "value", "tail_estimate"), rows), t0)
    return 0


# ---------------------------------------------------------------------------
# Tracy-Widom tables


def _cmd_tw(args) -> int:
    t0 = time.time()
    if (args.t is None) == (args.joint is None):
        raise ValueError("choose exactly one of --t or --joint")
    if args.t is not None:
        ker = kernels.AiryKernel()

        def one(t):
            res = fredholm.det_continuum(ker, float(t), tol=args.tol)
            if not res.converged:
                raise ConvergenceError(f"F({t}) did not converge")
            return (float(t), res.value, res.tail_estimate)

        rows = [one(t) for t in parse_range(args.t)]
        _emit(args, _csv_text(("t", "F", "tail_estimate"), rows), t0)
        return 0
    thresholds = [float(v) for v in parse_range(args.joint)]
    system = fredholm.IntervalSystem(sorted(thresholds, reverse=True))
    value = fredholm.joint_rows(kernels.AiryKernel(), system, tol=args.tol)
    marginal = fredholm.tracy_widom(system.thresholds[0], tol=args.tol)
    consistent = (-1e-9 <= value <= 1.0 + 1e-9) and value <= marginal + 1e-6
    rows = [("|".join(_fmt(v) for v in system.thresholds), value, int(consistent))]
    _emit(args, _csv_text(("thresholds", "value", "consistent"), rows), t0)
    return 0


# ---------------------------------------------------------------------------
# sampling


def _sample_setup(args):
    """Return (sample_fn, statistic_fn, statistic_name) for the model."""
    model = args.model
    stat = args.statistic

    if model == "permutation":
        if args.N is None:
            raise ValueError("permutation model needs --N")
        draw = lambda rng: sampler.sample_permutation(args.N, rng)
        stat = stat or "shape"
        word_like = True
    elif model == "word":
        if args.M is None or args.N is None:
            raise ValueError("word model needs --M and --N")
        draw = lambda rng: sampler.sample_word(args.M, args.N, rng)
        stat = stat or "shape"
        word_like = True
    elif model == "poisson-word":
        if args.M is None or args.alpha is None:
            raise ValueError("poisson-word model needs --M and --alpha")

        def draw(rng):
            n = sampler.sample_poisson(args.alpha, rng)
            return sampler.sample_word(args.M, n, rng) if n else ()

        stat = stat or "shape"
        word_like = True
    elif model == "bernoulli":
        if args.M is None or args.N is None or args.p is None:
            raise ValueError("bernoulli model needs --M, --N and --p")
        p = _parse_prob(args.p)
        draw = lambda rng: sampler.sample_bernoulli_matrix(args.M, args.N, p, rng)
        stat = stat or "path-max"
        word_like = False
    elif model == "geometric":
        if args.N is None or args.q is None:
            raise ValueError("geometric model needs --N and --q")
        draw = lambda rng: sampler.sample_geometric_matrix(args.N, args.q, rng)
        stat = stat or "shape"
        word_like = False
    elif model == "percolation":
        if args.M is None or args.N is None or args.p is None:
            raise ValueError("percolation model needs --M (rows k), --N (target l), --p")
        spec = models.PercolationSpec(
            tau0=args.tau0, kappa=args.kappa, lam=args.lam, p=_parse_prob(args.p)
        )
        p = spec.p
        draw = lambda rng: sampler.sample_bernoulli_matrix(args.M, args.N + 1, p, rng)
        stat = stat or "passage-time"
        word_like = False
        if stat == "passage-time":
            return draw, (lambda w: float(models.passage_time(spec, w))), stat
    else:
        raise ValueError(f"unknown model {model!r}")

    if stat == "shape":
        fn = rsk.rsk_shape if word_like else rsk.matrix_rsk_shape
    elif stat == "first-row":
        base = rsk.rsk_shape if word_like else rsk.matrix_rsk_shape
        fn = lambda w: base(w).part(1)
    elif stat == "path-max":
        if word_like:
            raise ValueError("path-max applies to matrix models")
        fn = rsk.bernoulli_path_max
    else:
        raise ValueError(f"statistic {stat!r} not available for model {model!r}")
    return draw, fn, stat


def _cmd_sample(args) -> int:
    t0 = time.time()
    draw, stat_fn, stat_name = _sample_setup(args)
    if args.exhaustive:
        if args.model == "word":
            law = sampler.exhaustive_word_law(args.M, args.N, stat_fn)
        elif args.model == "permutation":
            law = sampler.exhaustive_permutation_law(args.N, stat_fn)
        else:
            raise ValueError("exhaustive mode supports the word and permutation models")
    else:
        law = sampler.empirical_law(draw, stat_fn, args.samples, args.seed, args.stream)
    law.check()
    counts = {_outcome_key(k): v for k, v in law.counts.items()}
    payload = {
        "model": args.model,
        "statistic": stat_name,
        "exhaustive": bool(args.exhaustive),
        "total": law.total,
        "seed": law.seed,
        "stream": law.stream,
        "counts": dict(sorted(counts.items())),
    }
    text = json.dumps(payload, indent=2) + "\n"
    _emit(args, text, t0, seed=law.seed)
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _suite_plancherel_s7():
    checks = []
    for n in range(1, 8):
        law = sampler.exhaustive_permutation_law(n, rsk.rsk_shape)
        spec = ensembles.Plancherel(n)
        ok = law.total == math.factorial(n)
        seen = 0
        for lam in law.counts:
            seen += 1
            if law.frequency(lam) != ensembles.pmf_exact(spec, lam):
                ok = False
        expected_shapes = sum(1 for _ in enumerate_partitions(n))
        ok = ok and seen == expected_shapes
        checks.append((f"S_{n} pushforward", ok, f"{seen} shapes, {law.total} permutations"))
    return checks


def _suite_words_exact():
    checks = []
    for m, n in ((2, 2), (3, 3), (4, 3), (3, 4)):
        law = sampler.exhaustive_word_law(m, n, rsk.rsk_shape)
        ok = law.total == m**n
        for lam in law.counts:
            if law.frequency(lam) != ensembles.word_shape_pmf(m, n, lam):
                ok = False
        checks.append((f"words M={m} N={n}", ok, f"{len(law.counts)} shapes"))
    law = sampler.exhaustive_word_law(2, 2, rsk.rsk_shape)
    ok = (
        law.frequency(Partition((2,))) == Fraction(3, 4)
        and law.frequency(Partition((1, 1))) == Fraction(1, 4)
    )
    checks.append(("worked example M=N=2", ok, "P[(2)]=3/4, P[(1,1)]=1/4"))
    return checks


def _suite_percolation_exact():
    checks = []
    probs = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    for m in range(1, 13):
        for n in range(1, 13):
            if m * n > 12:
                continue
            tally: dict[tuple[int, int], int] = {}
            for bits in itertools.product((0, 1), repeat=m * n):
                w = [bits[i * n : (i + 1) * n] for i in range(m)]
                key = (rsk.bernoulli_path_max(w), sum(bits))
                tally[key] = tally.get(key, 0) + 1
            ok = True
            for p in probs:
                q = 1 - p
                for level in range(0, m + 1):
                    brute = sum(
                        c * p**ones * q ** (m * n - ones)
                        for (lval, ones), c in tally.items()
                        if lval <= level
                    )
                    if models.percolation_gap(p, m, n, level) != brute:
                        ok = False
            checks.append((f"percolation M={m} N={n}", ok, "p in {1/4,1/2,3/4}"))
    return checks


def _suite_aztec_exact():
    checks = []
    for n in range(1, 5):
        tilings = list(models.enumerate_aztec_tilings(n))
        ok = len(tilings) == models.aztec_tiling_count(n)
        checks.append((f"aztec count n={n}", ok, f"{len(tilings)} tilings"))
        for color in ("white", "black"):
            good = True
            for r in range(1, n + 1):
                counts: dict[tuple[int, ...], int] = {}
                for til in tilings:
                    h = models.aztec_zigzag_turns(til, n, r, color)
                    if len(h) != r:
                        good = False
                    counts[h] = counts.get(h, 0) + 1
                top = n if color == "white" else n - 1
                for sub in itertools.combinations(range(top + 1), r):
                    z = models.AztecZigzag(n=n, r=r, color=color, turns=sub)
                    law = models.aztec_zigzag_pmf(z)
                    emp = Fraction(counts.get(sub, 0), len(tilings))
                    if emp != law:
                        good = False
            checks.append((f"aztec zig-zag n={n} {color}", good, "all r"))
    return checks


def _suite_hexagon_exact():
    checks = []
    for a in (2, 3):
        pps = list(models.enumerate_plane_partitions(a))
        want = {2: 20, 3: 980}[a]
        checks.append((f"plane partitions a={a}", len(pps) == want, f"{len(pps)} found"))
        for k in range(0, a + 1):
            counts: dict[tuple[int, ...], int] = {}
            for pi in pps:
                h = models.plane_partition_slice(pi, a, k)
                counts[h] = counts.get(h, 0) + 1
            ok = True
            total = Fraction(0)
            for h, c in counts.items():
                law = models.hexagon_slice_pmf(a, k, h)
                total += law
                if Fraction(c, len(pps)) != law:
                    ok = False
            ok = ok and total == 1
            checks.append((f"hexagon slice a={a} k={k}", ok, f"{len(counts)} configurations"))
    return checks


def _suite_kernel_identities():
    checks = []
    for alpha in (0.25, 1.0, 4.0, 25.0):
        ker = kernels.Bessel(alpha)
        worst = 0.0
        for x in range(-10, 11):
            for y in range(-10, 11):
                worst = max(worst, abs(ker.eval(x, y) - kernels.bessel_series(alpha, x, y)))
        checks.append((f"bessel series alpha={alpha}", worst <= 1e-10, f"max diff {worst:.3e}"))
        t = 2.0 * math.sqrt(alpha)
        rec = 0.0
        for x in range(-12, 13):
            lhs = bessel_j(x - 1, alpha) + bessel_j(x + 1, alpha)
            rec = max(rec, abs(lhs - (2.0 * x / t) * bessel_j(x, alpha)))
        checks.append((f"bessel recurrence alpha={alpha}", rec <= 1e-10, f"max diff {rec:.3e}"))
        ok = True
        detail = []
        for big_l in (0, 2, 5, 10):
            x_top = int(2.0 * math.sqrt(alpha)) + 40
            total = math.fsum(ker.eval(x, x) for x in range(-big_l, x_top + 1))
            total += kernels.bessel_diag_tail(alpha, x_top)
            # Cauchy-Schwarz on sum_n n J_n(2 sqrt(a))^2 gives sqrt(a/2) + L
            bound = math.sqrt(alpha / 2.0) + big_l
            if total > bound + 1e-9:
                ok = False
            detail.append(f"L={big_l}: {total:.4f}<={bound:.4f}")
        checks.append((f"bessel trace bound alpha={alpha}", ok, "; ".join(detail)))
    return checks


_SUITES = {
    "plancherel-s7": _suite_plancherel_s7,
    "words-exact": _suite_words_exact,
    "percolation-exact": _suite_percolation_exact,
    "aztec-exact": _suite_aztec_exact,
    "hexagon-exact": _suite_hexagon_exact,
    "kernel-identities": _suite_kernel_identities,
}


def _cmd_verify(args) -> int:
    if args.suite not in _SUITES:
        sys.stderr.write(
            f"error: unknown suite {args.suite!r}; choose from {', '.join(_SUITES)}\n"
        )
        return 2
    checks = _SUITES[args.suite]()
    failed = 0
    for name, ok, detail in checks:
        line = f"{'PASS' if ok else 'FAIL'} {name} ({detail})\n"
        sys.stdout.write(line)
        if not ok:
            failed += 1
    sys.stdout.write(f"{len(checks) - failed}/{len(checks)} checks passed\n")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dope",
        allow_abbrev=False,
        description="Discrete orthogonal polynomial ensembles: tables, samples, verification.",
    )
    parser.add_argument("--version", action="version", version=f"dope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gap = sub.add_parser("gap", allow_abbrev=False, help="gap-probability tables (CSV)")
    gap.add_argument("--kernel", choices=("bessel",))
    gap.add_argument("--model", choices=("percolation", "word"))
    gap.add_argument("--alpha", type=float, help="kernel intensity or Poisson mean")
    gap.add_argument("--n", help="integer threshold grid, e.g. 0..8")
    gap.add_argument("--M", type=int, help="rows (percolation) or alphabet size (word)")
    gap.add_argument("--N", type=int, help="columns (percolation) or word length")
    gap.add_argument("--p", help="Bernoulli parameter; fractions like 1/4 stay exact")
    gap.add_argument("--tol", type=float, default=1e-8)
    gap.add_argument("--out", help="output CSV path (manifest written alongside)")
    gap.set_defaults(func=_cmd_gap)

    tw = sub.add_parser("tw", allow_abbrev=False, help="Tracy-Widom distribution tables (CSV)")
    tw.add_argument("--t", help="grid of arguments, e.g. -6..4:0.5")
    tw.add_argument("--joint", help="thresholds t_1,...,t_k for the joint row law")
    tw.add_argument("--tol", type=float, default=1e-8)
    tw.add_argument("--out")
    tw.set_defaults(func=_cmd_tw)

    smp = sub.add_parser(
        "sample", allow_abbrev=False, help="Monte Carlo or exhaustive empirical laws (JSON)"
    )
    smp.add_argument(
        "--model",
        required=True,
        choices=("permutation", "word", "poisson-word", "bernoulli", "geometric", "percolation"),
    )
    smp.add_argument("--M", type=int)
    smp.add_argument("--N", type=int)
    smp.add_argument("--alpha", type=float)
    smp.add_argument("--p", help="Bernoulli parameter")
    smp.add_argument("--q", type=float, help="geometric parameter")
    smp.add_argument("--tau0", type=float, default=1.0)
    smp.add_argument("--kappa", type=float, default=2.0)
    smp.add_argument("--lam", type=float, default=1.0)
    smp.add_argument("--statistic", choices=("shape", "first-row", "path-max", "passage-time"))
    smp.add_argument("--samples", type=int, default=1000)
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument("--stream", type=int, default=0)
    smp.add_argument("--exhaustive", action="store_true")
    smp.add_argument("--out")
    smp.set_defaults(func=_cmd_sample)

    ver = sub.add_parser("verify", allow_abbrev=False, help="run a named exact-oracle suite")
    ver.add_argument("suite", help=f"one of: {', '.join(_SUITES)}")
    ver.set_defaults(func=_cmd_verify)

    return parser


_VALUE_FLAGS = {"--t", "--n", "--joint"}


def _merge_flag_values(argv: list[str]) -> list[str]:
    """Join `--t -4..2:0.25` into `--t=-4..2:0.25` so grids that start with a
    minus sign are not mistaken for option names."""
    out: list[str] = []
    it = iter(argv)
    for tok in it:
        if tok in _VALUE_FLAGS:
            nxt = next(it, None)
            if nxt is None:
                out.append(tok)
            else:
                out.append(f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_merge_flag_values(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.func(args)
    except ConvergenceError as err:
        sys.stderr.write(f"error: computation did not converge: {err}\n")
        return 3
    except (ValueError, TypeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
