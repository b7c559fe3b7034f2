"""Command-line interface: parsing, outputs, manifests, verify suites."""

import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest
import scipy

from dope import cli, ensembles, fredholm


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# grid parsing


def test_parse_range_integer_grid():
    assert cli.parse_range("0..8") == list(range(9))
    assert cli.parse_range("2..10:4") == [2, 6, 10]
    assert cli.parse_range("-3..1") == [-3, -2, -1, 0, 1]


def test_parse_range_float_grid():
    grid = cli.parse_range("-1..1:0.5")
    assert grid == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])
    assert all(isinstance(v, float) for v in grid)


def test_parse_range_lists_and_scalars():
    assert cli.parse_range("3") == [3]
    assert cli.parse_range("0.25") == [0.25]
    assert cli.parse_range("1,4,9") == [1, 4, 9]
    assert cli.parse_range("-2.5,0") == [-2.5, 0]


def test_parse_range_rejects_bad_grids():
    with pytest.raises(ValueError):
        cli.parse_range("4..0")
    with pytest.raises(ValueError):
        cli.parse_range("0..4:-1")


def test_negative_flag_values_survive_argument_parsing(capsys):
    # "--t -2..0:1" must not be read as an unknown option
    code, out, err = _run(capsys, ["tw", "--t", "-2..0:1"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["t"] for r in rows] == ["-2", "-1", "0"]


# ---------------------------------------------------------------------------
# gap tables


def test_gap_bessel_table(capsys):
    code, out, err = _run(capsys, ["gap", "--kernel", "bessel", "--alpha", "1", "--n", "0..3"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert float(rows[0]["value"]) == pytest.approx(math.exp(-1.0), abs=1e-12)
    values = [float(r["value"]) for r in rows]
    assert values == sorted(values)


def test_gap_deep_tail_table_is_certified(capsys):
    # values down to 3e-49, each certified by the tail trace
    argv = ["gap", "--kernel", "bessel", "--alpha", "10000", "--n", "150..170:5"]
    code, out, err = _run(capsys, argv)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["threshold"] for r in rows] == ["150", "155", "160", "165", "170"]
    assert all(float(r["tail_estimate"]) < 1e-8 for r in rows)


def test_gap_non_convergence_exits_3(capsys, monkeypatch):
    # 3 is numerical non-convergence, 1 a failed verification
    def unconverged(kernel, phi, tol=1e-10):
        return fredholm.FredholmResult(0.5, 10, 1.0, False)

    monkeypatch.setattr(fredholm, "det_discrete", unconverged)
    code, out, err = _run(capsys, ["gap", "--kernel", "bessel", "--alpha", "1", "--n", "2"])
    assert code == 3
    assert "did not converge" in err


def test_gap_percolation_exact_value(capsys):
    code, out, err = _run(
        capsys,
        ["gap", "--model", "percolation", "--M", "3", "--N", "3", "--p", "1/2", "--n", "0..3"],
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    # P[L = 0] = P[all entries 0] = 2^-9 for a 3x3 matrix at p = 1/2
    assert float(rows[0]["value"]) == 2.0**-9


def test_gap_percolation_reads_only_p(capsys):
    argv = ["gap", "--model", "percolation", "--M", "3", "--N", "3", "--p", "1/2", "--n", "0..3"]
    code, out, err = _run(capsys, argv)
    assert code == 0
    # P[L <= n] for a 3x3 Bernoulli(1/2) matrix: 1, 38, 256 and 512 of 2^9
    assert out == "threshold,value,tail_estimate\n0,0.001953125,0\n1,0.07421875,0\n2,0.5,0\n3,1,0\n"
    # the percolation times belong to `sample`; the gap has no such flags
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--kappa", "0.5"])
    assert exc.value.code == 2
    assert "--kappa" in capsys.readouterr().err


def test_gap_word_exact(capsys):
    code, out, err = _run(
        capsys, ["gap", "--model", "word", "--M", "2", "--N", "2", "--n", "0..2"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[1]["value"]) == 0.25
    assert float(rows[2]["value"]) == 1.0


def test_gap_word_poissonized_value(capsys):
    code, out, err = _run(
        capsys, ["gap", "--model", "word", "--M", "3", "--alpha", "40", "--n", "20"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["value"]) == pytest.approx(0.630071151294, abs=1e-8)


def test_gap_word_sum_past_its_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(ensembles, "_SHELL_CAP", 3)
    code, out, err = _run(
        capsys, ["gap", "--model", "word", "--M", "3", "--alpha", "40", "--n", "20"]
    )
    assert code == 3
    assert "did not converge" in err


def test_gap_has_no_airy_kernel(capsys):
    # F(t) tables come from `dope tw --t`
    with pytest.raises(SystemExit) as exc:
        cli.main(["gap", "--kernel", "airy", "--n", "0"])
    assert exc.value.code == 2
    assert "invalid choice: 'airy'" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--to", "1e-6"), ("--t", "1")])
def test_gap_rejects_option_prefixes(capsys, flag, value):
    # --to is no --tol, and --t is no prefix of --tau0 or --tol
    with pytest.raises(SystemExit) as exc:
        cli.main(["gap", "--kernel", "bessel", "--alpha", "1", "--n", "2", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and flag in err
    assert "ambiguous" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "--model", "percolation", "--M", "2", "--N", "2", "--p", "1/0", "--n", "0..2"],
        ["sample", "--model", "bernoulli", "--M", "2", "--N", "2", "--p", "1/0"],
    ],
)
def test_zero_denominator_probability_exits_2(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert "zero denominator" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "--kernel", "bessel", "--alpha", "1", "--n", "0..2:0.5"],
        ["gap", "--model", "word", "--M", "2", "--N", "4", "--n", "1.7"],
    ],
)
def test_gap_rejects_thresholds_that_are_not_whole(capsys, argv):
    # a fractional threshold used to be truncated silently to the integer below
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "not all whole numbers" in err


def test_gap_requires_a_mode(capsys):
    code, out, err = _run(capsys, ["gap", "--alpha", "1", "--n", "0..2"])
    assert code == 2


# ---------------------------------------------------------------------------
# Tracy-Widom tables and joint laws


def test_tw_joint_flag(capsys):
    code, out, err = _run(capsys, ["tw", "--joint", "-1,-2"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["consistent"] == "1"
    assert 0.0 < float(rows[0]["value"]) < 1.0


def test_tw_joint_on_a_wide_interval_is_a_probability(capsys):
    # P[x_1 <= 0, x_2 <= -6] = 3.69e-4 for the Airy process; the
    # interpolation route this replaced printed -6.7e-4
    code, out, err = _run(capsys, ["tw", "--joint", "0,-6"])
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["thresholds"] == "0|-6"
    assert float(row["value"]) == pytest.approx(3.69e-4, rel=1e-3)
    assert row["consistent"] == "1"


# ---------------------------------------------------------------------------
# sampling


def test_sample_exhaustive_word_worked_example(capsys):
    code, out, err = _run(
        capsys,
        ["sample", "--model", "word", "--M", "2", "--N", "2", "--exhaustive"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exhaustive"] is True
    assert payload["total"] == 4
    assert payload["seed"] is None
    assert payload["counts"] == {"2": 3, "1,1": 1}


def test_sample_seeded_run_is_reproducible(capsys):
    argv = [
        "sample",
        "--model",
        "bernoulli",
        "--M",
        "2",
        "--N",
        "3",
        "--p",
        "0.5",
        "--samples",
        "200",
        "--seed",
        "7",
    ]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["statistic"] == "path-max"
    assert payload["total"] == 200


# ---------------------------------------------------------------------------
# output files and manifests


def test_out_file_and_manifest(tmp_path, capsys):
    target = tmp_path / "table.csv"
    argv = [
        "gap",
        "--kernel",
        "bessel",
        "--alpha",
        "1",
        "--n",
        "0..2",
        "--out",
        str(target),
    ]
    code = cli.main(argv)
    capsys.readouterr()
    assert code == 0
    text = target.read_text()
    manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    assert manifest["command"] == "gap"
    assert manifest["parameters"]["alpha"] == 1.0
    assert manifest["output_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert manifest["wall_time_s"] >= 0.0
    assert manifest["numpy"] == np.__version__
    assert manifest["scipy"] == scipy.__version__

    # rerunning into a second file must reproduce the bytes exactly
    target2 = tmp_path / "again.csv"
    code = cli.main(argv[:-1] + [str(target2)])
    capsys.readouterr()
    assert code == 0
    assert target2.read_text() == text


# ---------------------------------------------------------------------------
# verify suites


@pytest.mark.parametrize("suite", list(cli._SUITES))
def test_verify_suite_passes(capsys, suite):
    code, out, err = _run(capsys, ["verify", suite])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)
    assert "checks passed" in out


def test_verify_unknown_suite(capsys):
    code, out, err = _run(capsys, ["verify", "no-such-suite"])
    assert code == 2
