"""Exponent fitting, compensated sums, output formats, and the CLI surface."""

import ast
import csv
import json
import math
import random
from pathlib import Path

import pytest

from pgt import calibration as cal
from pgt import cli
from pgt.harness import FitResult, compensated_sum, fit_exponent, write_csv, write_json
from pgt.cli import main, parse_gaussian, parse_grid


def test_fit_exact_power_law():
    pts = [(x, x**0.5) for x in (1.0, 10.0, 100.0, 1000.0, 10000.0)]
    f = fit_exponent(pts)
    assert f.slope == pytest.approx(0.5, abs=1e-10)
    assert f.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_data():
    f = fit_exponent([(1.0, 3.0), (10.0, 3.0), (100.0, 3.0)])
    assert f.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_noisy_power_law_within_band():
    rng = random.Random(123)
    pts = [(x, x**0.5 * math.exp(rng.gauss(0.0, 0.1)))
           for x in (10.0, 100.0, 1000.0, 10000.0, 100000.0)]
    f = fit_exponent(pts)
    assert abs(f.slope - 0.5) < cal.SYNTHETIC_FIT_BAND
    assert f.r_squared > 0.99


def test_fit_degenerate_inputs():
    with pytest.raises(ValueError):
        fit_exponent([(1.0, 2.0)])
    with pytest.raises(ValueError):
        fit_exponent([(1.0, 2.0), (1.0, 3.0)])
    with pytest.raises(ValueError):
        fit_exponent([(1.0, 2.0), (2.0, -1.0)])
    # a nan magnitude or a non-finite scale used to give slope nan
    for bad in ([(1.0, 2.0), (2.0, math.nan)], [(1.0, 2.0), (2.0, math.inf)],
                [(1.0, 2.0), (math.inf, 3.0)], [(1.0, 2.0), (math.nan, 3.0)],
                [(0.0, 2.0), (2.0, 3.0)]):
        with pytest.raises(ValueError):
            fit_exponent(bad)
    with pytest.raises(ValueError):
        FitResult(slope=1.0, intercept=0.0, r_squared=2.0,
                  samples=[(1, 1), (2, 2)])


def test_cli_rejects_bad_tol_and_seed(capsys):
    for bad in (["psi", "--x", "100", "--tol", "0"], ["circle", "--seed", "-1"],
                ["circle", "--seed", str(2**64)], ["psi", "--x", "100", "--v", "0"],
                ["interval", "--x", "100", "--v", "nan"], ["lfun", "--trace", "3", "--v", "0"],
                ["smoothed", "--x", "100", "--y", "10", "--v", "inf"],
                ["psi", "--x", "nan"], ["psi", "--x", "-100"], ["interval", "--x", "inf"],
                ["interval", "--x", "100", "--y", "-3"],
                ["smoothed", "--x", "1000", "--y", "nan"],
                ["lfun", "--delta", "0"], ["lfun", "--delta", "9"],
                ["lfun", "--trace", "0"], ["lfun", "--trace", "2"],
                ["kloosterman", "--m", "1", "--n", "1", "--c", "0"],
                ["kloosterman", "--m", "1", "--n", "1", "--c", "1001"],
                ["lfun", "--trace", "99999"],
                ["kloosterman", "--m", str(2**31), "--n", "1", "--c", "3"],
                # a grid bound at or below 0 once multiplied 0 by 10 until
                # memory ran out, and an infinite one never stopped
                ["circle", "--m-grid", "0:1e3"], ["circle", "--m-grid=-1:1e3"],
                ["circle", "--m-grid", "1e3:inf"], ["circle", "--m-grid", "1e3"],
                ["circle", "--m-grid", "1e4:1e3"], ["circle", "--m-grid", "1e3,1e10"],
                ["circle", "--m-grid", "1e3,nan"], ["circle", "--centers", "0"],
                ["psi", "--x", "5"], ["smoothed", "--x", "5", "--y", "1"],
                ["psi", "--x", "1e5"], ["interval", "--x", "100", "--nu", "2"],
                ["interval", "--x", "100", "--nu", "nan"], ["interval", "--x", "1"],
                ["exponents", "--nu", "5"], ["exponents", "--nu", "nan"],
                ["exponents", "--nu", "0.7", "--eta", "0.9"],
                ["spectral", "--file", "eig.txt", "--t", "nan", "--x", "100"],
                ["spectral", "--file", "eig.txt", "--t", "-1", "--x", "100"],
                # T = inf counted every eigenvalue and printed "T": Infinity
                ["spectral", "--file", "eig.txt", "--t", "inf", "--x", "100"],
                ["spectral", "--file", "eig.txt", "--t", "6", "--x", "0.5"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


def test_compensated_sum_matches_fsum_on_cancelling_sums():
    # a big term, many terms below its half-ulp, then the big term cancelled:
    # plain summation drops the small terms, Kahan summation keeps them to
    # within 2 eps sum|x| of the exactly rounded math.fsum
    eps = 2.0 ** -52
    rng = random.Random(5)
    re_terms = [1.0] + [rng.uniform(0.0, 1e-16) for _ in range(10000)] + [-1.0]
    im_terms = [1e6] + [rng.uniform(-1e-11, 0.0) for _ in range(10000)] + [-1e6]
    terms = [complex(x, y) for x, y in zip(re_terms, im_terms)]
    got, plain = compensated_sum(terms), sum(terms)
    for part, xs in (("real", re_terms), ("imag", im_terms)):
        want = math.fsum(xs)
        bound = 2 * eps * math.fsum(abs(x) for x in xs)
        assert abs(getattr(got, part) - want) <= bound
        assert abs(getattr(plain, part) - want) > 10 * bound
    # real terms sum on the real part alone
    assert compensated_sum(re_terms) == complex(got.real, 0.0)


def test_json_schema_and_csv_header():
    text = write_json({"x": 1})
    obj = json.loads(text)
    assert obj["schema"] == 1 and obj["x"] == 1
    # standard JSON only: no NaN or Infinity literals
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            write_json({"x": [1.0, bad]})
    csv_text = write_csv([[1, 2.5]], ["beta_nu", "normalized_error"])
    assert csv_text.splitlines()[0] == "beta_nu,normalized_error"


def test_parse_gaussian():
    cases = {"3": (3, 0), "-5": (-5, 0), "4i": (0, 4), "-i": (0, -1),
             "i": (0, 1), "1-i": (1, -1), "3+2i": (3, 2), "-7+4i": (-7, 4)}
    for text, pair in cases.items():
        assert parse_gaussian(text).pair == pair


def test_parse_grid():
    assert parse_grid("1e2:1e4") == [100.0, 1000.0, 10000.0]
    assert parse_grid("5,50") == [5.0, 50.0]


def test_cli_exponents_contains_67_42(capsys):
    assert main(["exponents", "--theta", "1/6"]) == 0
    out = capsys.readouterr().out
    assert "67/42" in out


def test_cli_exponents_system(capsys):
    assert main(["exponents"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["system"]["pointwise_exponent"] == pytest.approx(1.60023, abs=1e-5)


def test_cli_circle_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["circle", "--m-grid", "1e3:1e4", "--centers", "5", "--seed", "7",
            "--format", "csv"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_kloosterman(capsys):
    assert main(["kloosterman", "--m", "0", "--n", "0", "--c", "1+i"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["value_re"] == pytest.approx(1.0)


def test_cli_psi_and_interval(capsys, tmp_path):
    assert main(["psi", "--x", "100", "--v", "500", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("x,psi,main,remainder,constant_used")
    assert main(["interval", "--x", "400", "--nu", "0.7", "--v", "800"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["main"] == pytest.approx(400.0 * 400.0**0.7 + 400.0**1.4 / 2.0)
    assert "normalized_error" in obj


def test_cli_lfun(capsys):
    assert main(["lfun", "--trace", "3", "--v", "800"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["delta"] == "5"
    assert obj["G_V"] == pytest.approx(obj["product"], abs=1e-4)


def test_cli_spectral(capsys, tmp_path):
    p = tmp_path / "eig.txt"
    p.write_text("# source: synthetic\n1.0\n2.0\n3.0\n")
    assert main(["spectral", "--file", str(p), "--t", "2.5", "--x", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["count"] == 2
    assert obj["S_re"] == pytest.approx(2.0)


def test_cli_spectral_bad_file_is_usage_error(capsys, tmp_path):
    # a malformed file is one stderr line and exit 2, like a missing one
    p = tmp_path / "eig.txt"
    p.write_text("6.6\nnan\n3.0\ninf\n")
    for path in (p, tmp_path / "missing.txt"):
        assert main(["spectral", "--file", str(path), "--t", "2.5", "--x", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
    p.write_text("1.0\nnan\n")
    main(["spectral", "--file", str(p), "--t", "2.5", "--x", "1"])
    assert "line 2" in capsys.readouterr().err


def test_cli_required_and_exclusive_options(capsys):
    for argv, message in ((["psi"], "required"), (["lfun"], "required"),
                          (["lfun", "--delta", "12", "--trace", "3"], "not allowed with"),
                          (["psi", "--x", "100", "--config", "run.cfg"],
                           "unrecognized arguments")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_cli_csv_row_is_json_values(capsys, tmp_path):
    eig = tmp_path / "eig.txt"
    eig.write_text("# source: synthetic\n1.0\n2.0\n3.0\n")
    for argv in (["psi", "--x", "100", "--v", "500"],
                 ["interval", "--x", "400", "--nu", "0.7", "--v", "800"],
                 ["smoothed", "--x", "200", "--y", "20", "--v", "500"],
                 ["lfun", "--trace", "3", "--v", "800"],
                 ["kloosterman", "--m", "1", "--n", "1+i", "--c", "11+3i"],
                 ["spectral", "--file", str(eig), "--t", "2.5", "--x", "1"]):
        assert main(argv) == 0
        obj = json.loads(capsys.readouterr().out)
        assert main(argv + ["--format", "csv"]) == 0
        header, row = csv.reader(capsys.readouterr().out.splitlines())
        assert row == [str(obj[k]) for k in header], argv


def test_cli_reads_no_private_attribute():
    # argparse's private internals (_actions, _mutually_exclusive_groups,
    # _SubParsersAction) change between Python versions; the CLI parses
    # with the public API alone
    tree = ast.parse(Path(cli.__file__).read_text())
    private = sorted({node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr.startswith("_")})
    assert private == []
