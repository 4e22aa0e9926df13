import csv
import json
import math

import pytest

from hvf.cli import main
from hvf.spaceform import SpaceForm


def test_verify_confirmed(capsys):
    code = main(
        "verify --family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --q -1 --points 50".split()
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "harmonic=True" in out


def test_verify_refuted(capsys):
    code = main(
        "verify --family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --q -0.9 --points 50".split()
    )
    assert code == 1
    assert "harmonic=False" in capsys.readouterr().out


def test_verify_unexpected_error_exits_2(monkeypatch, capsys):
    # a batch too large to allocate raises MemoryError, which is not a refutation
    def no_memory(self, count, seed):
        raise MemoryError(f"Unable to allocate an array for {count} points")

    monkeypatch.setattr(SpaceForm, "sample_points", no_memory)
    code = main(
        "verify --family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --q -1 --points 100000000000".split()
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["error: Unable to allocate an array for 100000000000 points"]
    assert "Traceback" not in err


def test_verify_parse_errors(capsys):
    assert main("verify --family bogus --n 3 --epsilon 1 --p 4 --q -1".split()) == 2
    assert main("verify --family confgrad --n 3 --epsilon 1 --p 4 --q -1".split()) == 2
    assert main("verify --family confgrad --n 3 --epsilon 1 --mu 1".split()) == 2
    capsys.readouterr()


def test_verify_spec_file_and_flag_override(tmp_path, capsys):
    spec = tmp_path / "field.spec"
    spec.write_text(
        "# harmonic conformal gradient on S^3\n"
        "family = confgrad\nn = 3\nepsilon = 1\nmu = 1\np = 4\nq = -1\n"
    )
    assert main(["verify", "--spec", str(spec), "--points", "30"]) == 0
    # flag overrides the file's q, refuting
    assert main(["verify", "--spec", str(spec), "--points", "30", "--q", "-0.8"]) == 1
    capsys.readouterr()


def test_verify_json_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = "verify --family killing --n 2 --epsilon -1 --r 1 --omega 1 --p 3 --q -0.5 --points 40".split()
    assert main(argv + ["--json", str(out1)]) == 0
    assert main(argv + ["--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["verdicts"]["harmonic"] is True
    assert set(doc) >= {"family", "params", "p", "q", "n", "epsilon", "seed", "count",
                        "max_rel_residual", "verdicts", "per_point"}
    capsys.readouterr()


def test_solve_killing(capsys):
    assert main("solve --family killing --n 4 --r 2 --epsilon 1".split()) == 0
    out = capsys.readouterr().out
    assert "(sqrt(73) - 13)/8" in out
    assert "-0.5569995318" in out


def test_solve_nonexistence_exit_codes(capsys):
    assert main("solve --family quadratic --n 6".split()) == 3
    assert main("solve --family quadratic --n 3".split()) == 3
    assert main("solve --family confgrad --n 2 --epsilon 1".split()) == 3
    assert main("solve --family killing --n 4 --r 1 --epsilon 1".split()) == 3
    capsys.readouterr()


def test_solve_loxodromic(capsys):
    assert main("solve --family loxodromic".split()) == 0
    assert "(3, -0.5)" in capsys.readouterr().out


def test_table_values_and_csv(tmp_path, capsys):
    path1, path2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main(["table", "--csv", str(path1)]) == 0
    assert main(["table", "--csv", str(path2)]) == 0
    assert path1.read_bytes() == path2.read_bytes()
    rows = list(csv.DictReader(path1.read_text().splitlines()))
    assert [row["n"] for row in rows] == ["5", "7", "9"]
    got = {int(r["n"]): (float(r["q"]), float(r["lambda0_sq_over_4"])) for r in rows}
    assert got[5][0] == pytest.approx(1 / math.sqrt(3) - 1, abs=1e-9)
    assert got[5][1] == pytest.approx(math.sqrt(3) - 1, abs=1e-9)
    assert got[7][0] == pytest.approx((math.sqrt(201) - 29) / 16, abs=1e-9)
    assert got[9][1] == pytest.approx((math.sqrt(34) - 5) / 3, abs=1e-9)
    capsys.readouterr()


def test_scan2d_spherical_no_hits(capsys):
    code = main(
        "scan2d --epsilon 1 --omega 0.5,1 --rr 0.5,1 --h 0.5,1 --p 3,4 --q=-0.5,-1".split()
    )
    assert code == 0
    assert "0 harmonic hits" in capsys.readouterr().out


def test_scan2d_hyperbolic_loop_hits(tmp_path, capsys):
    out = tmp_path / "scan.json"
    code = main(
        (
            "scan2d --epsilon -1 --omega 0,0.6,1 --rr 0 --h 0,0.8,1 --p 3 --q=-0.5 "
            "--json " + str(out)
        ).split()
    )
    assert code == 0
    doc = json.loads(out.read_text())
    hits = {(row["omega"], row["h"]) for row in doc["rows"] if row["harmonic"]}
    # exactly the loop members (omega^2 + h^2 = 1) and the endpoints sigma_0, sigma_1
    assert hits == {(0.6, 0.8), (1.0, 0.0), (0.0, 1.0)}
    capsys.readouterr()


def test_scan2d_empty_grid(capsys):
    assert main(["scan2d", "--epsilon", "1", "--omega", "", "--rr", "1", "--h", "1"]) == 0
    assert "0 grid points, 0 harmonic hits" in capsys.readouterr().out


def test_scan2d_json_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = "scan2d --epsilon -1 --omega 0.5,1 --rr 0,1 --h 1 --p 3 --q=-0.5,-1".split()
    assert main(argv + ["--json", str(a)]) == 0
    assert main(argv + ["--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_scan2d_numeric_mode(capsys):
    code = main("scan2d --epsilon -1 --numeric --omega 0.6 --rr 0 --h 0.8 --p 3 --q=-0.5".split())
    assert code == 0
    assert "1 harmonic hits" in capsys.readouterr().out


def test_scan2d_numeric_overflow_is_not_a_hit(capsys):
    # the quartic's coefficients overflow to inf and NaN, which must not count as zero
    code = main("scan2d --epsilon -1 --omega 1e200 --rr 1e200 --h 1e200 --p 3 --q=-0.5 --numeric".split())
    out = capsys.readouterr().out
    assert code == 0
    assert "no (grade 4)" in out and "0 harmonic hits" in out


def test_verify_fd_override(capsys):
    code = main(
        "verify --family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --q -1 "
        "--points 10 --fd --h-fd 0.001 --tol 0.001".split()
    )
    assert code == 0
    assert "derivatives=finite-difference" in capsys.readouterr().out


@pytest.mark.parametrize("q, code", [("-1", 0), ("-0.9", 1)])
def test_verify_fd_default_tolerance(q, code, capsys):
    # without --tol, --fd judges against FD_TOL: the oracle's noise here (~1e-7) is above HARMONIC_TOL
    argv = "verify --family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --fd --q".split()
    assert main(argv + [q]) == code
    assert f"harmonic={code == 0}" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_verify_non_finite_scale_is_an_input_error(value, capsys):
    argv = "verify --family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --q -1 --points 50".split()
    assert main(argv + ["--scale", value]) == 2
    assert f"scale must be finite, got {value}" in capsys.readouterr().err


def test_verify_overflow_is_an_input_error(capsys):
    argv = "verify --family quadratic --n 5 --epsilon 1 --r 3 --lam 1e200 --p 4 --q -0.4 --points 50"
    assert main(argv.split()) == 2
    assert "non-finite" in capsys.readouterr().err


def test_verify_nan_mu_names_the_bad_value(capsys):
    assert main("verify --family confgrad --n 3 --epsilon 1 --mu nan --p 4 --q -1".split()) == 2
    assert "mu must be finite, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan", "-1", "0"])
def test_verify_rejects_bad_tolerance(value, capsys):
    argv = "verify --family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --q 5 --points 20 --tol".split()
    assert main(argv + [value]) == 2
    assert "tol must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_rejects_bad_fd_step(value, capsys):
    argv = "verify --family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --q -1 --points 5 --fd --h-fd".split()
    assert main(argv + [value]) == 2
    assert f"step h must be finite and positive, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec",
    [
        "--family hopf --n 3 --epsilon 1 --r 2.5 --omega 1 --p 2 --q 0.7",
        "--family killing --n 4 --epsilon 1 --r 1.5 --omega 1 --p 2 --q 0.7",
        "--family loxodromic --n 2 --epsilon -1 --r 1.5 --omega 1 --mu -1 --p 3 --q -0.5",
        "--family quadratic --n 5 --epsilon 1 --r 2.5 --lam 1 --p 4 --q -0.4",
    ],
)
def test_verify_rejects_non_integer_rank(spec, capsys):
    assert main(["verify", *spec.split()]) == 2
    assert "r must be an integer" in capsys.readouterr().err


def test_verify_overflowing_killing_operator_names_it(capsys):
    argv = "verify --family killing --n 4 --epsilon 1 --twists 1e200,1 --p 2 --q 1".split()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "operator too large to analyse" in err and "Eigenvalues" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("scan2d --epsilon 1 --omega nan --numeric", "--omega: 'nan' is not a finite number"),
        ("scan2d --epsilon 1 --rr inf --numeric", "--rr: 'inf' is not a finite number"),
        ("scan2d --epsilon 1 --omega 1/0", "--omega: '1/0' is not a finite number"),
    ],
)
def test_scan2d_rejects_bad_grid_values(argv, message, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
