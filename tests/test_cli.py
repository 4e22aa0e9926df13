import collections
import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import hvf
from hvf.cli import main
from hvf.params import FD_TOL, HARMONIC_TOL
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
    # a batch that fits the memory estimate can still fail to allocate when the memory is
    # in use elsewhere; the MemoryError is not a refutation
    def no_memory(self, count, seed):
        raise MemoryError(f"Unable to allocate an array for {count} points")

    monkeypatch.setattr(SpaceForm, "sample_points", no_memory)
    code = main("verify --family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --q -1 --points 1000".split())
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["error: Unable to allocate an array for 1000 points"]
    assert "Traceback" not in err


@pytest.mark.parametrize("fd", [[], ["--fd"]], ids=["closed-form", "fd"])
def test_verify_rejects_impossible_points_before_sampling(monkeypatch, capsys, fd):
    def never(self, count, seed):
        raise AssertionError("sample_points must not run for an impossible count")

    monkeypatch.setattr(SpaceForm, "sample_points", never)
    argv = "verify --family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --q -1 --points 1000000000000000"
    code = main(argv.split() + fd)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "physical memory" in err


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
    # the report records the threshold it judged against: the default, FD_TOL with --fd, or --tol
    assert doc["tol"] == HARMONIC_TOL
    for extra, tol in ((["--fd"], FD_TOL), (["--tol", "0.003"], 0.003)):
        assert main(argv + extra + ["--json", str(out2)]) == 0
        assert json.loads(out2.read_text())["tol"] == tol
    capsys.readouterr()


def test_list_values_that_start_with_a_minus_take_the_equals_form(tmp_path, capsys):
    # after a space argparse reads "-1,0,0,2" as an option; after "=" it is the value
    out = tmp_path / "r.json"
    verify = "verify --family confgrad --n 3 --epsilon -1 --p 3 --q -0.5 --points 20".split()
    assert main(verify + ["--pole", "-1,0,0,2"]) == 2
    assert "argument --pole: expected one argument" in capsys.readouterr().err
    assert main(verify + ["--pole=-1,0,0,2", "--json", str(out)]) == 1
    assert "harmonic=False" in capsys.readouterr().out
    assert json.loads(out.read_text())["params"] == {"mu": -3.0, "pole": [-1.0, 0.0, 0.0, 2.0]}
    assert main("scan2d --epsilon -1 --omega=-1,1 --rr 0 --h 0.8 --p 3 --q=-0.5".split()) == 0
    assert capsys.readouterr().out.splitlines() == [
        "omega=-1 tau=0 rr=0 h=0.8 p=3 q=-0.5: no (grade 2)",
        "omega=1 tau=0 rr=0 h=0.8 p=3 q=-0.5: no (grade 2)",
        "2 grid points, 0 harmonic hits",
    ]


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


@pytest.mark.parametrize(
    "argv, message",
    [
        ("solve --family loxodromic --epsilon 1", "--epsilon: the loxodromic classification is defined on H^2 only"),
        ("solve --family loxodromic --n 5", "--n: the loxodromic classification is defined on H^2 only"),
        ("solve --family quadratic --n 5 --epsilon -1", "--epsilon: quadratic gradient fields are defined on spheres only"),
    ],
)
def test_solve_rejects_a_space_the_family_does_not_cover(argv, message, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_solve_defaults_to_the_family_space(capsys):
    assert main("solve --family loxodromic --n 2 --epsilon -1".split()) == 0
    assert capsys.readouterr().out.startswith("family=loxodromic n=2 epsilon=-1\n")
    assert main("solve --family quadratic --n 5".split()) == 0
    assert capsys.readouterr().out.startswith("family=quadratic n=5 epsilon=+1\n")


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


def test_scan2d_hyperbolic_grid_lines_are_pinned(capsys):
    # a 720-point exact grid with tau, s and t off their defaults; the digest was taken with
    # the quartic built by TriPoly ring operations (_reference_quartic in test_polyreduce)
    argv = (
        "scan2d --epsilon -1 --omega 0.6,0.8,1,0.5,1/3 --rr 0,0.5 --h 0.8,0.6,0,1 --tau 0,1/2 "
        "--s 3/5 --t 4/5 --p 3,4,5/2 --q=-1/2,-1,-3/10"
    ).split()
    assert main(argv) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert [line for line in lines if line.endswith("HIT")] == [
        "omega=0.6 tau=0 rr=0 h=0.8 p=3 q=-0.5: HIT",
        "omega=0.8 tau=0 rr=0 h=0.6 p=3 q=-0.5: HIT",
        "omega=1 tau=0 rr=0 h=0 p=3 q=-0.5: HIT",
    ]
    grades = collections.Counter(line.split(": ")[1] for line in lines[:-1] if not line.endswith("HIT"))
    assert grades == {"no (grade 4)": 480, "no (grade 3)": 165, "no (grade 2)": 71, "no (grade 0)": 1}
    assert [line for line in lines if line.endswith("(grade 0)")] == [
        "omega=1 tau=0 rr=0 h=1 p=3 q=-1: no (grade 0)"
    ]
    assert lines[-1] == "720 grid points, 3 harmonic hits"
    digest = "3162d3c71577a33e87028b7d9e727d4562125f5d27e9bd2634fbf83196a39f7f"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("mode", ["--exact", "--numeric"])
def test_scan2d_q_zero_cells_name_the_reason(mode, tmp_path, capsys):
    out_json = tmp_path / "scan.json"
    argv = f"scan2d --epsilon -1 --omega 0.6 --rr 0 --h 0.8 --p 3 --q=0,-0.5 {mode} --json {out_json}"
    assert main(argv.split()) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "omega=0.6 tau=0 rr=0 h=0.8 p=3 q=0: no (q = 0)",
        "omega=0.6 tau=0 rr=0 h=0.8 p=3 q=-0.5: HIT",
        "2 grid points, 1 harmonic hits",
    ]
    rows = json.loads(out_json.read_text())["rows"]
    assert [(row["q"], row["harmonic"], row["failing_grade"]) for row in rows] == [(0.0, False, None), (-0.5, True, None)]


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


@pytest.mark.parametrize("mode", ["--numeric", "--exact"])
def test_scan2d_extreme_scales_keep_their_grade(mode, capsys):
    # coefficients ~1e300 next to rounding residues ~1e284: both arithmetics read grade 3
    argv = "scan2d --epsilon -1 --omega 1e150 --rr 1e150 --h 1e-200 --p 3 --q 1e-300".split()
    assert main(argv + [mode]) == 0
    assert capsys.readouterr().out == (
        "omega=1e+150 tau=0 rr=1e+150 h=1e-200 p=3 q=1e-300: no (grade 3)\n"
        "1 grid points, 0 harmonic hits\n"
    )


# run one subcommand in a fresh process and report on stderr whether it imported numpy, or with
# _REPORT_BLAS the OpenBLAS thread count it ran with
_REPORT_NUMPY = (
    "import os, sys\n"
    "from hvf.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('numpy' in sys.modules, file=sys.stderr)\n"
    "sys.exit(code)\n"
)
_REPORT_BLAS = _REPORT_NUMPY.replace("'numpy' in sys.modules", "os.environ.get('OPENBLAS_NUM_THREADS')")


def _fresh_process(argv, script=_REPORT_NUMPY, **env):
    # the child starts without this process's OPENBLAS_NUM_THREADS, so it sees the CLI's own default
    src = os.path.dirname(os.path.dirname(hvf.__file__))
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=dict(child, PYTHONPATH=src, **env), timeout=120,
    )


@pytest.mark.parametrize(
    "argv, code",
    [
        ("solve --family killing --n 4 --r 2", 0),
        ("solve --family quadratic --n 6", 3),
        ("table --csv {csv}", 0),
        ("scan2d --epsilon 1", 0),
    ],
)
def test_classifications_and_scan2d_run_without_numpy(argv, code, tmp_path, capsys):
    fresh = _fresh_process(argv.format(csv=tmp_path / "fresh.csv").split())
    assert (fresh.returncode, fresh.stderr) == (code, "False\n")
    # the same output as in this process, where numpy is loaded
    assert main(argv.format(csv=tmp_path / "here.csv").split()) == code
    assert fresh.stdout == capsys.readouterr().out
    if "--csv" in argv:
        assert (tmp_path / "fresh.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()


def test_verify_runs_in_a_fresh_process():
    fresh = _fresh_process("verify --family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --q -1 --points 20".split())
    assert (fresh.returncode, fresh.stderr) == (0, "True\n")
    assert "harmonic=True" in fresh.stdout


@pytest.mark.parametrize("env, threads", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")], ids=["unset", "set"])
def test_verify_process_defaults_to_one_blas_thread(env, threads):
    argv = "verify --family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --q -1 --points 20".split()
    fresh = _fresh_process(argv, _REPORT_BLAS, **env)
    assert (fresh.returncode, fresh.stderr) == (0, f"{threads}\n")


def test_verify_in_a_process_with_numpy_leaves_the_environment_alone(monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert main("verify --family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --q -1 --points 20".split()) == 0
    assert dict(os.environ) == before
    capsys.readouterr()


@pytest.mark.parametrize("flag, value", [("scale", "inf"), ("scale", "nan"), ("q", "nan"), ("mu", "-inf")])
def test_verify_non_finite_flag_fails_before_numpy_loads(flag, value):
    argv = f"verify --family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --q -1 --{flag}={value}".split()
    fresh = _fresh_process(argv)
    assert fresh.returncode == 2 and fresh.stdout == ""
    error, loaded = fresh.stderr.splitlines()[-2:]
    assert error.endswith(f"argument --{flag}: {flag} must be finite, got {value}") and loaded == "False"


@pytest.mark.parametrize(
    "line, argv",
    [
        ("p = nan", "--q -1"),
        ("scale = inf", "--p 4 --q -1"),
        ("twists = 1,nan", "--p 4 --q -1"),
    ],
    ids=["p-nan", "scale-inf", "twists-nan"],
)
def test_verify_non_finite_spec_value_fails_before_numpy_loads(line, argv, tmp_path):
    family = "killing\nn = 4" if "twists" in line else "confgrad\nn = 3\nmu = 1"
    spec = tmp_path / "field.spec"
    spec.write_text(f"family = {family}\nepsilon = 1\n{line}\n")
    fresh = _fresh_process(["verify", "--spec", str(spec), *argv.split()])
    key, value = (part.strip() for part in line.split("="))
    assert (fresh.returncode, fresh.stdout) == (2, "")
    assert fresh.stderr.splitlines() == [f"error: spec key {key}: {key} must be finite, got {value}", "False"]


@pytest.mark.parametrize(
    "argv",
    [
        "verify --family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --q -1 --points 20 --json {out}",
        "scan2d --epsilon 1 --json {out}",
        "table --csv {out}",
    ],
    ids=["verify", "scan2d", "table"],
)
def test_a_failed_output_write_prints_no_verdict(argv, tmp_path, capsys):
    assert main(argv.format(out=tmp_path / "missing" / "out").split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_verify_help_names_both_default_tolerances(capsys):
    assert main(["verify", "--help"]) == 0
    assert "default 1e-07, 1e-05 with --fd" in " ".join(capsys.readouterr().out.split())


def test_verify_fd_override(capsys):
    code = main(
        "verify --family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --q -1 "
        "--points 10 --fd --h-fd 0.001 --tol 0.001".split()
    )
    assert code == 0
    assert "derivatives=finite-difference" in capsys.readouterr().out


@pytest.mark.parametrize("q, code", [("-1", 0), ("-0.9", 1)])
def test_verify_fd_default_tolerance(q, code, capsys):
    # without --tol, --fd judges against FD_TOL: the oracle's noise here (~7.5e-8) leaves no margin below HARMONIC_TOL
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


def test_verify_rejects_a_negative_seed(capsys):
    argv = "verify --family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --q -1 --seed -1".split()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be a non-negative integer, got -1\n" and captured.out == ""


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
