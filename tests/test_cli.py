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


def test_scan2d_takes_rational_grid_values(capsys):
    argv = "scan2d --epsilon 1 --omega=-2,1/7 --rr 3/11,0 --p 3,5/2".split()
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "96 grid points, 0 harmonic hits"
    # an exponent too large for a float is refused at once, before it is expanded exactly
    for bad in ("nan", "inf", "1/0", "1e400", "1e999999999"):
        assert main(["scan2d", "--epsilon", "1", "--h", bad]) == 2
        captured = capsys.readouterr()
        assert f"--h: '{bad}' is not a finite number" in captured.err and captured.out == ""


def test_scan2d_exact_bounds_the_bits_of_a_grid_value(capsys):
    # read from the literal's digits and exponent, before 10^k is expanded: 1e-999999999 would need 3.3e9 bits
    for bad in ("1e-300000", "1e-999999999", "1e-1234", "0.1e-1233", "0." + "3" * 1300):
        assert main(["scan2d", "--epsilon", "1", "--h", bad]) == 2
        captured = capsys.readouterr()
        assert f"--h: '{bad}' needs more than 4096 bits as an exact fraction" in captured.err and captured.out == ""
    # every float literal stays exact: the smallest subnormal's denominator has 1129 bits, 10^1233 has 4096
    for good, shown in (("4.9406564584124654e-324", "4.940656458e-324"), ("1.7976931348623157e+308", "1.797693135e+308"),
                        ("1e-1233", "0"), ("1" + "0" * 1300 + "e-1300", "1"), ("0e-999999999", "0")):
        assert main(f"scan2d --epsilon 1 --omega 1 --rr 0 --h {good} --p 3 --q 1".split()) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"omega=1 tau=0 rr=0 h={shown} p=3 q=1: no (grade 2)"


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        ("killing --n 4 --r 2 --epsilon 1", 0, "8f436ffc041c02c3e0508ea0e56de00d728d787eb1acbf2a7b99b52fa914cc91"),
        ("killing --n 4 --r 2 --epsilon -1", 0, "537091c1578b7fed35f7294022ec193752e124ca9a21c81dd1a9c233f5547c2b"),
        ("killing --n 9 --r 3 --epsilon -1", 0, "3cf66bf12a08fe2eb680dc63f914d23a2db061c5957234ac29d1a7742b6dbb28"),
        ("killing --n 40 --r 7 --epsilon 1", 0, "5e33c1be0a967d01d249eff8e2c90039a4c46a665812bff575b7b25ec095aaf7"),
        ("killing --n 100 --r 50 --epsilon -1", 0, "d884f397a29e06b90ec0c06f66b096be4ea6d53b041b0d60124c0eda8a3916f2"),
        ("quadratic --n 5", 0, "1e4bf446983b7b28b92c01086796503707fdc7183245846c4207e9e7bd0509bd"),
        ("quadratic --n 9", 0, "1c52b88e74f230c96358e84f1b62710949d68ce5841fd6f0bf46bc110f72e5f4"),
        ("quadratic --n 21", 0, "38f3f48b24e8bdbf7589cdbad4ecb2c5a373f7c504bfc253e48a3e41641e5716"),
        ("quadratic --n 6", 3, "2fdf4a98c6e2081ef9b293708a40cc74a627d6c7bcd8f2b832a7713fdc225daa"),
        ("confgrad --n 3 --epsilon -1 --mu-sign +", 0, "0234ee23ea28840c3dea8c41d049786b6dcdc602407a54f350d947048d222bb8"),
        ("confgrad --n 3 --epsilon -1 --mu-sign 0", 3, "e179730a6bc50c56cb7ab621a6a854ac0fff679655fdd3fa78a881dc1628b456"),
        ("confgrad --n 3 --epsilon -1 --mu-sign -", 0, "5435595ac644e8dc3ade286a9f69fdc32444c160f0c378c44873bbcb3ab07ccc"),
        ("loxodromic", 0, "c5a5b6a6ee787847b101084642b836d59efc8b5660e031470ed0e0c58a3bbeeb"),
    ],
)
def test_solve_lines_are_pinned(argv, code, digest, capsys):
    # the surds, floats and bound margins that solve prints, byte for byte
    assert main(["solve", "--family", *argv.split()]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        ("confgrad --n 3 --epsilon -1 --pole=0.8,0,0,1.3 --p 4 --q -1", 1,
         "a6240b12edff36edc4056d12e4855abc83065e73c156887da11de731d277579e"),
        ("confgrad --n 3 --epsilon -1 --pole=0.8,0,0,1.3 --p 4 --q -1 --fd", 1,
         "dbe4ea785e7ca9365652d7a0ae2d41e8ffee049deb2c286b285b62f25f4a06d9"),
        ("killing --n 4 --epsilon 1 --twists 1,2 --p 5 --q -1", 1,
         "ecc631195910e06338ab93df2fda89d0ef2f15c830fa57f9e3677ea81a1d3b3a"),
        ("killing --n 4 --epsilon 1 --twists 1,2 --p 5 --q -1 --fd", 1,
         "af41bbad712ba53e4f359571573bf40bb070957ca789485af1df9eb55a6d7c7f"),
        ("hopf --n 4 --epsilon -1 --r 2 --omega 0.7 --p 5 --q -0.5", 1,
         "dfa9cced0e5d566116ed68b75e0e86e3e8c7db23d91b6044877b944d0853b946"),
        ("hopf --n 4 --epsilon -1 --r 2 --omega 0.7 --p 5 --q -0.5 --fd", 1,
         "2e033265e6f8ea34f0e28951a36005ac8d05fac8c0ae1bc4d92e30b409e1eb7b"),
        ("loxodromic --n 4 --epsilon 1 --r 2 --omega 0.9 --mu 1.7 --p 3 --q -0.5", 1,
         "f56511ab6a08fdb4f779f3facb75600ad09c75bbabb60a7406d6567481adbba7"),
        ("loxodromic --n 4 --epsilon 1 --r 2 --omega 0.9 --mu 1.7 --p 3 --q -0.5 --fd", 1,
         "ad487718eb5df506b4966d302ee2926269f3850fd89515a40b4476df67fe850c"),
        ("dipole --n 3 --epsilon 1 --tau 1.3 --r 0.6 --p 3 --q -0.5", 1,
         "25a7f4ff09e63867f3fdd4a69a2d43669d4c26dbea6baa1388a9283b01e0ab07"),
        ("dipole --n 3 --epsilon 1 --tau 1.3 --r 0.6 --p 3 --q -0.5 --fd", 1,
         "b6ccd13e8d9666debd436f237820ffe1b876db8dd20e921b0e67c70d607cbe09"),
        ("conformal2d --n 2 --epsilon 1 --omega 0.7 --rr 0.5 --s 0.6 --t 0.8 --h 1.1 --p 3 --q -0.5", 1,
         "76791c688d2b8d65047101419421913bc5efa576e337369c7d01c438f8e41b40"),
        ("conformal2d --n 2 --epsilon 1 --omega 0.7 --rr 0.5 --s 0.6 --t 0.8 --h 1.1 --p 3 --q -0.5 --fd", 1,
         "ecf42f8a9950b6997d06f60e2968b76c3eb1c528173efc5871f2931baeee2123"),
    ],
)
def test_verify_lines_are_pinned(argv, code, digest, capsys):
    # one refuted field per non-quadratic family, closed-form and FD: its residual and verdicts, byte for byte
    assert main(["verify", "--family", *argv.split()]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_verify_refuses_the_flat_circle(capsys):
    assert main("verify --family killing --n 1 --epsilon 1 --r 1 --omega 1 --p 2 --q 1".split()) == 2
    assert capsys.readouterr().err == "error: dimension must be >= 2, got 1: S^1 and H^1 are flat\n"


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("confgrad --n 3 --epsilon -1 --mu -1 --p 4 --q -1",
         "c5be20877fd3f7de24aa27c2f4dd3768ba4308424264e83d70e99e0c8ae0287a"),
        ("killing --n 4 --epsilon 1 --r 2 --omega 1 --p 5 --q -0.5",
         "4c6244e19b5e6dae320a05658a50d6781597b1c68f5584357313c409efca2554"),
        ("hopf --n 3 --epsilon 1 --r 2 --omega 0.8 --p 2 --q 0.7",
         "272e71e7a76ace84835c7965c7cf8190aac2f9ef6d371bcd3e0bb6746d07b2cc"),
        ("loxodromic --n 4 --epsilon -1 --r 2 --omega 0.6 --mu -0.64 --p 3 --q -0.5",
         "100334d535a0aa53bb7d8b15c8fad3e4ea0223c749e9be935f51485a5d53af02"),
        ("dipole --n 3 --epsilon -1 --tau 1 --r 1 --p 3 --q -0.5",
         "39d309e930c8f559e5350841f78e5dc39edcfbdfc955a2e320ad8a9df4ce0842"),
        ("conformal2d --n 2 --epsilon -1 --omega 0.6 --rr 0.5 --s 0.6 --t 0.8 --h 0.8 --p 3 --q -0.5",
         "e653f5e033798d2ff502da2f81776784d170a6a60367cb14d0aa61e3f4bee955"),
        ("quadratic --n 5 --epsilon 1 --r 3 --lam 2 --p 4 --q -0.4",
         "fdc8a6f2b76df8a9ea179833714bd2e1797ddf27f3b9c57deec5354e208be862"),
    ],
)
def test_verify_json_of_a_preharmonic_field_is_pinned(argv, digest, tmp_path, capsys):
    # one preharmonic field per family, refuted at this (p, q): its spinnaker error, like every other value, byte for byte
    out = tmp_path / "report.json"
    assert main(["verify", "--family", *argv.split(), "--points", "50", "--json", str(out)]) == 1
    capsys.readouterr()
    assert json.loads(out.read_text())["verdicts"]["preharmonic"] is True
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "eps, out_digest, json_digest",
    [
        (1, "f21a5cc118c0bbfba97edb24f66d6dd75f903eba34aec67d15c57d330081b909",
         "e0f2dde6c9c5871233ff6e4edb683477018bb26161bb6dbcfc9fc6761951ce97"),
        (-1, "f21a5cc118c0bbfba97edb24f66d6dd75f903eba34aec67d15c57d330081b909",
         "b0f8ceaf1738ef1f70c776921ff8091f88f0632aabac31fe44c561056152f33f"),
    ],
)
def test_scan2d_default_grids_are_pinned(eps, out_digest, json_digest, tmp_path, capsys):
    # taken while scan2d still had its float mode: the exact mode's stdout and JSON, byte for byte
    out = tmp_path / "scan.json"
    assert main(["scan2d", "--epsilon", str(eps), "--json", str(out)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(out.read_bytes()).hexdigest() == json_digest


def test_a_shifted_quadratic_field_is_refuted_like_the_unshifted_one(capsys):
    # Q + 1e6 I has the sigma of Q = diag(0,0,0,0,1,2), which is not harmonic at (2, 1): the FD oracle too reads
    # the normal form of Q, not the 1e6-sized operand it was given
    argv = "verify --family quadratic --n 5 --epsilon 1 --eigenvalues {} --p 2 --q 1 --fd"
    assert main(argv.format("1000000,1000000,1000000,1000000,1000001,1000002").split()) == 1
    shifted = capsys.readouterr().out
    assert main(argv.format("0,0,0,0,1,2").split()) == 1
    assert "harmonic=False" in shifted and shifted == capsys.readouterr().out


def test_table_lines_and_csv_are_pinned(tmp_path, capsys):
    path = tmp_path / "table.csv"
    assert main(["table", "--max-n", "31", "--csv", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "350f90c2c2926aadd0f5a276518c91067c8b2c17cd502466b3904c03c90efca3"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == "a263849cc95ebd97fd76e27b286ac0cdf71dbf40e2094e25a44b82989a9cf463"


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


def test_scan2d_q_zero_cells_name_the_reason(tmp_path, capsys):
    out_json = tmp_path / "scan.json"
    argv = f"scan2d --epsilon -1 --omega 0.6 --rr 0 --h 0.8 --p 3 --q=0,-0.5 --json {out_json}"
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
    # scan2d has one arithmetic, the exact one: the removed float mode is an unknown option
    code = main("scan2d --epsilon -1 --numeric --omega 0.6 --rr 0 --h 0.8 --p 3 --q=-0.5".split())
    assert code == 2
    assert "unrecognized arguments: --numeric" in capsys.readouterr().err


def test_scan2d_large_grid_values_are_not_a_hit(capsys):
    # the quartic's coefficients are far beyond the float range; floats read grade 4 here
    code = main("scan2d --epsilon -1 --omega 1e200 --rr 1e200 --h 1e200 --p 3 --q=-0.5".split())
    out = capsys.readouterr().out
    assert code == 0
    assert "no (grade 3)" in out and "0 harmonic hits" in out


def test_scan2d_extreme_scales_keep_their_grade(capsys):
    # parameters from 1e-300 to 1e150 in one field: the exact remainder keeps its grade
    argv = "scan2d --epsilon -1 --omega 1e150 --rr 1e150 --h 1e-200 --p 3 --q 1e-300".split()
    assert main(argv) == 0
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
        ("scan2d --epsilon 1 --omega nan", "--omega: 'nan' is not a finite number"),
        ("scan2d --epsilon 1 --rr inf", "--rr: 'inf' is not a finite number"),
        ("scan2d --epsilon 1 --omega 1/0", "--omega: '1/0' is not a finite number"),
    ],
)
def test_scan2d_rejects_bad_grid_values(argv, message, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "spec, code",
    [
        ("--family killing --n 4 --epsilon 1 --twists 1,2 --p 5 --q -1 --scale 1e-8", 1),
        ("--family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --q -0.5 --scale 1e-9", 1),
        ("--family confgrad --n 3 --epsilon 1 --mu 1 --p 4 --q -0.5 --scale 1e6", 1),
        ("--family killing --n 3 --epsilon 1 --twists 1,1 --p 2 --q 1 --scale 1e4", 1),  # Hopf: harmonic at k = 1 only
        ("--family killing --n 2 --epsilon -1 --r 1 --omega 1e-300 --p 3 --q -0.5", 2),  # every term underflows
    ],
)
def test_scaled_fields_are_not_harmonic(spec, code, capsys):
    # none of these fields is harmonic: the residual scale is the size of the terms the tension sums
    assert main(["verify", *spec.split()]) == code
    out, err = capsys.readouterr()
    if code == 1:
        assert "harmonic=False" in out
    else:
        assert out == "" and "too small to analyse" in err


def test_a_quadratic_field_with_one_eigenvalue_is_harmonic(capsys):
    # Q = I gives sigma = P_x(x) = 0: the normal form of Q is exactly 0, so there is no rounding noise to read as a tension
    argv = "verify --family quadratic --n 5 --epsilon 1 --eigenvalues 1,1,1,1,1,1 --p 2 --q 1".split()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "harmonic=True" in out and "preharmonic=True" in out


def test_verify_of_a_tiny_field_prints_no_warning():
    # the preharmonic scale of this field underflows to 0: its NaN error reads "not preharmonic", silently
    argv = "verify --family killing --n 4 --epsilon 1 --twists 1,2 --p 5 --q -1 --scale 1e-140".split()
    src = os.path.dirname(os.path.dirname(hvf.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "hvf.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    assert "harmonic=False preharmonic=False" in proc.stdout
