"""The declared surface of the field families: params() values and trimmed signatures.

tests/data/field_params.json holds params() of every field of pinned_fields(),
recorded at commit e8ddba1 with

    json.dump({label: f.params() for label, f in pinned_fields()}, fh, sort_keys=True)

before the families declared their parameters through _param_keys.  The
transform copies use a signed coordinate permutation, so every pinned value
is exact and is compared as JSON text (which also tells -0.0 from 0.0).
"""

import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from hvf import ambient, cli, fields, spaceform, tension
from hvf.fields import Conformal2DField, build_field, scale_field
from hvf.solvers import harmonic_catalogue
from hvf.spaceform import SpaceForm

PINS = Path(__file__).parent / "data" / "field_params.json"

BUILT = (
    {"family": "confgrad", "n": 3, "epsilon": 1, "mu": 1.0},
    {"family": "confgrad", "n": 3, "epsilon": -1, "mu": -1.0},
    {"family": "confgrad", "n": 3, "epsilon": -1, "pole": [0.8, 0.0, 0.0, 1.3]},
    {"family": "killing", "n": 4, "epsilon": 1, "twists": [1.0, 2.0]},
    {"family": "killing", "n": 4, "epsilon": -1, "twists": [1.0, 2.0]},
    {"family": "killing", "n": 2, "epsilon": -1, "r": 1, "omega": 1.0},
    {"family": "killing", "n": 4, "epsilon": 1, "r": 2, "omega": 0.6},
    {"family": "killing", "n": 3, "epsilon": -1, "tau": 1.2},
    {"family": "hopf", "n": 3, "epsilon": 1, "r": 2, "omega": 1.0},
    {"family": "hopf", "n": 4, "epsilon": -1, "r": 2, "omega": 0.7},
    {"family": "loxodromic", "n": 2, "epsilon": -1, "r": 1, "omega": 0.6, "mu": -0.64},
    {"family": "loxodromic", "n": 4, "epsilon": 1, "r": 2, "omega": 0.9, "mu": 1.7},
    {"family": "dipole", "n": 3, "epsilon": 1, "tau": 1.3, "r": 0.6},
    {"family": "dipole", "n": 3, "epsilon": -1, "tau": 1.3, "r": 1.3},
    {"family": "conformal2d", "n": 2, "epsilon": -1, "omega": 0.8, "tau": 0.3, "rr": 0.5, "s": 0.6, "t": 0.8, "h": 1.1},
    {"family": "conformal2d", "n": 2, "epsilon": 1, "omega": 0.7, "rr": 0.5, "s": 0.6, "t": 0.8, "h": 1.1},
    {"family": "quadratic", "n": 5, "epsilon": 1, "r": 3, "lam": 2.0},
    {"family": "quadratic", "n": 5, "epsilon": 1, "eigenvalues": [2.0, 1.0, 1.0, -0.5, 0.3, 0.0]},
)


def signed_cycle(space: SpaceForm) -> np.ndarray:
    """The isometry e_1 -> e_2 -> ... -> e_n -> -e_1 fixing e_{n+1}: exact in floating point."""
    n = space.n
    g = np.zeros((n + 1, n + 1))
    for i in range(n - 1):
        g[i + 1, i] = 1.0
    g[0, n - 1] = -1.0
    g[n, n] = 1.0
    return g


def pinned_fields():
    """(label, field): the catalogue and one built field per family and space, each also
    scaled by 3 and moved by signed_cycle, and the circle action of two planar fields."""
    base = [(e.label, e.field) for e in harmonic_catalogue()]
    base += [(json.dumps(doc, sort_keys=True), build_field(doc)) for doc in BUILT]
    out = []
    for label, f in base:
        out += [(label, f), (f"{label} x3", scale_field(f, 3.0)), (f"{label} moved", f.transform(signed_cycle(f.space)))]
    planar = Conformal2DField(spaceform.hyperbolic(2), 0.8, 0.3, 0.5, 0.6, 0.8, 1.1)
    for t in (0.0, 0.9, -2.7):
        out.append((f"conformal2d H^2 circle {t}", planar.circle_action(t)))
        out.append((f"sigma_1 circle {t}", build_field(BUILT[1] | {"n": 2}).circle_action(t)))
    return out


def test_params_of_every_family_are_pinned():
    pinned = json.loads(PINS.read_text())
    got = {label: f.params() for label, f in pinned_fields()}
    assert sorted(got) == sorted(pinned)
    for label in pinned:
        assert json.dumps(got[label], sort_keys=True) == json.dumps(pinned[label], sort_keys=True), label


@pytest.mark.parametrize(
    "fn, gone",
    [
        (spaceform.SpaceForm.is_skew, {"tol"}),
        (spaceform.SpaceForm.check_skew, {"tol"}),
        (spaceform.SpaceForm.is_point, {"tol"}),
        (spaceform.SpaceForm.check_point, {"tol"}),
        (ambient.check_symmetric, {"tol"}),
        (fields.LoxodromicField, {"tol"}),
        (fields.associate_family_member, {"space"}),
        (tension.tension, {"fd"}),
        (fields.Conformal2DField, {"w", "a", "b"}),
    ],
)
def test_options_without_a_caller_are_gone(fn, gone):
    assert not gone & set(inspect.signature(fn).parameters)


def test_kept_options_are_still_there():
    assert "tol" in inspect.signature(spaceform.SpaceForm.check_tangent).parameters
    assert "tol" in inspect.signature(spaceform.SpaceForm.is_isometry).parameters
    assert "base" in inspect.signature(fields.KillingField).parameters
    params = list(inspect.signature(fields.Conformal2DField).parameters)
    assert params == ["space", "omega", "tau", "rr", "s", "t", "h"]


def test_table_has_no_which_option(capsys):
    assert cli.main(["table", "--which", "table7"]) == 2
    assert "unrecognized arguments: --which" in capsys.readouterr().err


@pytest.mark.parametrize("eps", [1, -1])
def test_one_rotation_rank_rule(eps):
    # the block rotation checks 2r <= n+1 on S^n and 2r < n+1 on H^n for every caller
    M = SpaceForm(4, eps)
    rule = "2r <= n+1 on S^n" if eps == 1 else "2r < n+1 on H^n"
    with pytest.raises(ValueError, match=rf"need {re.escape(rule)}, got r=3, n=4"):
        fields.killing_from_twists([1.0] * 3, M)
    with pytest.raises(ValueError, match=rf"need {re.escape(rule)}, got r=3, n=4"):
        fields.GeneralizedHopfField(3, 1.0, M)
    assert fields.killing_from_twists([1.0, 1.0], M).rank == 2
    assert fields.GeneralizedHopfField(2, 1.0, M).rank == 2



def test_from_operator_keeps_the_sphere_rule():
    # from_operator runs the constructor's parameter checks, so the constructor's tau = 0 rule on S^2 holds there too
    M = spaceform.sphere(2)
    e = np.eye(3)
    tilted = np.outer(e[2], e[0]) - np.outer(e[0], e[2])
    with pytest.raises(ValueError, match="on the sphere take w on the axis of K, so tau = 0"):
        Conformal2DField.from_operator(M, tilted, np.zeros(3))
    f = Conformal2DField(M, 0.7, 0.0, 0.5, 0.6, 0.8, 1.1)
    g = Conformal2DField.from_operator(M, f.L, f.c)
    assert json.dumps(g.params()) == json.dumps(f.params()) and np.array_equal(g.L, f.L)


def test_loxodromic_flags_are_plain_bools():
    f = fields.associate_family_member(0.7)
    assert (type(f.balanced), type(f.properly), type(f.omegas)) == (bool, bool, list)
