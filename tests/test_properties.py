"""Property-based tests: input handling that fails only with ValueError, and seed-independent verdicts."""

import argparse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvf.cli import _FAMILY_KEYS, _collect_spec
from hvf.fields import build_field
from hvf.solvers import harmonic_catalogue
from hvf.tension import MetricParams, verify

FAMILIES = ("confgrad", "killing", "hopf", "loxodromic", "dipole", "conformal2d", "quadratic")
# one spec-file line per key: no line breaks inside keys or values
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=12)
NUMBERS = ("0", "1", "-1", "2", "3", "2.5", "0.6", "1e200", "-1e200", "1e-320", "nan", "inf", "1/0", "1,2", "1,2,3,4", "")
VALUES = st.one_of(TEXT, st.sampled_from(NUMBERS), st.floats().map(str), st.integers(-5, 12).map(str))
# any key but "n": the dimension stays in 1..9, since a huge n allocates an n x n operator
KEYS = st.one_of(st.sampled_from([k for k in _FAMILY_KEYS if k != "n"]), TEXT).filter(
    lambda k: k.split("#", 1)[0].strip() != "n"
)
DOCS = st.fixed_dictionaries(
    {
        "family": st.one_of(st.sampled_from(FAMILIES), TEXT),
        "n": st.integers(1, 9).map(str),
        "epsilon": st.one_of(st.sampled_from(["1", "-1"]), TEXT),
    }
).flatmap(lambda base: st.dictionaries(KEYS, VALUES, max_size=6).map(lambda extra: {**extra, **base}))


def _build_or_value_error(doc):
    try:
        build_field(doc)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None, database=None)
@given(doc=DOCS)
def test_build_field_raises_only_value_error(doc):
    _build_or_value_error(doc)


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("spec") / "field.spec"


@settings(max_examples=300, deadline=None, database=None)
@given(doc=DOCS, junk=st.lists(TEXT, max_size=2))
def test_spec_file_raises_only_value_error(spec_path, doc, junk):
    lines = [f"{k} = {v}" for k, v in doc.items()] + junk
    spec_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = argparse.Namespace(spec=str(spec_path), **{k: None for k in _FAMILY_KEYS})
    try:
        parsed = _collect_spec(args)
    except ValueError:
        return
    _build_or_value_error(parsed)


CATALOGUE = harmonic_catalogue()


@settings(max_examples=8, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_catalogue_verdicts_do_not_depend_on_the_seed(seed):
    for entry in CATALOGUE:
        assert verify(entry.field, entry.mp, seed=seed).harmonic, entry.label
        # constant-length (Hopf) fields are (2, q)-harmonic for every q
        shifted = MetricParams(entry.mp.p, entry.mp.q + 0.05)
        assert verify(entry.field, shifted, seed=seed).harmonic is entry.constant_length, entry.label
