"""Property-based tests: input handling that fails only with ValueError, seed-independent and
isometry-invariant verdicts, the algebra of QuadExt and TriPoly, and reduction modulo the quadric."""

import argparse
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvf.cli import _FAMILY_KEYS, _collect_spec
from hvf.exactnum import QuadExt
from hvf.fields import build_field
from hvf.polyreduce import TriPoly, quadric, vanishes_mod_quadric
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


@settings(max_examples=6, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_catalogue_verdicts_are_invariant_under_isometries(seed):
    rng = np.random.default_rng(seed)
    for entry in CATALOGUE:
        moved = entry.field.transform(entry.field.space.random_isometry(rng))
        # constant-length (Hopf) fields are (2, q)-harmonic for every q, so only their own q is checked
        shifts = (0.0,) if entry.constant_length else (0.0, 0.05)
        for mp in (MetricParams(entry.mp.p, entry.mp.q + dq) for dq in shifts):
            want = verify(entry.field, mp, count=50).harmonic
            assert verify(moved, mp, count=50).harmonic is want, (entry.label, mp)


RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=40)
RADICAND = 7


def _quad(a, b):
    return QuadExt(a, b, RADICAND)


QUADS = st.builds(_quad, RATIONALS, RATIONALS)
SETTINGS = settings(max_examples=60, deadline=None, database=None)


@SETTINGS
@given(x=QUADS, y=QUADS, z=QUADS)
def test_quadext_field_axioms(x, y, z):
    zero, one = QuadExt(0), QuadExt(1)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x
    assert x + (-x) == zero and x - y == x + (-y)
    if x:
        assert x * (1 / x) == one and (y / x) * x == y


@SETTINGS
@given(x=QUADS, y=QUADS)
def test_quadext_sign_agrees_with_float(x, y):
    for v in (x, y, x - y, x * y):
        if abs(float(v)) > 1e-9:
            assert v.sign() == (1 if float(v) > 0 else -1)


@SETTINGS
@given(x=QUADS, y=QUADS, r=RATIONALS)
def test_quadext_ring_results_are_canonical(x, y, r):
    """Ring results equal, field for field, the same number rebuilt through the public constructor."""
    results = [x + y, x - y, x * y, -x, x + r, r - x, r * x, x**2]
    if y:
        results += [x / y, r / y]
    for v in results:
        rebuilt = QuadExt(v.a, v.b, v.d)
        assert (type(v.a), type(v.b), type(v.d)) == (Fraction, Fraction, int)
        assert (v.a, v.b, v.d) == (rebuilt.a, rebuilt.b, rebuilt.d)
        assert (str(v), repr(v), hash(v)) == (str(rebuilt), repr(rebuilt), hash(rebuilt))


def _polys(max_degree):
    mons = [m for m in itertools.product(range(max_degree + 1), repeat=3) if sum(m) <= max_degree]
    coeffs = st.one_of(RATIONALS, QUADS)
    return st.dictionaries(st.sampled_from(mons), coeffs, max_size=4).map(TriPoly)


@SETTINGS
@given(p=_polys(4), q=_polys(4), r=_polys(4))
def test_tripoly_additive_laws(p, q, r):
    assert (p + q) + r == p + (q + r) and p + q == q + p
    assert (p + (-p)).is_zero() and p - q == p + (-q)


@SETTINGS
@given(p=_polys(1), q=_polys(1), r=_polys(2), s=_polys(2))
def test_tripoly_multiplicative_laws(p, q, r, s):
    # degrees chosen so that every product stays within degree 4
    assert (p * q) * r == p * (q * r) and p * q == q * p
    assert r * (s + q) == r * s + r * q and (s + q) * r == s * r + q * r
    assert r * TriPoly.constant(Fraction(1)) == r


# multiples of 1/4: every sum and product below is exact in float as well
DYADIC = st.integers(-8, 8).map(lambda k: Fraction(k, 4))


@st.composite
def _quotient_and_remainder(draw):
    """S of degree <= 2, and R of psi-degree <= 1: zero, or a nonzero term of a drawn grade plus lower terms."""
    quotients = [m for m in itertools.product(range(3), repeat=3) if sum(m) <= 2]
    S = TriPoly(draw(st.dictionaries(st.sampled_from(quotients), DYADIC, max_size=6)))
    grade = draw(st.none() | st.integers(0, 4))
    if grade is None:
        return S, TriPoly()
    mons = [(i, j, k) for i, j, k in itertools.product(range(5), range(5), range(2)) if i + j + k <= grade]
    below = [m for m in mons if sum(m) < grade]
    terms = draw(st.dictionaries(st.sampled_from(below), DYADIC, max_size=4)) if below else {}
    terms[draw(st.sampled_from([m for m in mons if sum(m) == grade]))] = draw(DYADIC.filter(bool))
    return S, TriPoly(terms)


@SETTINGS
@given(case=_quotient_and_remainder(), eps=st.sampled_from((1, -1)))
def test_reduction_finds_the_quotient_and_the_remainder_grade(case, eps):
    S, R = case
    P = quadric(eps) * S + R
    for tol, poly in ((None, P), (1e-10, TriPoly({m: float(c) for m, c in P.terms.items()}))):
        res = vanishes_mod_quadric(poly, eps, tol)
        assert res.divisible is R.is_zero() and res.approximate is (tol is not None)
        if res.divisible:
            assert res.witness == S and res.failing_grade is None
        else:
            assert res.witness is None and res.failing_grade == R.degree()
