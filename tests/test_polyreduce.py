import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvf.exactnum import QuadExt
from hvf.fields import Conformal2DField
from hvf.polyreduce import (
    NUMERIC_ZERO_TOL,
    TriPoly,
    _divide_by_quadric,
    build_harmonicity_poly,
    harmonicity_remainders,
    quadric,
    vanishes_mod_quadric,
)
from hvf.spaceform import hyperbolic
from hvf.tension import MetricParams, verify

ALPHA, BETA, PSI = (TriPoly({mon: Fraction(1)}) for mon in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_ring_operations():
    P = 2 * ALPHA * ALPHA - BETA * PSI + 1
    assert (P + (-P)).is_zero()
    assert (ALPHA + BETA) * (ALPHA - BETA) == ALPHA**2 - BETA**2
    assert P.coeff((2, 0, 0)) == 2
    assert P.degree() == 2


def test_homogeneous_parts_of_quadric():
    def part(P, k):
        return TriPoly({m: c for m, c in P.terms.items() if sum(m) == k})

    for eps in (1, -1):
        Q = quadric(eps)
        assert part(Q, 2) == ALPHA**2 + BETA**2 + eps * PSI**2
        assert part(Q, 1).is_zero()
        assert part(Q, 0) == TriPoly.constant(-eps)


def test_degree_cap():
    with pytest.raises(ValueError):
        (ALPHA**2) * (ALPHA**3)
    with pytest.raises(ValueError):
        TriPoly({(5, 0, 0): 1})
    with pytest.raises(ValueError):
        TriPoly({(-1, 0, 0): 1})


def test_canonical_string():
    assert str(quadric(1)) == "alpha^2 + beta^2 + psi^2 - 1"
    assert str(quadric(-1)) == "alpha^2 + beta^2 - psi^2 + 1"
    assert str(TriPoly()) == "0"
    P = TriPoly({(1, 1, 1): Fraction(-3, 2), (0, 0, 0): QuadExt(0, 1, 2)})
    assert str(P) == "-3/2*alpha*beta*psi + sqrt(2)"


def test_divisibility_constructed_cases():
    S = ALPHA**2 - 3
    res = vanishes_mod_quadric(quadric(1) * S, 1)
    assert res.divisible and res.witness == S
    assert (quadric(1) * S - quadric(1) * res.witness).is_zero()
    res = vanishes_mod_quadric(ALPHA**4, 1)
    assert not res.divisible and res.failing_grade == 4
    res = vanishes_mod_quadric(TriPoly(), 1)
    assert res.divisible and res.witness == TriPoly()


def test_witness_soundness_random():
    import random

    rng = random.Random(0)
    for eps in (1, -1):
        for _ in range(10):
            S = TriPoly(
                {
                    (i, j, k): Fraction(rng.randint(-4, 4))
                    for i in range(3)
                    for j in range(3)
                    for k in range(3)
                    if i + j + k <= 2
                }
            )
            res = vanishes_mod_quadric(quadric(eps) * S, eps)
            assert res.divisible
            assert (quadric(eps) * S - quadric(eps) * res.witness).is_zero()


def test_harmonicity_poly_killing_sigma0():
    P = build_harmonicity_poly(-1, 1, 0, 0, 0, 1, 0, 3, Fraction(-1, 2))
    assert vanishes_mod_quadric(P, -1).divisible
    # wrong parameters fail
    assert not vanishes_mod_quadric(
        build_harmonicity_poly(-1, 1, 0, 0, 0, 1, 0, 3, Fraction(-11, 20)), -1
    ).divisible
    assert not vanishes_mod_quadric(
        build_harmonicity_poly(-1, 2, 0, 0, 0, 1, 0, 3, Fraction(-1, 2)), -1
    ).divisible


def test_harmonicity_poly_loop_members():
    # rational point on the loop: omega = 3/5, h = 4/5
    P = build_harmonicity_poly(-1, Fraction(3, 5), 0, 0, 0, 1, Fraction(4, 5), 3, Fraction(-1, 2))
    res = vanishes_mod_quadric(P, -1)
    assert res.divisible
    # surd point: omega = h = sqrt(2)/2, exercising the quadratic extension
    s22 = QuadExt(0, Fraction(1, 2), 2)
    P = build_harmonicity_poly(-1, s22, 0, 0, 0, 1, s22, 3, Fraction(-1, 2))
    assert vanishes_mod_quadric(P, -1).divisible
    # pure conformal gradient sigma_1
    P = build_harmonicity_poly(-1, 0, 0, 0, 0, 1, 1, 3, Fraction(-1, 2))
    assert vanishes_mod_quadric(P, -1).divisible


def test_harmonicity_poly_spherical_obstruction():
    res = vanishes_mod_quadric(
        build_harmonicity_poly(1, 1, 0, 1, 0, 1, 1, 3, Fraction(-1, 2)), 1
    )
    assert not res.divisible
    with pytest.raises(ValueError):
        build_harmonicity_poly(1, 1, 0, 1, 0, 1, 1, 3, 0)


def test_spherical_sweep_no_hits():
    vals = (Fraction(1, 2), Fraction(1), Fraction(2))
    ps = (Fraction(2), Fraction(3), Fraction(4), Fraction(5))
    qs = (Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(-1, 10))
    for om in vals:
        for rr in vals:
            for h in vals:
                for p in ps:
                    for q in qs:
                        P = build_harmonicity_poly(1, om, 0, rr, 0, 1, h, p, q)
                        assert not vanishes_mod_quadric(P, 1).divisible


def test_loop_endpoint_constants():
    # theta = tau^2 - omega^2 + r^2 - h^2 = -1 on the loop, and
    # (theta + 3) q = -1 forces q = -1/2
    for om, h in ((Fraction(1), Fraction(0)), (Fraction(3, 5), Fraction(4, 5))):
        theta = -(om**2) - h**2  # tau = rr = 0, and omega^2 + h^2 = 1 on the loop
        assert theta == -1
        q = Fraction(-1) / (theta + 3)
        assert q == Fraction(-1, 2)


def test_numeric_fallback_agrees():
    exact = vanishes_mod_quadric(
        build_harmonicity_poly(-1, Fraction(3, 5), 0, 0, 0, 1, Fraction(4, 5), 3, Fraction(-1, 2)),
        -1,
    )
    approx = vanishes_mod_quadric(
        build_harmonicity_poly(-1, 0.6, 0, 0, 0, 1, 0.8, 3, -0.5, exact=False), -1, tol=1e-10
    )
    assert exact.divisible and approx.divisible
    assert approx.approximate and not exact.approximate
    bad = vanishes_mod_quadric(
        build_harmonicity_poly(-1, 0.7, 0, 0, 0, 1, 0.8, 3, -0.5, exact=False), -1, tol=1e-10
    )
    assert not bad.divisible


def test_numeric_zero_test_is_relative_to_the_coefficients():
    # coefficients ~1e300 leave rounding residues ~1e284 that an absolute threshold calls non-zero
    args = (-1, 1e150, 0.0, 1e150, 0.0, 1.0, 1e-200, 3.0, 1e-300)
    P = build_harmonicity_poly(*args, exact=False)
    reversed_P = TriPoly(dict(reversed(list(P.terms.items()))))
    a, b = (vanishes_mod_quadric(poly, -1, tol=NUMERIC_ZERO_TOL) for poly in (P, reversed_P))
    assert (a.divisible, a.failing_grade) == (b.divisible, b.failing_grade)
    exact = vanishes_mod_quadric(build_harmonicity_poly(*args), -1)
    assert (a.divisible, a.failing_grade) == (exact.divisible, exact.failing_grade) == (False, 3)


def test_semantic_agreement_with_numeric_verifier():
    # the exact verdict from the quartic matches the sampled tension verdict;
    # exact rationals describe the intended field, floats feed the verifier
    M = hyperbolic(2)
    f35, f45 = Fraction(3, 5), Fraction(4, 5)
    cases = [
        (Fraction(1), Fraction(0), Fraction(0), MetricParams(3.0, -0.5), True),  # sigma_0
        (f35, Fraction(0), f45, MetricParams(3.0, -0.5), True),  # loop member
        (f35, Fraction(0), f45, MetricParams(3.0, -0.4), False),
        (Fraction(1), Fraction(1, 2), Fraction(2), MetricParams(3.0, -0.5), False),
        (Fraction(2), Fraction(1), Fraction(1), MetricParams(4.0, -1.0), False),
    ]
    for om, rr, h, mp, want in cases:
        field = Conformal2DField(M, float(om), 0.0, float(rr), 0.0, 1.0, float(h))
        P = build_harmonicity_poly(-1, om, 0.0, rr, 0.0, 1.0, h, Fraction(mp.p), Fraction(mp.q))
        res = vanishes_mod_quadric(P, -1)
        assert res.divisible == want
        rep = verify(field, mp, count=200, seed=5)
        if want:
            assert rep.max_rel_residual < 1e-9
        else:
            assert rep.max_rel_residual > 1e-4


# ---------------------------------------------------------------------------
# the coefficient-formula build against the ring-operation expansion
# ---------------------------------------------------------------------------


def _reference_quartic(eps, omega, tau, rr, s, t, h, p, q, exact=True):
    """The quartic expanded by TriPoly ring operations from the pairwise inner
    products of the component fields R, T and C, kept as an independent oracle."""
    conv = (lambda v: v if isinstance(v, QuadExt) else Fraction(v)) if exact else float
    om, ta, r, s, t, h, p, q = (conv(v) for v in (omega, tau, rr, s, t, h, p, q))
    al, be, ps = ALPHA, BETA, PSI
    gamma = r * s * al + r * t * be + h * ps
    mu = r * r * (s * s + t * t) + eps * h * h
    R_sq = al * al + be * be
    T_sq = eps * (al * al) + ps * ps
    C_sq = mu - eps * (gamma * gamma)
    RT = be * ps
    RC = r * t * al - r * s * be
    TC = eps * h * al - r * s * ps
    two_F = om * om * R_sq + ta * ta * T_sq + C_sq + 2 * om * ta * RT + 2 * om * RC + 2 * ta * TC
    zeta = (om * ps - eps * ta * be) ** 2 + gamma * gamma
    half = Fraction(1, 2) if exact else 0.5
    return eps * (1 + two_F) * (1 + q * two_F) + (2 * q) * ((p - 2) * half * two_F - 1) * zeta


_HALF, _ONE, _TWO = Fraction(1, 2), Fraction(1), Fraction(2)
_S2_PQ = [(Fraction(p), Fraction(q)) for p in (2, 3, 4, 5) for q in (-2, -1, -_HALF, Fraction(-1, 10))]
_H2_PAIRS = [
    (Fraction(3, 5), Fraction(4, 5)), (Fraction(4, 5), Fraction(3, 5)), (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(12, 13), Fraction(5, 13)), (Fraction(8, 17), Fraction(15, 17)), (_ONE, 0), (0, _ONE),
    (_HALF, _HALF), (_ONE, _ONE), (_TWO, _ONE), (Fraction(3, 5), Fraction(3, 5)), (_TWO, 0), (0, _TWO), (_HALF, 0),
]
_H2_PQ = [(Fraction(p), Fraction(q)) for p in (3, 4, Fraction(5, 2), 5) for q in (-_HALF, -1, Fraction(-3, 10), -2)]


def _sweep_grid():
    """(eps, omega, tau, rr, s, t, h, p, q): the exact sweep's grid, with every sign pattern
    of (omega, rr, h) and both eps on the M^2 triples, and the H^2 (omega, h) pairs."""
    triples = itertools.product((_HALF, _ONE, _TWO), repeat=3)
    for k, (om, rr, h) in enumerate(triples):
        om, rr, h = ((-1) ** (k >> b & 1) * v for b, v in enumerate((om, rr, h)))
        for eps in (1, -1):
            yield from ((eps, om, 0, rr, 0, 1, h, p, q) for p, q in _S2_PQ)
    for k, (om, h) in enumerate(_H2_PAIRS):
        om, h = (-1) ** (k & 1) * om, (-1) ** (k >> 1 & 1) * h
        yield from ((-1, om, 0, 0, 0, 1, h, p, q) for p, q in _H2_PQ)


def _assert_float_agrees(args):
    """Coefficients within 1e-14 of the largest, and the same numeric verdict and grade."""
    P = build_harmonicity_poly(*args, exact=False)
    ref = _reference_quartic(*args, exact=False)
    top = max((abs(c) for c in ref.terms.values()), default=0.0)
    for mon in P.terms.keys() | ref.terms.keys():
        assert abs(P.coeff(mon) - ref.coeff(mon)) <= 1e-14 * top, (args, mon)
    eps = args[0]
    got, want = (vanishes_mod_quadric(poly, eps, tol=NUMERIC_ZERO_TOL) for poly in (P, ref))
    assert (got.divisible, got.failing_grade) == (want.divisible, want.failing_grade), args


def test_quartic_equals_ring_expansion_on_the_sweep_grid():
    for args in _sweep_grid():
        assert build_harmonicity_poly(*args).terms == _reference_quartic(*args).terms, args
        _assert_float_agrees((args[0], *map(float, args[1:])))


NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=12).filter(bool)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((1, -1)), st.lists(NONZERO, min_size=8, max_size=8))
def test_quartic_equals_ring_expansion_on_random_rationals(eps, params):
    args = (eps, *params)
    assert build_harmonicity_poly(*args).terms == _reference_quartic(*args).terms
    _assert_float_agrees((args[0], *map(float, args[1:])))


def test_quartic_equals_ring_expansion_in_a_quadratic_extension():
    s22 = QuadExt(0, Fraction(1, 2), 2)
    for args in (
        (-1, s22, 0, 0, 0, 1, s22, 3, Fraction(-1, 2)),
        (1, s22, Fraction(1, 3), QuadExt(1, 1, 2), Fraction(3, 5), Fraction(4, 5), s22, Fraction(5, 2), -1),
    ):
        P, ref = build_harmonicity_poly(*args), _reference_quartic(*args)
        assert P.terms == ref.terms
        assert vanishes_mod_quadric(P, args[0]).divisible == vanishes_mod_quadric(ref, args[0]).divisible


def test_quartic_build_performs_no_tripoly_ring_operation(monkeypatch):
    def refuse(*_):
        raise AssertionError("TriPoly ring operation in build_harmonicity_poly or harmonicity_remainders")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__"):
        monkeypatch.setattr(TriPoly, name, refuse)
    s22 = QuadExt(0, Fraction(1, 2), 2)
    assert build_harmonicity_poly(-1, Fraction(3, 5), 0, 0, 0, 1, Fraction(4, 5), 3, Fraction(-1, 2)).terms
    assert build_harmonicity_poly(-1, s22, 1, 2, 3, 4, s22, 3, Fraction(-1, 2)).terms
    assert build_harmonicity_poly(1, 0.5, 0.25, 1.0, 0.6, 0.8, 2.0, 3.0, -0.5, exact=False).terms
    assert all(R.terms for R in harmonicity_remainders(1, Fraction(1, 3), 2, Fraction(-5, 7), 0.6, 0.8, 2))
    assert all(R.terms for R in harmonicity_remainders(-1, s22, 1, 2, 3, 4, s22))


# rationals with unrelated denominators, zero and negative values, and floats taken at their exact
# binary value from the subnormal to the largest finite double: every scale D and E the integer
# build clears, and every power of D and E it folds into the assembly
EXTREME_FLOATS = (1e-300, 1e308, 5e-324, -1e-300, -1e308, -5e-324, 0.0)
MIXED = st.one_of(
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
    st.integers(-3, 3),
    st.sampled_from(EXTREME_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _reference_remainders(eps, omega, tau, rr, s, t, h):
    """(R_X, R_Y, R_Z) from the ring expansion: X, Y and Z read off P = X + qY + pqZ at three (p, q)."""
    X = _reference_quartic(eps, omega, tau, rr, s, t, h, 0, 0)
    XY = _reference_quartic(eps, omega, tau, rr, s, t, h, 0, 1)
    XYZ = _reference_quartic(eps, omega, tau, rr, s, t, h, 1, 1)
    parts = [dict(part.terms) for part in (X, XY - X, XYZ - XY)]
    for part in parts:
        _divide_by_quadric(part, eps)
    return tuple(TriPoly(part).terms for part in parts)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((1, -1)), st.lists(MIXED, min_size=7, max_size=7), MIXED.filter(bool))
def test_integer_build_equals_ring_expansion_on_mixed_scales(eps, params, q):
    args = (eps, *params, q)
    assert build_harmonicity_poly(*args).terms == _reference_quartic(*args).terms
    field = args[:7]
    assert tuple(R.terms for R in harmonicity_remainders(*field)) == _reference_remainders(*field)


# ---------------------------------------------------------------------------
# one remainder per field against the per-case reduction
# ---------------------------------------------------------------------------


def _case_verdict(args):
    res = vanishes_mod_quadric(build_harmonicity_poly(*args), args[0])
    return res.divisible, res.failing_grade


def _remainder_verdict(remainders, p, q):
    """(divisible, failing_grade) read off R_X + q R_Y + pq R_Z."""
    RX, RY, RZ = remainders
    R = RX + q * RY + (p * q) * RZ
    return (True, None) if R.is_zero() else (False, R.degree())


def test_field_remainder_matches_the_per_case_reduction_on_the_sweep_grid():
    by_field, hits = {}, set()
    for args in _sweep_grid():
        field, (p, q) = args[:7], args[7:]
        if field not in by_field:
            by_field[field] = harmonicity_remainders(*field)
        verdict = _remainder_verdict(by_field[field], p, q)
        assert verdict == _case_verdict(args), args
        if verdict[0]:
            hits.add((field[1], field[6], p, q))
    # the H^2 loop members, sigma_0 and sigma_1, all at (3, -1/2) and with every sign
    on_loop = {(om, h) for om, h in _H2_PAIRS if om * om + h * h == 1}
    assert {(abs(om), abs(h)) for om, h, _, _ in hits} == on_loop
    assert {(p, q) for *_, p, q in hits} == {(3, -_HALF)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, -1)), st.lists(NONZERO, min_size=8, max_size=8))
def test_field_remainder_matches_the_per_case_reduction_on_random_rationals(eps, params):
    args = (eps, *params)
    assert _remainder_verdict(harmonicity_remainders(*args[:7]), *args[7:]) == _case_verdict(args)


def test_field_remainder_in_a_quadratic_extension():
    s22 = QuadExt(0, Fraction(1, 2), 2)  # omega = h = sqrt(2)/2, on the loop
    field = (-1, s22, 0, 0, 0, 1, s22)
    remainders = harmonicity_remainders(*field)
    for p, q in ((3, -_HALF), (3, Fraction(-11, 20)), (4, -_HALF), (Fraction(5, 2), -1)):
        p, q = Fraction(p), Fraction(q)
        assert _remainder_verdict(remainders, p, q) == _case_verdict((*field, p, q)), (p, q)
    assert _remainder_verdict(remainders, Fraction(3), -_HALF) == (True, None)
