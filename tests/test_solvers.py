import math
from fractions import Fraction

import pytest

from hvf.exactnum import QuadExt
from hvf.solvers import (
    bounds_report,
    build_classified_field,
    conformal_gradient_classification,
    harmonic_catalogue,
    killing_classification,
    loxodromic_classification,
    quadratic_classification,
    quadratic_roots_exact,
    table7,
    twist_roots_exact,
)
from hvf.tension import verify


def _twist_root_reference(n, r, eps):
    """w0^2 by the cancellation-free quadratic formula: the root of larger magnitude, the other from the product."""
    if r == 1:
        return 1.0  # eps = -1 here; the equation is linear with root 1
    c, k = n + 1 - 2 * r, r - 1
    a, b, c0 = 2 * c * k, eps * (2 * n * k - c), 1 - n
    big = -(b + math.copysign(math.sqrt(b * b - 4 * a * c0), b)) / 2.0
    u1, u2 = big / a, c0 / big
    return u1 if u1 > 0 else u2


def test_twist_roots_worked_values():
    assert float(twist_roots_exact(4, 2, 1)) == pytest.approx((math.sqrt(73) - 7) / 4, abs=1e-12)
    assert float(twist_roots_exact(4, 2, -1)) == pytest.approx((math.sqrt(73) + 7) / 4, abs=1e-12)
    assert float(twist_roots_exact(2, 1, -1)) == 1.0
    assert twist_roots_exact(4, 2, 1) == QuadExt(Fraction(-7, 4), Fraction(1, 4), 73)
    assert twist_roots_exact(4, 2, -1) == QuadExt(Fraction(7, 4), Fraction(1, 4), 73)


def test_exact_twist_root_floats_without_cancellation():
    # _twist_root_reference is the cancellation-free float reference; float(QuadExt) must not lose digits to it
    for n in range(2, 200):
        for r in range(1, (n + 1) // 2 + 1):
            for eps in (1, -1):
                if 2 * r >= n + 1 or (r == 1 and eps == 1):
                    continue
                want = _twist_root_reference(n, r, eps)
                assert abs(float(twist_roots_exact(n, r, eps)) - want) <= 1e-15 * abs(want), (n, r, eps)


def test_twist_roots_guards():
    with pytest.raises(ValueError):
        twist_roots_exact(4, 1, 1)  # rank 1 has no spherical solution
    with pytest.raises(ValueError):
        twist_roots_exact(4, 3, 1)  # 2r >= n+1
    with pytest.raises(ValueError):
        twist_roots_exact(4, 0, -1)


def test_twist_root_residual_up_to_rank_50():
    for r in range(2, 51):
        n = 2 * r  # tightest admissible dimension
        for eps in (1, -1):
            a = 2 * (n + 1 - 2 * r) * (r - 1)
            b = eps * (2 * n * (r - 1) - (n + 1 - 2 * r))
            c = 1 - n
            u = _twist_root_reference(n, r, eps)
            assert u > 0
            # the optimal twist sits below 1 on spheres, above 1 on H^n
            assert (u < 1.0) if eps == 1 else (u > 1.0)
            res = a * u * u + b * u + c
            assert abs(res) < 1e-12 * (abs(a) + abs(b) + abs(c))
            exact = twist_roots_exact(n, r, eps)
            assert a * exact * exact + b * exact + c == 0
            assert float(exact) == pytest.approx(u, rel=1e-13)


def test_killing_classification_values():
    cl = killing_classification(4, 2, 1)
    assert cl.metric_params[0].p == 5.0
    assert cl.metric_params[0].q == pytest.approx((math.sqrt(73) - 13) / 8, abs=1e-12)
    assert cl.exact["q"] == QuadExt(Fraction(-13, 8), Fraction(1, 8), 73)
    cl = killing_classification(4, 2, -1)
    assert cl.metric_params[0].q == pytest.approx(-(math.sqrt(73) + 13) / 8, abs=1e-12)
    cl = killing_classification(2, 1, -1)
    assert (cl.metric_params[0].p, cl.metric_params[0].q) == (3.0, -0.5)
    assert cl.metrically_unique


def test_killing_classification_special_cases():
    none = killing_classification(4, 1, 1)
    assert not none.exists
    hopf = killing_classification(3, 2, 1)
    assert hopf.exists and hopf.q_free and hopf.metric_params[0].p == 2.0
    with pytest.raises(ValueError):
        killing_classification(3, 2, -1)


def test_twist_eliminant_identity():
    # (eps(n+1) + (p-2r) w0^2) q = eps(1-n) with p = n+1
    for r in range(2, 11):
        for eps in (1, -1):
            n = 2 * r + 1
            cl = killing_classification(n, r, eps)
            w_sq = cl.omega0_sq
            q = cl.metric_params[0].q
            lhs = (eps * (n + 1) + (n + 1 - 2 * r) * w_sq) * q
            assert lhs == pytest.approx(eps * (1 - n), abs=1e-10)


def test_conformal_classification():
    cl = conformal_gradient_classification(3, 1, 1)
    assert cl.exists and cl.mu == pytest.approx(1.0) and cl.metrically_unique
    assert (cl.metric_params[0].p, cl.metric_params[0].q) == (4.0, -1.0)
    cl = conformal_gradient_classification(2, -1, -1)
    assert (cl.metric_params[0].p, cl.metric_params[0].q) == (3.0, -0.5)
    assert cl.metrically_unique
    cl = conformal_gradient_classification(3, -1, -1)
    assert not cl.metrically_unique and len(cl.metric_params) == 2
    assert (cl.metric_params[0].p, cl.metric_params[0].q) == (4.0, pytest.approx(-5.0 / 3.0))
    assert (cl.metric_params[1].p, cl.metric_params[1].q) == (-1.0, 0.0)
    assert not conformal_gradient_classification(2, 1, 1).exists
    assert not conformal_gradient_classification(4, -1, 0).exists
    with pytest.raises(ValueError):
        conformal_gradient_classification(3, 1, -1)


def test_quadratic_classification_table():
    rows = table7()
    sqrt3, sqrt201, sqrt34 = math.sqrt(3), math.sqrt(201), math.sqrt(34)
    expect = {
        5: (3, 4, 1 / sqrt3 - 1, sqrt3 - 1),
        7: (4, 5, (sqrt201 - 29) / 16, (sqrt201 - 11) / 8),
        9: (5, 6, (sqrt34 - 13) / 5, (sqrt34 - 5) / 3),
    }
    assert [row["n"] for row in rows] == [5, 7, 9]
    for row in rows:
        r, p, q, lam4 = expect[row["n"]]
        assert row["r"] == r and row["p"] == p
        assert row["q"] == pytest.approx(q, abs=1e-12)
        assert row["lambda0_sq_over_4"] == pytest.approx(lam4, abs=1e-12)


def test_quadratic_nonexistence():
    for n in (2, 3, 4, 6, 8):
        assert not quadratic_classification(n).exists


def test_quadratic_eliminant_identity():
    # ((r+1)(r-2) + r q) L0^2 = 2 (r+1)
    for n in (5, 7, 9, 11, 21):
        cl = quadratic_classification(n)
        r = cl.r
        q = cl.metric_params[0].q
        lhs = ((r + 1) * (r - 2) + r * q) * cl.lambda0_sq
        assert lhs == pytest.approx(2.0 * (r + 1), abs=1e-10)
        exact_lhs = ((r + 1) * (r - 2) + r * cl.exact["q"]) * cl.exact["lambda0_sq"]
        assert exact_lhs == 2 * (r + 1)


def test_loxodromic_classification():
    cl = loxodromic_classification()
    assert (cl.metric_params[0].p, cl.metric_params[0].q) == (3.0, -0.5)
    assert cl.metrically_unique
    # endpoints of the loop coincide with the Killing / conformal classifications
    k = killing_classification(2, 1, -1).metric_params[0]
    c = conformal_gradient_classification(2, -1, -1).metric_params[0]
    assert (k.p, k.q) == (c.p, c.q) == (3.0, -0.5)
    f = build_classified_field(cl, t=0.3)
    assert f.omegas[0] ** 2 - f.mu == pytest.approx(1.0, abs=1e-15)


def test_bounds_worked_examples():
    s4 = {b.name: b for b in bounds_report(killing_classification(4, 2, 1))}
    assert s4["q lower (3.26)"].holds and s4["q negative"].holds  # -1/3 < q < 0
    assert abs(s4["q lower (3.26)"].statement.find("-0.666667") >= 0)
    assert s4["twist window (3.27)"].holds  # 1/4 < w0^2 < 1/2
    h4 = {b.name: b for b in bounds_report(killing_classification(4, 2, -1))}
    assert h4["q window (3.28)"].holds  # -10/3 < q < -2
    assert h4["twist lower (3.21)"].holds  # w0^2 > 5/2
    s5 = {b.name: b for b in bounds_report(quadratic_classification(5))}
    # lower (7.18) needs r >= 4 and is skipped for r = 3; the upper holds
    assert "gap lower (7.18)" not in s5
    assert s5["gap upper (7.18)"].holds
    assert s5["gap window (7.22)"].holds
    assert "q lower (7.23)" not in s5
    assert s5["q upper (7.23)"].holds
    s7 = {b.name: b for b in bounds_report(quadratic_classification(7))}
    assert "gap lower (7.18)" in s7 and s7["gap lower (7.18)"].holds
    assert "q lower (7.23)" in s7 and s7["q lower (7.23)"].holds


def test_bounds_hold_for_catalogue_and_high_rank():
    for entry in harmonic_catalogue():
        for check in bounds_report(entry.classification):
            assert check.holds, f"{entry.label}: {check.name}"
    for r in range(2, 51):
        for cl in (
            killing_classification(2 * r, r, 1),
            killing_classification(2 * r, r, -1),
            quadratic_classification(2 * r - 1) if r >= 3 else None,
        ):
            if cl is None:
                continue
            checks = bounds_report(cl)
            assert checks, f"no bounds evaluated for {cl.family} r={r}"
            for check in checks:
                assert check.holds, f"{cl.family} r={r}: {check.name} margin {check.margin}"


def test_catalogue_closure_and_scale_sensitivity():
    # every classification, rebuilt as a field, verifies harmonic; nudging the
    # classified scale by 1% refutes it
    seen = set()
    for entry in harmonic_catalogue():
        rep = verify(entry.field, entry.mp, count=60, seed=21)
        assert rep.harmonic, entry.label
        key = (entry.classification.family, entry.field.space.n, entry.field.space.eps)
        if entry.constant_length or key in seen:
            continue
        seen.add(key)
        for bump in (1.01, 0.99):
            rep = verify(entry.rescaled(bump), entry.mp, count=60, seed=21)
            assert not rep.harmonic, f"{entry.label} scale x{bump}"


def test_build_classified_field_rejects_no_solution():
    with pytest.raises(ValueError):
        build_classified_field(quadratic_classification(6))
