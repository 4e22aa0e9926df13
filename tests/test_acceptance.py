"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; the criteria run against seeded samples and
closed-form solvers only, so the whole module is deterministic.
"""

import math
import time
from fractions import Fraction

import numpy as np

from hvf.cli import main as cli_main
from hvf.fields import (
    Conformal2DField,
    ConformalGradientField,
    hyperbolic_translation,
    scale_field,
)
from hvf.polyreduce import build_harmonicity_poly, vanishes_mod_quadric
from hvf.solvers import (
    bounds_report,
    build_classified_field,
    harmonic_catalogue,
    killing_classification,
    quadratic_classification,
    table7,
    twist_roots_exact,
)
from hvf.spaceform import hyperbolic, sphere
from hvf.tension import (
    MetricParams,
    circle_equivariance_check,
    ingredients,
    isometry_equivariance_check,
    metric_grid_scan,
    preharmonic,
    spinnaker_error,
    verify,
    weitzenbock_error,
)

from test_fields import nabla_fd, random_frame, random_tangent, sample_fields


def _report(num, name, failures, t0, budget):
    elapsed = time.time() - t0
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{name}]: {status} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert not failures, failures
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds budget {budget}s"


def test_criterion_1_exact_twist_roots():
    t0 = time.time()
    failures = []
    s73 = math.sqrt(73)
    checks = [
        (float(twist_roots_exact(4, 2, 1)), (s73 - 7) / 4, "w0^2 S^4"),
        (float(twist_roots_exact(4, 2, -1)), (s73 + 7) / 4, "w0^2 H^4"),
        (killing_classification(4, 2, 1).metric_params[0].q, (s73 - 13) / 8, "q S^4"),
        (killing_classification(4, 2, -1).metric_params[0].q, -(s73 + 13) / 8, "q H^4"),
    ]
    for got, want, label in checks:
        if abs(got - want) > 1e-12:
            failures.append((label, got, want))
    _report(1, "exact twist roots", failures, t0, 1.0)


def test_criterion_2_quadratic_table():
    t0 = time.time()
    failures = []
    want = {
        5: (3, 4, 1 / math.sqrt(3) - 1, math.sqrt(3) - 1),
        7: (4, 5, (math.sqrt(201) - 29) / 16, (math.sqrt(201) - 11) / 8),
        9: (5, 6, (math.sqrt(34) - 13) / 5, (math.sqrt(34) - 5) / 3),
    }
    for row in table7():
        r, p, q, lam4 = want[row["n"]]
        if row["r"] != r or row["p"] != p:
            failures.append((row["n"], "r/p"))
        if abs(row["q"] - q) > 1e-12 or abs(row["lambda0_sq_over_4"] - lam4) > 1e-12:
            failures.append((row["n"], "values"))
    _report(2, "classification table", failures, t0, 1.0)


def test_criterion_3_harmonicity_residuals():
    t0 = time.time()
    failures = []
    for entry in harmonic_catalogue():
        rep = verify(entry.field, entry.mp, count=200, seed=42)
        if rep.max_rel_residual >= 1e-7:
            failures.append((entry.label, rep.max_rel_residual))
    _report(3, "catalogue residuals", failures, t0, 10.0)


def test_criterion_4_refutation_suite():
    t0 = time.time()
    failures = []
    for entry in harmonic_catalogue():
        variants = [("scale x2", scale_field(entry.field, 2.0), entry.mp)]
        if not entry.constant_length:
            # constant-length (Hopf) fields are (2, q)-harmonic for every q,
            # so only the dilation refutation applies to them
            variants += [
                (f"q{s:+.2f}", entry.field, MetricParams(entry.mp.p, entry.mp.q + s))
                for s in (0.05, -0.05)
            ]
        for label, field, mp in variants:
            rep = verify(field, mp, count=200, seed=42)
            if rep.max_rel_residual <= 1e-4:
                failures.append((entry.label, label, rep.max_rel_residual))
    _report(4, "refutation suite", failures, t0, 20.0)


def test_criterion_5_oracle_agreement():
    # the oracle differentiates the cubic sigma exactly, so it agrees with the closed forms to rounding
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(0)
    for field in sample_fields():
        M = field.space
        for idx, x in enumerate(M.sample_points(50, 42)):
            X = random_tangent(M, x, rng)
            cd = nabla_fd(M, field, x, X)
            exact = field.nabla(x, X)
            if M.norm(cd - exact) > 1e-10 * (1 + M.norm(exact)):
                failures.append((field.family, M.n, idx, "nabla"))
            rl, lf = M.derivatives_fd(field, x)[2:]
            want = field.rough_laplacian(x)
            if M.norm(rl - want) > 1e-10 * (1 + M.norm(want)):
                failures.append((field.family, M.n, idx, "rough"))
            if abs(lf - field.lap_F(x)) > 1e-10 * (1 + abs(lf)):
                failures.append((field.family, M.n, idx, "lap F"))
    _report(5, "oracle agreement", failures, t0, 30.0)


def test_criterion_6_identity_suites():
    t0 = time.time()
    failures = []
    for field in sample_fields():
        M = field.space
        for idx, x in enumerate(M.sample_points(30, 42)):
            ing = ingredients(field, x)
            if weitzenbock_error(ing) > 1e-8:
                failures.append((field.family, M.n, idx, "weitzenbock"))
            if M.norm_sq(field.sigma(x)) > 1e-12:
                err = spinnaker_error(ing, field.spinnaker(x))
                if err is not None and err > 1e-8:
                    failures.append((field.family, M.n, idx, "spinnaker"))
        pts = M.sample_points(30, 42)
        pre, err = preharmonic(ingredients(field, pts), field.spinnaker(pts))
        if field.spinnaker(M.sample_points(1, 0)[0]) is not None and not pre:
            failures.append((field.family, M.n, "preharmonic", err))
    # quadratic coordinate relations: loxodromic completion, planar quadric,
    # eigenbasis expansion
    e = np.eye(6)
    M5 = sphere(5)
    for x in M5.sample_points(30, 42):
        total = np.zeros(6)
        for i in range(6):
            al = M5.inner(e[i], x)
            total += al * (e[i] - al * x)
        if np.abs(total).max() > 1e-12:
            failures.append(("eigenbasis expansion", x))
    for M2 in (sphere(2), hyperbolic(2)):
        f2 = Conformal2DField(M2, 0.7, 0.0, 0.5, 0.6, 0.8, 1.1)
        for x in M2.sample_points(30, 42):
            al, be, ps = M2.inner(f2.a, x), M2.inner(f2.b, x), M2.inner(f2.w, x)
            qv = al**2 + be**2 + M2.eps * ps**2 - M2.eps
            if abs(qv) > 1e-12:
                failures.append(("planar quadric", M2.eps, qv))
    from hvf.fields import LoxodromicField

    e4 = np.eye(4)
    lox = LoxodromicField([(e4[0], e4[1])], [1.2], [0.0, 0.0, 0.4, 1.1], hyperbolic(3))
    mu = lox.mu
    d = e4[2] - (lox.space.inner(e4[2], lox.c) / mu) * lox.c
    d = d / lox.space.norm(d)
    for x in lox.space.sample_points(30, 42):
        a, b = lox.pairs[0]
        total = (
            lox.space.inner(a, x) ** 2
            + lox.space.inner(b, x) ** 2
            + lox.space.inner(d, x) ** 2
            + lox.space.inner(lox.c, x) ** 2 / mu
        )
        if abs(total - lox.space.eps) > 1e-12:
            failures.append(("loxodromic completion", total))
    # frame independence of the operator pairing
    rng = np.random.default_rng(1)
    H4 = hyperbolic(4)
    B1, B2 = rng.standard_normal((2, 5, 5))
    A1 = 0.5 * (B1 - H4.adjoint(B1))
    A2 = 0.5 * (B2 - H4.adjoint(B2))
    from hvf.ambient import lorentz_pairing

    expected = lorentz_pairing(A1, A2, H4)
    for seed in range(5):
        w = H4.sample_points(1, seed)[0]
        frame = random_frame(H4, w, np.random.default_rng(seed))
        total = sum(H4.inner(A1 @ u, A2 @ u) for u in frame) - H4.inner(A1 @ w, A2 @ w)
        if abs(total - expected) > 1e-9 * (1 + abs(expected)):
            failures.append(("pairing frame invariance", seed))
    _report(6, "identity suites", failures, t0, 10.0)


def test_criterion_7_nonexistence():
    t0 = time.time()
    failures = []
    # infinitesimal translations: preharmonic but never harmonic
    tr = hyperbolic_translation(1.0, hyperbolic(3))
    pts = tr.space.sample_points(60, 42)
    pre, _ = preharmonic(ingredients(tr, pts), tr.spinnaker(pts))
    if not pre:
        failures.append("translation not preharmonic")
    ps = np.arange(-5.0, 8.0 + 1e-9, 0.25)
    qs = np.arange(-5.0, 2.0 + 1e-9, 0.25)
    grid = metric_grid_scan(tr, ps, qs, pts)
    if grid.min() < 1e-7:
        failures.append(("translation grid scan found a harmonic point", grid.min()))
    # exact sweep on the 2-sphere: no conformal field is harmonic
    vals = (Fraction(1, 2), Fraction(1), Fraction(2))
    pgrid = [Fraction(2), Fraction(3), Fraction(4), Fraction(5)]
    qgrid = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(-1, 10)]
    for om in vals:
        for rr in vals:
            for h in vals:
                for p in pgrid:
                    for q in qgrid:
                        P = build_harmonicity_poly(1, om, 0, rr, 0, 1, h, p, q)
                        if vanishes_mod_quadric(P, 1).divisible:
                            failures.append(("spherical hit", om, rr, h, p, q))
    # solver non-existence exit codes
    for argv, want in (
        (["solve", "--family", "quadratic", "--n", "6"], 3),
        (["solve", "--family", "quadratic", "--n", "3"], 3),
        (["solve", "--family", "confgrad", "--n", "2", "--epsilon", "1"], 3),
    ):
        code = cli_main(argv)
        if code != want:
            failures.append((argv, code))
    _report(7, "non-existence", failures, t0, 60.0)


def test_criterion_8_bound_chains():
    t0 = time.time()
    failures = []
    for entry in harmonic_catalogue():
        for check in bounds_report(entry.classification):
            if not check.holds:
                failures.append((entry.label, check.name, check.margin))
    for r in range(2, 51):
        classifications = [
            killing_classification(2 * r, r, 1),
            killing_classification(2 * r, r, -1),
        ]
        if r >= 3:
            classifications.append(quadratic_classification(2 * r - 1))
        for cl in classifications:
            for check in bounds_report(cl):
                if not check.holds:
                    failures.append((cl.family, cl.epsilon, r, check.name, check.margin))
    _report(8, "bound chains", failures, t0, 1.0)


def test_criterion_9_equivariance():
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(42)
    cl = killing_classification(4, 2, 1)
    f = build_classified_field(cl)
    pts = f.space.sample_points(10, 42)
    for i in range(10):
        g = f.space.random_isometry(rng)
        err = isometry_equivariance_check(f, g, cl.metric_params[0], pts)
        if err > 1e-9:
            failures.append(("S^4 isometry", i, err))
    H3 = hyperbolic(3)
    cf = ConformalGradientField([0.0, 0.0, 0.0, 1.0], H3)
    hpts = H3.sample_points(10, 42)
    for i in range(10):
        g = H3.random_isometry(rng)
        err = isometry_equivariance_check(cf, g, MetricParams(4.0, -5.0 / 3.0), hpts)
        if err > 1e-9:
            failures.append(("H^3 isometry", i, err))
    loop = Conformal2DField(hyperbolic(2), 0.6, 0.0, 0.0, 0.0, 1.0, 0.8)
    lpts = loop.space.sample_points(10, 42)
    for t in np.linspace(0.3, 6.0, 8):
        err = circle_equivariance_check(loop, t, MetricParams(3.0, -0.5), lpts)
        if err > 1e-9:
            failures.append(("circle", t, err))
    _report(9, "equivariance", failures, t0, 5.0)


def test_criterion_10_polyreduce_semantic_agreement():
    t0 = time.time()
    failures = []
    M = hyperbolic(2)
    vals = (Fraction(1, 2), Fraction(1), Fraction(2))
    mps = [MetricParams(3.0, -0.5), MetricParams(4.0, -1.0), MetricParams(2.5, -0.3), MetricParams(5.0, -2.0)]
    cases = [(om, rr, h) for om in vals for rr in vals for h in vals]
    # a loop member (3-4-5 point), to exercise the harmonic branch
    cases.append((Fraction(3, 5), Fraction(0), Fraction(4, 5)))
    for om, rr, h in cases:
        field = Conformal2DField(M, float(om), 0.0, float(rr), 0.0, 1.0, float(h))
        for mp in mps:
            P = build_harmonicity_poly(-1, om, 0.0, rr, 0.0, 1.0, h, Fraction(mp.p), Fraction(mp.q))
            exact = vanishes_mod_quadric(P, -1).divisible
            rep = verify(field, mp, count=200, seed=42)
            numeric = rep.max_rel_residual < 1e-9
            if exact != numeric:
                failures.append((om, rr, h, mp.p, mp.q, exact, rep.max_rel_residual))
            if not exact and rep.max_rel_residual <= 1e-4:
                failures.append(("weak refutation", om, rr, h, mp.p, mp.q))
    _report(10, "polyreduce semantic agreement", failures, t0, 30.0)
