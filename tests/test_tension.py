import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hvf.fields import (
    AffineField,
    Conformal2DField,
    ConformalGradientField,
    DipoleDeformationField,
    GeneralizedHopfField,
    KillingField,
    QuadraticGradientField,
    associate_family_member,
    hyperbolic_translation,
    killing_from_twists,
    quadratic_two_eigenvalue,
    scale_field,
)
from hvf.solvers import (
    build_classified_field,
    conformal_gradient_classification,
    harmonic_catalogue,
    killing_classification,
)
from hvf import spaceform
from hvf.spaceform import hyperbolic, sphere
from hvf.tension import (
    HARMONIC_TOL,
    Ingredients,
    MetricParams,
    _assemble,
    _finite,
    _parts,
    _relative,
    _sampled,
    _weights,
    _working_set,
    circle_equivariance_check,
    ingredients,
    isometry_equivariance_check,
    metric_grid_scan,
    preharmonic,
    q_riemannian,
    reduced_pde_residual,
    spinnaker_error,
    tension,
    verify,
    weitzenbock_error,
)
from test_fields import _batch_fields


def test_harmonic_conformal_gradient_s3():
    M = sphere(3)
    f = ConformalGradientField([1.0, 0.0, 0.0, 0.0], M)  # mu = 1
    mp = MetricParams(4.0, -1.0)
    assert verify(f, mp, count=100, seed=0).max_rel_residual < 1e-8


def test_parallel_field_harmonic_for_all_parameters():
    M = hyperbolic(3)
    f = KillingField(np.zeros((4, 4)), M)
    for p, q in ((0.0, 0.0), (3.5, -2.0), (-1.0, 1.0)):
        rep = verify(f, MetricParams(p, q), count=20, seed=1)
        assert rep.harmonic and rep.max_rel_residual == 0.0


def test_hopf_unit_field_reduction():
    # unit fields: tau_{2,q} is q-independent and proportional to the
    # harmonic-unit-field residual nabla*nabla sigma - |nabla sigma|^2 sigma
    f = GeneralizedHopfField(2, 1.0, sphere(3))
    M = f.space
    for x in M.sample_points(20, 2):
        t1 = tension(f, x, MetricParams(2.0, 0.7))
        t2 = tension(f, x, MetricParams(2.0, -3.0))
        assert np.allclose(t1, t2, atol=1e-10)
        unit_res = f.rough_laplacian(x) - f.nabla_norm_sq(x) * f.sigma(x)
        assert np.allclose(t1, 2.0 * unit_res, atol=1e-10)
    assert verify(f, MetricParams(2.0, 0.7), count=20, seed=2).max_rel_residual < 1e-8


def test_reduced_pde_examples():
    M = sphere(3)
    f = ConformalGradientField([1.0, 0.0, 0.0, 0.0], M)
    for x in M.sample_points(30, 3):
        assert abs(reduced_pde_residual(f, x, MetricParams(4.0, -1.0))) < 1e-10
    loop = associate_family_member(math.pi / 4)
    H = loop.space
    good, bad = MetricParams(3.0, -0.5), MetricParams(3.0, -0.55)
    p, q = good.p, good.q
    for seed in range(8):
        # out to x_3 ~ cosh 3 the three terms reach ~3e4 and cancel, so the
        # residual is bounded relative to their sizes, not absolutely
        pts = H.sample_points(100, seed)
        F, dF, zeta = loop.F(pts), loop.lap_F(pts), loop.spinnaker(pts)
        size = np.abs((p + q + 2 * q * F) * dF) + np.abs(2 * p * (1 + q * F) * zeta)
        size += np.abs(loop.nu * (1 + 2 * (1 - p) * F))
        assert np.all(np.abs(reduced_pde_residual(loop, pts, good)) < 1e-12 * size)
    hits = 0
    for x in H.sample_points(100, 4):
        hits += abs(reduced_pde_residual(loop, x, bad)) > 1e-3
    assert hits > 90  # generic points see the perturbation


def test_reduced_pde_requires_preharmonic_eigenfield():
    f = killing_from_twists([1.0, 2.0], sphere(4))
    with pytest.raises(ValueError):
        reduced_pde_residual(f, f.space.sample_points(1, 0)[0], MetricParams(3.0, -1.0))


def test_reduced_pde_matches_tension_direction():
    # for preharmonic eigenfields the tension is exactly (residual of the
    # reduced equation) * sigma
    cases = [
        ConformalGradientField([0.0, 0.0, 0.0, 1.0], hyperbolic(3)),
        GeneralizedHopfField(2, 0.9, sphere(4)),
        hyperbolic_translation(1.1, hyperbolic(2)),
        quadratic_two_eigenvalue(3, 1.5, sphere(5)),
    ]
    mps = [MetricParams(3.0, -0.5), MetricParams(5.0, -2.0)]
    for f in cases:
        M = f.space
        for x in M.sample_points(10, 5):
            s = f.sigma(x)
            if M.norm(s) <= 1e-6:
                continue
            for mp in mps:
                t = tension(f, x, mp)
                r = reduced_pde_residual(f, x, mp)
                assert np.allclose(t, r * s, atol=1e-9 * (1 + abs(r)) * (1 + M.norm(s)))


def _preharmonic(field, pts):
    return preharmonic(ingredients(field, pts), field.spinnaker(pts))


def test_preharmonic_check_examples():
    M = sphere(4)
    pts4 = M.sample_points(50, 6)
    ok, err = _preharmonic(ConformalGradientField([1.0, 0, 0, 0, 0.5], M), pts4)
    assert ok and err < 1e-12
    ok, err = _preharmonic(killing_from_twists([1.0, 2.0], M), pts4)
    assert not ok and err > 1e-3
    H = hyperbolic(2)
    ok, _ = _preharmonic(hyperbolic_translation(1.0, H), H.sample_points(50, 7))
    assert ok


def _preharmonic_scale_cases():
    cases = [pytest.param(entry.field, entry.mp, id=entry.label) for entry in harmonic_catalogue()]
    for M in (sphere(4), hyperbolic(5)):
        f = killing_from_twists([1.0, 2.0], M)
        cases.append(pytest.param(f, MetricParams(M.n + 1, -1.0), id=f"killing (1, 2) n={M.n} eps={M.eps:+d}"))
    return cases


@pytest.mark.parametrize("field, mp", _preharmonic_scale_cases())
def test_preharmonic_verdict_is_scale_invariant(field, mp):
    """k sigma is preharmonic exactly when sigma is, from 1e-12 to 1e6."""
    want = verify(field, mp, count=50, seed=3).preharmonic
    for k in (1e-12, 1e-9, 1e-6, 1e-3, 1e3, 1e6):
        assert verify(scale_field(field, k), mp, count=50, seed=3).preharmonic == want, k


def _identity_scale_cases():
    cases = [pytest.param(entry.field, entry.mp, id=entry.label) for entry in harmonic_catalogue()]
    for M in (sphere(3), hyperbolic(4)):
        f = DipoleDeformationField(M.base_point(), np.eye(M.ambient_dim)[0], 1.3, 0.6, M)
        cases.append(pytest.param(f, MetricParams(3.0, -0.5), id=f"dipole n={M.n} eps={M.eps:+d}"))
    return cases


@pytest.mark.parametrize("field, mp", _identity_scale_cases())
def test_identity_errors_do_not_measure_the_field_size(field, mp):
    """weitzenbock_max_err and spinnaker_max_err of k sigma stay within 100x of those of sigma."""
    base = verify(field, mp, count=50, seed=3)
    for k in (1e-7, 1e-3, 1e3):
        rep = verify(scale_field(field, k), mp, count=50, seed=3)
        for name in ("weitzenbock_max_err", "spinnaker_max_err"):
            want, got = getattr(base, name), getattr(rep, name)
            assert got is not None and want / 100 <= got <= 100 * want, (name, k, got, want)


def test_q_riemannian_check():
    M = sphere(4)
    pts = M.sample_points(50, 8)
    f = killing_from_twists([1.0, 2.0], M)
    assert q_riemannian(ingredients(f, pts), 0.0)
    assert q_riemannian(ingredients(f, pts), 5.0)  # q >= 0 is vacuous
    # classified spherical Killing field: comfortably inside the ball bundle
    cl = killing_classification(4, 2, 1)
    kf = build_classified_field(cl)
    q0 = cl.metric_params[0].q
    assert q_riemannian(ingredients(kf, pts), q0)
    # zero-free hyperbolic conformal gradient at q = 2-n: image outside the ball bundle
    H = hyperbolic(3)
    g = ConformalGradientField([math.sqrt(1.0), 0.0, 0.0, 0.0], H)
    assert not q_riemannian(ingredients(g, H.sample_points(50, 9)), 2.0 - 3.0)
    # constant length always passes
    hopf = GeneralizedHopfField(2, 1.0, sphere(3))
    assert q_riemannian(ingredients(hopf, hopf.space.sample_points(20, 10)), -50.0)


def test_ingredients_equal_the_public_closed_forms():
    # one jet per batch changed no arithmetic: each array is bit-identical to its public method
    for f in _batch_fields():
        M, pts = f.space, f.space.sample_points(30, 12)
        ing = ingredients(f, pts)
        gF = f.grad_F(pts)
        pairs = [
            (ing.sigma, f.sigma(pts)),
            (ing.sigma_sq, f.sigma_sq(pts)),
            (ing.gradF_sq, M.norm_sq(gF)),
            (ing.nabla_gradF_sigma, f.nabla(pts, gF)),
            (ing.nabla_sq, f.nabla_norm_sq(pts)),
            (ing.lap_F, f.lap_F(pts)),
            (ing.rough, f.rough_laplacian(pts)),
        ]
        for got, want in pairs:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("fd", [False, True])
def test_verify_rows_are_built_from_the_arrays(fd):
    for f, mp in ((GeneralizedHopfField(1, 1.0, hyperbolic(2)), MetricParams(3.0, -0.5)),
                  (quadratic_two_eigenvalue(3, 1.0, sphere(5)), MetricParams(4.0, -0.4))):
        rep = verify(f, mp, count=25, seed=4, fd=fd)
        rows = rep.to_dict()["per_point"]
        assert [list(row) for row in rows] == [["index", "point", "residual", "scale"]] * 25
        assert [row["index"] for row in rows] == list(range(25))
        assert [row["point"] for row in rows] == rep.samples.tolist()
        assert [row["residual"] for row in rows] == rep.residuals.tolist()
        assert [row["scale"] for row in rows] == rep.scales.tolist()
        assert rep.max_rel_residual == float((rep.residuals / rep.scales).max())


def test_verify_verdicts_and_report():
    f = GeneralizedHopfField(1, 1.0, hyperbolic(2))
    good = verify(f, MetricParams(3.0, -0.5), count=50, seed=11)
    assert good.harmonic and good.preharmonic
    bad = verify(f, MetricParams(3.0, 0.0), count=50, seed=11)
    assert not bad.harmonic
    doc = json.loads(good.to_json())
    assert doc["verdicts"] == {"harmonic": True, "preharmonic": True, "q_riemannian": False}
    assert doc["n"] == 2 and doc["epsilon"] == -1 and doc["count"] == 50
    assert len(doc["per_point"]) == 50
    assert doc["derivative_source"] == "closed-form"
    assert doc["max_rel_residual"] == max(
        row["residual"] / row["scale"] for row in doc["per_point"]
    )
    assert all(row["scale"] > 0 for row in doc["per_point"])


def test_verify_deterministic():
    f = GeneralizedHopfField(2, 1.1, sphere(4))
    a = verify(f, MetricParams(5.0, -0.5), count=30, seed=3).to_json()
    b = verify(f, MetricParams(5.0, -0.5), count=30, seed=3).to_json()
    assert a == b


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_verify_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    f = GeneralizedHopfField(2, 1.1, sphere(4))
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        verify(f, MetricParams(5.0, -0.5), count=5, seed=seed)


def test_fd_fallback_path():
    f = ConformalGradientField([1.0, 0.0, 0.0, 0.0], sphere(3))
    rep = verify(f, MetricParams(4.0, -1.0), count=5, seed=12, fd=True)
    assert rep.derivative_source == "finite-difference"
    assert rep.harmonic and rep.tol == HARMONIC_TOL  # the exact oracle is judged like the closed forms


def _largest_catalogue_field_per_family():
    out = {}
    for entry in harmonic_catalogue():
        family = entry.field.family
        if family not in out or entry.field.space.n > out[family].field.space.n:
            out[family] = entry
    return list(out.values())


@pytest.mark.parametrize("fd", [False, True], ids=["closed-form", "fd"])
@pytest.mark.parametrize("entry", _largest_catalogue_field_per_family(), ids=lambda e: e.label)
def test_verify_peak_memory_stays_within_the_guard(entry, fd, monkeypatch):
    """The tracemalloc peak of verify, its sample drawn inside, is at most the _working_set it refuses counts by."""
    monkeypatch.setattr(spaceform, "_samples", {})  # no kept draw: verify draws its sample itself
    verify(entry.field, entry.mp, count=5, fd=fd)  # allocations made once per process are no working set
    count = 2000
    tracemalloc.start()
    try:
        verify(entry.field, entry.mp, count=count, fd=fd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _working_set(count, entry.field.space, fd)


def test_dilations_break_harmonicity():
    seen = 0
    for entry in harmonic_catalogue():
        if entry.constant_length:
            continue
        for factor in (0.5, 2.0):
            rep = verify(entry.rescaled(factor), entry.mp, count=30, seed=13)
            assert not rep.harmonic, f"{entry.label} x{factor}"
        rep = verify(entry.rescaled(-1.0), entry.mp, count=30, seed=13)
        assert rep.harmonic, f"{entry.label} x-1"
        seen += 1
    assert seen >= 18


def test_metric_uniqueness_probe():
    cl = killing_classification(4, 2, 1)
    f = build_classified_field(cl)
    p0, q0 = cl.metric_params[0].p, cl.metric_params[0].q
    offsets = [-0.1, -0.01, 0.0, 0.01, 0.1]
    pts = f.space.sample_points(40, 14)
    grid = metric_grid_scan(f, [p0 + d for d in offsets], [q0 + d for d in offsets], pts)
    assert grid[2, 2] < 1e-7
    others = [grid[i, j] for i in range(5) for j in range(5) if (i, j) != (2, 2)]
    assert min(others) > 1e-7


def test_hyperbolic_conformal_two_metric_pairs():
    cl = conformal_gradient_classification(3, -1, -1)
    f = build_classified_field(cl)
    pts = f.space.sample_points(40, 15)
    pairs = [(mp.p, mp.q) for mp in cl.metric_params]
    assert pairs == [(4.0, pytest.approx(-5.0 / 3.0)), (-1.0, 0.0)]
    for p0, q0 in pairs:
        offsets = [-0.1, -0.01, 0.0, 0.01, 0.1]
        grid = metric_grid_scan(f, [p0 + d for d in offsets], [q0 + d for d in offsets], pts)
        assert grid[2, 2] < 1e-7
        assert min(grid[i, j] for i in range(5) for j in range(5) if (i, j) != (2, 2)) > 1e-7


def test_weitzenbock_identity():
    from test_fields import sample_fields

    for f in sample_fields():
        for x in f.space.sample_points(30, 16):
            assert weitzenbock_error(ingredients(f, x)) < 1e-8


def test_isometry_equivariance():
    rng = np.random.default_rng(17)
    cl = killing_classification(4, 2, 1)
    f = build_classified_field(cl)
    M = f.space
    pts = M.sample_points(10, 18)
    assert isometry_equivariance_check(f, np.eye(5), cl.metric_params[0], pts) <= 1e-15
    for _ in range(5):
        g = M.random_isometry(rng)
        assert isometry_equivariance_check(f, g, cl.metric_params[0], pts) < 1e-9
    bad = np.eye(5)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError):
        isometry_equivariance_check(f, bad, cl.metric_params[0], pts)


def test_circle_equivariance():
    loop = associate_family_member(0.6)
    pts = loop.space.sample_points(10, 19)
    for t in np.linspace(0.2, 5.8, 4):
        assert circle_equivariance_check(loop, t, MetricParams(3.0, -0.5), pts) < 1e-9


def _loop_345():
    """The 3-4-5 point of the planar loop: harmonic at (3, -1/2), as 0.6^2 + 0.8^2 = 1."""
    return Conformal2DField(hyperbolic(2), 0.6, 0.0, 0.0, 0.0, 1.0, 0.8)


def _bits(ing: Ingredients) -> list[bytes]:
    return [getattr(ing, k).tobytes() for k in Ingredients.__dataclass_fields__ if k != "space"]


def _assert_stacked_is_two_evaluations(field, samples, image, points):
    both = _sampled(field, samples, (image, points))
    assert _bits(both) == [a + b for a, b in zip(_bits(ingredients(field, samples)), _bits(ingredients(image, points)))]


@pytest.mark.parametrize("entry", harmonic_catalogue(), ids=lambda e: e.label)
def test_stacked_evaluation_is_two_evaluations_under_isometries(entry):
    # each half of the one stacked pass is bitwise the field's own evaluation at its own points, and the check is
    # bitwise the one the two separate evaluations give
    f, M = entry.field, entry.field.space
    for seed in range(4):
        rng, pts = np.random.default_rng(seed), M.sample_points(10, seed)
        for _ in range(3):
            g = M.random_isometry(rng)
            moved, moved_pts = f.transform(g), M.normalize_point(pts @ g.T)
            _assert_stacked_is_two_evaluations(f, pts, moved, moved_pts)
            t, scale = _assemble(_weights(entry.mp.p, entry.mp.q), _parts(ingredients(f, pts)))
            want = _relative(M.norm(t @ g.T - tension(moved, moved_pts, entry.mp)), scale).max()
            assert isometry_equivariance_check(f, g, entry.mp, pts) == want


def test_stacked_evaluation_is_two_evaluations_under_circle_turns():
    loop, mp = _loop_345(), MetricParams(3.0, -0.5)
    M = loop.space
    for seed in range(4):
        pts = M.sample_points(10, seed)
        for t in np.random.default_rng(seed).uniform(0.3, 6.0, 7):
            turned = loop.circle_action(t)
            _assert_stacked_is_two_evaluations(loop, pts, turned, pts)
            v, scale = _assemble(_weights(mp.p, mp.q), _parts(ingredients(loop, pts)))
            lhs = np.cos(t) * v + np.sin(t) * M.complex_rotation(pts, v)
            want = _relative(M.norm(lhs - tension(turned, pts, mp)), scale).max()
            assert circle_equivariance_check(loop, t, mp, pts) == want


@pytest.fixture
def lap_F_calls(monkeypatch):
    """The points of every AffineField.lap_F call made while the test runs: one per closed-form evaluation."""
    calls, lap_F = [], AffineField.lap_F
    monkeypatch.setattr(AffineField, "lap_F", lambda self, x: calls.append(x) or lap_F(self, x))
    return calls


def test_each_equivariance_check_evaluates_once(lap_F_calls):
    f = build_classified_field(killing_classification(4, 2, 1))
    g = f.space.random_isometry(np.random.default_rng(0))
    isometry_equivariance_check(f, g, MetricParams(3.0, -0.5), f.space.sample_points(10, 1))
    assert len(lap_F_calls) == 1
    loop = _loop_345()
    circle_equivariance_check(loop, 0.7, MetricParams(3.0, -0.5), loop.space.sample_points(10, 1))
    assert len(lap_F_calls) == 2


def test_isometry_check_refuses_in_order():
    # no samples first, then a g that is no isometry, then a field too small to analyse
    tiny = scale_field(associate_family_member(0.7), 1e-200)
    pts, mp = tiny.space.sample_points(20, 3), MetricParams(3.0, -0.5)
    with pytest.raises(ValueError, match="samples is empty"):
        isometry_equivariance_check(tiny, 2.0 * np.eye(3), mp, np.empty((0, 3)))
    with pytest.raises(ValueError, match="g does not preserve"):
        isometry_equivariance_check(tiny, 2.0 * np.eye(3), mp, pts)
    with pytest.raises(ValueError, match="too small to analyse"):
        isometry_equivariance_check(tiny, np.eye(3), mp, pts)


@pytest.mark.parametrize("entry", [(0, 1, math.nan), (2, 2, math.inf), None], ids=["one nan", "one inf", "all nan"])
def test_isometry_check_blames_a_non_finite_g(entry):
    # g is refused, not the field that moving by it would build
    f = build_classified_field(killing_classification(4, 2, 1))
    g = np.full((5, 5), math.nan) if entry is None else np.eye(5)
    if entry is not None:
        g[entry[:2]] = entry[2]
    with pytest.raises(ValueError, match="g does not preserve"):
        isometry_equivariance_check(f, g, MetricParams(3.0, -0.5), f.space.sample_points(5, 1))


@pytest.mark.parametrize("shape", [(3, 3), (5, 4), (1, 5, 5)], ids=str)
def test_isometry_check_blames_a_g_of_the_wrong_shape(shape):
    # g is refused by name, not with numpy's matmul or broadcast message
    f = build_classified_field(killing_classification(4, 2, 1))
    with pytest.raises(ValueError, match="g does not preserve"):
        isometry_equivariance_check(f, np.ones(shape), MetricParams(3.0, -0.5), f.space.sample_points(5, 1))


@pytest.mark.parametrize(
    "check",
    [
        lambda f, pts: metric_grid_scan(f, [3.0, 4.0], [-0.5], pts),
        lambda f, pts: isometry_equivariance_check(f, np.eye(5), MetricParams(3.0, -0.5), pts),
        lambda f, pts: circle_equivariance_check(f, 0.5, MetricParams(3.0, -0.5), pts),
    ],
    ids=["metric_grid_scan", "isometry_equivariance_check", "circle_equivariance_check"],
)
def test_checks_refuse_an_empty_sample_set(check):
    # an empty grid would read as harmonic at every (p, q); the maxima are undefined
    f = build_classified_field(killing_classification(4, 2, 1))
    with pytest.raises(ValueError, match="samples"):
        check(f, np.empty((0, 5)))


@pytest.mark.parametrize("ps, qs", [([math.nan], [0.0]), ([1.0, 2.0], [-math.inf]), ([math.inf], [0.0])])
def test_metric_grid_scan_refuses_non_finite_parameters(ps, qs):
    # like MetricParams at every other entry point, not a NaN cell and a RuntimeWarning
    f = build_classified_field(killing_classification(4, 2, 1))
    with pytest.raises(ValueError, match="1-D arrays of finite numbers"):
        metric_grid_scan(f, ps, qs, f.space.sample_points(5, 1))


@pytest.mark.parametrize("ps, qs", [([[5.0]], [0.0]), ([5.0], [[0.0, 1.0]]), (5.0, [0.0])])
def test_metric_grid_scan_refuses_grids_that_are_not_1d(ps, qs):
    # ps = [[5.0]] gave a 3-D grid
    f = build_classified_field(killing_classification(4, 2, 1))
    with pytest.raises(ValueError, match="1-D arrays of finite numbers"):
        metric_grid_scan(f, ps, qs, f.space.sample_points(5, 1))


@pytest.mark.parametrize("entry", harmonic_catalogue(), ids=lambda e: e.label)
def test_metric_grid_scan_cells_are_the_verify_residuals(entry):
    # each cell is the max_rel_residual verify reports at its (p, q) on the same samples, with the same verdict
    p0, q0 = entry.mp.p, entry.mp.q
    ps, qs = [p0 - 0.5, p0, p0 + 1.0], [q0 - 0.05, q0, q0 + 0.05]
    grid = metric_grid_scan(entry.field, ps, qs, entry.field.space.sample_points(200, 42))
    for i, p in enumerate(ps):
        for j, q in enumerate(qs):
            rep = verify(entry.field, MetricParams(p, q), count=200, seed=42)
            assert abs(grid[i, j] - rep.max_rel_residual) <= 1e-15, (p, q)
            assert bool(grid[i, j] < HARMONIC_TOL) is rep.harmonic, (p, q)


def test_metric_grid_scan_working_set_stays_at_a_few_grids():
    # one sample at a time: the two weight rows, the product of one sample's parts with them and its norms, beside
    # the parts of all samples (7.5 grids here); a broadcast over every sample at once holds 136 grids (6.7 MB)
    H3 = hyperbolic(3)
    tr, pts = hyperbolic_translation(1.0, H3), H3.sample_points(60, 3)
    ps, qs = np.arange(-5.0, 8.0 + 1e-9, 0.25), np.arange(-5.0, 2.0 + 1e-9, 0.25)
    metric_grid_scan(tr, ps, qs, pts)  # allocations made once per process are no working set
    tracemalloc.start()
    try:
        metric_grid_scan(tr, ps, qs, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = ps.size * qs.size * H3.ambient_dim * 8
    assert peak <= 10 * grid + _working_set(len(pts), H3, False)


@pytest.mark.parametrize("size", ["m", 6])
def test_tension_and_weitzenbock_batch_equals_rows(size):
    from test_fields import _batch_fields, assert_batch_equals_rows

    mp = MetricParams(3.0, -0.7)
    for f in _batch_fields():
        pts = f.space.sample_points(f.space.ambient_dim if size == "m" else size, 50)
        assert_batch_equals_rows(lambda y: tension(f, y, mp), pts)
        assert_batch_equals_rows(lambda y: weitzenbock_error(ingredients(f, y)), pts)


def _one_sigma_cases():
    cases = [pytest.param(e.field, e.mp, id=e.label) for e in harmonic_catalogue()]
    M = sphere(4)
    cases.append(pytest.param(killing_from_twists([1.0, 2.0], M), MetricParams(5.0, -1.0), id="no spinnaker"))
    return cases


@pytest.mark.parametrize("field, mp", _one_sigma_cases())
def test_closed_form_verify_evaluates_sigma_once(monkeypatch, field, mp):
    shapes = []
    parts = AffineField._parts

    def counted(self, x):
        shapes.append(np.shape(x))
        return parts(self, x)

    monkeypatch.setattr(AffineField, "_parts", counted)
    verify(field, mp, count=30, seed=3)
    assert shapes == [(30, field.space.ambient_dim)]


@pytest.mark.parametrize(
    "field, zero",
    [
        (ConformalGradientField([0.0, 0.0, 0.0, 1.0], sphere(3)), [0.0, 0.0, 0.0, 1.0]),
        (quadratic_two_eigenvalue(2, 1.3, sphere(4)), [1.0, 0.0, 0.0, 0.0, 0.0]),
    ],
    ids=["confgrad", "quadratic"],
)
def test_an_exact_zero_of_sigma_leaves_the_checks_unchanged(monkeypatch, field, zero):
    M, mp = field.space, MetricParams(4.0, -1.0)
    pts = M.sample_points(30, 8)
    with_zero = np.insert(pts, 10, zero, axis=0)
    assert field.sigma_sq(with_zero[10]) == 0.0
    checks = []
    for x in (pts, with_zero):
        ing, zeta = ingredients(field, x), field.spinnaker(x)
        monkeypatch.setattr(type(M), "sample_points", lambda self, count, seed, x=x: x)
        rep = verify(field, mp, count=len(x), seed=0)
        err = spinnaker_error(ing, zeta)
        checks.append((preharmonic(ing, zeta), err.max(), rep.preharmonic, rep.spinnaker_max_err))
    assert checks[0] == checks[1]


@pytest.mark.parametrize("entry", harmonic_catalogue(), ids=lambda e: e.label)
def test_no_scaled_catalogue_field_is_harmonic(entry):
    # tau(k sigma)/k = T_1 + k^2 T_3 + k^4 T_5 with T_1 = nabla* nabla sigma != 0 on a non-flat space form, so
    # k sigma is harmonic at the catalogue's (p, q) for k = 1 only; below k ~ 1e-160 every term underflows
    for j in range(-300, 29, 2):
        if j == 0:
            continue
        try:
            rep = verify(scale_field(entry.field, 10.0**j), entry.mp, count=50, seed=0)
        except ValueError as exc:
            assert j < -150 and "too small to analyse" in str(exc), (j, str(exc))
            continue
        assert rep.harmonic is False and rep.max_rel_residual > 1e-2, (j, rep.max_rel_residual)


_LAMBDA_I = [(M, lam) for M in (sphere(3), sphere(5), hyperbolic(3)) for lam in (0.1, 0.7, 1e5 + 0.1)]


@pytest.mark.parametrize("fd", [False, True], ids=["closed-form", "fd"])
@pytest.mark.parametrize(
    "field",
    [
        QuadraticGradientField(np.eye(4), sphere(3)),
        AffineField(-3.0 * np.eye(6), np.zeros(6), sphere(5)),
        AffineField(2.0 * np.eye(4), np.zeros(4), hyperbolic(3)),
        *(AffineField(lam * np.eye(M.ambient_dim), np.zeros(M.ambient_dim), M) for M, lam in _LAMBDA_I),
    ],
    ids=["quadratic-one-cluster", "S5", "H3", *(f"{'SH'[M.eps < 0]}{M.n}-{lam!r}" for M, lam in _LAMBDA_I)],
)
def test_a_field_that_vanishes_identically_is_harmonic(field, fd):
    # sigma = P_x(lambda x) = 0 with (L, c) != 0: the normal form of lambda I is exactly 0, so there is no noise
    assert not field.L.any()
    report = verify(field, MetricParams(2.0, 1.0), fd=fd)
    assert report.harmonic is report.preharmonic is True


@pytest.mark.parametrize("n", [3, 5])
def test_a_field_that_vanishes_identically_is_preharmonic(n):
    # sigma = P_x(lambda x) = 0 satisfies nabla_{grad F} sigma = zeta sigma for every zeta; the normal form of
    # lambda I is exactly 0, so sigma is 0 at every sample and no sample is left for either check
    field = QuadraticGradientField(2.0 * np.eye(n + 1), sphere(n))
    report = verify(field, MetricParams(2.0, 1.0))
    assert (report.preharmonic, report.spinnaker_max_err) == (True, None)
    # on the samples alone there is nothing left to judge, so preharmonic does not say True
    ok, err = _preharmonic(field, field.space.sample_points(50, 0))
    assert ok is False and math.isnan(err)


@pytest.mark.parametrize(
    "eigenvalues", [[0, 0, 0, 0, 1, 2], [1, 1, 1, 1, 1, 1], [0, 0, 0, 0, 0, 2]], ids=["three", "one", "two"]
)
def test_adding_a_multiple_of_the_identity_keeps_the_preharmonic_verdict(eigenvalues):
    # Q + lambda I has the sigma of Q, and Q + lambda I is exact in floats here, so it gets the normal form of Q
    # bit for bit, and with it every verdict and residual of Q
    def verdicts(f, fd):
        r = verify(f, MetricParams(2.0, 1.0), fd=fd)
        return r.harmonic, r.preharmonic, r.max_rel_residual

    field = QuadraticGradientField(np.diag(eigenvalues), sphere(5))
    assert verdicts(field, False)[1] is (len(set(eigenvalues)) <= 2)
    for lam in (1e2, 1e4, 1e5 + 0.1, 1e6):
        shifted = QuadraticGradientField(np.diag(eigenvalues) + lam * np.eye(6), sphere(5))
        assert np.array_equal(shifted.L, field.L), lam
        for fd in (False, True):
            assert verdicts(shifted, fd) == verdicts(field, fd), (lam, fd)


@pytest.mark.parametrize(
    "check",
    [
        lambda f, pts: verify(f, MetricParams(3.0, -0.5), count=len(pts)),
        lambda f, pts: metric_grid_scan(f, [3.0, 4.0], [-0.5], pts),
        lambda f, pts: isometry_equivariance_check(f, np.eye(3), MetricParams(3.0, -0.5), pts),
        lambda f, pts: circle_equivariance_check(f, 0.5, MetricParams(3.0, -0.5), pts),
    ],
    ids=["verify", "metric_grid_scan", "isometry_equivariance_check", "circle_equivariance_check"],
)
def test_checks_refuse_a_field_whose_terms_all_underflow(check):
    # every tension term of this non-zero field is 0 at every sample: 0/0 read as 0 would pass it as harmonic
    f = scale_field(associate_family_member(0.7), 1e-200)
    with pytest.raises(ValueError, match="too small to analyse"):
        check(f, f.space.sample_points(20, 3))


# each tension consumer: (its field at scale k, the call on samples); verify draws its own len(samples) points
def _killing_s4(k):
    return scale_field(killing_from_twists([1.0, 2.0], sphere(4)), k)


_CONSUMERS = {
    "verify": (_killing_s4, lambda f, pts: verify(f, MetricParams(5.0, -1.0), count=len(pts), seed=1)),
    "metric_grid_scan": (_killing_s4, lambda f, pts: metric_grid_scan(f, [5.0], [-1.0, 0.0], pts)),
    "isometry_equivariance_check": (
        _killing_s4,
        lambda f, pts: isometry_equivariance_check(f, np.eye(5), MetricParams(5.0, -1.0), pts),
    ),
    "circle_equivariance_check": (
        lambda k: scale_field(associate_family_member(0.7), k),
        lambda f, pts: circle_equivariance_check(f, 0.5, MetricParams(3.0, -0.5), pts),
    ),
}
# (scale of the field, what is done to the samples, the refusal); verify takes no samples, so only its fields
_REFUSED = [
    (1e40, None, "non-finite tension residual or scale at sample"),
    (1e70, None, "non-finite tension residual or scale at sample"),
    (1e-200, None, "too small to analyse"),
    (1.0, lambda pts: 2.0 * pts, "array of points of the space form"),
    (1.0, lambda pts: pts[:, :-1], "array of points of the space form"),
]


@pytest.mark.parametrize(
    "consumer, k, move, match",
    [
        pytest.param(name, k, move, match, id=f"{name}-{label}")
        for name in _CONSUMERS
        for (k, move, match), label in zip(_REFUSED, ["x1e40", "x1e70", "x1e-200", "off-quadric", "wrong-width"])
        if name != "verify" or move is None
    ],
)
def test_every_consumer_refuses_what_it_cannot_judge(consumer, k, move, match):
    # one gate: an overflowing residual or scale, a field whose terms all underflow and samples that are no points
    # of the space form raise, with no RuntimeWarning on the way, where they gave inf, NaN or a wrong verdict
    field_at, call = _CONSUMERS[consumer]
    f = field_at(k)
    pts = f.space.sample_points(10, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            call(f, pts if move is None else move(pts))
        if consumer != "verify":  # the unscaled field on its own samples is judged, and finite
            assert np.isfinite(call(field_at(1.0), pts)).all()


def test_an_overflowing_weight_is_refused_without_a_warning():
    # p q = 1e600 overflows the weights themselves, which the grid built outside any errstate
    f = build_classified_field(killing_classification(4, 2, 1))
    pts, big = f.space.sample_points(5, 1), MetricParams(1e300, 1e300)
    calls = [
        lambda: metric_grid_scan(f, [1.0, 1e300], [1e300], pts),
        lambda: verify(f, big, count=5),
        lambda: isometry_equivariance_check(f, np.eye(5), big, pts),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="non-finite tension residual or scale at sample 0"):
                call()


def test_samples_off_the_upper_sheet_are_refused():
    # -x satisfies <x, x> = -1 too, on the lower sheet of H^2
    f, mp = _loop_345(), MetricParams(3.0, -0.5)
    pts = f.space.sample_points(10, 1)
    for bad in (-pts, np.concatenate([pts, -pts[:1]])):
        with pytest.raises(ValueError, match="array of points of the space form"):
            circle_equivariance_check(f, 0.5, mp, bad)
        with pytest.raises(ValueError, match="array of points of the space form"):
            metric_grid_scan(f, [3.0], [-0.5], bad)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_circle_check_blames_a_non_finite_t(t):
    # circle_action refuses t by name, not the omega it would build or math.cos
    f = _loop_345()
    with pytest.raises(ValueError, match="t must be finite"):
        f.circle_action(t)
    with pytest.raises(ValueError, match="t must be finite"):
        circle_equivariance_check(f, t, MetricParams(3.0, -0.5), f.space.sample_points(5, 1))


def test_an_infinite_scale_is_refused_beside_a_finite_residual():
    # a finite |t| over an infinite scale would read as 0, that is as harmonic; a timelike -inf |t|^2 would clip to 0
    with pytest.raises(ValueError, match="at sample 1"):
        _finite(np.array([1.0, 2.0]), np.array([1.0, math.inf]))
    with pytest.raises(ValueError, match="at sample 0"):
        _finite(np.array([-math.inf, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="non-finite"):
        _finite(np.float64(math.nan))
    with np.errstate(over="ignore"):  # as in every consumer: a product that overflows is no refusal
        _finite(np.array([1e200, 1e200]), np.array([1e200, 1e200]))
