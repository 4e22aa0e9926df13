import math
import sys

import numpy as np
import pytest

from hvf.ambient import as_vector, lorentz_pairing
from hvf.fields import (
    AffineField,
    Conformal2DField,
    ConformalGradientField,
    DipoleDeformationField,
    GeneralizedHopfField,
    KillingField,
    LoxodromicField,
    QuadraticGradientField,
    associate_family_member,
    build_field,
    elementary_killing,
    hyperbolic_translation,
    killing_from_twists,
    quadratic_two_eigenvalue,
    scale_field,
)
from hvf.spaceform import SpaceForm, hyperbolic, sphere
from hvf.tension import ZERO_LENGTH, MetricParams, ingredients, preharmonic, spinnaker_error, verify

TANGENT_TOL = 1e-10


def sample_fields():
    """A representative of each family with generic parameters."""
    e4 = np.eye(4)
    e6 = np.eye(6)
    out = [
        ConformalGradientField([0.0, 0.0, 0.0, 1.3], sphere(3)),
        ConformalGradientField([0.8, 0.0, 0.0, 1.3], hyperbolic(3)),
        GeneralizedHopfField(2, 1.1, sphere(4)),
        killing_from_twists([1.0, 2.0], sphere(4)),
        GeneralizedHopfField(1, 0.9, hyperbolic(3)),
        hyperbolic_translation(1.2, hyperbolic(3)),
        LoxodromicField([(e4[0], e4[1])], [1.2], [0.0, 0.0, 0.4, 1.1], hyperbolic(3)),
        LoxodromicField([(e4[0], e4[1])], [0.8], 0.5 * e4[2], sphere(3)),
        LoxodromicField([(e6[0], e6[1]), (e6[2], e6[3])], [1.0, 0.5], 0.9 * e6[4], sphere(5)),
        DipoleDeformationField([0, 0, 0, 1.0], e4[0], 1.3, 0.6, sphere(3)),
        DipoleDeformationField([0, 0, 0, 1.0], e4[0], 1.3, 0.6, hyperbolic(3)),
        Conformal2DField(hyperbolic(2), 0.7, 0.4, 0.5, 0.6, 0.8, 1.1),
        Conformal2DField(sphere(2), 0.7, 0.0, 0.5, 0.6, 0.8, 1.1),
        QuadraticGradientField(np.diag([2.0, 1.0, 1.0, -0.5, 0.3, 0.0]), sphere(5)),
    ]
    return out


# ---------------------------------------------------------------------------
# conformal gradient fields
# ---------------------------------------------------------------------------


def test_conformal_sphere_point_values():
    M = sphere(2)
    f = ConformalGradientField([0.0, 0.0, 1.0], M)
    x = [1.0, 0.0, 0.0]
    assert np.allclose(f.sigma(x), [0.0, 0.0, 1.0])
    assert f.F(x) == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(f.grad_F(x), 0.0)
    assert f.lap_F(x) == pytest.approx(1.0, abs=1e-15)
    assert f.spinnaker(x) == pytest.approx(0.0, abs=1e-15)


def test_conformal_zero_at_pole():
    M = sphere(3)
    mu = 1.69
    f = ConformalGradientField([0.0, 0.0, 0.0, math.sqrt(mu)], M)
    x = np.array([0.0, 0.0, 0.0, 1.0])  # = a / sqrt(mu)
    assert np.allclose(f.sigma(x), 0.0, atol=1e-14)
    assert f.F(x) == pytest.approx(0.0, abs=1e-14)
    assert f.lap_F(x) == pytest.approx(-M.n * mu, rel=1e-12)
    assert f.spinnaker(x) == pytest.approx(mu, rel=1e-12)


def test_conformal_hyperbolic_length():
    f = ConformalGradientField([0.0, 0.0, 1.0], hyperbolic(2))
    x = [math.sinh(1.0), 0.0, math.cosh(1.0)]
    assert f.sigma_sq(x) == pytest.approx(math.sinh(1.0) ** 2, rel=1e-12)
    assert f.sigma_sq(x) == pytest.approx(1.3811, abs=1e-4)


def test_conformal_past_pole_rejected():
    with pytest.raises(ValueError):
        ConformalGradientField([0.0, 0.0, -1.0], hyperbolic(2))


# ---------------------------------------------------------------------------
# Killing fields
# ---------------------------------------------------------------------------


def test_hopf_field_on_s3():
    f = GeneralizedHopfField(2, 1.0, sphere(3))
    M = f.space
    for x in M.sample_points(20, 0):
        # the standard Hopf field: (x1, x2, x3, x4) -> (-x2, x1, -x4, x3)
        assert np.allclose(f.sigma(x), [-x[1], x[0], -x[3], x[2]])
        assert f.sigma_sq(x) == pytest.approx(1.0, abs=1e-12)
        assert M.norm(f.grad_F(x)) <= 1e-12
        assert f.lap_F(x) == pytest.approx(0.0, abs=1e-12)
    assert lorentz_pairing(f.L, f.L, M) == pytest.approx(4.0)
    assert f.twists == (1.0, 1.0) and f.balanced


def test_hopf_operator_examples():
    # r=1 on H^2 gives sigma_0(x) = (-x2, x1, 0)
    f = GeneralizedHopfField(1, 1.0, hyperbolic(2))
    x = np.array([math.sinh(0.7), 0.3, 0.0])
    x = f.space.normalize_point(np.array([0.4, 0.3, 1.2]))
    assert np.allclose(f.sigma(x), [-x[1], x[0], 0.0])
    assert np.allclose(GeneralizedHopfField(2, 0.0, sphere(4)).A, 0.0)
    with pytest.raises(ValueError):
        GeneralizedHopfField(3, 1.0, sphere(4))  # 2r > n+1
    with pytest.raises(ValueError):
        GeneralizedHopfField(2, 1.0, hyperbolic(3))  # needs 2r < n+1


def test_zero_operator_field():
    M = sphere(3)
    f = KillingField(np.zeros((4, 4)), M)
    x = M.sample_points(1, 1)[0]
    assert np.allclose(f.sigma(x), 0.0) and f.F(x) == 0.0
    assert np.allclose(f.rough_laplacian(x), 0.0)
    assert f.spinnaker(x) == 0.0


def test_balanced_killing_spinnaker():
    # lambda = -omega^2 and zeta = omega^2 - 2 eps F for balanced fields
    for M, omega in ((sphere(4), 1.3), (hyperbolic(4), 0.8)):
        f = GeneralizedHopfField(2, omega, M)
        assert f.preharmonic_lambda == pytest.approx(-(omega**2), rel=1e-12)
        for x in M.sample_points(10, 3):
            want = omega**2 - M.eps * f.sigma_sq(x)
            assert f.spinnaker(x) == pytest.approx(want, rel=1e-12)


def test_unbalanced_killing_has_no_spinnaker():
    f = killing_from_twists([1.0, 2.0], sphere(4))
    assert not f.balanced
    assert f.preharmonic_lambda is None
    assert f.spinnaker(f.space.sample_points(1, 0)[0]) is None
    assert f.twists == (2.0, 1.0) and f.rank == 2


def _random_conformal_field(rng):
    """P_x(L x + c) with eta-skew L: rotations in r planes (balanced or not), an optional boost on H^n
    or extra plane on S^n, a pole that is 0, off the planes or anywhere, all moved by a random isometry."""
    n, eps = int(rng.integers(2, 7)), int(rng.choice([1, -1]))
    M = SpaceForm(n, eps)
    r = int(rng.integers(1, (n + (eps == 1)) // 2 + 1))
    twists = [rng.uniform(0.3, 2.0)] * r if rng.random() < 0.6 else rng.uniform(0.3, 2.0, r)
    L = killing_from_twists(twists, M).L
    if rng.random() < 0.3:
        L = L + rng.uniform(0.3, 2.0) * elementary_killing(np.eye(n + 1)[0], np.eye(n + 1)[n], M).L
    c = rng.standard_normal(n + 1) * rng.uniform(0.1, 2.0)
    kind = rng.integers(3)
    if kind == 0:
        c[:] = 0.0
    elif kind == 1:
        c[: 2 * r] = 0.0
    g = M.random_isometry(rng)
    return AffineField(g @ L @ M.adjoint(g), g @ c, M)


def test_one_spinnaker_for_every_conformal_field():
    """Preharmonic, decided with the only candidate |grad F|^2 / |sigma|^2, means the identity gives that zeta;
    L^3 != lambda L means no spinnaker and not preharmonic."""
    rng = np.random.default_rng(7)
    counts = {"preharmonic": 0, "no lambda": 0, "neither": 0}
    for i in range(300):
        f = _random_conformal_field(rng)
        pts = f.space.sample_points(40, i)
        ing = ingredients(f, pts)
        zeta = f.spinnaker(pts, ing.sigma_sq)
        found = preharmonic(ing, None)[0]
        if f.preharmonic_lambda is None:
            assert zeta is None and not found, i
            counts["no lambda"] += 1
            continue
        assert preharmonic(ing, zeta)[0] == found, i
        if found:
            keep = ing.sigma_sq > ZERO_LENGTH**2 * ing.sigma_sq.max()
            assert spinnaker_error(ing, zeta)[keep].max() < 1e-8, i
        counts["preharmonic" if found else "neither"] += 1
    assert min(counts.values()) >= 30, counts


@pytest.mark.parametrize("k", [1.0, 1e-20])
def test_a_tiny_quadratic_operator_is_not_read_as_skew(k):
    # skewness is decided on L scaled to unit size: with an absolute tolerance 1e-20 L would pass as
    # skew, with lambda = 1e-40 as its spinnaker's constant, and the field would read not preharmonic
    f = AffineField(k * np.diag([1.0, 1.0, -1.0, -1.0]), np.zeros(4), sphere(3))
    assert f.preharmonic_lambda is None
    assert verify(f, MetricParams(2.0, 1.0)).preharmonic


def test_a_plain_affine_conformal_field_has_the_spinnaker():
    L = np.array([[0.0, -0.7, 0.3], [0.7, 0.0, 0.2], [0.3, 0.2, 0.0]])
    f = AffineField(L, [0.1, 0.4, 0.5], hyperbolic(2))
    report = verify(f, MetricParams(3.0, -0.5))
    assert report.preharmonic and report.spinnaker_max_err < 1e-12


def test_lambda_is_read_once_and_not_carried_to_a_new_field():
    f, x = GeneralizedHopfField(2, 1.3, sphere(4)), sphere(4).sample_points(5, 0)
    assert "preharmonic_lambda" not in vars(f)  # construction does not compute it
    lam = f.preharmonic_lambda
    assert vars(f)["preharmonic_lambda"] == lam
    g = scale_field(f, 2.0)  # _with copies the cached lambda of f, and __init__ drops it
    assert g.preharmonic_lambda == 4.0 * lam
    assert g.spinnaker(x) == pytest.approx(4.0 * f.spinnaker(x), rel=1e-14)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The arguments of every np.linalg.eigvalsh call made while the test runs."""
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    return calls


@pytest.mark.parametrize("M", [sphere(4), hyperbolic(4)], ids=["S4", "H4"])
def test_killing_normal_form_is_found_on_first_read(M, eigvalsh_calls):
    f = killing_from_twists([1.0, 2.0], M)
    moved, scaled = f.transform(M.random_isometry(np.random.default_rng(0))), scale_field(f, 3.0)
    assert len(eigvalsh_calls) == 0  # construction, transform and scaling decompose nothing
    assert f.twists == pytest.approx((2.0, 1.0), rel=1e-12) and len(eigvalsh_calls) == 1
    assert (f.tau, f.kind, f.rank, f.balanced) == (0.0, "rotation", 2, False)
    assert moved.twists == pytest.approx(f.twists, rel=1e-12) and scaled.twists == pytest.approx((6.0, 3.0), rel=1e-12)
    assert len(eigvalsh_calls) == 3  # once per field, at its first read


def test_quadratic_clusters_are_found_on_first_read(eigvalsh_calls):
    M = sphere(5)
    f = quadratic_two_eigenvalue(3, 2.0, M)
    assert len(eigvalsh_calls) == 1  # the reported eigenvalues of the given Q
    f.transform(M.random_isometry(np.random.default_rng(0)))
    scale_field(f, 3.0)
    assert len(eigvalsh_calls) == 1


def _derived(f, x) -> dict:
    """Every value f derives from (L, c) after construction, with its spinnaker at x."""
    out = {"lambda": f.preharmonic_lambda, "nu": f.nu, "spinnaker": f.spinnaker(x)}
    if isinstance(f, KillingField):
        out.update(twists=f.twists, tau=f.tau, kind=f.kind, rank=f.rank, balanced=f.balanced)
    return out


def _fresh(f) -> AffineField:
    """A field built anew from the (L, c) of f and the metadata its derived values read."""
    if isinstance(f, KillingField):
        return KillingField(f.L, f.space, base=f.base)
    if isinstance(f, QuadraticGradientField):
        return QuadraticGradientField(f.L, f.space)
    return AffineField(f.L, f.c, f.space)


def _fields_and_others():
    """(field, another field whose (L, c) give other derived values) pairs, by name."""
    S3, H3, S4, H4, S5 = sphere(3), hyperbolic(3), sphere(4), hyperbolic(4), sphere(5)
    dipole = DipoleDeformationField([0, 0, 0, 1.0], np.eye(4)[0], 1.3, 0.6, H3)
    return {
        "killing-S4": (killing_from_twists([1.0, 1.0], S4), killing_from_twists([2.0, 1.0], S4)),
        "killing-H4": (killing_from_twists([1.0, 1.0], H4), hyperbolic_translation(0.9, H4)),
        "quadratic-S5": (quadratic_two_eigenvalue(2, 2.0, S5), quadratic_two_eigenvalue(3, 5.0, S5)),
        "dipole-S3": (DipoleDeformationField([0, 0, 0, 1.0], np.eye(4)[0], 1.3, 0.6, S3), killing_from_twists([0.7], S3)),
        "dipole-H3": (dipole, ConformalGradientField([0.8, 0.0, 0.0, 1.3], H3)),
    }


@pytest.mark.parametrize("op", ["transform", "scale", "with"])
@pytest.mark.parametrize("name", list(_fields_and_others()))
def test_a_new_field_carries_no_derived_value_of_the_old(name, op):
    """transform, scale_field and _with report what a field built anew from the same (L, c) reports.

    A transform keeps every congruence invariant (twists, tau, kind, clusters, lambda, nu), so only
    the spinnaker of a field with L c != 0 tells a stale value from a fresh one there.
    """
    f, other = _fields_and_others()[name]
    x = f.space.sample_points(5, 0)
    before = _derived(f, x)  # every cached value of f is now in vars(f)
    if op == "transform":
        g = f.transform(f.space.random_isometry(np.random.default_rng(1)))
    elif op == "scale":
        g = scale_field(f, 3.0)
    else:
        g = f._with(other.L, other.c)
    got, want = _derived(g, x), _derived(_fresh(g), x)
    for key, value in want.items():
        if isinstance(value, (str, bool, int)) or value is None:
            assert got[key] == value, key
        else:
            assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key
    if op == "scale" and before["lambda"] is not None:
        assert got["lambda"] == pytest.approx(9.0 * before["lambda"], rel=1e-12)
    if op == "scale" and "twists" in got:
        assert got["twists"] == pytest.approx([3.0 * t for t in before["twists"]], rel=1e-12)


@pytest.mark.parametrize("M", [sphere(4), hyperbolic(5)], ids=["S4", "H5"])
@pytest.mark.parametrize("twists", [(1.0, 1.0), (1.0, 2.0)], ids=["balanced", "unbalanced"])
def test_killing_normal_form_at_every_scale(M, twists):
    """k sigma has the rank, balance, kind and preharmonicity of sigma, twists times k and lambda times k^2."""
    f = killing_from_twists(twists, M)
    for j in (-300, -200, -160, -110, -90, -6, 0, 6, 60):
        k = 10.0**j
        g = scale_field(f, k)
        assert [t / k for t in g.twists] == pytest.approx(f.twists, rel=1e-12), j
        assert (g.rank, g.balanced, g.kind) == (f.rank, f.balanced, f.kind), j
        assert (g.preharmonic_lambda is None) == (f.preharmonic_lambda is None), j
        if f.preharmonic_lambda is None:
            continue
        if k * k >= sys.float_info.min:
            assert g.preharmonic_lambda / (k * k) == pytest.approx(f.preharmonic_lambda, rel=1e-12), j
        else:  # lambda k^2 is below the normal doubles, so it keeps only their absolute precision
            assert g.preharmonic_lambda == pytest.approx(f.preharmonic_lambda * k * k, abs=sys.float_info.min), j


def test_hyperbolic_killing_trichotomy():
    M = hyperbolic(3)
    rot = GeneralizedHopfField(1, 1.1, M)
    assert rot.kind == "rotation" and rot.tau == pytest.approx(0.0, abs=1e-14)
    tr = hyperbolic_translation(0.9, M)
    assert tr.kind == "translation" and tr.tau == pytest.approx(0.9, rel=1e-12)
    assert tr.preharmonic_lambda == pytest.approx(0.81, rel=1e-12)
    par = KillingField(
        GeneralizedHopfField(1, 0.7, M).A
        + hyperbolic_translation(0.7, M, direction=np.eye(4)[2]).A,
        M,
    )
    assert par.kind == "parabolic"


@pytest.mark.parametrize("M", [sphere(4), hyperbolic(5)], ids=["S4", "H5"])
def test_scaled_killing_keeps_its_normal_form(M):
    for k in (1e-6, 1e-3, 1e6):
        f = scale_field(killing_from_twists([1.0, 2.0], M), k)
        assert f.twists == pytest.approx((2.0 * k, k), rel=1e-8), k
        assert f.rank == 2 and not f.balanced and f.kind == "rotation", k


def test_scaled_hyperbolic_killing_keeps_its_kind():
    M = hyperbolic(3)
    par = GeneralizedHopfField(1, 0.7, M).A + hyperbolic_translation(0.7, M, direction=np.eye(4)[2]).A
    for k in (1e-6, 1e6):
        assert KillingField(k * GeneralizedHopfField(1, 1.1, M).A, M).kind == "rotation", k
        assert KillingField(k * hyperbolic_translation(0.9, M).A, M).kind == "translation", k
        assert KillingField(k * par, M).kind == "parabolic", k


def test_killing_congruence_invariant_base_independent():
    # sum omega_i(w)^2 - tau(w)^2 is the same at every base point, and equals
    # half the operator pairing
    M = hyperbolic(4)
    rng = np.random.default_rng(7)
    B = rng.standard_normal((5, 5))
    A = 0.5 * (B - M.adjoint(B))
    vals = []
    for seed in range(4):
        w = M.sample_points(1, seed)[0]
        f = KillingField(A, M, base=w)
        vals.append(sum(t * t for t in f.twists) - f.tau**2)
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-8)
    assert vals[0] == pytest.approx(0.5 * lorentz_pairing(f.L, f.L, M), rel=1e-8)


def test_killing_twists_at_other_base_point():
    # rank and twists of a rotation are invariant along its axis
    M = hyperbolic(3)
    f = GeneralizedHopfField(1, 1.3, M)
    w = np.array([0.0, 0.0, np.sinh(0.8), np.cosh(0.8)])  # 0.8 along the axis direction e3 from the base point
    g = KillingField(f.A, M, base=w)
    assert g.rank == 1
    assert g.twists[0] == pytest.approx(1.3, rel=1e-10)


def test_elementary_killing():
    M = sphere(2)
    e = np.eye(3)
    assert np.allclose(elementary_killing(e[0], e[0], M).A, 0.0)
    K = elementary_killing(e[0], e[1], M)
    assert np.allclose(K.sigma(e[2]), 0.0)  # axis point
    rng = np.random.default_rng(0)
    for M2 in (sphere(3), hyperbolic(3)):
        a, b = np.eye(4)[:2]
        K2 = elementary_killing(a, b, M2)
        fa = ConformalGradientField(a, M2)
        fb = ConformalGradientField(b, M2)
        for x in M2.sample_points(10, 4):
            al, be = M2.inner(a, x), M2.inner(b, x)
            # K = alpha B - beta A pointwise, |K|^2 = alpha^2 + beta^2
            assert np.allclose(K2.sigma(x), al * fb.sigma(x) - be * fa.sigma(x), atol=1e-10)
            assert K2.sigma_sq(x) == pytest.approx(al**2 + be**2, abs=1e-12)
            # nabla_X K = <A, X> B - <B, X> A
            X = random_tangent(M2, x, rng)
            want = M2.inner(fa.sigma(x), X) * fb.sigma(x) - M2.inner(fb.sigma(x), X) * fa.sigma(x)
            assert np.allclose(K2.nabla(x, X), want, atol=1e-10)
            # <A, B> = <a, b> - eps alpha beta
            assert M2.inner(fa.sigma(x), fb.sigma(x)) == pytest.approx(
                M2.inner(a, b) - M2.eps * al * be, abs=1e-12
            )


# ---------------------------------------------------------------------------
# loxodromic fields
# ---------------------------------------------------------------------------


def test_loxodromic_spinnaker_at_vertex():
    # omega = 1, mu = -1: zeta = eps(mu + eps omega^2 - |sigma|^2) = 2 at the common zero
    M = hyperbolic(2)
    e = np.eye(3)
    f = LoxodromicField([(e[0], e[1])], [1.0], e[2], M)
    base = M.base_point()
    assert np.allclose(f.sigma(base), 0.0, atol=1e-14)
    assert f.spinnaker(base) == pytest.approx(2.0, abs=1e-14)
    assert f.properly
    # spinnaker consistency with |sigma|^2 zeta = |grad F|^2 near the vertex
    for x in M.sample_points(10, 5):
        zeta = f.spinnaker(x)
        assert f.sigma_sq(x) * zeta == pytest.approx(M.norm_sq(f.grad_F(x)), rel=1e-10)


def test_loxodromic_constructor_guards():
    M = hyperbolic(2)
    e = np.eye(3)
    with pytest.raises(ValueError):
        LoxodromicField([(e[0], e[1])], [1.0], np.zeros(3), M)  # trivial C
    with pytest.raises(ValueError):
        LoxodromicField([(e[0], e[1])], [0.0], e[2], M)  # trivial R
    with pytest.raises(ValueError):
        LoxodromicField([(e[0], e[1])], [1.0], e[0], M)  # pole not orthogonal
    with pytest.raises(ValueError):
        LoxodromicField([(e[0], 2 * e[1])], [1.0], e[2], M)  # not orthonormal


def test_loxodromic_component_orthogonality():
    # <K_i, C> = 0 pointwise, and <K_i, K_j> = delta_ij (alpha_i^2 + beta_i^2)
    e = np.eye(6)
    for M, c in ((sphere(5), 0.9 * e[4]), (hyperbolic(5), 1.2 * e[5])):
        f = LoxodromicField([(e[0], e[1]), (e[2], e[3])], [1.0, 0.5], c, M)
        for x in M.sample_points(20, 30):
            C = M.tangent_project(x, f.c)
            Ks = []
            for a, b in f.pairs:
                al, be = M.inner(a, x), M.inner(b, x)
                Ks.append((al * b - be * a, al * al + be * be))
            for i, (K, sq) in enumerate(Ks):
                assert abs(M.inner(K, C)) <= 1e-10
                for j, (K2, _) in enumerate(Ks):
                    want = sq if i == j else 0.0
                    assert M.inner(K, K2) == pytest.approx(want, abs=1e-12)


def test_loxodromic_quadratic_relation():
    # sum (alpha_i^2 + beta_i^2) + sum delta_j^2 + gamma^2/mu = eps
    e = np.eye(6)
    for M, c in ((sphere(5), 0.9 * e[4]), (hyperbolic(5), 1.2 * e[5])):
        f = LoxodromicField([(e[0], e[1]), (e[2], e[3])], [1.0, 0.5], c, M)
        mu = f.mu
        ds = [v for v in e if abs(M.inner(v, c)) < 1e-14 and all(abs(M.inner(v, u)) < 1e-14 for p in f.pairs for u in p)]
        for x in M.sample_points(20, 6):
            total = sum(M.inner(a, x) ** 2 + M.inner(b, x) ** 2 for a, b in f.pairs)
            total += sum(M.inner(d, x) ** 2 for d in ds)
            total += M.inner(f.c, x) ** 2 / mu
            assert total == pytest.approx(M.eps, abs=1e-12)


def test_properly_loxodromic_identities():
    # mu |sigma|^2 = (mu + eps omega^2)(mu - eps gamma^2); mu grad F = -eps (mu + eps omega^2) gamma C
    M = hyperbolic(2)
    e = np.eye(3)
    f = LoxodromicField([(e[0], e[1])], [0.8], 1.3 * e[2], M)
    mu, om = f.mu, 0.8
    for x in M.sample_points(20, 7):
        g = M.inner(f.c, x)
        lhs = mu * f.sigma_sq(x)
        rhs = (mu + M.eps * om**2) * (mu - M.eps * g**2)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        C = M.tangent_project(x, f.c)
        assert np.allclose(
            mu * f.grad_F(x), -M.eps * (mu + M.eps * om**2) * g * C, atol=1e-12 * (1 + abs(g))
        )


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("make", [sphere, hyperbolic])
def test_properly_loxodromic_spinnaker_beyond_the_plane(make, n):
    # r = n/2 balanced twists: zeta = eps(mu + eps omega^2 - |sigma|^2) with omega^2 = -tr(L^2)/(2r)
    M, e = make(n), np.eye(n + 1)
    f = LoxodromicField([(e[i], e[i + 1]) for i in range(0, n, 2)], [0.9] * (n // 2), 1.3 * e[n], M)
    pts = M.sample_points(200, 12)
    err = spinnaker_error(ingredients(f, pts), f.spinnaker(pts))
    assert f.properly and err is not None and err.max() < 1e-12


def test_associate_family_member():
    f = associate_family_member(math.pi / 4)
    assert f.omegas[0] == pytest.approx(math.sin(math.pi / 4))
    assert f.mu == pytest.approx(-math.cos(math.pi / 4) ** 2)
    assert f.omegas[0] ** 2 - f.mu == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        associate_family_member(0.0)


# ---------------------------------------------------------------------------
# dipole deformation fields
# ---------------------------------------------------------------------------


def test_dipole_zero_at_w():
    M = sphere(3)
    w = np.array([0.0, 0.0, 0.0, 1.0])
    a = np.array([1.0, 0.0, 0.0, 0.0])
    f = DipoleDeformationField(w, a, 1.4, 1.4, M)  # r = tau on S^n: point dipole
    assert np.allclose(f.sigma(w), 0.0, atol=1e-14)
    assert f.sigma_sq(w) == pytest.approx(0.0, abs=1e-14)


def test_dipole_tau_zero_is_scaled_conformal():
    for M in (sphere(3), hyperbolic(3)):
        w = M.base_point()
        a = np.eye(4)[0]
        r = 0.75
        dip = DipoleDeformationField(w, a, 0.0, r, M)
        conf = ConformalGradientField(r * a, M)
        for x in M.sample_points(10, 8):
            assert np.allclose(dip.sigma(x), conf.sigma(x), atol=1e-13)
            assert np.allclose(dip.grad_F(x), conf.grad_F(x), atol=1e-13)
            assert dip.lap_F(x) == pytest.approx(conf.lap_F(x), rel=1e-12)
            assert dip.spinnaker(x) == pytest.approx(conf.spinnaker(x), abs=1e-12)


def test_dipole_hyperbolic_length():
    M = hyperbolic(2)
    f = DipoleDeformationField(M.base_point(), [1.0, 0.0, 0.0], 1.0, 1.0, M)
    for x in M.sample_points(10, 9):
        psi = M.inner(f.w, x)
        assert f.sigma_sq(x) == pytest.approx((psi - 1.0) ** 2, rel=1e-12)


def test_dipole_radial_derivative_identity():
    # nabla_{grad F} sigma = ((r^2 - tau^2) alpha^2 + eps tau^2 (1 - psi^2)) sigma, any n
    for M in (sphere(4), hyperbolic(4)):
        f = DipoleDeformationField(M.base_point(), np.eye(5)[0], 1.3, 0.6, M)
        for x in M.sample_points(10, 10):
            al, ps = M.inner(f.a, x), M.inner(f.w, x)
            coef = (0.6**2 - 1.3**2) * al**2 + M.eps * 1.3**2 * (1 - ps**2)
            assert np.allclose(f.nabla(x, f.grad_F(x)), coef * f.sigma(x), atol=1e-10)


def test_dipole_spinnaker_in_every_dimension():
    # |sigma|^2 zeta = |grad F|^2 with tau != 0 != r beyond dimension two
    for M in (sphere(3), hyperbolic(4), sphere(5)):
        f = DipoleDeformationField(M.base_point(), np.eye(M.ambient_dim)[0], 1.3, 0.6, M)
        pts = M.sample_points(50, 11)
        err = spinnaker_error(ingredients(f, pts), f.spinnaker(pts))
        assert err is not None and err.max() < 1e-12


def test_dipole_guards():
    M = sphere(2)
    with pytest.raises(ValueError):
        DipoleDeformationField(M.base_point(), [2.0, 0.0, 0.0], 1.0, 1.0, M)  # not unit
    with pytest.raises(ValueError):
        DipoleDeformationField(M.base_point(), [0.0, 0.0, 1.0], 1.0, 1.0, M)  # not tangent


# ---------------------------------------------------------------------------
# conformal fields on M^2
# ---------------------------------------------------------------------------


def test_conformal2d_matches_killing_analysis():
    M = hyperbolic(2)
    f = Conformal2DField(M, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0)  # pure rotation sigma_0
    k = GeneralizedHopfField(1, 1.0, M)
    for x in M.sample_points(15, 11):
        assert np.allclose(f.sigma(x), k.sigma(x), atol=1e-13)
        assert f.sigma_sq(x) == pytest.approx(k.sigma_sq(x), rel=1e-12)
        assert np.allclose(f.grad_F(x), k.grad_F(x), atol=1e-12)
        assert f.lap_F(x) == pytest.approx(k.lap_F(x), rel=1e-12)
        assert f.spinnaker(x) == pytest.approx(k.spinnaker(x), rel=1e-12)


def test_conformal2d_reduces_to_conformal_gradient():
    for M in (sphere(2), hyperbolic(2)):
        f = Conformal2DField(M, 0.0, 0.0, 0.7, 0.6, 0.8, 0.4)
        c = ConformalGradientField(f.c, M)
        for x in M.sample_points(15, 12):
            assert np.allclose(f.sigma(x), c.sigma(x), atol=1e-13)
            assert np.allclose(f.grad_F(x), c.grad_F(x), atol=1e-12)
            assert f.spinnaker(x) == pytest.approx(c.spinnaker(x), abs=1e-12)
            assert f.lap_F(x) == pytest.approx(c.lap_F(x), rel=1e-12)


def test_conformal2d_vertex_spinnaker_and_orbit_invariance():
    M = hyperbolic(2)
    w = M.base_point()
    om, h = 0.6, 0.8
    f = Conformal2DField(M, om, 0.0, 0.0, 0.0, 1.0, h)
    assert np.allclose(f.sigma(w), 0.0, atol=1e-14)
    assert f.spinnaker(w) == pytest.approx(om**2 + h**2, rel=1e-14)
    for t in np.linspace(0.3, 5.9, 7):
        g = f.circle_action(t)
        assert np.allclose(g.sigma(w), 0.0, atol=1e-13)
        assert g.spinnaker(w) == pytest.approx(om**2 + h**2, rel=1e-12)


def test_conformal2d_guards():
    with pytest.raises(ValueError):
        Conformal2DField(hyperbolic(3), 1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        Conformal2DField(sphere(2), 1.0, 0.5, 0.0, 0.0, 1.0, 0.0)  # tau != 0 on S^2
    with pytest.raises(ValueError):
        Conformal2DField(hyperbolic(2), 1.0, 0.0, 1.0, 0.5, 0.5, 0.0)  # s^2+t^2 != 1


def test_circle_action_endpoints():
    M = hyperbolic(2)
    f = Conformal2DField(M, 0.8, 0.3, 0.5, 0.6, 0.8, 1.1)
    pts = M.sample_points(10, 13)
    f0 = f.circle_action(0.0)
    fpi = f.circle_action(math.pi)
    for x in pts:
        assert np.allclose(f0.sigma(x), f.sigma(x), atol=1e-12)
        assert np.allclose(fpi.sigma(x), -f.sigma(x), atol=1e-12)


def test_circle_action_keeps_a_tiny_field():
    # the canonical form's zero tests are relative to the field, so a 1e-13 field keeps its translation and pole
    f = scale_field(Conformal2DField(hyperbolic(2), 0.8, 0.3, 0.5, 0.6, 0.8, 1.1), 1e-13)
    g = f.circle_action(0.0)
    assert np.abs(g.L - f.L).max() <= 1e-12 * np.abs(f.L).max()
    assert np.abs(g.c - f.c).max() <= 1e-12 * np.abs(f.c).max()


def test_tiny_fields_keep_their_rough_laplacian_eigenvalue():
    M = sphere(3)
    dipole = DipoleDeformationField(M.base_point(), np.eye(4)[0], 1.3, 0.6, M)
    quad = quadratic_two_eigenvalue(3, 1.0, sphere(5))
    assert (dipole.nu, quad.nu) == (None, 8.0)
    assert scale_field(dipole, 1e-13).nu is None
    assert scale_field(quad, 1e-12).nu == 8.0
    assert scale_field(quad, 0.0).nu == 0.0  # the zero field


def test_circle_action_pointwise_rotation():
    M = hyperbolic(2)
    f = Conformal2DField(M, 0.8, 0.3, 0.5, 0.6, 0.8, 1.1)
    t = 1.234
    g = f.circle_action(t)
    for x in M.sample_points(10, 14):
        want = math.cos(t) * f.sigma(x) + math.sin(t) * M.complex_rotation(x, f.sigma(x))
        assert np.allclose(g.sigma(x), want, atol=1e-11)


def test_circle_action_conjugate_pair():
    # J applied to the conformal gradient sigma_1 gives -sigma_0
    M = hyperbolic(2)
    s1 = Conformal2DField(M, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0)
    s0 = GeneralizedHopfField(1, 1.0, M)
    rot = s1.circle_action(math.pi / 2)
    for x in M.sample_points(10, 15):
        assert np.allclose(rot.sigma(x), -s0.sigma(x), atol=1e-13)


def test_circle_action_in_moved_and_mirrored_frames():
    # the rotation acts through the global complex structure, independent of
    # the frame carried by the field (including orientation-reversed frames)
    M = hyperbolic(2)
    base = Conformal2DField(M, 0.8, 0.3, 0.5, 0.6, 0.8, 1.1)
    rng = np.random.default_rng(6)
    g = M.random_isometry(rng)
    swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])  # frame (b, a, w): orientation reversed
    mirrored = Conformal2DField(M, base.omega, 0.0, base.rr, base.s, base.t, base.h).transform(swap)
    assert np.array_equal(mirrored.a, base.b) and np.array_equal(mirrored.b, base.a)
    t = 0.9
    for f in (base.transform(g), mirrored):
        rotated = f.circle_action(t)
        for x in M.sample_points(10, 26):
            want = math.cos(t) * f.sigma(x) + math.sin(t) * M.complex_rotation(x, f.sigma(x))
            assert np.allclose(rotated.sigma(x), want, atol=1e-10)


def test_circle_action_spherical_rejected():
    f = Conformal2DField(sphere(2), 1.0, 0.0, 0.0, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        f.circle_action(0.3)
    with pytest.raises(ValueError):
        ConformalGradientField([1.0, 0, 0, 0], sphere(3)).circle_action(0.3)


def _planar_conformal_fields():
    """sigma_0, sigma_1, a dipole, a loop member and a field with tau != 0 on H^2,
    each as built and moved by a random isometry."""
    M = hyperbolic(2)
    e = np.eye(3)
    built = [
        GeneralizedHopfField(1, 1.0, M),  # sigma_0
        ConformalGradientField(e[2], M),  # sigma_1
        DipoleDeformationField(e[2], e[0], 0.7, 1.3, M),
        associate_family_member(0.6),
        Conformal2DField(M, 0.8, 0.3, 0.5, 0.6, 0.8, 1.1),
    ]
    rng = np.random.default_rng(31)
    return built + [f.transform(M.random_isometry(rng)) for f in built]


@pytest.mark.parametrize("index", range(10))
def test_circle_action_of_every_conformal_field(index):
    # one linear map on (L, c) for every family: pointwise it is the complex
    # rotation, and it is a group action
    f = _planar_conformal_fields()[index]
    M = f.space
    pts = M.sample_points(20, 32)
    s = f.sigma(pts)
    size = max(1.0, np.abs(s).max())
    op_size = max(1.0, np.abs(f.L).max(), np.abs(f.c).max())
    for t in (0.4, 1.9, -2.7):
        g = f.circle_action(t)
        want = math.cos(t) * s + math.sin(t) * M.complex_rotation(pts, s)
        assert np.abs(g.sigma(pts) - want).max() <= 1e-11 * size
        for b in (0.8, -1.3):
            gb, direct = g.circle_action(b), f.circle_action(t + b)
            assert np.abs(gb.L - direct.L).max() <= 1e-12 * op_size
            assert np.abs(gb.c - direct.c).max() <= 1e-12 * op_size


def test_circle_action_turns_sigma_1_into_the_loop():
    M = hyperbolic(2)
    sigma_1 = ConformalGradientField([0.0, 0.0, 1.0], M)
    for s in (math.pi / 6, math.pi / 4, math.pi / 3):
        g, member = sigma_1.circle_action(-s), associate_family_member(s)
        assert np.allclose(g.L, member.L, rtol=0, atol=1e-15)
        assert np.allclose(g.c, member.c, rtol=0, atol=1e-15)


def test_circle_orbits_of_sigma_0_and_sigma_1_are_harmonic():
    M = hyperbolic(2)
    for f in (GeneralizedHopfField(1, 1.0, M), ConformalGradientField([0.0, 0.0, 1.0], M)):
        for t in np.linspace(0.0, 2 * math.pi, 9, endpoint=False):
            g = f.circle_action(t)
            assert verify(g, MetricParams(3.0, -0.5), count=40, seed=33).harmonic
            assert not verify(g, MetricParams(3.0, -0.45), count=40, seed=33).harmonic


@pytest.fixture
def affine_inits(monkeypatch):
    """The (L, c) of every AffineField.__init__ run made while the test runs."""
    calls, init = [], AffineField.__init__
    monkeypatch.setattr(AffineField, "__init__", lambda self, L, c, space: calls.append((L, c)) or init(self, L, c, space))
    return calls


@pytest.mark.parametrize("index", range(10))
def test_circle_action_builds_its_field_once(index, affine_inits):
    # from_operator checks the canonical parameters and builds on (L, c) once: its field is the one the
    # constructor and a rebuild on the same (L, c) give, attribute for attribute and bit for bit
    f = _planar_conformal_fields()[index]
    for t in (0.4, 1.9, -2.7):
        affine_inits.clear()
        turned = f.circle_action(t)
        assert len(affine_inits) == 1
        for L, c in ((f.L, f.c), (turned.L, turned.c)):
            g = Conformal2DField.from_operator(f.space, L, c)
            two_step = Conformal2DField(f.space, g.omega, g.tau, g.rr, g.s, g.t, g.h)._with(L, c, a=g.a, b=g.b)
            assert vars(g).keys() == vars(two_step).keys()
            for name, value in vars(g).items():
                other = vars(two_step)[name]
                same = value.tobytes() == other.tobytes() if isinstance(value, np.ndarray) else repr(value) == repr(other)
                assert type(value) is type(other) and same, name


def test_circle_action_needs_a_conformal_field():
    f = AffineField(np.diag([1.0, 2.0, 3.0]), np.zeros(3), hyperbolic(2))
    with pytest.raises(ValueError):
        f.circle_action(0.3)


# ---------------------------------------------------------------------------
# quadratic gradient fields
# ---------------------------------------------------------------------------


def test_quadratic_trivial_and_zero_set():
    M = sphere(3)
    f = QuadraticGradientField(np.eye(4), M)
    for x in M.sample_points(10, 16):
        assert np.allclose(f.sigma(x), 0.0, atol=1e-14)
    g = QuadraticGradientField(np.diag([3.0, 2.0, 1.0, 0.5]), M)
    for i in range(4):
        assert np.allclose(g.sigma(np.eye(4)[i]), 0.0, atol=1e-14)


def test_quadratic_midpoint_speed():
    lam = [3.0, 2.0, 1.0, 0.5]
    f = QuadraticGradientField(np.diag(lam), sphere(3))
    e = np.eye(4)
    for i in range(4):
        for j in range(i + 1, 4):
            x = (e[i] + e[j]) / math.sqrt(2.0)
            assert f.sigma_sq(x) == pytest.approx(0.25 * (lam[i] - lam[j]) ** 2, rel=1e-12)


def test_quadratic_power_inner_products():
    # <sigma_k, sigma_m> = xi_{k+m} - xi_k xi_m
    f = QuadraticGradientField(np.diag([2.0, 1.0, -0.5, 0.3]), sphere(3))
    M = f.space

    def sigma_m(x, m):  # Q^m x - xi_m(x) x; sigma_1 = sigma
        return x @ np.linalg.matrix_power(f.L, m) - f.xi(x, m) * x

    for x in M.sample_points(10, 17):
        for k, m in ((1, 1), (1, 2)):
            lhs = M.inner(sigma_m(x, k), sigma_m(x, m))
            rhs = f.xi(x, k + m) - f.xi(x, k) * f.xi(x, m)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_quadratic_conformal_expansion_relation():
    # sum_i alpha_i A_i = 0 for the eigenbasis conformal gradients
    M = sphere(4)
    f = QuadraticGradientField(np.diag([2.0, 1.0, 1.0, -0.5, 0.3]), M)
    e = np.eye(5)
    for x in M.sample_points(20, 18):
        total = np.zeros(5)
        for i in range(5):
            al = M.inner(e[i], x)
            total += al * (e[i] - al * x)
        assert np.abs(total).max() <= 1e-12


def test_quadratic_radial_derivative_closed_form():
    f = QuadraticGradientField(np.diag([2.0, 1.0, -0.5, 0.3, 0.0]), sphere(4))
    M = f.space
    rng = np.random.default_rng(1)
    for x in M.sample_points(10, 19):
        # nabla_X sigma = P_x(Q X) - xi X, at X = grad F
        gF = f.grad_F(x)
        want = M.tangent_project(x, f.L @ gF) - f.xi(x) * gF
        assert np.allclose(f.nabla(x, gF), want, atol=1e-11)


def test_quadratic_two_eigenvalue_spinnaker():
    # the paper's zeta = (lambda - 2 <Q x, x>)^2, with <Q x, x> of the given Q (f.xi reads the normal form of Q)
    f = quadratic_two_eigenvalue(3, 1.7, sphere(5))
    M = f.space
    Q = np.diag([1.7, 1.7, 1.7, 0.0, 0.0, 0.0])
    for x in M.sample_points(10, 20):
        assert f.spinnaker(x) == pytest.approx((1.7 - 2 * (Q @ x) @ x) ** 2, rel=1e-12)
    g = QuadraticGradientField(np.diag([3.0, 2.0, 1.0, 0.5, 0.1, 0.0]), sphere(5))
    assert g.spinnaker(M.sample_points(1, 0)[0]) is None


def test_quadratic_guards():
    with pytest.raises(ValueError):
        QuadraticGradientField(np.eye(4), hyperbolic(3))
    bad = np.eye(4)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        QuadraticGradientField(bad, sphere(3))


# ---------------------------------------------------------------------------
# cross-family invariants
# ---------------------------------------------------------------------------


def test_tangency_everywhere():
    for f in sample_fields():
        M = f.space
        for x in M.sample_points(200, 21):
            s = f.sigma(x)
            assert abs(M.inner(s, x)) <= TANGENT_TOL * (1.0 + M.norm(s))


def test_closed_form_length_and_gradient():
    rng = np.random.default_rng(2)
    for f in sample_fields():
        M = f.space
        for x in M.sample_points(25, 22):
            s_sq = M.norm_sq(f.sigma(x))
            assert f.sigma_sq(x) == pytest.approx(s_sq, abs=1e-12 * (1 + s_sq))
            assert f.F(x) == pytest.approx(0.5 * s_sq, abs=1e-12 * (1 + s_sq))
            # grad F is the metric dual of dF: <grad F, X> = <nabla_X sigma, sigma>
            X = random_tangent(M, x, rng)
            assert M.inner(f.grad_F(x), X) == pytest.approx(
                M.inner(f.nabla(x, X), f.sigma(x)), abs=1e-10 * (1 + s_sq)
            )
            # tangency of sigma, grad F and the rough Laplacian
            for v in (f.sigma(x), f.grad_F(x), f.rough_laplacian(x)):
                assert abs(M.inner(v, x)) <= TANGENT_TOL * (1.0 + M.norm(v))


def test_scale_field_consistency():
    base = ConformalGradientField([0.0, 0.0, 0.0, 1.2], sphere(3))
    f = scale_field(base, -2.0)
    M = f.space
    for x in M.sample_points(5, 24):
        assert np.allclose(f.sigma(x), -2.0 * base.sigma(x))
        assert f.sigma_sq(x) == pytest.approx(4.0 * base.sigma_sq(x), rel=1e-14)
        assert f.spinnaker(x) == pytest.approx(4.0 * base.spinnaker(x), rel=1e-14)
    assert scale_field(f, -0.5).scale_factor == 1.0


def test_transform_moves_field_correctly():
    rng = np.random.default_rng(4)
    for f in sample_fields():
        M = f.space
        g = M.random_isometry(rng)
        moved = f.transform(g)
        for x in M.sample_points(5, 25):
            gx = M.normalize_point(g @ x)
            assert np.allclose(moved.sigma(gx), g @ f.sigma(x), atol=1e-9)


def test_build_field_families():
    docs = [
        {"family": "confgrad", "n": 3, "epsilon": 1, "mu": 1.0},
        {"family": "confgrad", "n": 3, "epsilon": -1, "mu": -1.0},
        {"family": "confgrad", "n": 2, "epsilon": -1, "mu": 0.0},
        {"family": "killing", "n": 4, "epsilon": 1, "r": 2, "omega": 0.9},
        {"family": "killing", "n": 3, "epsilon": -1, "tau": 1.0},
        {"family": "killing", "n": 4, "epsilon": 1, "twists": [1.0, 2.0]},
        {"family": "loxodromic", "n": 2, "epsilon": -1, "omega": 1.0, "mu": -1.0},
        {"family": "loxodromic", "n": 3, "epsilon": 1, "omega": 1.0, "mu": 0.5, "r": 1},
        {"family": "dipole", "n": 3, "epsilon": 1, "tau": 1.0, "r": 1.0},
        {"family": "conformal2d", "n": 2, "epsilon": -1, "omega": 1.0, "h": 0.5},
        {"family": "quadratic", "n": 5, "epsilon": 1, "r": 3, "lam": 1.7},
        {"family": "quadratic", "n": 3, "epsilon": 1, "eigenvalues": [1.0, 2.0, 3.0, 4.0]},
        {"family": "confgrad", "n": 3, "epsilon": 1, "mu": 1.0, "scale": 2.0},
    ]
    for doc in docs:
        f = build_field(doc)
        x = f.space.sample_points(1, 0)[0]
        assert f.sigma(x).shape == (f.space.ambient_dim,)


def test_build_field_errors():
    with pytest.raises(ValueError):
        build_field({"family": "nope", "n": 2, "epsilon": 1})
    with pytest.raises(ValueError):
        build_field({"family": "confgrad", "n": 3, "epsilon": 1})  # missing mu/pole
    with pytest.raises(ValueError):
        build_field({"family": "confgrad", "n": 3, "epsilon": 1, "mu": 1.0, "bogus": 2})
    with pytest.raises(ValueError):
        build_field({"family": "confgrad", "n": 3, "epsilon": 1, "mu": -1.0})  # mu<0 on S^n


# ---------------------------------------------------------------------------
# batches of points
# ---------------------------------------------------------------------------


def _batch_fields():
    from hvf.solvers import harmonic_catalogue

    return sample_fields() + [entry.field for entry in harmonic_catalogue()]


def assert_batch_equals_rows(fn, batch, rel=1e-12):
    """fn on an (N, m) batch equals the stack of fn on its rows, to rel relative."""
    got = np.asarray(fn(batch))
    rows = np.array([fn(x) for x in batch])
    assert got.shape == rows.shape
    assert np.all(np.abs(got - rows) <= rel * (1.0 + np.abs(rows)))


def random_tangent(M, x, rng):
    """A random unit tangent vector of M at the point x."""
    v = M.tangent_project(x, rng.standard_normal(M.ambient_dim))
    return v / M.norm(v)


def nabla_fd(M, field, x, X):
    """The oracle's nabla_X sigma: its frame rows contracted with X, sum_i <X, E_i> nabla_{E_i} sigma."""
    D = M.derivatives_fd(field, x)[1]
    return (M.inner(M.frame(x), as_vector(X)[..., None, :])[..., None] * D).sum(axis=-2)


def random_frame(M, x, rng):
    """A random orthonormal tangent frame of M at x: M.frame(x) turned by a random orthogonal matrix."""
    return np.linalg.qr(rng.standard_normal((M.n, M.n)))[0] @ M.frame(x)


@pytest.mark.parametrize("size", ["m", 7])
def test_closed_forms_batch_equals_rows(size):
    rng = np.random.default_rng(40)
    for f in _batch_fields():
        M = f.space
        pts = M.sample_points(M.ambient_dim if size == "m" else size, 41)
        tangents = M.tangent_project(pts, rng.standard_normal(pts.shape))
        names = ["sigma", "sigma_sq", "F", "grad_F", "nabla_norm_sq", "lap_F", "rough_laplacian"]
        for name in names:
            assert_batch_equals_rows(getattr(f, name), pts)
        got = f.nabla(pts, tangents)
        rows = np.array([f.nabla(x, X) for x, X in zip(pts, tangents)])
        assert np.all(np.abs(got - rows) <= 1e-12 * (1.0 + np.abs(rows)))
        if f.spinnaker(pts[0]) is None:
            assert f.spinnaker(pts) is None
        else:
            assert_batch_equals_rows(f.spinnaker, pts)
        if isinstance(f, QuadraticGradientField):
            for k in (1, 2):
                assert_batch_equals_rows(lambda y: f.xi(y, k), pts)


@pytest.mark.parametrize("M", [sphere(2), sphere(5), hyperbolic(2), hyperbolic(6)], ids=str)
def test_sample_points_prefix(M):
    full = M.sample_points(40, 3)
    assert full.shape == (40, M.ambient_dim)
    for k in (1, 7, 39):
        assert np.array_equal(M.sample_points(k, 3), full[:k])
