"""Closed-form derivatives against the finite-difference oracle, per family."""

import numpy as np
import pytest

from hvf.fields import AffineField, scale_field
from hvf.params import HARMONIC_TOL, MetricParams
from hvf.solvers import harmonic_catalogue
from hvf.spaceform import hyperbolic, sphere
from hvf.tension import ingredients, verify, weitzenbock_error
from test_fields import TANGENT_TOL, _batch_fields, assert_batch_equals_rows, nabla_fd, random_tangent, sample_fields

ORACLE_TOL = 1e-10  # the oracle is exact for the cubic sigma: its rows agree with the closed forms to rounding
GRADF_TOL = 1e-5  # grad F against a central difference of F along the line x +- h E, h = 1e-4


def _rel(err, scale):
    return err / (1.0 + scale)


@pytest.mark.parametrize("field", sample_fields(), ids=lambda f: f.family + str(f.space.n))
def test_covariant_derivative_agreement(field):
    M = field.space
    rng = np.random.default_rng(0)
    for x in M.sample_points(15, 1):
        X = random_tangent(M, x, rng)
        fd = nabla_fd(M, field, x, X)
        exact = field.nabla(x, X)
        assert _rel(M.norm(fd - exact), M.norm(exact)) < ORACLE_TOL


def _EF_fd(field, x, E, h=1e-4):
    """E F at x by a central difference along the ambient line x + t E; E is tangent, so this is E F."""
    return (field.F(x + h * E) - field.F(x - h * E)) / (2 * h)


@pytest.mark.parametrize("field", sample_fields(), ids=lambda f: f.family + str(f.space.n))
def test_grad_F_agreement(field):
    M = field.space
    for x in M.sample_points(15, 2):
        gF = field.grad_F(x)
        for E in M.frame(x):
            fd = _EF_fd(field, x, E)
            assert _rel(abs(M.inner(gF, E) - fd), abs(fd)) < GRADF_TOL


@pytest.mark.parametrize("field", sample_fields(), ids=lambda f: f.family + str(f.space.n))
def test_rough_laplacian_agreement(field):
    M = field.space
    for x in M.sample_points(15, 3):
        fd = M.derivatives_fd(field, x)[2]
        exact = field.rough_laplacian(x)
        assert _rel(M.norm(fd - exact), M.norm(exact)) < ORACLE_TOL


@pytest.mark.parametrize("field", sample_fields(), ids=lambda f: f.family + str(f.space.n))
def test_lap_F_agreement(field):
    M = field.space
    for x in M.sample_points(15, 4):
        fd = M.derivatives_fd(field, x)[3]
        assert _rel(abs(fd - field.lap_F(x)), abs(fd)) < ORACLE_TOL


@pytest.mark.parametrize(
    "space",
    [sphere(2), sphere(4), hyperbolic(2), hyperbolic(3), hyperbolic(5)],
    ids=lambda M: ("S" if M.eps == 1 else "H") + str(M.n),
)
def test_general_affine_field_against_oracle(space):
    """Random (L, c) with every part present: the closed forms agree with the oracle."""
    M = space
    m = M.ambient_dim
    rng = np.random.default_rng(100 + m)
    field = AffineField(rng.standard_normal((m, m)), rng.standard_normal(m), M)
    for x in M.sample_points(10, 5):
        s = field.sigma(x)
        assert abs(M.inner(s, x)) <= TANGENT_TOL * (1.0 + M.norm(s))
        X = random_tangent(M, x, rng)
        exact = field.nabla(x, X)
        fd = nabla_fd(M, field, x, X)
        assert _rel(M.norm(fd - exact), M.norm(exact)) < ORACLE_TOL
        gF = field.grad_F(x)
        for E in M.frame(x):
            fd = _EF_fd(field, x, E)
            assert _rel(abs(M.inner(gF, E) - fd), abs(fd)) < GRADF_TOL
        rough_fd, lap_fd = M.derivatives_fd(field, x)[2:]
        assert _rel(abs(lap_fd - field.lap_F(x)), abs(lap_fd)) < ORACLE_TOL
        exact = field.rough_laplacian(x)
        assert _rel(M.norm(rough_fd - exact), M.norm(exact)) < ORACLE_TOL
        assert weitzenbock_error(ingredients(field, x)) < 1e-10


@pytest.mark.parametrize("size", ["m", 7])
def test_fd_oracle_batch_equals_rows(size):
    """The frame, the oracle and ingredients(fd=True) on a batch equal the stack of their rows."""
    for f in _batch_fields():
        M = f.space
        pts = M.sample_points(M.ambient_dim if size == "m" else size, 61)
        assert_batch_equals_rows(M.frame, pts)
        for k in range(4):  # sigma, the rows nabla_{E_i} sigma, the rough Laplacian, Delta F
            assert_batch_equals_rows(lambda y: M.derivatives_fd(f, y)[k], pts)
        batch, per_row = ingredients(f, pts, fd=True), [ingredients(f, x, fd=True) for x in pts]
        for name in ("sigma", "sigma_sq", "rough", "nabla_gradF_sigma", "nabla_sq", "gradF_sq", "lap_F"):
            want = np.array([getattr(r, name) for r in per_row])
            assert getattr(batch, name).shape == want.shape
            assert np.all(np.abs(getattr(batch, name) - want) <= 1e-12 * (1.0 + np.abs(want))), name


def test_fd_ingredients_evaluate_sigma_once_per_stencil(monkeypatch):
    """ingredients(fd=True) evaluates sigma on N(1 + 3(n+1)) points in two calls.

    The oracle takes sigma at x once and on one stencil of 3 points along each
    of the n + 1 directions (the frame and the ray) per sample, and every
    derivative comes from those values.
    """
    sizes = []
    sigma = AffineField.sigma

    def counted(self, x):
        sizes.append(np.asarray(x).size // self.space.ambient_dim)
        return sigma(self, x)

    monkeypatch.setattr(AffineField, "sigma", counted)
    for f in _batch_fields():
        M, N = f.space, 7
        pts = M.sample_points(N, 70)
        sizes.clear()
        ingredients(f, pts, fd=True)
        assert sum(sizes) == N * (1 + 3 * (M.n + 1)), f.family
        assert len(sizes) == 2, f.family


def _refuted_variants(entry):
    """q +- 0.05, or x2 for constant-length (Hopf) fields, which are (2, q)-harmonic for every q."""
    if entry.constant_length:
        return [(scale_field(entry.field, 2.0), entry.mp)]
    return [(entry.field, MetricParams(entry.mp.p, entry.mp.q + dq)) for dq in (0.05, -0.05)]


@pytest.mark.parametrize("entry", harmonic_catalogue(), ids=lambda e: e.label)
def test_fd_verify_confirms_and_refutes_the_catalogue(entry):
    """At its default tol, HARMONIC_TOL, the oracle confirms every entry 1000 times inside it and refutes each variant."""
    rep = verify(entry.field, entry.mp, count=200, fd=True)
    assert rep.tol == HARMONIC_TOL and rep.harmonic
    assert rep.max_rel_residual <= HARMONIC_TOL / 1000
    for field, mp in _refuted_variants(entry):
        assert not verify(field, mp, count=200, fd=True).harmonic


@pytest.mark.parametrize("entry", harmonic_catalogue(), ids=lambda e: e.label)
def test_fd_residuals_agree_with_the_closed_form_per_point(entry):
    """Each sample's FD residual is the closed-form one to 1e-10 of its scale, harmonic or refuted (q + 0.05)."""
    for mp in (entry.mp, MetricParams(entry.mp.p, entry.mp.q + 0.05)):
        cf, fd = verify(entry.field, mp, count=200), verify(entry.field, mp, count=200, fd=True)
        assert np.all(np.abs(fd.residuals - cf.residuals) <= 1e-10 * cf.scales), entry.label


def _field_classes(cls=AffineField):
    return {cls}.union(*(_field_classes(sub) for sub in cls.__subclasses__()))


@pytest.mark.parametrize("field", _batch_fields(), ids=lambda f: f"{f.family}{f.space.n}")
def test_sigma_is_a_cubic_along_ambient_lines(field):
    """The oracle's premise: t -> sigma(x + t v) is a cubic, so its fourth difference is rounding."""
    M, m = field.space, field.space.ambient_dim
    rng = np.random.default_rng(80 + m)
    x = M.sample_points(20, 81)
    v = rng.standard_normal(x.shape) * np.linalg.norm(x, axis=-1, keepdims=True) / np.sqrt(m)
    t = np.arange(-2.0, 3.0)[:, None, None]
    f = field.sigma(x + t * v)  # (5, N, m)
    fourth = f[0] - 4.0 * f[1] + 6.0 * f[2] - 4.0 * f[3] + f[4]
    top = np.abs(f).max(axis=(0, 2))
    assert np.all(np.abs(fourth).max(axis=-1) <= 1e-12 * top)


def test_every_field_evaluates_the_one_sigma():
    """No family overrides sigma or _parts, so the cubic of AffineField is what the oracle differentiates."""
    classes = _field_classes()
    assert {type(f) for f in _batch_fields()} <= classes
    for cls in classes:
        assert cls.sigma is AffineField.sigma and cls._parts is AffineField._parts, cls.__name__
