"""Closed-form derivatives against the finite-difference oracle, per family."""

import numpy as np
import pytest

from hvf.fields import AffineField
from hvf.spaceform import hyperbolic, sphere
from hvf.tension import ingredients, weitzenbock_error
from test_fields import TANGENT_TOL, _batch_fields, assert_batch_equals_rows, random_tangent, sample_fields

COV_TOL = 1e-5
GRADF_TOL = 1e-5
LAPF_TOL = 1e-3
ROUGH_TOL = 1e-3


def _rel(err, scale):
    return err / (1.0 + scale)


@pytest.mark.parametrize("field", sample_fields(), ids=lambda f: f.family + str(f.space.n))
def test_covariant_derivative_agreement(field):
    M = field.space
    rng = np.random.default_rng(0)
    for x in M.sample_points(15, 1):
        X = random_tangent(M, x, rng)
        fd = M.covariant_derivative_fd(field, x, X, 1e-4)
        exact = field.nabla(x, X)
        assert _rel(M.norm(fd - exact), M.norm(exact)) < COV_TOL


@pytest.mark.parametrize("field", sample_fields(), ids=lambda f: f.family + str(f.space.n))
def test_grad_F_agreement(field):
    M = field.space
    h = 1e-4
    for x in M.sample_points(15, 2):
        gF = field.grad_F(x)
        for E in M.frame(x):
            fd = (
                field.F(M.geodesic(x, E, h)) - field.F(M.geodesic(x, E, -h))
            ) / (2 * h)
            assert _rel(abs(M.inner(gF, E) - fd), abs(fd)) < GRADF_TOL


@pytest.mark.parametrize("field", sample_fields(), ids=lambda f: f.family + str(f.space.n))
def test_rough_laplacian_agreement(field):
    M = field.space
    for x in M.sample_points(15, 3):
        fd = M.laplacians_fd(field, x, 1e-3)[0]
        exact = field.rough_laplacian(x)
        assert _rel(M.norm(fd - exact), M.norm(exact)) < ROUGH_TOL


@pytest.mark.parametrize("field", sample_fields(), ids=lambda f: f.family + str(f.space.n))
def test_lap_F_agreement(field):
    M = field.space
    for x in M.sample_points(15, 4):
        fd = M.laplacians_fd(field, x, 1e-3)[1]
        assert _rel(abs(fd - field.lap_F(x)), abs(fd)) < LAPF_TOL


def test_second_order_convergence_rate():
    """Halving h divides the finite-difference error by ~4."""
    from hvf.fields import ConformalGradientField
    from hvf.spaceform import hyperbolic

    M = hyperbolic(3)
    f = ConformalGradientField([0.8, 0.0, 0.0, 1.3], M)
    pts = M.sample_points(5, 17)

    def cov_err(h):
        total = 0.0
        for x in pts:
            X = random_tangent(M, x, np.random.default_rng(4))
            total += M.norm(M.covariant_derivative_fd(f, x, X, h) - f.nabla(x, X))
        return total

    def rough_err(h):
        return sum(M.norm(M.laplacians_fd(f, x, h)[0] - f.rough_laplacian(x)) for x in pts)

    assert 3.5 < cov_err(2e-4) / cov_err(1e-4) < 4.5
    assert 3.5 < rough_err(2e-3) / rough_err(1e-3) < 4.5
    # error decreases with h until the roundoff floor
    assert rough_err(1e-3) < rough_err(4e-3)


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
    h = 1e-4
    for x in M.sample_points(10, 5):
        s = field.sigma(x)
        assert abs(M.inner(s, x)) <= TANGENT_TOL * (1.0 + M.norm(s))
        X = random_tangent(M, x, rng)
        exact = field.nabla(x, X)
        fd = M.covariant_derivative_fd(field, x, X, h)
        assert _rel(M.norm(fd - exact), M.norm(exact)) < COV_TOL
        gF = field.grad_F(x)
        for E in M.frame(x):
            fd = (field.F(M.geodesic(x, E, h)) - field.F(M.geodesic(x, E, -h))) / (2 * h)
            assert _rel(abs(M.inner(gF, E) - fd), abs(fd)) < GRADF_TOL
        rough_fd, lap_fd = M.laplacians_fd(field, x, 1e-3)
        assert _rel(abs(lap_fd - field.lap_F(x)), abs(lap_fd)) < LAPF_TOL
        exact = field.rough_laplacian(x)
        assert _rel(M.norm(rough_fd - exact), M.norm(exact)) < ROUGH_TOL
        assert weitzenbock_error(ingredients(field, x)) < 1e-10


@pytest.mark.parametrize("size", ["m", 7])
def test_fd_oracle_batch_equals_rows(size):
    """The frame, both oracles and ingredients(fd=True) on a batch equal the stack of their rows."""
    rng = np.random.default_rng(60)
    for f in _batch_fields():
        M = f.space
        pts = M.sample_points(M.ambient_dim if size == "m" else size, 61)
        assert_batch_equals_rows(M.frame, pts)
        X = M.tangent_project(pts, rng.standard_normal(pts.shape))
        got = M.covariant_derivative_fd(f, pts, X)
        rows = np.array([M.covariant_derivative_fd(f, x, v) for x, v in zip(pts, X)])
        assert np.all(np.abs(got - rows) <= 1e-12 * (1.0 + np.abs(rows)))
        assert_batch_equals_rows(lambda y: M.laplacians_fd(f, y)[0], pts)
        assert_batch_equals_rows(lambda y: M.laplacians_fd(f, y)[1], pts)
        batch, per_row = ingredients(f, pts, fd=True), [ingredients(f, x, fd=True) for x in pts]
        for name in ("sigma", "sigma_sq", "rough", "nabla_gradF_sigma", "nabla_sq", "gradF_sq", "lap_F"):
            want = np.array([getattr(r, name) for r in per_row])
            assert getattr(batch, name).shape == want.shape
            assert np.all(np.abs(getattr(batch, name) - want) <= 1e-12 * (1.0 + np.abs(want))), name


def test_fd_ingredients_evaluate_sigma_once_per_stencil(monkeypatch):
    """ingredients(fd=True) evaluates sigma on N(3 + 4n) points in five calls.

    sigma at x is taken once by ingredients and once by each oracle, and each
    oracle evaluates one +-h stencil of 2n points per sample; a second
    stencil for Delta F would make it N(4 + 6n).
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
        assert sum(sizes) == N * (3 + 4 * M.n), f.family
        assert len(sizes) == 5, f.family
