import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hvf
from hvf import spaceform
from hvf.fields import ConformalGradientField, GeneralizedHopfField, KillingField, QuadraticGradientField
from hvf.spaceform import hyperbolic, sphere
from test_fields import nabla_fd, random_tangent

POINT_TOL = 1e-10


def test_tangent_project():
    M = sphere(2)
    x = np.array([1.0, 0.0, 0.0])
    assert np.allclose(M.tangent_project(x, [1.0, 1.0, 0.0]), [0.0, 1.0, 0.0])
    assert np.allclose(M.tangent_project(x, x), 0.0)
    u = np.array([0.0, 2.0, -1.0])
    assert np.allclose(M.tangent_project(x, M.tangent_project(x, u)), M.tangent_project(x, u))
    # already tangent -> unchanged
    assert np.allclose(M.tangent_project(x, u), u)


def test_frames():
    for M in (sphere(2), sphere(4), hyperbolic(2), hyperbolic(4)):
        for x in M.sample_points(5, 11):
            E = M.frame(x)
            assert len(E) == M.n
            for i, u in enumerate(E):
                for j, v in enumerate(E):
                    want = 1.0 if i == j else 0.0
                    assert abs(M.inner(u, v) - want) <= POINT_TOL
            # completed with x itself: a signature-orthonormal basis of the ambient space
            basis = [*E, x]
            gram = np.array([[M.inner(u, v) for v in basis] for u in basis])
            want = np.eye(M.n + 1)
            want[-1, -1] = M.eps
            assert np.abs(gram - want).max() <= POINT_TOL


def test_frame_at_sphere_pole_spans_equator_plane():
    M = sphere(2)
    E = M.frame([0.0, 0.0, 1.0])
    assert all(abs(v[-1]) <= 1e-14 for v in E)


@pytest.mark.parametrize("n", [2, 5])
def test_frame_on_the_sphere_at_poles_equator_and_southern_points(n):
    M = sphere(n)
    e = np.eye(n + 1)
    south = np.arange(1.0, n + 2.0)
    south[-1] *= -1.0
    for x in (e[-1], -e[-1], e[0], south / np.linalg.norm(south)):
        E = M.frame(x)
        assert E.shape == (n, n + 1)
        assert np.abs(E @ E.T - np.eye(n)).max() <= 1e-14
        assert np.abs(E @ x).max() <= 1e-14
    assert np.array_equal(M.frame(e[-1]), e[:n])


@pytest.mark.parametrize("n", [2, 5])
def test_frame_far_out_on_hyperbolic_space(n):
    # entries grow like cosh 10 ~ 1e4 and the inner products cancel terms of
    # size |E_i| |E_j|, so the errors are measured against those sizes
    M = hyperbolic(n)
    rng = np.random.default_rng(n)
    for _ in range(5):
        x = np.cosh(10.0) * M.base_point() + np.sinh(10.0) * random_tangent(M, M.base_point(), rng)
        E = M.frame(x)
        size = np.linalg.norm(E, axis=-1)
        gram = M.inner(E[:, None, :], E[None, :, :])
        assert np.all(np.abs(gram - np.eye(n)) <= 1e-12 * np.outer(size, size))
        assert np.all(np.abs(M.inner(E, x)) <= 1e-12 * size * np.linalg.norm(x))
    assert np.array_equal(M.frame(M.base_point()), np.eye(n, n + 1))


def test_sample_points_deterministic_and_valid():
    for M in (sphere(3), hyperbolic(3)):
        assert len(M.sample_points(1, 99)) == 1
        a = M.sample_points(25, 123)
        b = M.sample_points(25, 123)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))
        for x in a:
            assert M.is_point(x)
    with pytest.raises(ValueError):
        sphere(2).sample_points(0, 1)


def test_sample_points_are_kept_read_only(monkeypatch):
    monkeypatch.setattr(spaceform, "_samples", {})
    for M in (sphere(3), hyperbolic(3)):
        a = M.sample_points(40, 5)
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
        assert np.array_equal(M.sample_points(40, 5), a)
    # sphere(3) and hyperbolic(3) draw under their own keys
    assert sorted(spaceform._samples) == [(3, -1, 40, 5), (3, 1, 40, 5)]
    assert not np.array_equal(sphere(3).sample_points(40, 5), hyperbolic(3).sample_points(40, 5))
    kept = {key: a.copy() for key, a in spaceform._samples.items()}
    spaceform._samples.clear()
    for M in (sphere(3), hyperbolic(3)):
        assert np.array_equal(M.sample_points(40, 5), kept[M.n, M.eps, 40, 5])


def test_sample_cache_holds_at_most_its_byte_cap(monkeypatch):
    monkeypatch.setattr(spaceform, "_samples", {})
    cap, M = spaceform.SAMPLE_CACHE_BYTES, sphere(3)
    per_point = 8 * M.ambient_dim
    big = M.sample_points(cap // per_point + 1, 1)  # one point over the cap
    assert big.nbytes > cap and not big.flags.writeable
    assert spaceform._samples == {}
    assert np.array_equal(M.sample_points(len(big), 1), big)
    half = cap // (2 * per_point)  # two such draws fit, a third evicts the oldest
    for seed in range(3):
        M.sample_points(half, seed)
        assert sum(a.nbytes for a in spaceform._samples.values()) <= cap
    assert list(spaceform._samples) == [(3, 1, half, 1), (3, 1, half, 2)]


def test_sample_points_symmetry_monte_carlo():
    M = sphere(2)
    pts = np.array(M.sample_points(100_000, 7))
    assert np.abs(pts.mean(axis=0)).max() < 0.02


def test_hyperbolic_sample_points_monte_carlo():
    # geodesic shots from the vertex: radius arccosh(x_m) uniform on [0, 3], direction isotropic
    pts = hyperbolic(3).sample_points(100_000, 7)
    t = np.arccosh(pts[:, -1])
    assert t.min() >= 0.0 and t.max() <= 3.0
    assert abs(t.mean() - 1.5) < 0.02
    assert np.abs(np.quantile(t, [0.25, 0.5, 0.75]) - [0.75, 1.5, 2.25]).max() < 0.02
    u = pts[:, :-1] / np.linalg.norm(pts[:, :-1], axis=1)[:, None]
    assert np.abs(u.mean(axis=0)).max() < 0.02


def test_covariant_derivative_fd_conformal():
    # nabla_X sigma = -eps alpha X for conformal gradients
    rng = np.random.default_rng(3)
    for M in (sphere(3), hyperbolic(3)):
        a = np.zeros(4)
        a[0] = 1.0
        f = ConformalGradientField(a, M)
        for x in M.sample_points(10, 2):
            X = random_tangent(M, x, rng)
            fd = nabla_fd(M, f, x, X)
            exact = -M.eps * M.inner(f.c, x) * X
            assert M.norm(fd - exact) <= 1e-12 * (1 + M.norm(exact))


def test_covariant_derivative_fd_equator_radial():
    # alpha(x) = 0 on the equator, so the derivative vanishes there
    M = sphere(2)
    f = ConformalGradientField([0.0, 0.0, 1.0], M)
    x = np.array([1.0, 0.0, 0.0])
    X = np.array([0.0, 1.0, 0.0])
    assert M.norm(nabla_fd(M, f, x, X)) <= 1e-14


def test_covariant_derivative_fd_killing():
    rng = np.random.default_rng(4)
    f = GeneralizedHopfField(2, 1.0, sphere(4))
    M = f.space
    for x in M.sample_points(5, 6):
        X = random_tangent(M, x, rng)
        fd = nabla_fd(M, f, x, X)
        AX = f.A @ X
        exact = AX - M.eps * M.inner(AX, x) * x
        assert M.norm(fd - exact) <= 1e-12 * (1 + M.norm(exact))


def test_derivatives_fd_rejects_a_bad_step():
    # the oracle is exact for the cubic sigma and takes no step: any step argument is refused
    M = sphere(2)
    f = ConformalGradientField([0.0, 0.0, 1.0], M)
    for h in (5e-4, -1.0, math.nan, 1e-300):
        with pytest.raises(TypeError):
            M.derivatives_fd(f, [1.0, 0.0, 0.0], h)
        with pytest.raises(TypeError):
            M.derivatives_fd(f, [1.0, 0.0, 0.0], h=h)


def test_rough_laplacian_fd_eigenvalues():
    # conformal -> eps sigma; Killing -> eps (n-1) sigma; quadratic -> (n+3) sigma
    cases = []
    for M in (sphere(3), hyperbolic(3)):
        a = np.zeros(4)
        a[0] = 1.0
        cases.append((ConformalGradientField(a, M), float(M.eps)))
    f = GeneralizedHopfField(2, 1.0, sphere(4))
    cases.append((f, float(f.space.eps * (f.space.n - 1))))
    Q = np.diag([1.5, 1.5, 0.0, 0.0, 0.0, -0.2])
    qf = QuadraticGradientField(Q, sphere(5))
    cases.append((qf, float(qf.space.n + 3)))
    for fld, ev in cases:
        M = fld.space
        for x in M.sample_points(5, 9):
            fd = M.derivatives_fd(fld, x)[2]
            exact = ev * fld.sigma(x)
            assert M.norm(fd - exact) <= 1e-11 * (1 + M.norm(exact))


def test_random_isometry_preserves_the_form():
    rng = np.random.default_rng(0)
    for n in range(2, 10):
        for M in (sphere(n), hyperbolic(n)):
            for _ in range(5):
                assert M.is_isometry(M.random_isometry(rng), tol=1e-12)


# each predicate accepts only err <= bound < inf: a NaN error is never within its bound, and an infinite or
# overflowing entry makes the bound infinite, which err <= bound alone would still accept
UNJUDGED = [math.nan, math.inf, -math.inf, 1e200]


@pytest.mark.parametrize("value", UNJUDGED)
def test_is_isometry_refuses_what_it_cannot_judge(value):
    # with ones the product has no NaN, so only the bound can refuse it; and no RuntimeWarning on the way
    for M in (sphere(4), hyperbolic(4)):
        for g in (np.eye(5), np.ones((5, 5))):
            g = g.copy()
            g[0, 1] = value
            assert not M.is_isometry(g)
        assert not M.is_isometry(np.full((5, 5), value)) and not M.is_isometry(np.diag(np.full(5, value)))
        assert M.is_isometry(np.eye(5))


@pytest.mark.parametrize("value", UNJUDGED)
def test_is_point_refuses_what_it_cannot_judge(value):
    for M in (sphere(4), hyperbolic(4)):
        x = M.base_point()
        x[0] = value
        assert not M.is_point([value] * 5) and not M.is_point(x)
        with pytest.raises(ValueError, match="not a point"):
            KillingField(np.zeros((5, 5)), M, base=[value] * 5)


@pytest.mark.parametrize("value", UNJUDGED)
def test_check_tangent_refuses_what_it_cannot_judge(value):
    for M in (sphere(4), hyperbolic(4)):
        v = np.zeros(5)
        v[0] = value
        for bad in ([value] * 5, v):
            with pytest.raises(ValueError, match="not tangent"):
                M.check_tangent(M.base_point(), bad)


@pytest.mark.parametrize("value", UNJUDGED)
def test_is_skew_refuses_what_it_cannot_judge(value):
    for M in (sphere(4), hyperbolic(4)):
        A = np.zeros((5, 5))
        A[0, 1] = value
        assert not M.is_skew(np.full((5, 5), value))
        assert M.is_skew(A - A.T) is (value == 1e200)  # a finite skew A is judged like any other
    assert sphere(4).is_skew(np.zeros((5, 5)))


def test_import_does_not_load_scipy():
    # nor numpy: the package resolves its names on first use; and the modules that compute load neither scipy
    # nor sympy, although both may be installed: numpy is the only dependency
    src = os.path.dirname(os.path.dirname(hvf.__file__))
    for code in (
        "import sys, hvf; sys.exit('scipy' in sys.modules or 'numpy' in sys.modules)",
        "import sys, hvf.tension, hvf.polyreduce, hvf.solvers, hvf.cli; sys.exit('scipy' in sys.modules or 'sympy' in sys.modules)",
    ):
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, code
