import math

import numpy as np
import pytest

from hvf.ambient import lorentz_pairing
from hvf.fields import GeneralizedHopfField, build_field, elementary_killing, hyperbolic_translation
from hvf.spaceform import SpaceForm, hyperbolic, sphere
from test_fields import random_frame


def test_inner_basis_examples():
    e1 = np.array([1.0, 0.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    assert sphere(2).inner(e1, e1) == 1.0
    assert hyperbolic(2).inner(e3, e3) == -1.0
    assert hyperbolic(2).inner([1, 2, 3], [4, 5, 6]) == pytest.approx(-4.0, abs=0)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        sphere(2).inner([1, 2, 3], [1, 2])


def test_inner_bilinear_symmetric():
    rng = np.random.default_rng(0)
    for M in (sphere(4), hyperbolic(4)):
        for _ in range(1000):
            x, y, z = rng.standard_normal((3, 5))
            a, b = rng.standard_normal(2)
            lhs = M.inner(a * x + b * y, z)
            rhs = a * M.inner(x, z) + b * M.inner(y, z)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))
            assert abs(M.inner(x, y) - M.inner(y, x)) <= 1e-12


def test_dual_covector_restriction():
    # the linear form metrically dual to a, alpha(x) = <a, x>
    assert sphere(2).inner([0, 0, 1.0], [0, 0, 1.0]) == 1.0
    assert sphere(2).inner([0, 0, 1.0], [1, 0, 0.0]) == 0.0
    x = [math.sinh(1.0), 0.0, math.cosh(1.0)]
    val = hyperbolic(2).inner([0, 0, 1.0], x)
    assert val == pytest.approx(-1.5430806348, abs=1e-9)


@pytest.mark.parametrize(
    "build",
    [lambda: SpaceForm(2, 0), lambda: build_field({"family": "killing", "n": 2, "epsilon": 0})],
    ids=["SpaceForm", "build_field"],
)
def test_epsilon_must_be_plus_or_minus_one(build):
    with pytest.raises(ValueError, match="epsilon must be \\+1 or -1, got 0"):
        build()


@pytest.mark.parametrize("eps", [1, -1])
def test_the_flat_space_forms_are_refused(eps):
    # the Killing fields of S^1 and H^1 are parallel: no tension term has a size to judge a residual by
    with pytest.raises(ValueError, match="dimension must be >= 2, got 1: S\\^1 and H\\^1 are flat"):
        SpaceForm(1, eps)


def _module_operators():
    yield GeneralizedHopfField(2, 1.3, sphere(4)).A, sphere(4)
    yield GeneralizedHopfField(1, 0.7, hyperbolic(3)).A, hyperbolic(3)
    yield elementary_killing([1, 0, 0, 0], [0, 1, 0, 0], sphere(3)).A, sphere(3)
    yield hyperbolic_translation(1.4, hyperbolic(3)).A, hyperbolic(3)


def test_skew_identity_on_random_pairs():
    rng = np.random.default_rng(1)
    for A, M in _module_operators():
        assert M.is_skew(A) and M.check_skew(A) is A
        for _ in range(50):
            x, y = rng.standard_normal((2, A.shape[0]))
            assert abs(M.inner(A @ x, y) + M.inner(x, A @ y)) <= 1e-12 * (
                1 + np.abs(A).max() * np.abs(x).max() * np.abs(y).max()
            )


def _balanced_with_translation(n, r, omega, tau):
    """R with r blocks of twist omega plus a translation of speed tau at the vertex."""
    M = hyperbolic(n)
    A = GeneralizedHopfField(r, omega, M).A + hyperbolic_translation(
        tau, M, direction=np.eye(n + 1)[2 * r]
    ).A
    return A, M


def test_lorentz_pairing_balanced_example():
    A, M = _balanced_with_translation(6, 2, 1.5, 0.8)
    val = lorentz_pairing(A, A, M)
    assert val == pytest.approx(2 * 2 * 1.5**2 - 2 * 0.8**2, rel=1e-12)


def test_lorentz_pairing_zero():
    A, M = _balanced_with_translation(4, 1, 1.0, 0.5)
    Z = np.zeros_like(A)
    assert lorentz_pairing(Z, A, M) == 0.0


def test_lorentz_pairing_non_skew_rejected():
    with pytest.raises(ValueError):
        lorentz_pairing(np.eye(4), np.eye(4), hyperbolic(3))


def test_lorentz_pairing_frame_sum():
    rng = np.random.default_rng(3)
    M = hyperbolic(4)
    B1, B2 = rng.standard_normal((2, 5, 5))
    A1 = 0.5 * (B1 - M.adjoint(B1))
    A2 = 0.5 * (B2 - M.adjoint(B2))
    expected = lorentz_pairing(A1, A2, M)
    for seed in range(3):
        w = M.sample_points(1, seed)[0]
        frame = random_frame(M, w, np.random.default_rng(seed))
        total = sum(M.inner(A1 @ e, A2 @ e) for e in frame) - M.inner(A1 @ w, A2 @ w)
        assert abs(total - expected) <= 1e-10 * (1 + abs(expected))


def test_lorentz_pairing_conjugation_invariance():
    rng = np.random.default_rng(4)
    for M in (sphere(3), hyperbolic(3)):
        B1, B2 = rng.standard_normal((2, 4, 4))
        A1 = 0.5 * (B1 - M.adjoint(B1))
        A2 = 0.5 * (B2 - M.adjoint(B2))
        base = lorentz_pairing(A1, A2, M)
        for _ in range(5):
            g = M.random_isometry(rng)
            g_inv = M.adjoint(g)
            moved = lorentz_pairing(g @ A1 @ g_inv, g @ A2 @ g_inv, M)
            assert abs(moved - base) <= 1e-9 * (1 + abs(base))


def test_adjoint_matches_frame_definition():
    rng = np.random.default_rng(5)
    for M in (sphere(3), hyperbolic(3)):
        A = rng.standard_normal((4, 4))
        Ad = M.adjoint(A)
        for _ in range(20):
            x, y = rng.standard_normal((2, 4))
            assert M.inner(Ad @ x, y) == pytest.approx(M.inner(x, A @ y), abs=1e-12)
