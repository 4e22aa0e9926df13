import math

import numpy as np
import pytest

from hvf.ambient import EUCLIDEAN, LORENTZIAN, lorentz_pairing
from hvf.fields import GeneralizedHopfField, elementary_killing, hyperbolic_translation
from hvf.spaceform import hyperbolic, sphere


def test_inner_basis_examples():
    e1 = np.array([1.0, 0.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    assert EUCLIDEAN.inner(e1, e1) == 1.0
    assert LORENTZIAN.inner(e3, e3) == -1.0
    assert LORENTZIAN.inner([1, 2, 3], [4, 5, 6]) == pytest.approx(-4.0, abs=0)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        EUCLIDEAN.inner([1, 2, 3], [1, 2])


def test_inner_bilinear_symmetric():
    rng = np.random.default_rng(0)
    for sig in (EUCLIDEAN, LORENTZIAN):
        for _ in range(1000):
            x, y, z = rng.standard_normal((3, 5))
            a, b = rng.standard_normal(2)
            lhs = sig.inner(a * x + b * y, z)
            rhs = a * sig.inner(x, z) + b * sig.inner(y, z)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))
            assert abs(sig.inner(x, y) - sig.inner(y, x)) <= 1e-12


def test_dual_covector_restriction():
    # the linear form metrically dual to a, alpha(x) = <a, x>
    assert EUCLIDEAN.inner([0, 0, 1.0], [0, 0, 1.0]) == 1.0
    assert EUCLIDEAN.inner([0, 0, 1.0], [1, 0, 0.0]) == 0.0
    x = [math.sinh(1.0), 0.0, math.cosh(1.0)]
    val = LORENTZIAN.inner([0, 0, 1.0], x)
    assert val == pytest.approx(-1.5430806348, abs=1e-9)


def _module_operators():
    yield GeneralizedHopfField(2, 1.3, sphere(4)).A, EUCLIDEAN
    yield GeneralizedHopfField(1, 0.7, hyperbolic(3)).A, LORENTZIAN
    yield elementary_killing([1, 0, 0, 0], [0, 1, 0, 0], sphere(3)).A, EUCLIDEAN
    yield hyperbolic_translation(1.4, hyperbolic(3)).A, LORENTZIAN


def test_skew_identity_on_random_pairs():
    rng = np.random.default_rng(1)
    for A, sig in _module_operators():
        for _ in range(50):
            x, y = rng.standard_normal((2, A.shape[0]))
            assert abs(sig.inner(A @ x, y) + sig.inner(x, A @ y)) <= 1e-12 * (
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
    val = lorentz_pairing(A, A, M.sig)
    assert val == pytest.approx(2 * 2 * 1.5**2 - 2 * 0.8**2, rel=1e-12)


def test_lorentz_pairing_zero():
    A, M = _balanced_with_translation(4, 1, 1.0, 0.5)
    Z = np.zeros_like(A)
    assert lorentz_pairing(Z, A, M.sig) == 0.0


def test_lorentz_pairing_non_skew_rejected():
    with pytest.raises(ValueError):
        lorentz_pairing(np.eye(4), np.eye(4), LORENTZIAN)


def test_lorentz_pairing_frame_sum():
    rng = np.random.default_rng(3)
    M = hyperbolic(4)
    B1, B2 = rng.standard_normal((2, 5, 5))
    A1 = 0.5 * (B1 - M.sig.adjoint(B1))
    A2 = 0.5 * (B2 - M.sig.adjoint(B2))
    expected = lorentz_pairing(A1, A2, M.sig)
    for seed in range(3):
        w = M.sample_points(1, seed)[0]
        frame = M.random_frame(w, np.random.default_rng(seed))
        total = sum(M.inner(A1 @ e, A2 @ e) for e in frame) - M.inner(A1 @ w, A2 @ w)
        assert abs(total - expected) <= 1e-10 * (1 + abs(expected))


def test_lorentz_pairing_conjugation_invariance():
    rng = np.random.default_rng(4)
    for M in (sphere(3), hyperbolic(3)):
        B1, B2 = rng.standard_normal((2, 4, 4))
        A1 = 0.5 * (B1 - M.sig.adjoint(B1))
        A2 = 0.5 * (B2 - M.sig.adjoint(B2))
        base = lorentz_pairing(A1, A2, M.sig)
        for _ in range(5):
            g = M.random_isometry(rng)
            g_inv = M.sig.adjoint(g)
            moved = lorentz_pairing(g @ A1 @ g_inv, g @ A2 @ g_inv, M.sig)
            assert abs(moved - base) <= 1e-9 * (1 + abs(base))


def test_adjoint_matches_frame_definition():
    rng = np.random.default_rng(5)
    for sig in (EUCLIDEAN, LORENTZIAN):
        A = rng.standard_normal((4, 4))
        Ad = sig.adjoint(A)
        for _ in range(20):
            x, y = rng.standard_normal((2, 4))
            assert sig.inner(Ad @ x, y) == pytest.approx(sig.inner(x, A @ y), abs=1e-12)
