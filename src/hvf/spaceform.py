"""The model spaces S^n and H^n and their finite-difference oracle.

Both spaces are realised as quadrics in R^{n+1}:

    S^n = { x : <x, x> = 1 }            (Euclidean inner product)
    H^n = { x : <x, x> = -1, x_{n+1} > 0 }   (Lorentzian, upper sheet)

SpaceForm(n, eps) is the one geometry object: it owns eps, the Gram matrix
eta, the inner product, the metric adjoint, the skewness and isometry tests.

The covariant derivative of the induced metric is the Gauss formula
nabla_X Y = D_X Y + eps <X, Y> x, with x the unit normal.  On top of it this
module provides one finite-difference oracle for a field sigma, used as an
independent check of the closed-form field analyses: sigma is a cubic
polynomial of the ambient point, so one fixed stencil along the frame and the
ray differentiates it exactly, with no step, and gives the rows
nabla_{E_i} sigma, the rough Laplacian -tr nabla^2 sigma and Delta F for
F = |sigma|^2 / 2.  It calls nothing of the field but sigma.

Points are arrays whose last axis has length m = n+1: inner, norm,
tangent_project, normalize_point and complex_rotation accept one point of
shape (m,) or a batch of shape (N, m) and keep the leading axes, and
sample_points draws one read-only (N, m) array, never point by point, and keeps it
for the next call with the same key.  frame returns (..., n, m)
from a closed formula, and the oracle takes a point or a batch too: it evaluates
sigma at the points once and on the stencils of all points once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ambient import SKEW_TOL, as_vector

POINT_TOL = 1e-10
SAMPLE_CACHE_BYTES = 2**20  # cap on the bytes of samples sample_points keeps per process

_samples: dict[tuple, np.ndarray] = {}  # (n, eps, count, seed) -> read-only sample, oldest first


def _expm(S: np.ndarray) -> np.ndarray:
    """exp(S) for a small matrix: Taylor series of S / 2^k, then k squarings."""
    k = max(0, math.frexp(float(np.abs(S).sum(axis=0).max()))[1] + 1)  # |S / 2^k|_1 < 1/2
    A = S / 2.0**k
    out = term = np.eye(len(S))
    for j in range(1, 18):
        term = term @ A / j
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def _within(err, bound) -> bool:
    """err <= bound < inf: the one acceptance rule of the predicates.

    A NaN error is never within, and neither is any error against a bound that a NaN, an infinite or an
    overflowing input made infinite, so no such input passes a test it was never judged by.
    """
    return bool(err <= bound < math.inf)


@dataclass(frozen=True)
class SpaceForm:
    """The space form of dimension n: the quadric <x, x> = eps in R^{n+1}, eps = +1 or -1.

    <x, y> = x_1 y_1 + ... + x_n y_n + eps x_{n+1} y_{n+1}: Euclidean for the
    sphere, Lorentzian for the hyperbolic space.
    """

    n: int
    eps: int

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValueError(f"epsilon must be +1 or -1, got {self.eps}")
        if self.n < 2:  # S^1 and H^1 are flat: their Killing fields are parallel, with no tension to judge
            raise ValueError(f"dimension must be >= 2, got {self.n}: S^1 and H^1 are flat")

    @property
    def ambient_dim(self) -> int:
        return self.n + 1

    @cached_property
    def eta(self) -> np.ndarray:
        """Gram matrix diag(1, ..., 1, eps), built once per space form and read-only."""
        g = np.eye(self.ambient_dim)
        g[-1, -1] = self.eps
        g.flags.writeable = False
        return g

    def inner(self, x, y):
        """<x, y> over the last axis; leading axes broadcast, so (N, m) rows give N values."""
        x, y = as_vector(x), as_vector(y)
        if x.shape[-1:] != y.shape[-1:]:
            raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
        dot, last = np.vecdot(x[..., :-1], y[..., :-1]), x[..., -1] * y[..., -1]
        return dot + last if self.eps == 1 else dot - last

    def norm_sq(self, x):
        return self.inner(x, x)

    def norm(self, v):
        """Length of a tangent vector (tangent spaces are spacelike)."""
        return np.sqrt(np.maximum(self.norm_sq(v), 0.0))

    # -- operators on the ambient space ----------------------------------------

    def adjoint(self, A) -> np.ndarray:
        """Metric adjoint A† = eta A^T eta."""
        A = np.asarray(A, dtype=float)
        At = A.T.copy()
        At[-1, :] *= self.eps
        At[:, -1] *= self.eps
        return At

    def is_skew(self, A) -> bool:
        """<A x, y> = -<x, A y>, i.e. A† = -A, up to SKEW_TOL relative to |A|."""
        A = np.asarray(A, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return _within(np.abs(self.adjoint(A) + A).max(), SKEW_TOL * (1.0 + np.abs(A).max()))

    def check_skew(self, A) -> np.ndarray:
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"operator must be square, got shape {A.shape}")
        if not self.is_skew(A):
            raise ValueError("operator is not skew-symmetric for this signature")
        return A

    # -- points and tangents ---------------------------------------------

    def base_point(self) -> np.ndarray:
        """(0, ..., 0, 1): north pole of S^n, vertex of H^n."""
        x = np.zeros(self.ambient_dim)
        x[-1] = 1.0
        return x

    def is_point(self, x) -> bool:
        # tolerance is relative to the coordinate scale: far out on H^n the
        # constraint is a cancellation of terms of size |x|^2
        x = as_vector(x)
        if x.shape != (self.ambient_dim,):
            return False
        with np.errstate(over="ignore", invalid="ignore"):
            if not _within(abs(self.norm_sq(x) - self.eps), POINT_TOL * (1.0 + float(x @ x))):
                return False
        return self.eps == 1 or x[-1] > 0

    def check_point(self, x) -> np.ndarray:
        x = as_vector(x)
        if not self.is_point(x):
            raise ValueError(f"{x} is not a point of this space form")
        return x

    def check_tangent(self, x, v, tol: float = POINT_TOL) -> np.ndarray:
        v = as_vector(v)
        with np.errstate(over="ignore", invalid="ignore"):
            if not _within(abs(self.inner(v, x)), tol * (1.0 + self.norm(v))):
                raise ValueError("vector is not tangent at the given point")
        return v

    def tangent_project(self, x, u) -> np.ndarray:
        """Orthogonal projection u - eps <u, x> x onto T_x M; idempotent."""
        u, x = as_vector(u), as_vector(x)
        return u - (self.eps * self.inner(u, x))[..., None] * x

    def normalize_point(self, x) -> np.ndarray:
        """Rescale onto the quadric (suppresses floating-point drift)."""
        x = as_vector(x)
        s = self.eps * self.norm_sq(x)
        if (s <= 0).any():
            raise ValueError("cannot normalize: wrong causal type")
        return x / np.sqrt(s)[..., None]

    # -- frames -----------------------------------------------------------

    def frame(self, x) -> np.ndarray:
        """Orthonormal tangent frame at x, shape (..., n, m); rows are E_1..E_n.

        E_i = e_i - x_i v / (eps (1 + s x_m)), v = x + s e_m, s = sign(x_m) or 1
        where x_m = 0 (so s = 1 on H^n): the images of e_1..e_n under the
        eta-reflection that swaps e_m and -s x.  |1 + s x_m| >= 1, so nothing
        small is divided by; at the pole the frame is e_1..e_n.
        """
        x = as_vector(x)
        s = np.where(x[..., -1] < 0, -1.0, 1.0)
        v = x.copy()
        v[..., -1] += s
        a = x[..., :-1] / (self.eps * (1.0 + s * x[..., -1]))[..., None]
        return np.eye(self.n, self.ambient_dim) - a[..., :, None] * v[..., None, :]

    # -- sampling ----------------------------------------------------------

    def sample_points(self, count: int, seed: int) -> np.ndarray:
        """Deterministic read-only (count, n+1) sample; Gaussian on S^n, geodesic shots on H^n.

        Hyperbolic points are cosh(t) base + sinh(t) u, the unit-speed
        geodesic from the base point along a random unit tangent u, with t
        uniform on [0, 3], keeping cosh well conditioned while exercising
        the unbounded growth of the fields.  The directions come from one
        (count, n+1) block of normals of the stream seeded by seed, the radii
        from a second stream seeded by [seed, 1], so each stream is read in
        point order and a smaller count gives a prefix of a larger one.

        Each draw is kept per process under (n, eps, count, seed), so a repeated
        call returns the same array.  The kept draws hold at most
        SAMPLE_CACHE_BYTES (1 MiB) together: the oldest leave first, and a draw
        larger than that is returned without being kept.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        key = (self.n, self.eps, count, seed)
        pts = _samples.get(key)
        if pts is None:
            pts = self._draw(count, seed)
            pts.flags.writeable = False
            if pts.nbytes <= SAMPLE_CACHE_BYTES:
                _samples[key] = pts
                while sum(a.nbytes for a in _samples.values()) > SAMPLE_CACHE_BYTES:
                    del _samples[next(iter(_samples))]
        return pts

    def _draw(self, count: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        m = self.ambient_dim
        if self.eps == 1:
            g = rng.standard_normal((count, m))
            s = self.norm_sq(g)
            while (small := s <= 1e-12).any():  # redraw the (measure-zero) near-zero Gaussians, in order
                g = np.concatenate([g[~small], rng.standard_normal((int(small.sum()), m))])
                s = self.norm_sq(g)
            return g / np.sqrt(s)[:, None]
        base = self.base_point()
        u = rng.standard_normal((count, m))
        u[:, -1] = 0.0  # the tangent projection at the base point
        u /= self.norm(u)[:, None]
        t = 3.0 * np.random.default_rng([seed, 1]).random(count)[:, None]
        return self.normalize_point(np.cosh(t) * base + np.sinh(t) * u)

    # -- isometries ----------------------------------------------------------

    def random_isometry(self, rng: np.random.Generator) -> np.ndarray:
        """Random isometry in the identity component (preserves the upper sheet)."""
        m = self.ambient_dim
        B = rng.standard_normal((m, m))
        S = 0.5 * (B - self.adjoint(B))
        S *= rng.uniform(0.3, 1.2) / max(np.abs(S).max(), 1e-12)
        return _expm(S)

    def is_isometry(self, g, tol: float = 1e-9) -> bool:
        """g^T eta g = eta (g preserves the inner product), and g keeps the upper sheet of H^n."""
        g, eta = np.asarray(g, dtype=float), self.eta
        with np.errstate(over="ignore", invalid="ignore"):
            if not _within(np.abs(g.T @ eta @ g - eta).max(), tol * (1.0 + np.abs(g).max() ** 2)):
                return False
        return self.eps == 1 or (g @ self.base_point())[-1] > 0

    def complex_rotation(self, x, v) -> np.ndarray:
        """J: rotation by +pi/2 in T_x M, for the two-dimensional space forms.

        Realised as the (signature-corrected) cross product with the base
        point, which fixes a global orientation.
        """
        if self.n != 2:
            raise ValueError("complex rotation requires n = 2")
        w = np.cross(as_vector(x), as_vector(v))
        if self.eps == -1:
            w[..., -1] = -w[..., -1]
        return w

    # -- finite-difference oracle -------------------------------------------

    def derivatives_fd(self, field, x):
        """(sigma, rows nabla_{E_i} sigma, -sum_i nabla^2_{E_i, E_i} sigma, Delta F) at x of shape (..., m).

        The premise: sigma(x) = L x + c - eps <L x + c, x> x, which every field evaluates
        through AffineField._parts, is a cubic of the ambient x.  So for f(t) = sigma(x + t V),
        f'(0) = (6 f(1) - 2 f(-1) - 3 f(0) - f(2)) / 6 and f''(0) = f(1) - 2 f(0) + f(-1) hold
        exactly, with no step.  V runs over the frame rows E_i of frame(x) and the ray x, and
        D_{E_i} sigma = f_i'(0) takes the Gauss term + eps <E_i, sigma> x.  The unit-speed
        geodesic gamma with gamma'(0) = E_i has gamma''(0) = -eps x, so s(t) = sigma(gamma(t))
        has s''(0) = f_i''(0) - eps f_ray'(0) and, with the velocity field autoparallel and
        sigma tangent, nabla^2_{E_i, E_i} sigma = s''(0) + 2 eps <E_i, s'(0)> x + eps <E_i, sigma> E_i.
        Delta F = -sum_i (<s', s'> + <s, s''>) for F = |sigma|^2 / 2.
        """
        x = as_vector(x)
        xr = x[..., None, :]
        V = np.concatenate([self.frame(x), xr], axis=-2)  # (..., n+1, m): the frame rows, then the ray
        P = np.array([1.0, -1.0, 2.0]).reshape((3,) + (1,) * V.ndim) * V
        P += xr
        f = field.sigma(P.reshape(-1, self.ambient_dim)).reshape(P.shape)  # one flat batch: one product with L
        s = field.sigma(x)
        s0 = s[..., None, :]
        # f'(0) + f(0) / 2 and f''(0) + 2 f(0) of every direction, as weighted sums of f(1), f(-1), f(2)
        d1, d2 = np.tensordot([[1.0, -1.0 / 3.0, -1.0 / 6.0], [1.0, 1.0, 0.0]], f, axes=1)
        d1 -= 0.5 * s0
        eps, D, E = self.eps, d1[..., :-1, :], V[..., :-1, :]
        d2 = d2[..., :-1, :] - (2.0 * s0 + eps * d1[..., -1:, :])  # s''(0) = f''(0) - eps f_ray'(0)
        gauss = eps * self.inner(E, s0)
        out = d2.sum(axis=-2) + (2.0 * eps * self.inner(E, D).sum(axis=-1))[..., None] * x + (gauss[..., None, :] @ E)[..., 0, :]
        lap_F = -(self.norm_sq(D) + self.inner(s0, d2)).sum(axis=-1)
        return s, D + gauss[..., None] * xr, self.tangent_project(x, -out), lap_F


def sphere(n: int) -> SpaceForm:
    return SpaceForm(n, 1)


def hyperbolic(n: int) -> SpaceForm:
    return SpaceForm(n, -1)
