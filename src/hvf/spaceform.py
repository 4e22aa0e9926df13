"""The model spaces S^n and H^n and their finite-difference oracle.

Both spaces are realised as quadrics in R^{n+1}:

    S^n = { x : <x, x> = 1 }            (Euclidean inner product)
    H^n = { x : <x, x> = -1, x_{n+1} > 0 }   (Lorentzian, upper sheet)

SpaceForm(n, eps) is the one geometry object: it owns eps, the Gram matrix
eta, the inner product, the metric adjoint, the skewness and isometry tests.

The covariant derivative of the induced metric is the Gauss formula
nabla_X Y = D_X Y + eps <X, Y> x, with x the unit normal.  On top of the
exact geodesics this module provides one finite-difference oracle for a
field sigma, used as an independent check of the closed-form field analyses:
one +-h stencil along the frame gives, by central differences, the rows
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
H_MAX_GEODESIC = 20.0  # cosh overflow guard on H^n
DEFAULT_H = 5e-4
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


def _check_step(h) -> None:
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step h must be finite and positive, got {h}")


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
        return np.vecdot(x[..., :-1], y[..., :-1]) + self.eps * (x[..., -1] * y[..., -1])

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
        scale = 1.0 + np.abs(A).max()
        return np.abs(self.adjoint(A) + A).max() <= SKEW_TOL * scale

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
        if abs(self.norm_sq(x) - self.eps) > POINT_TOL * (1.0 + float(x @ x)):
            return False
        return self.eps == 1 or x[-1] > 0

    def check_point(self, x) -> np.ndarray:
        x = as_vector(x)
        if not self.is_point(x):
            raise ValueError(f"{x} is not a point of this space form")
        return x

    def check_tangent(self, x, v, tol: float = POINT_TOL) -> np.ndarray:
        v = as_vector(v)
        if abs(self.inner(v, x)) > tol * (1.0 + self.norm(v)):
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

    # -- geodesics ----------------------------------------------------------

    def geodesic(self, x, X, t: float) -> np.ndarray:
        """Unit-speed geodesic from x with initial velocity X at parameter t.

        X may be a stack of directions (..., m); the result has one point per direction.
        """
        x = as_vector(x)
        X = as_vector(X)
        if (np.abs(self.norm(X) - 1.0) > POINT_TOL).any():
            raise ValueError("geodesic direction must be a unit tangent vector")
        if self.eps == 1:
            p = np.cos(t) * x + np.sin(t) * X
        else:
            if abs(t) > H_MAX_GEODESIC:
                raise ValueError(f"|t| > {H_MAX_GEODESIC} on H^n (cosh overflow guard)")
            p = np.cosh(t) * x + np.sinh(t) * X
        return self.normalize_point(p)

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

        Hyperbolic points are geodesic(base, random unit tangent, t) with t
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
        if np.abs(g.T @ eta @ g - eta).max() > tol * (1.0 + np.abs(g).max() ** 2):
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

    def derivatives_fd(self, field, x, h: float = DEFAULT_H):
        """(sigma, rows nabla_{E_i} sigma, -sum_i nabla^2_{E_i, E_i} sigma, Delta F) at x of shape (..., m).

        One evaluation of sigma at x and one +-h geodesic stencil along the
        frame E = frame(x) serve all of them, to O(h^2).  The first difference
        is D_{E_i} sigma, Gauss-corrected by + eps <E_i, sigma(x)> x.  Along a
        unit-speed geodesic gamma with gamma'(0) = E the velocity field is
        autoparallel, so the second covariant derivative of sigma reduces to

            s''(0) + 2 eps <E, s'(0)> x + eps <E, sigma(x)> E,

        where s(t) = sigma(gamma(t)); the curvature term <gamma'', sigma> x
        drops out because sigma(x) is tangent.  Delta F = -sum_i f''(0) for
        f(t) = F(gamma(t)) is taken from the same sigma values, F = |sigma|^2 / 2.
        """
        _check_step(h)
        x = as_vector(x)
        E = self.frame(x)
        s = field.sigma(x)
        s0 = s[..., None, :]
        sp, sm = field.sigma(self.geodesic(x[..., None, :], np.array([E, -E]), h))  # (..., n, m)
        d1 = (sp - sm) / (2.0 * h)
        d2 = (sp - 2.0 * s0 + sm) / (h * h)
        eps, xr = self.eps, x[..., None, :]
        gauss = eps * self.inner(E, s0)[..., None]
        out = d2 + 2.0 * eps * self.inner(E, d1)[..., None] * xr + gauss * E
        Fp, F0, Fm = (0.5 * self.norm_sq(v) for v in (sp, s0, sm))
        lap_F = -((Fp - 2.0 * F0 + Fm) / (h * h)).sum(axis=-1)
        return s, d1 + gauss * xr, self.tangent_project(x, -out.sum(axis=-2)), lap_F


def sphere(n: int) -> SpaceForm:
    return SpaceForm(n, 1)


def hyperbolic(n: int) -> SpaceForm:
    return SpaceForm(n, -1)
