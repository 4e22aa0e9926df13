"""Vector fields on S^n and H^n as tangential projections of affine maps.

Every field here has the form

    sigma(x) = P_x(L x + c),   P_x u = u - eps <u, x> x,

for an ambient (n+1)x(n+1) matrix L and a vector c.  The eta-skew part of
L gives the Killing fields, c the conformal gradient, and the
eta-self-adjoint part the quadratic gradients.  P_x x = 0, so AffineField
keeps L in one normal form (L[0,0] I, then the mean diagonal subtracted:
trace-free, 0 for a multiple of I) and carries the single closed-form
analysis of this shape on it.  With alpha = <L x + c, x>, L† = eta L^T eta:

    nabla_X sigma      = P_x(L X) - eps alpha X
    grad F             = P_x(L† sigma) - eps alpha sigma,   F = |sigma|^2 / 2
    Delta F            = -div grad F, from the ambient Jacobian of grad F
    nabla* nabla sigma = eps P_x((n+1) L x + 2 L† x + c)

Every closed form and spinnaker takes one point of shape (m,) or a batch
of shape (N, m), m = n+1, and keeps the leading axes: vectors come back
as (m,) or (N, m), scalars as a number or (N,).  The closed forms read the
operators through .mT and batched products, so (L, L†, R, c, tr L L†) may
carry a leading axis of stacked fields too, as tension's equivariance checks
use them: at points (2, N, m) each slice is bitwise that field's own result.
The scalars |nabla sigma|^2 and Delta F are per-point traces, so a batch
costs O(N m) memory.  grad_F, nabla, nabla_norm_sq and lap_F also take the
Jet they all start from, so several of them share its one evaluation,
and spinnaker takes |sigma|^2 from that evaluation as its sigma_sq.

The six classified families are subclasses.  Each one only builds its
(L, c), validates its own parameters and declares its metadata: twists and
kind, and _param_keys (the params() key of each parameter attribute).
Construction computes only what every evaluation reads; every other value of
(L, c) is a cached_property, found on first read and dropped again by __init__.
AffineField.params() and spinnaker() do the rest; the block rotations check
their rank in one place.  The spinnaker zeta of a preharmonic field
(nabla_{grad F} sigma = zeta sigma) is one identity for every conformal
field, eta-skew L with L^3 = lambda L (preharmonic_lambda, read once):
zeta = eps (<c, c> - 2 <L c, x> - |sigma|^2) - lambda.  Only the quadratic
gradients (symmetric L) have their own; loxodromic fields gate it.

* conformal gradient fields  sigma = grad <a, .>  with pole a;
* Killing fields  sigma(x) = A(x)  for a skew operator A, including the
  balanced block-rotation (generalised Hopf) fields and the hyperbolic
  rotation/translation/parabolic trichotomy;
* loxodromic fields  R + C: a rank-r rotation plus a conformal gradient
  whose pole is orthogonal to the rotation planes;
* dipole deformation fields  tau*T + r*A  built from a point and a unit
  tangent vector;
* general conformal fields on the 2-dimensional space forms, K + C, in
  the standard frame (e_1, e_2, base point);
* quadratic gradient fields  sigma = (1/2) grad <Q x, x>  on spheres.

scale_field and transform keep the family and its parameters and replace
(L, c) by (k L, k c) and (g L g^-1, g c).  Each spinnaker is written in
terms of the field's own (L, c), so it follows both.  On the hyperbolic
plane the circle action cos(t) sigma + sin(t) J sigma is a third linear map
of (L, c), defined once for every conformal field (eta-skew L); its result
is a Conformal2DField.  Fields are immutable after construction.
"""

from __future__ import annotations

import copy
import math
from collections import namedtuple
from functools import cached_property

import numpy as np

from .ambient import as_vector, check_symmetric
from .spaceform import SpaceForm, hyperbolic

TANGENT_TOL = 1e-10
CLUSTER_TOL = 1e-8  # eigenvalue clustering tolerance (decides "balanced")
PREHARMONIC_OP_TOL = 1e-10
PART_TOL = 1e-12  # relative size below which a part of (L, c) counts as zero


def _finite(value, name: str):
    """value as a float (or a float array), rejecting NaN and infinities."""
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {value}")
    return arr if arr.ndim else float(arr)


def _pair_operator(a, b, space: SpaceForm) -> np.ndarray:
    """The skew operator x -> <a, x> b - <b, x> a of the pair (a, b)."""
    eta = space.eta
    return np.outer(b, eta @ a) - np.outer(a, eta @ b)


def _block_rotation(twists, space: SpaceForm) -> np.ndarray:
    """Rotation of the coordinate planes (1,2), (3,4), ... with the given speeds; r planes need 2r <= n+1 on S^n, 2r < n+1 on H^n."""
    if 2 * len(twists) > space.n + (space.eps == 1):
        rule = "2r <= n+1 on S^n" if space.eps == 1 else "2r < n+1 on H^n"
        raise ValueError(f"need {rule}, got r={len(twists)}, n={space.n}")
    A = np.zeros((space.ambient_dim,) * 2)
    for i, w in enumerate(twists):
        A[2 * i + 1, 2 * i] = w
        A[2 * i, 2 * i + 1] = -w
    return A


def _axial(A) -> np.ndarray:
    """The axial vector m of an antisymmetric 3x3 matrix A: A v = m x v."""
    return np.array([A[2, 1], A[0, 2], A[1, 0]])


# what every closed form of one field starts from at x: L x, L† x, alpha = <L x + c, x>, sigma(x)
Jet = namedtuple("Jet", "x Lx Ldx alpha sigma")


class AffineField:
    """sigma(x) = P_x(L x + c) on S^n or H^n, for any finite L and c."""

    family = "affine"
    scale_factor = None  # set by scale_field
    _vectors: tuple[str, ...] = ()  # metadata vectors (points, frames, poles) moved by transform
    _operators: tuple[str, ...] = ()  # metadata operators conjugated by transform
    _param_keys = {"L": "L", "c": "c"}  # params() key -> attribute; arrays are reported as lists

    def __init__(self, L, c, space: SpaceForm):
        m = space.ambient_dim
        L, c = np.array(L, dtype=float), np.array(c, dtype=float)
        if L.shape != (m, m) or c.shape != (m,):
            raise ValueError(f"need a {m}x{m} operator and a vector of length {m}")
        if not (np.isfinite(L).all() and np.isfinite(c).all()):
            raise ValueError("operator and vector entries must be finite")
        diag = np.diag_indices(m)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            L[diag] -= L[0, 0]  # the normal form: Q + lambda I gets the bits of Q wherever Q + lambda I is exact
            L[diag] -= L[diag].mean()
            size4 = (m * np.abs(L).max()) ** 4  # the tension is cubic in L, the Killing test <L^3, L> quartic
        if not np.isfinite(size4):
            raise ValueError(f"operator too large to analyse: its size to the fourth is non-finite (largest entry {np.abs(L).max():.3g})")
        self.space, self.L, self.c = space, L, c
        self._eps = space.eps
        self._eta = np.diag(space.eta)
        self._Ldag = space.adjoint(L)
        self._rough = m * L + 2.0 * self._Ldag
        self._trLLd = float(np.trace(L @ self._Ldag))
        for name in [k for k in vars(self) if isinstance(getattr(type(self), k, None), cached_property)]:
            del vars(self)[name]  # a value derived from the old (L, c), which _with copied

    # -- closed forms, broadcasting over leading axes -----------------------

    def _parts(self, x):
        """(x, L x, alpha, sigma(x)) with alpha = <L x + c, x>: all that sigma alone needs."""
        x = as_vector(x)
        Lx = x @ self.L.mT
        u = Lx + self.c
        alpha = self.space.inner(u, x)
        return x, Lx, alpha, u - (self._eps * alpha)[..., None] * x

    def jet(self, x) -> Jet:
        """The Jet at a point or batch x; a Jet is returned as it is."""
        if isinstance(x, Jet):
            return x
        x, Lx, alpha, s = self._parts(x)
        return Jet(x, Lx, x @ self._Ldag.mT, alpha, s)

    def sigma(self, x) -> np.ndarray:
        return self._parts(x)[3]

    def sigma_sq(self, x):
        s = self.sigma(x)
        return self.space.inner(s, s)

    def F(self, x):
        return 0.5 * self.sigma_sq(x)

    def nabla(self, x, X) -> np.ndarray:
        j, X = self.jet(x), as_vector(X)
        return self.space.tangent_project(j.x, X @ self.L.mT) - (self._eps * j.alpha)[..., None] * X

    def nabla_norm_sq(self, x):
        """|nabla sigma|^2 = tr_T(A† A) - 2 eps alpha tr_T A + n alpha^2 for A = P_x L on T_x M:

        tr(L L†) - eps|Lx|^2 - eps|L†x|^2 + <Lx, x>^2 + 2 alpha <Lx, x> + n alpha^2, as tr L = 0.
        """
        eps, ip = self._eps, self.space.inner
        x, Lx, Ldx, alpha, _ = self.jet(x)
        lxx = ip(Lx, x)
        return (
            self._trLLd - eps * ip(Lx, Lx) - eps * ip(Ldx, Ldx) + lxx * lxx
            + 2.0 * alpha * lxx + self.space.n * alpha * alpha
        )

    def grad_F(self, x) -> np.ndarray:
        x, _, _, alpha, s = self.jet(x)
        return self.space.tangent_project(x, s @ self._Ldag.mT) - (self._eps * alpha)[..., None] * s

    def lap_F(self, x):
        """Delta F = -div grad F = -(tr J - eps <J x, x>) for the ambient Jacobian J.

        grad F = v - eps beta x - eps alpha sigma with v = L† sigma and
        beta = <v, x> = <sigma, L x>; J follows from d alpha = <L† x + L x + c, .>
        and the Jacobian S = L - eps x d alpha - eps alpha I of sigma.  Both
        traces are expanded into per-point vector products, with tr L = 0; with
        <x, x> = eps (as P_x assumes) the d beta terms cancel.  J is computed independently
        of the rough Laplacian, so the Weitzenboeck identity stays a check.
        """
        eps, ip, m = self._eps, self.space.inner, self.space.ambient_dim
        x, Lx, Ldx, alpha, s = self.jet(x)
        w = Ldx + Lx + self.c  # d alpha = <w, .>
        dax = ip(w, x)
        Sx = Lx - (eps * (dax + alpha))[..., None] * x
        beta = ip(s, Lx)
        tr_S = -eps * dax - eps * m * alpha
        tr_LdS = self._trLLd - eps * ip(w, Ldx)
        tr_J = tr_LdS - eps * (m * beta + ip(w, s) + alpha * tr_S)
        xJx = ip(Sx, Lx) - eps * (eps * beta + dax * ip(s, x) + alpha * ip(Sx, x))
        return -(tr_J - eps * xJx)

    def rough_operand(self, x) -> np.ndarray:
        """eps (R x + c) for R = m L + 2 L†: the ambient vector whose tangent part is the rough Laplacian."""
        return self._eps * (as_vector(x) @ self._rough.mT + self.c)

    def rough_laplacian(self, x) -> np.ndarray:
        return self.space.tangent_project(x, self.rough_operand(x))

    def spinnaker(self, x, sigma_sq=None) -> float | None:
        """zeta with nabla_{grad F} sigma = zeta sigma at x, or None when sigma is not preharmonic.

        sigma_sq is |sigma(x)|^2 when the caller has it already; sigma is
        evaluated only when it is None, also for families whose zeta does not read it.
        """
        return self._zeta(as_vector(x), self.sigma_sq(x) if sigma_sq is None else sigma_sq)

    def _zeta(self, x, sigma_sq):
        """zeta = eps (<c, c> - 2 <L c, x> - |sigma|^2) - lambda, for eta-skew L with L^3 = lambda L; else None."""
        lam = self.preharmonic_lambda
        if lam is None:
            return None
        c_sq, twice_Lc = self._zeta_terms  # x @ 2 eta L c = 2 <L c, x>
        return self._eps * (c_sq - x @ twice_Lc - sigma_sq) - lam

    @cached_property
    def _zeta_terms(self):
        return self.space.inner(self.c, self.c), 2.0 * self._eta * (self.L @ self.c)

    @cached_property
    def preharmonic_lambda(self) -> float | None:
        """lambda with L^3 = lambda L for an eta-skew L, else None; computed once, when first read.

        Both tests run on L0 = L / 2^e for the power of two 2^e at |L|max, so k L gets the verdict of L:
        L0 is skew, and |L0^3 - lambda0 L0| <= PREHARMONIC_OP_TOL |L0|^3 in Frobenius norms for
        lambda0 = <L0^3, L0> / <L0, L0>.  Then lambda = 4^e lambda0, exact wherever nothing underflows.
        """
        e = math.frexp(float(np.abs(self.L).max()))[1]
        L = np.ldexp(self.L, -e)
        if not self.space.is_skew(L):
            return None
        fro_sq = float((L * L).sum())
        if fro_sq == 0.0:  # L = 0: a conformal gradient, or the zero field
            return 0.0
        L3 = L @ L @ L
        lam = float((L3 * L).sum()) / fro_sq
        if float(np.square(L3 - lam * L).sum()) > PREHARMONIC_OP_TOL**2 * fro_sq**3:
            return None
        return math.ldexp(lam, 2 * e)

    @cached_property
    def nu(self) -> float | None:
        """Rough-Laplacian eigenvalue, when sigma is an eigenfield.

        nabla* nabla sigma = eps P_x((n-1) K x + (n+3) S x + c) for the
        eta-skew part K and the eta-self-adjoint part S of the trace-free L, so
        sigma is an eigenfield when its non-zero parts share one coefficient.
        A part is zero below PART_TOL times the largest entry of (L, c), so
        k sigma has the eigenvalue of sigma.  The zero field reports 0.
        """
        n, eps, L = self.space.n, self._eps, self.L
        K = 0.5 * (L - self._Ldag)
        S = 0.5 * (L + self._Ldag)
        tol = PART_TOL * max(np.abs(L).max(), np.abs(self.c).max())
        coeffs = {k for part, k in ((K, n - 1), (S, n + 3), (self.c, 1)) if np.abs(part).max() > tol}
        if len(coeffs) > 1:
            return None
        return float(eps * coeffs.pop()) if coeffs else 0.0

    # -- congruence, scaling and metadata -------------------------------------

    def _with(self, L, c, **metadata) -> "AffineField":
        """A copy of this field with (L, c) replaced and the given metadata updated."""
        new = copy.copy(self)
        new.__dict__.update(metadata)
        AffineField.__init__(new, L, c, self.space)
        return new

    def transform(self, g) -> "AffineField":
        """The congruent field g.sigma(g^{-1} x) for an isometry g: (g L g^-1, g c)."""
        g = np.asarray(g, dtype=float)
        g_inv = self.space.adjoint(g)  # isometries satisfy g^{-1} = eta g^T eta
        moved = {name: getattr(self, name) @ g.T for name in self._vectors}
        moved.update({name: g @ getattr(self, name) @ g_inv for name in self._operators})
        return self._with(g @ self.L @ g_inv, g @ self.c, **moved)

    def circle_action(self, t: float) -> "Conformal2DField":
        """e^{it}.sigma = cos(t) sigma + sin(t) J sigma on the hyperbolic plane.

        For eta-skew L, J sigma(x) = eta (x cross (L x + c)) is the conformal
        field with (L, c) -> (-eta [c]_x, -eps m): [c]_x is the cross-product
        matrix of c and m the axial vector of the antisymmetric eta L.
        """
        space, L, c = self.space, self.L, self.c
        if space.n != 2 or space.eps != -1:
            raise ValueError("circle action is defined on the hyperbolic plane")
        if not space.is_skew(L):
            raise ValueError("circle action needs a conformal field: L must be eta-skew")
        cx = np.array([[0.0, -c[2], c[1]], [c[2], 0.0, -c[0]], [-c[1], c[0], 0.0]])
        JL, Jc = -self._eta[:, None] * cx, -self._eps * _axial(self._eta[:, None] * L)
        cos, sin = math.cos(t), math.sin(t)
        return Conformal2DField.from_operator(space, cos * L + sin * JL, cos * c + sin * Jc)

    def params(self) -> dict:
        out = {}
        for key, name in self._param_keys.items():
            value = getattr(self, name)
            out[key] = value.tolist() if isinstance(value, np.ndarray) else value
        if self.scale_factor is not None:
            out["scale_factor"] = self.scale_factor
        return out


def scale_field(field: AffineField, factor: float) -> AffineField:
    """factor * sigma: the same family and parameters, with (L, c) scaled."""
    factor = _finite(factor, "scale")
    total = factor * (1.0 if field.scale_factor is None else field.scale_factor)
    return field._with(factor * field.L, factor * field.c, scale_factor=total)


# ---------------------------------------------------------------------------
# conformal gradient fields
# ---------------------------------------------------------------------------


class ConformalGradientField(AffineField):
    """sigma = grad alpha for alpha(x) = <a, x>; pole a, mu = <a, a>.

    (L, c) = (0, a): sigma(x) = a - eps*alpha*x, |sigma|^2 = mu - eps*alpha^2,
    nabla_X sigma = -eps*alpha X, and sigma is a rough-Laplacian
    eigenfunction with eigenvalue eps.  Always preharmonic, with
    zeta = eps*(<c, c> - |sigma|^2) = alpha^2 (lambda = 0).
    """

    family = "confgrad"
    _vectors = ("a",)
    _param_keys = {"pole": "a", "mu": "mu"}

    def __init__(self, a, space: SpaceForm):
        self.a = _finite(a, "pole")
        if np.shape(self.a) != (space.ambient_dim,):
            raise ValueError("pole has wrong dimension")
        self.mu = space.inner(self.a, self.a)
        if space.eps == -1 and self.mu < 0 and self.a[-1] <= 0:
            raise ValueError("timelike pole must be future-oriented")
        super().__init__(np.zeros((space.ambient_dim,) * 2), self.a, space)


# ---------------------------------------------------------------------------
# Killing fields
# ---------------------------------------------------------------------------


def _cluster(values: np.ndarray, tol: float) -> list[tuple[float, int]]:
    """Group sorted values into (mean, count) clusters."""
    out: list[list[float]] = []
    for v in sorted(values):
        if out and v - out[-1][-1] <= tol:
            out[-1].append(v)
        else:
            out.append([v])
    return [(float(np.mean(c)), len(c)) for c in out]


class KillingField(AffineField):
    """sigma(x) = A(x) for a skew-symmetric ambient operator A: (L, c) = (A, 0).

    On the sphere the normal form of A is a direct sum of r rotation blocks
    with angular frequencies (twists) omega_1 >= ... >= omega_r > 0.  On
    hyperbolic space A splits at a base point w into a rotational part R_w
    and a translational part T_w with speed tau = |A(w)|, and the sign of
    sum omega_i^2 - tau^2 (a congruence invariant) classifies sigma as an
    infinitesimal rotation, translation, or parabolic type.

    The field is a rough-Laplacian eigenfunction with eigenvalue eps*(n-1);
    it is preharmonic exactly when L^3 = lambda*L for a constant lambda, and
    then zeta = -(lambda + eps*|sigma|^2).  The normal form is derived from
    L on first read, so it describes scaled and moved fields too.
    """

    family = "killing"
    _vectors = ("base",)
    _operators = ("A",)
    _param_keys = {"operator": "A"}

    def __init__(self, A, space: SpaceForm, base=None):
        self.A = space.check_skew(_finite(A, "operator"))
        if self.A.shape != (space.ambient_dim,) * 2:
            raise ValueError("operator has wrong dimension")
        self.base = space.base_point() if base is None else space.check_point(base)
        super().__init__(self.A, np.zeros(space.ambient_dim), space)

    @cached_property
    def _normal_form(self) -> tuple[tuple[float, ...], float, str, bool]:
        """(twists, tau, kind, balanced), found on L0 = L / 2^e for the power of two 2^e at |L|max.

        Twists and tau are scaled back by 2^e.  Scaling by a power of two is
        exact, so the results are those of L itself wherever nothing
        underflows, and the tiniest and largest fields keep them too.
        """
        space = self.space
        e = math.frexp(float(np.abs(self.L).max()))[1]
        L = np.ldexp(self.L, -e)
        op_scale = float(np.abs(L).max())
        if space.eps == 1:
            tau = 0.0
            rot = self._twists_from_squares(np.linalg.eigvalsh(-L @ L), op_scale)
        else:
            w = self.base
            eta = space.eta
            v = L @ w
            tau = float(space.norm(v))
            T = np.outer(w, eta @ v) - np.outer(v, eta @ w)
            E = space.frame(w)  # rows
            Rt = E @ eta @ (L - T) @ E.T  # <R E_j, E_i> in the (Euclidean) tangent space
            rot = self._twists_from_squares(np.linalg.eigvalsh(Rt.T @ Rt), op_scale)  # = -Rt^2
        inv = sum(t * t for t in rot) - tau * tau
        if space.eps == 1:
            kind = "rotation"
        elif abs(inv) <= 1e-9 * op_scale**2:
            kind = "parabolic"
        else:
            kind = "rotation" if inv > 0 else "translation"
        balanced = not rot or rot[0] - rot[-1] <= CLUSTER_TOL * rot[0]
        return tuple(math.ldexp(t, e) for t in rot), math.ldexp(tau, e), kind, balanced

    twists = property(lambda self: self._normal_form[0])
    tau = property(lambda self: self._normal_form[1])
    kind = property(lambda self: self._normal_form[2])
    balanced = property(lambda self: self._normal_form[3])
    rank = property(lambda self: len(self.twists))

    def _twists_from_squares(self, sq, op_scale) -> tuple[float, ...]:
        tol = CLUSTER_TOL * op_scale**2
        twists: list[float] = []
        for mean, count in _cluster(np.clip(sq, 0.0, None), tol):
            if mean > tol:
                twists.extend([math.sqrt(mean)] * (count // 2))
        return tuple(sorted(twists, reverse=True))


class GeneralizedHopfField(KillingField):
    """The balanced rank-r block-rotation field scale * Sigma_r.

    Sigma_r rotates the coordinate planes (1,2), (3,4), ..., (2r-1, 2r) with
    unit speed and kills the remaining coordinates; on odd spheres with
    2r = n+1 it is the standard Hopf field.
    """

    family = "hopf"
    _param_keys = {"r": "block_rank", "scale": "scale"}

    def __init__(self, r: int, scale: float, space: SpaceForm):
        if r < 1:
            raise ValueError("rotational rank must be >= 1")
        self.block_rank = r
        self.scale = _finite(scale, "scale")
        super().__init__(_block_rotation([self.scale] * r, space), space)


def elementary_killing(a, b, space: SpaceForm) -> KillingField:
    """The Killing field K(x) = <a,x> b - <b,x> a determined by the pair (a, b)."""
    return KillingField(_pair_operator(as_vector(a), as_vector(b), space), space)


def hyperbolic_translation(tau: float, space: SpaceForm, direction=None) -> KillingField:
    """Infinitesimal translation of H^n with speed tau along the given axis direction."""
    if space.eps != -1:
        raise ValueError("translations exist on hyperbolic space only")
    w = space.base_point()
    if direction is None:
        direction = np.zeros(space.ambient_dim)
        direction[0] = 1.0
    v = _finite(tau, "tau") * space.check_tangent(w, direction)
    return elementary_killing(v, w, space)


def killing_from_twists(twists, space: SpaceForm) -> KillingField:
    """Block-diagonal Killing field with the given rotation frequencies."""
    return KillingField(_block_rotation(_finite(list(twists), "twists"), space), space)


# ---------------------------------------------------------------------------
# loxodromic fields
# ---------------------------------------------------------------------------


class LoxodromicField(AffineField):
    """R + C: a rank-r rotation plus a conformal gradient with orthogonal pole.

    L = sum_i omega_i K_i where K_i is the elementary Killing operator of the
    orthonormal pair (a_i, b_i), and c is a pole orthogonal to every a_i,
    b_i.  Properly loxodromic means R balanced and n = 2r; only then is the
    field preharmonic, with L^3 = lambda L for lambda = -omega^2, the common
    squared twist, and zeta = eps*(mu - |sigma|^2) + omega^2, mu = <c, c>.
    """

    family = "loxodromic"
    _vectors = ("pairs", "pole")
    _param_keys = {"pairs": "pairs", "omegas": "omegas", "pole": "pole", "mu": "mu"}

    def __init__(self, pairs, omegas, c, space: SpaceForm):
        self.pairs = _finite([list(p) for p in pairs], "rotation planes")
        self.omegas = [_finite(w, "omega") for w in omegas]
        self.pole = _finite(c, "pole")
        if len(self.pairs) != len(self.omegas) or not len(self.pairs):
            raise ValueError("need one twist per rotation plane, and at least one plane")
        if any(w <= 0 for w in self.omegas):
            raise ValueError("twists must be positive (drop trivial planes)")
        vecs = self.pairs.reshape(2 * len(self.pairs), -1)
        eta = space.eta
        if np.abs(vecs @ eta @ vecs.T - np.eye(len(vecs))).max() > TANGENT_TOL:
            raise ValueError("rotation-plane vectors must be spacelike orthonormal")
        if np.abs(vecs @ eta @ self.pole).max() > TANGENT_TOL * (1.0 + abs(self.pole).max()):
            raise ValueError("conformal pole must be orthogonal to the rotation planes")
        self.mu = space.inner(self.pole, self.pole)
        if not np.abs(self.pole).max() > 0:
            raise ValueError("conformal part must be non-trivial")
        mx = max(self.omegas)
        self.balanced = mx - min(self.omegas) <= CLUSTER_TOL * mx
        self.rank = len(self.pairs)
        self.properly = self.balanced and space.n == 2 * self.rank
        L = sum(w * _pair_operator(a, b, space) for w, (a, b) in zip(self.omegas, self.pairs))
        super().__init__(L, self.pole, space)

    def _zeta(self, x, sigma_sq):
        """zeta = eps*(mu - |sigma|^2) + omega^2, with lambda = -omega^2; None unless properly loxodromic."""
        return super()._zeta(x, sigma_sq) if self.properly else None


def associate_family_member(t: float) -> LoxodromicField:
    """The loxodromic field sin(t)*sigma_0 + cos(t)*sigma_1 on H^2.

    sigma_0 is the unit-twist rotation about (0,0,1) and sigma_1 the
    conformal gradient with pole (0,0,1); degenerate t (multiples of pi/2)
    are rejected since the endpoints leave the loxodromic class.
    """
    s, c = math.sin(t), math.cos(t)
    if abs(s) < 1e-12 or abs(c) < 1e-12:
        raise ValueError("t too close to a pure-rotation or pure-gradient endpoint")
    e1, e2, e3 = np.eye(3)
    pair = (e1, e2) if s > 0 else (e2, e1)
    return LoxodromicField([pair], [abs(s)], c * e3, hyperbolic(2))


# ---------------------------------------------------------------------------
# dipole deformation fields
# ---------------------------------------------------------------------------


class DipoleDeformationField(AffineField):
    """tau*T + r*A for a point w and unit tangent a at w.

    A is the conformal gradient with pole a and T the elementary Killing
    field of the pair (a, w), so (L, c) = (tau T, r a); |tau| = |r| (with
    the sign fixed by eps) gives the dipole field with a single zero at w.
    Preharmonic in every dimension: L^3 = lambda L with lambda = -eps tau^2.
    """

    family = "dipole"
    _vectors = ("w", "a")
    _param_keys = {"w": "w", "a": "a", "tau": "tau", "r": "r"}

    def __init__(self, w, a, tau: float, r: float, space: SpaceForm):
        self.w = space.check_point(w)
        a = space.check_tangent(self.w, a, tol=1e-12)
        if abs(space.norm_sq(a) - 1.0) > 1e-12:
            raise ValueError("dipole direction must be a unit tangent vector")
        self.a = a
        self.tau = _finite(tau, "tau")
        self.r = _finite(r, "r")
        super().__init__(self.tau * _pair_operator(self.a, self.w, space), self.r * self.a, space)


# ---------------------------------------------------------------------------
# conformal fields in dimension two
# ---------------------------------------------------------------------------


class Conformal2DField(AffineField):
    """K + C on a 2-dimensional space form: every conformal field.

    K = omega*R + tau*T with R the rotation about w and T the translation
    through w along a; C is the conformal gradient with pole located
    cylindrically as c = rr*s*a + rr*t*b + h*w, in the standard frame
    (a, b, w) = (e_1, e_2, base point).  On the sphere w can be taken on the
    axis of K, so tau = 0 there.  Every such field is preharmonic, as a 3x3
    eta-skew L has L^3 = lambda L: nabla sigma = a I + b J pointwise, with
    a = -eps <c, x> and b = <m, eta x> for the axial vector m of eta L, so
    zeta = a^2 + b^2.
    """

    family = "conformal2d"
    _vectors = ("w", "a", "b")
    _param_keys = {k: k for k in ("omega", "tau", "rr", "s", "t", "h")}

    def __init__(self, space: SpaceForm, omega: float, tau: float, rr: float, s: float, t: float, h: float):
        self._set_params(space, omega, tau, rr, s, t, h)
        L = self.omega * _pair_operator(self.a, self.b, space) + self.tau * _pair_operator(self.a, self.w, space)
        c = self.rr * self.s * self.a + self.rr * self.t * self.b + self.h * self.w
        super().__init__(L, c, space)

    def _set_params(self, space: SpaceForm, omega, tau, rr, s, t, h):
        """Check the parameters and keep them, with the standard frame (a, b, w) = (e_1, e_2, e_3)."""
        if space.n != 2:
            raise ValueError("Conformal2DField requires a 2-dimensional space form")
        self.a, self.b, self.w = np.eye(3)
        names = ("omega", "tau", "rr", "s", "t", "h")
        omega, tau, rr, s, t, h = (_finite(v, k) for v, k in zip((omega, tau, rr, s, t, h), names))
        if abs(s * s + t * t - 1.0) > 1e-12:
            raise ValueError("pole direction must satisfy s^2 + t^2 = 1")
        if omega < 0 or tau < 0:
            raise ValueError("Killing coefficients omega, tau must be >= 0")
        if space.eps == 1 and tau != 0.0:
            raise ValueError("on the sphere take w on the axis of K, so tau = 0")
        self.omega, self.tau, self.rr, self.s, self.t, self.h = omega, tau, rr, s, t, h

    @classmethod
    def from_operator(cls, space: SpaceForm, L, c) -> "Conformal2DField":
        """The field P_x(L x + c) for an eta-skew L, with its canonical parameters.

        Reads L = k_R R + k_a T_a + k_b T_b and c = c_a a + c_b b + c_w w in the
        standard frame (a, b, w) = (e_1, e_2, base point), where R is the pair
        operator of (a, b) and T_u that of (u, w); then turns the frame so that
        k_b = 0 and flips b so that k_R >= 0.  The constructor's checks run on
        those parameters; the field is then built once, on (L, c) as given, and
        keeps the turned frame.
        """
        k_R, k_a, k_b = float(L[1, 0]), float(L[2, 0]), float(L[2, 1])
        c_a, c_b, c_w = (float(v) for v in c)
        tol = PART_TOL * max(np.abs(L).max(), np.abs(c).max())  # relative, so k sigma keeps the form of sigma
        tau, phi = math.hypot(k_a, k_b), math.atan2(k_b, k_a)
        if tau <= tol:
            tau, phi = 0.0, 0.0
        cos, sin = math.cos(phi), math.sin(phi)
        a, b = np.array([cos, sin, 0.0]), np.array([-sin, cos, 0.0])
        c_a, c_b = cos * c_a + sin * c_b, cos * c_b - sin * c_a
        if k_R < 0:
            b, k_R, c_b = -b, -k_R, -c_b
        rr = math.hypot(c_a, c_b)
        if rr > tol:
            s, t = c_a / rr, c_b / rr
        else:
            rr, s, t = 0.0, 0.0, 1.0
        field = cls.__new__(cls)
        field._set_params(space, k_R, tau, rr, s, t, c_w)
        field.a, field.b = a, b
        AffineField.__init__(field, L, c, space)
        return field


# ---------------------------------------------------------------------------
# quadratic gradient fields on spheres
# ---------------------------------------------------------------------------


class QuadraticGradientField(AffineField):
    """sigma = (1/2) grad xi for the quadratic form xi(x) = <Q x, x> on S^n.

    (L, c) = (Q, 0), L in normal form: sigma(x) = L(x) - xi(x) x, so the zeros
    are exactly the unit eigenvectors of Q.  The field is a rough-Laplacian
    eigenfunction with eigenvalue n+3, and is preharmonic precisely when Q has
    two distinct eigenvalues, with zeta = (hi + lo - 2 xi)^2 for those of L,
    lo < hi.  eigenvalues are those of the given Q.
    """

    family = "quadratic"
    _param_keys = {"eigenvalues": "eigenvalues"}

    def __init__(self, Q, space: SpaceForm):
        if space.eps != 1:
            raise ValueError("quadratic gradient fields are defined on spheres only")
        Q = check_symmetric(_finite(Q, "operator"))
        if Q.shape != (space.ambient_dim,) * 2:
            raise ValueError("operator has wrong dimension")
        self.eigenvalues = np.linalg.eigvalsh(Q)
        super().__init__(Q, np.zeros(space.ambient_dim), space)

    @cached_property
    def _clusters(self) -> list[tuple[float, int]]:
        spectrum = np.linalg.eigvalsh(self.L)
        return _cluster(spectrum, CLUSTER_TOL * np.abs(spectrum).max())

    def xi(self, x, m: int = 1):
        """xi_m(x) = <L^m x, x> for the normal-form L, not the given Q: xi_1 is <Q x, x> shifted by a constant."""
        x = as_vector(x)
        return ((x @ np.linalg.matrix_power(self.L, m)) * x).sum(axis=-1)

    def _zeta(self, x, sigma_sq):
        """zeta = (hi + lo - 2 xi)^2."""
        if len(self._clusters) != 2:
            return None
        (lo, _), (hi, _) = self._clusters
        d = hi + lo - 2.0 * self.xi(x)
        return d * d


def quadratic_two_eigenvalue(r: int, lam: float, space: SpaceForm) -> QuadraticGradientField:
    """lam * Sigma_r: the two-eigenvalue field with gap lam on the first r axes."""
    if not 1 <= r <= space.n:
        raise ValueError("need 1 <= r <= n for a non-trivial two-eigenvalue field")
    d = np.zeros(space.ambient_dim)
    d[:r] = _finite(lam, "lam")
    return QuadraticGradientField(np.diag(d), space)


# ---------------------------------------------------------------------------
# declarative construction
# ---------------------------------------------------------------------------


def build_field(doc: dict) -> AffineField:
    """Build a field from a declarative description (family tag + numbers).

    This is the construction surface used by the CLI.  Raises ValueError on
    unknown families, missing or non-finite parameters, or leftover keys.
    """
    d = dict(doc)
    try:
        family = str(d.pop("family"))
        n = int(d.pop("n"))
        eps = int(d.pop("epsilon"))
    except KeyError as exc:
        raise ValueError(f"missing required key {exc}") from exc
    space = SpaceForm(n, eps)

    def num(key, default=None):
        if default is None and key not in d:
            raise ValueError(f"family {family!r} needs parameter {key!r}")
        return _finite(d.pop(key, default), key)

    def count(key, default=None) -> int:
        value = num(key, default)
        if np.ndim(value) or value != int(value):
            raise ValueError(f"{key} must be an integer, got {value}")
        return int(value)

    factor = num("scale", 1.0)
    if family == "confgrad":
        if "pole" in d:
            a = num("pole")
        else:
            mu = num("mu")
            a = np.zeros(space.ambient_dim)
            if mu > 0:
                a[0] = math.sqrt(mu)
            elif mu < 0:
                if eps != -1:
                    raise ValueError("mu < 0 needs hyperbolic space")
                a[-1] = math.sqrt(-mu)
            else:
                if eps != -1:
                    raise ValueError("mu = 0 gives the zero field on S^n; give a pole")
                a[0] = a[-1] = 1.0
        field = ConformalGradientField(a, space)
    elif family in ("killing", "hopf"):
        if "twists" in d:
            field = killing_from_twists(np.atleast_1d(num("twists")), space)
        elif "tau" in d:
            field = hyperbolic_translation(num("tau"), space)
        else:
            field = GeneralizedHopfField(count("r"), num("omega"), space)
    elif family == "loxodromic":
        r = count("r", 1)
        omega = num("omega")
        mu = num("mu")
        if not 1 <= r <= space.n // 2:
            raise ValueError(f"loxodromic rank r must satisfy 1 <= 2r <= n, got r={r}")
        e = np.eye(space.ambient_dim)
        pairs = [(e[2 * i], e[2 * i + 1]) for i in range(r)]
        if mu < 0:
            if eps != -1:
                raise ValueError("mu < 0 needs hyperbolic space")
            c = math.sqrt(-mu) * e[-1]
        elif mu > 0:
            c = math.sqrt(mu) * e[2 * r]
        else:
            raise ValueError("give the pole explicitly for mu = 0")
        field = LoxodromicField(pairs, [omega] * r, c, space)
    elif family == "dipole":
        e = np.eye(space.ambient_dim)
        field = DipoleDeformationField(e[-1], e[0], num("tau"), num("r"), space)
    elif family == "conformal2d":
        field = Conformal2DField(
            space,
            num("omega", 0.0),
            num("tau", 0.0),
            num("rr", 0.0),
            num("s", 0.0),
            num("t", 1.0),
            num("h", 0.0),
        )
    elif family == "quadratic":
        if "eigenvalues" in d:
            field = QuadraticGradientField(np.diag(num("eigenvalues")), space)
        else:
            field = quadratic_two_eigenvalue(count("r"), num("lam"), space)
    else:
        raise ValueError(f"unknown field family {family!r}")

    if d:
        raise ValueError(f"unexpected parameters for family {family!r}: {sorted(d)}")
    return scale_field(field, factor) if factor != 1.0 else field
