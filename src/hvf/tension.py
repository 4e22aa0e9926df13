"""The harmonic-section operator and the verification suite built on it.

For metric parameters (p, q) the operator is linear in the weights w = (1, p, q, pq):

    tau_{p,q}(sigma) = A + p B + q C + p q D,  A = (1 + |sigma|^2) nabla*nabla sigma,
    B = 2 nabla_{grad F} sigma - |nabla sigma|^2 sigma,  C = (1 + |sigma|^2) Delta F sigma,  D = |grad F|^2 sigma,

and sigma is (p, q)-harmonic when it vanishes.  ingredients() evaluates the closed
forms (one Jet of the field) or the finite-difference oracle (sigma only, through
the one stencil of SpaceForm.derivatives_fd, exact for the cubic sigma and so
judged at the same HARMONIC_TOL) on a point (m,) or a batch (N, m), m = n+1.
_parts builds A, B, C, D and their sizes from it, and _assemble contracts them
with w and |w| in one matrix product, for one (p, q) or a whole grid.  verify()
judges the residual relative to the summed sizes and runs preharmonic,
spinnaker_error, weitzenbock_error and q_riemannian (q|sigma|^2 >= -1) on its
one closed-form evaluation.  The two equivariance checks share one body,
_equivariance: the field and its image (moved by an isometry g, or turned by the
circle action) are stacked by AffineField._stack, so one pass gives both
tensions, each bitwise its own evaluation.  All four consumers (verify,
metric_grid_scan and the two checks) refuse in one place what they cannot judge,
under one errstate each, so nothing warns: _points refuses caller samples that
are empty or off the space form, _sampled a field whose terms all underflow, and
_finite a residual or a scale that is not finite.  For preharmonic eigenfields
the scalar reduction

    (p + q + 2qF) Delta F + 2p (1 + qF) zeta + nu (1 + 2(1 - p)F) = 0

is available as an independent residual.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass
from functools import cache

import numpy as np

from .fields import AffineField
from .params import HARMONIC_TOL, MetricParams
from .spaceform import SpaceForm

ZERO_LENGTH = 1e-6  # samples with |sigma| <= ZERO_LENGTH * max |sigma| leave the spinnaker and preharmonic checks
PREHARMONIC_TOL = 1e-8
# peak working set of verify in (count, n+1) float arrays, its sample included: 11.5-14.7 closed-form, plus
# 14.9-15.9 per FD stencil direction (n + 1 of them; 3 points and sigma's 4 temporaries of each are 15), by
# tracemalloc over the catalogue at 2000-20000 points and over random affine fields up to n = 40
LIVE_ARRAYS, FD_LIVE_ARRAYS_PER_DIR = 15, 16


@dataclass
class Ingredients:
    """Everything the operator needs, at one point or at a batch of points.

    Vectors have shape (..., m) and scalars shape (...), with the leading
    axes of the points they were evaluated at, on the space form `space`.
    rough_size is the length of field.rough_operand(x), whose tangent part is
    rough, in both modes; nabla_gradF_sigma_norm is the length of
    nabla_gradF_sigma.  Both are taken once for the tension scale and the checks.
    """

    space: SpaceForm
    sigma: np.ndarray
    sigma_sq: np.ndarray
    rough: np.ndarray
    nabla_gradF_sigma: np.ndarray
    nabla_sq: np.ndarray
    gradF_sq: np.ndarray
    lap_F: np.ndarray
    rough_size: np.ndarray
    nabla_gradF_sigma_norm: np.ndarray


def ingredients(field: AffineField, x, fd: bool = False) -> Ingredients:
    """The operator inputs at x, of shape (m,) or (N, m), from closed forms or the FD oracle.

    The oracle takes sigma, the rows nabla_{E_i} sigma along the frame E, the
    rough Laplacian and Delta F from one call of SpaceForm.derivatives_fd,
    which calls only sigma.  E is orthonormal, so with
    E_i F = <nabla_{E_i} sigma, sigma> = <grad F, E_i>, |grad F|^2 = sum (E_i F)^2
    and, by linearity, nabla_{grad F} sigma = sum (E_i F) nabla_{E_i} sigma.
    """
    x = np.asarray(x, dtype=float)
    M = field.space
    u = field.rough_operand(x)
    along = M.inner(u, x)
    u_tan = u - (M.eps * along)[..., None] * x  # M.tangent_project(x, u), keeping <u, x> for rough_size
    if fd:
        s, D, rough, lap = M.derivatives_fd(field, x)
        c = M.inner(D, s[..., None, :])  # E_i F = <grad F, E_i>
        gF_sq, ngs = (c * c).sum(axis=-1), (c[..., None] * D).sum(axis=-2)
        nsq = M.norm_sq(D).sum(axis=-1)
    else:
        j = field.jet(x)
        s, gF = j.sigma, field.grad_F(j)
        ngs, nsq, gF_sq = field.nabla(j, gF), field.nabla_norm_sq(j), M.norm_sq(gF)
        rough, lap = u_tan, field.lap_F(j)
    return Ingredients(
        space=M,
        sigma=s,
        sigma_sq=M.norm_sq(s),
        rough=rough,
        nabla_gradF_sigma=ngs,
        nabla_sq=nsq,
        gradF_sq=gF_sq,
        lap_F=lap,
        rough_size=np.sqrt(np.maximum(M.norm_sq(u_tan), 0.0) + along * along),
        nabla_gradF_sigma_norm=M.norm(ngs),
    )


def _parts(ing: Ingredients) -> np.ndarray:
    """A, B, C and D at the points of ing, each vector with its size appended: shape (4, ..., m+1).

    The sizes are those the residual scale sums: (1 + |s|^2)|rough operand|, 2|nabla_gradF s| + |nabla s|^2 |s|,
    (1 + |s|^2)|Delta F||s| and |grad F|^2 |s|.  One vector product a line, as numpy holds two arrays to broadcast one.
    """
    one, s = 1.0 + ing.sigma_sq, ing.sigma
    s_len, c = np.sqrt(np.maximum(ing.sigma_sq, 0.0)), one * ing.lap_F
    parts = np.empty((4,) + s.shape[:-1] + (s.shape[-1] + 1,))
    vec, size = parts[..., :-1], parts[..., -1]
    size[0], size[1] = one * ing.rough_size, 2.0 * ing.nabla_gradF_sigma_norm + ing.nabla_sq * s_len
    size[2], size[3] = np.abs(c) * s_len, ing.gradF_sq * s_len
    np.multiply(one[..., None], ing.rough, out=vec[0])
    np.multiply(c[..., None], s, out=vec[2])
    np.multiply(ing.gradF_sq[..., None], s, out=vec[3])
    b = ing.nabla_sq[..., None] * s
    vec[1] = np.subtract(2.0 * ing.nabla_gradF_sigma, b, out=b)
    return parts


def _weights(p, q) -> np.ndarray:
    """The rows w = (1, p, q, pq) and |w|, of shape (2, ..., 4) over the broadcast shape of p and q."""
    w = np.empty((2,) + np.broadcast(p, q).shape + (4,))
    w[0, ..., 0], w[0, ..., 1], w[0, ..., 2], w[0, ..., 3] = 1.0, p, q, np.multiply(p, q)
    w[1] = np.abs(w[0])
    return w


def _assemble(w: np.ndarray, parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tension, residual scale) = (w . vectors, |w| . sizes), shaped as the weights, then the points.

    w has two rows, so every shape is one matrix-matrix product and a grid cell rounds as verify does at its (p, q).
    The scale sums the sizes of the terms: k sigma is judged like sigma, a cancellation between them is no small tension."""
    out = (w.reshape(-1, 4) @ parts.reshape(4, -1)).reshape(w.shape[:-1] + parts.shape[1:])
    return out[0, ..., :-1], out[1, ..., -1]


def tension(field: AffineField, x, mp: MetricParams) -> np.ndarray:
    """The closed-form tension tau_{p,q}(sigma) at x; zero exactly for harmonic fields."""
    return _assemble(_weights(mp.p, mp.q), _parts(ingredients(field, x)))[0]


def reduced_pde_residual(field: AffineField, x, mp: MetricParams):
    """Scalar residual of the reduced harmonicity equation for preharmonic eigenfields."""
    nu = field.nu
    s_sq = field.sigma_sq(x)
    zeta = field.spinnaker(x, s_sq)
    if nu is None or zeta is None:
        raise ValueError("field is not a preharmonic rough-Laplacian eigenfunction")
    F = 0.5 * s_sq
    dF = field.lap_F(x)
    p, q = mp.p, mp.q
    return (p + q + 2.0 * q * F) * dF + 2.0 * p * (1.0 + q * F) * zeta + nu * (
        1.0 + 2.0 * (1.0 - p) * F
    )


def _kept(ing: Ingredients):
    """Index of the samples the preharmonic and spinnaker checks judge: those with |sigma| > ZERO_LENGTH * max |sigma|.

    A mask when a sample is dropped, else ... (every sample), so that indexing copies nothing.
    """
    keep = ing.sigma_sq > ZERO_LENGTH**2 * ing.sigma_sq.max(initial=0.0)
    return ... if keep.all() else keep


def _vanishes(field: AffineField) -> bool:
    """Is sigma = P_x(L x + c) zero at every point?  Exactly when (L, c) = 0, as L is in normal form."""
    return not (field.L.any() or field.c.any())


def preharmonic(ing: Ingredients, zeta) -> tuple[bool, float]:
    """Is nabla_{grad F} sigma = zeta sigma at the samples of ing, for the family zeta?

    Falls back to zeta = |grad F|^2 / |sigma|^2 (the only candidate) when the
    family provides no spinnaker (zeta None).  Returns (verdict, max relative
    error).  Both the mask and the scale are homogeneous in sigma: the points
    _kept drops are skipped, and each error is divided by
    |nabla_{grad F} sigma| + |zeta| |sigma| + (max |sigma|)^3, which scale
    like the error itself, so k sigma gets the verdict of sigma.  With every
    sample dropped there is nothing to judge: (False, nan).
    """
    M = ing.space
    top_sq = ing.sigma_sq.max(initial=0.0)
    keep = _kept(ing)
    s_sq, ngs = ing.sigma_sq[keep], ing.nabla_gradF_sigma[keep]
    zeta = ing.gradF_sq[keep] / s_sq if zeta is None else zeta[keep]
    if not s_sq.size:
        return False, math.nan
    scale = ing.nabla_gradF_sigma_norm[keep] + np.abs(zeta) * np.sqrt(s_sq) + top_sq ** 1.5
    with np.errstate(divide="ignore", invalid="ignore"):  # a scale that underflowed gives NaN: not preharmonic
        err = M.norm(ngs - zeta[..., None] * ing.sigma[keep]) / scale
    worst = float(err.max(initial=0.0))
    return worst < PREHARMONIC_TOL, worst


def _relative(err, size):
    """err / size per point, with 0/0 read as 0, under its caller's np.errstate: every check's relative errors."""
    return np.where(err == 0, 0.0, err / size)[()]


def _points(M: SpaceForm, samples) -> np.ndarray:
    """samples as an (N, n+1) float array, refused when empty (the checks take a maximum) or when a row is no point
    of M: the closed forms hold on the quadric only, and off it a harmonic field reads as not harmonic."""
    x = np.asarray(samples, dtype=float)
    if not x.size:
        raise ValueError("samples is empty: the checks take a maximum over at least one point")
    if x.ndim != 2 or not M.is_point(x):
        raise ValueError(f"samples must be an (N, {M.ambient_dim}) array of points of the space form")
    return x


def _sampled(field: AffineField, samples, image=None) -> Ingredients:
    """Closed-form ingredients over samples; ValueError when (L, c) != 0 underflows at all of them.

    image = (field2, points2) evaluates field2 at points2 in the same pass: each array of the result then has a
    leading axis of two, the field first.  The underflow is judged on the field alone.
    """
    if image is None:
        ing = ingredients(field, samples)
        own = ing.rough_size
    else:
        ing = ingredients(field._stack(image[0]), np.array([samples, image[1]]))
        own = ing.rough_size[0]
    if not (own.any() or _vanishes(field)):
        raise ValueError("field too small to analyse: every term of its tension underflows to 0 at every sample")
    return ing


def _finite(sq, scale=1.0) -> None:
    """The one non-finite rule of every tension consumer: ValueError unless sq = |t|^2 (|t| clips a timelike -inf on
    H^n to 0) and scale are finite throughout, as a finite |t| over an infinite scale would read as harmonic.  Values
    per sample name the first that fails.  One product, under the caller's errstate, decides while all is finite."""
    if math.isfinite(np.dot(sq, scale)):
        return
    ok = np.isfinite(sq) & np.isfinite(scale)
    if not ok.all():
        where = f" at sample {np.argmin(ok)}" if ok.ndim == 1 else ""
        raise ValueError(f"non-finite tension residual or scale{where}")


def spinnaker_error(ing: Ingredients, zeta):
    """Relative error in |sigma|^2 zeta = |grad F|^2 at each point of ing, None when zeta is None.

    Each point's error is divided by |sigma|^2 |zeta| + |grad F|^2 + |sigma|^4,
    which scales like it, so k sigma gets the error of sigma.
    """
    if zeta is None:
        return None
    s_zeta = ing.sigma_sq * zeta
    with np.errstate(all="ignore"):
        return _relative(np.abs(s_zeta - ing.gradF_sq), np.abs(s_zeta) + ing.gradF_sq + ing.sigma_sq**2)


def weitzenbock_error(ing: Ingredients):
    """Relative error in <nabla*nabla sigma, sigma> = |nabla sigma|^2 + Delta F at each point of ing.

    Each point's error is divided by |<nabla*nabla sigma, sigma>| + |nabla sigma|^2
    + |sigma|^2, which scales like it, so k sigma gets the error of sigma.
    """
    lhs = ing.space.inner(ing.rough, ing.sigma)
    with np.errstate(all="ignore"):
        return _relative(np.abs(lhs - (ing.nabla_sq + ing.lap_F)), np.abs(lhs) + ing.nabla_sq + ing.sigma_sq)


def q_riemannian(ing: Ingredients, q: float) -> bool:
    """q |sigma(x)|^2 >= -1 at every sample of ing; constant-length fields pass outright."""
    hi, lo = ing.sigma_sq.max(), ing.sigma_sq.min()
    if hi - lo <= 1e-9 * (1.0 + abs(hi)):
        return True
    return bool((q * ing.sigma_sq >= -1.0 - 1e-12).all())


@dataclass
class TensionReport:
    """Aggregated verification verdicts over a seeded sample of points.

    derivative_source names where the tension residual came from: "closed-form",
    or "finite-difference" for the step-free stencil of SpaceForm.derivatives_fd;
    preharmonic, weitzenbock_max_err and spinnaker_max_err are closed-form values
    either way.  tol is the threshold the harmonic verdict compared
    max_rel_residual with, HARMONIC_TOL unless one was given, in both modes.
    to_dict turns the samples and their residuals and scales into per_point rows.
    """

    family: str
    params: dict
    p: float
    q: float
    n: int
    epsilon: int
    seed: int
    count: int
    max_rel_residual: float
    tol: float
    harmonic: bool
    preharmonic: bool
    q_riemannian: bool
    weitzenbock_max_err: float
    spinnaker_max_err: float | None
    derivative_source: str
    samples: np.ndarray
    residuals: np.ndarray
    scales: np.ndarray

    def to_dict(self) -> dict:
        out = dict(vars(self))
        rows = enumerate(zip(*(out.pop(k).tolist() for k in ("samples", "residuals", "scales"))))
        out["per_point"] = [{"index": i, "point": x, "residual": r, "scale": sc} for i, (x, r, sc) in rows]
        out["verdicts"] = {k: out.pop(k) for k in ("harmonic", "preharmonic", "q_riemannian")}
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


@cache
def _physical_memory() -> int:
    """Bytes of physical memory, read once per process; 0 when unknown."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or it does not know these names
        return 0


def _working_set(count: int, M: SpaceForm, fd: bool) -> int:
    """Bytes verify holds at its peak for `count` points of M: float arrays of shape (count, n+1)."""
    return count * M.ambient_dim * 8 * (LIVE_ARRAYS + (FD_LIVE_ARRAYS_PER_DIR * M.ambient_dim if fd else 0))


def verify(
    field: AffineField,
    mp: MetricParams,
    count: int = 200,
    seed: int = 42,
    tol: float = HARMONIC_TOL,
    fd: bool = False,
) -> TensionReport:
    """Run the full identity/residual suite on `count` seeded sample points.

    With fd=True only the tension residual (max_rel_residual, harmonic and
    the residuals and scales) comes from the FD oracle, whose stencil is exact
    for the cubic sigma, so tol is HARMONIC_TOL by default in both modes; every
    other check uses closed forms.  The preharmonic verdict and the identity
    errors are relative to the sampled size of sigma, so scaling the field
    changes neither; spinnaker_max_err skips the samples that preharmonic
    skips.  A field that vanishes identically is preharmonic.  A count whose arrays cannot
    fit in physical memory is rejected before any point is drawn, and so is a seed that is
    not a non-negative integer.  A non-zero field whose tension terms all underflow is rejected as too small.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    M = field.space
    need, phys = _working_set(count, M, fd), _physical_memory()
    if 0 < phys < need:
        raise ValueError(f"{count} points need about {need / 2**30:.3g} GiB, more than the {phys / 2**30:.3g} GiB of physical memory")
    samples = M.sample_points(count, seed)
    with np.errstate(all="ignore"):  # _finite refuses what overflows; _relative reads 0/0 as 0
        ing = _sampled(field, samples)
        t, scale = _assemble(_weights(mp.p, mp.q), _parts(ingredients(field, samples, fd=True) if fd else ing))
        sq = M.norm_sq(t)
        _finite(sq, scale)
        res = np.sqrt(np.maximum(sq, 0.0))  # M.norm(t)
        rel = _relative(res, scale)
    zeta = field.spinnaker(samples, ing.sigma_sq)
    sp_err = spinnaker_error(ing, zeta)
    judged = None if sp_err is None else sp_err[_kept(ing)]
    return TensionReport(
        family=field.family,
        params=field.params(),
        p=mp.p,
        q=mp.q,
        n=M.n,
        epsilon=M.eps,
        seed=seed,
        count=count,
        max_rel_residual=float(rel.max()),
        tol=float(tol),
        harmonic=bool(rel.max() < tol),
        preharmonic=_vanishes(field) or preharmonic(ing, zeta)[0],
        q_riemannian=q_riemannian(ing, mp.q),
        weitzenbock_max_err=float(weitzenbock_error(ing).max()),
        spinnaker_max_err=float(judged.max()) if judged is not None and judged.size else None,
        derivative_source="finite-difference" if fd else "closed-form",
        samples=samples,
        residuals=res,
        scales=scale.copy(),  # not a view that keeps the whole product alive
    )


def metric_grid_scan(field: AffineField, ps, qs, samples) -> np.ndarray:
    """Max relative tension residual over samples, for every (p, q) on the grid of the 1-D ps and qs.

    The parts are built once for all samples and the weights once for the grid, so each sample costs one
    matrix product and the working set stays at a few grids of vectors.  Each cell is the max_rel_residual
    verify reports at its (p, q) on the same samples.  _finite judges the parts at the largest |p| and |q|, whose
    scale bounds every cell's, before the loop, and the grid after it.
    """
    P, Q = np.asarray(ps, dtype=float), np.asarray(qs, dtype=float)
    if P.ndim != 1 or Q.ndim != 1 or not (np.isfinite(P).all() and np.isfinite(Q).all()):
        raise ValueError("ps and qs must be 1-D arrays of finite numbers")
    M = field.space
    x = _points(M, samples)
    with np.errstate(all="ignore"):  # _finite refuses what overflows; _relative reads 0/0 as 0
        w, parts = _weights(P[:, None], Q[None, :]), _parts(_sampled(field, x))
        t, scale = _assemble(_weights(np.abs(P).max(initial=0.0), np.abs(Q).max(initial=0.0)), parts)
        _finite(M.norm_sq(t), scale)
        out = np.zeros((P.size, Q.size))
        for i in range(len(x)):
            t, scale = _assemble(w, parts[:, i])
            out = np.maximum(out, _relative(M.norm(t), scale))
        _finite(out.max(initial=0.0))
    return out


def _equivariance(field: AffineField, x, image: AffineField, points, mp: MetricParams, act) -> float:
    """max over samples x of |act(tau(field)(x)) - tau(image)(points)| / scale, with the field's own scale and both
    tensions from one evaluation of the two fields, stacked."""
    M = field.space
    with np.errstate(all="ignore"):  # _finite refuses what overflows; _relative reads 0/0 as 0
        t, scale = _assemble(_weights(mp.p, mp.q), _parts(_sampled(field, x, (image, points))))
        sq = M.norm_sq(act(t[0]) - t[1])
        _finite(sq, scale[0])
        return float(_relative(np.sqrt(np.maximum(sq, 0.0)), scale[0]).max())


def isometry_equivariance_check(field: AffineField, g, mp: MetricParams, samples) -> float:
    """max over samples of |g tau(sigma)(x) - tau(g.sigma)(g x)| / scale."""
    M, g = field.space, np.asarray(g, dtype=float)
    x = _points(M, samples)
    if not M.is_isometry(g):
        raise ValueError("g does not preserve the signature form (and sheet)")
    return _equivariance(field, x, field.transform(g), M.normalize_point(x @ g.T), mp, lambda v: v @ g.T)


def circle_equivariance_check(field: AffineField, t: float, mp: MetricParams, samples) -> float:
    """max over samples of |e^{it}.tau(sigma)(x) - tau(e^{it}.sigma)(x)| / scale.

    The two sides are independent derivations: on the left the tension is
    turned pointwise by SpaceForm.complex_rotation, on the right the field is
    turned first by AffineField.circle_action, the linear map on (L, c).
    """
    M = field.space
    x = _points(M, samples)
    turned = field.circle_action(t)
    return _equivariance(field, x, turned, x, mp, lambda v: np.cos(t) * v + np.sin(t) * M.complex_rotation(x, v))
