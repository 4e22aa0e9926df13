"""The harmonic-section operator and the verification suite built on it.

For metric parameters (p, q) the operator is

    tau_{p,q}(sigma) = T_p(sigma) - phi_{p,q}(sigma) * sigma,
    T_p(sigma)       = (1 + |sigma|^2) nabla*nabla sigma + 2p nabla_{grad F} sigma,
    phi_{p,q}(sigma) = p |nabla sigma|^2 - p q |grad F|^2 - q (1 + |sigma|^2) Delta F,

and sigma is (p, q)-harmonic when the residual vanishes.  verify() samples
points, measures the relative residual against a per-point scale, and also
runs the checks preharmonic, spinnaker_error, weitzenbock_error and
q_riemannian (q|sigma|^2 >= -1).  Each check reads one Ingredients, which
records its space form; preharmonic and spinnaker_error also take the
field's spinnaker zeta, and q_riemannian takes q.  verify passes the one
evaluation it makes to all of them and to the spinnaker, which takes
|sigma|^2 from it: a closed-form verify evaluates sigma once.  For
preharmonic eigenfields the scalar reduction

    (p + q + 2qF) Delta F + 2p (1 + qF) zeta + nu (1 + 2(1 - p)F) = 0

is available as an independent residual.

There is one evaluation path.  ingredients() evaluates the closed forms or
the finite-difference oracle at once on a point of shape (m,) or a batch of
shape (N, m), m = n+1, and every tension, residual, check and grid scan is
assembled from those arrays; results keep the leading axes.  The closed forms
share one Jet of the field per call.  The oracle's derivatives call only sigma:
SpaceForm.derivatives_fd takes nabla sigma along the frame, the rough
Laplacian and Delta F from one +-h stencil with one step.
A report keeps its per-point values as arrays until it is serialised.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .fields import AffineField
from .params import FD_TOL, HARMONIC_TOL, MetricParams
from .spaceform import DEFAULT_H, SpaceForm

ZERO_LENGTH = 1e-6  # samples with |sigma| <= ZERO_LENGTH * max |sigma| leave the spinnaker and preharmonic checks
PREHARMONIC_TOL = 1e-8
# peak working set of verify in (count, n+1) float arrays: 10.4-13.4 closed-form, plus 8.2-10.6 per
# dimension n for the one FD stencil (tracemalloc over the catalogue at 4000 and 20000 points)
LIVE_ARRAYS, FD_LIVE_ARRAYS_PER_DIM = 14, 11


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

    def __getitem__(self, index) -> "Ingredients":
        """The ingredients at the selected points (an index, slice or mask)."""
        arrays = {k: v[index] for k, v in vars(self).items() if k != "space"}
        return replace(self, **arrays)


def ingredients(field: AffineField, x, fd: bool = False, h: float | None = None) -> Ingredients:
    """The operator inputs at x, of shape (m,) or (N, m), from closed forms or the FD oracle.

    The oracle takes sigma, the rows nabla_{E_i} sigma along the frame E, the
    rough Laplacian and Delta F from one call of SpaceForm.derivatives_fd, with
    step h (DEFAULT_H when None).  E is orthonormal, so with
    E_i F = <nabla_{E_i} sigma, sigma> = <grad F, E_i>, |grad F|^2 = sum (E_i F)^2
    and, by linearity, nabla_{grad F} sigma = sum (E_i F) nabla_{E_i} sigma.
    """
    x = np.asarray(x, dtype=float)
    M = field.space
    u = field.rough_operand(x)
    along = M.inner(u, x)
    u_tan = u - (M.eps * along)[..., None] * x  # M.tangent_project(x, u), keeping <u, x> for rough_size
    if fd:
        s, D, rough, lap = M.derivatives_fd(field, x, DEFAULT_H if h is None else h)
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


def _assemble(ing: Ingredients, p, q) -> tuple[np.ndarray, np.ndarray]:
    """(tension, residual scale), broadcasting over the points of ing and over p and q.

    The scale is the sum of the sizes of the terms the tension adds up, with the three parts of phi apart:
    (1 + |s|^2)|rough operand| + 2|p||nabla_gradF s| + (|p||nabla s|^2 + |pq||grad F|^2 + |q|(1 + |s|^2)|Delta F|)|s|.
    So k sigma is judged like sigma, and a cancellation inside phi is no small tension.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    one = 1.0 + ing.sigma_sq
    a, b, c = p * ing.nabla_sq, p * q * ing.gradF_sq, q * one * ing.lap_F  # phi = a - b - c
    t = one[..., None] * ing.rough + 2.0 * p[..., None] * ing.nabla_gradF_sigma - (a - b - c)[..., None] * ing.sigma
    size_phi = (np.abs(a) + np.abs(b) + np.abs(c)) * np.sqrt(np.maximum(ing.sigma_sq, 0.0))
    return t, one * ing.rough_size + 2.0 * np.abs(p) * ing.nabla_gradF_sigma_norm + size_phi


def tension(field: AffineField, x, mp: MetricParams) -> np.ndarray:
    """The closed-form tension tau_{p,q}(sigma) at x; zero exactly for harmonic fields."""
    return _assemble(ingredients(field, x), mp.p, mp.q)[0]


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
    """err / size per point, with 0/0 read as 0: the relative residuals and identity errors of every check."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(err == 0, 0.0, err / size)[()]


def _sampled(field: AffineField, samples) -> Ingredients:
    """Closed-form ingredients over samples; ValueError for none, or when (L, c) != 0 underflows at all of them."""
    if len(samples) == 0:
        raise ValueError("samples is empty: the checks take a maximum over at least one point")
    ing = ingredients(field, samples)
    if not (ing.rough_size.any() or _vanishes(field)):
        raise ValueError("field too small to analyse: every term of its tension underflows to 0 at every sample")
    return ing


def spinnaker_error(ing: Ingredients, zeta):
    """Relative error in |sigma|^2 zeta = |grad F|^2 at each point of ing, None when zeta is None.

    Each point's error is divided by |sigma|^2 |zeta| + |grad F|^2 + |sigma|^4,
    which scales like it, so k sigma gets the error of sigma.
    """
    if zeta is None:
        return None
    s_zeta = ing.sigma_sq * zeta
    return _relative(np.abs(s_zeta - ing.gradF_sq), np.abs(s_zeta) + ing.gradF_sq + ing.sigma_sq**2)


def weitzenbock_error(ing: Ingredients):
    """Relative error in <nabla*nabla sigma, sigma> = |nabla sigma|^2 + Delta F at each point of ing.

    Each point's error is divided by |<nabla*nabla sigma, sigma>| + |nabla sigma|^2
    + |sigma|^2, which scales like it, so k sigma gets the error of sigma.
    """
    lhs = ing.space.inner(ing.rough, ing.sigma)
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

    derivative_source names where the tension residual came from; preharmonic,
    weitzenbock_max_err and spinnaker_max_err are closed-form values either way.
    tol is the threshold the harmonic verdict compared max_rel_residual with.
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


def _check_fits(count: int, m: int, arrays: int) -> None:
    """Raise ValueError when `arrays` float arrays of shape (count, m) exceed the physical memory."""
    phys = _physical_memory()
    need = count * m * 8 * arrays
    if 0 < phys < need:
        raise ValueError(
            f"{count} points need about {need / 2**30:.3g} GiB, more than the "
            f"{phys / 2**30:.3g} GiB of physical memory"
        )


def verify(
    field: AffineField,
    mp: MetricParams,
    count: int = 200,
    seed: int = 42,
    tol: float | None = None,
    fd: bool = False,
    h: float | None = None,
) -> TensionReport:
    """Run the full identity/residual suite on `count` seeded sample points.

    With fd=True only the tension residual (max_rel_residual, harmonic and
    the residuals and scales) comes from the FD oracle; every other check
    uses closed forms.  The preharmonic verdict and the identity errors are
    relative to the sampled size of sigma, so scaling the field changes
    neither; spinnaker_max_err skips the samples that preharmonic skips.  A
    field that vanishes identically is preharmonic.
    tol defaults to HARMONIC_TOL, or to FD_TOL with fd=True.  A count whose arrays cannot
    fit in physical memory is rejected before any point is drawn, and so is a seed that is
    not a non-negative integer.  A non-zero field whose tension terms all underflow is rejected as too small.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if tol is None:
        tol = FD_TOL if fd else HARMONIC_TOL
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    M = field.space
    _check_fits(count, M.ambient_dim, LIVE_ARRAYS + (FD_LIVE_ARRAYS_PER_DIM * M.n if fd else 0))
    samples = M.sample_points(count, seed)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        ing = _sampled(field, samples)
        t, scale = _assemble(ingredients(field, samples, fd=True, h=h) if fd else ing, mp.p, mp.q)
        res = M.norm(t)
    # a non-finite ingredient makes the tension t non-finite too
    finite = np.isfinite(t).all(axis=-1) & np.isfinite(res) & np.isfinite(scale)
    if not finite.all():
        raise ValueError(f"non-finite tension residual or ingredient at sample {np.argmin(finite)}")
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
        scales=scale,
    )


def metric_grid_scan(field: AffineField, ps, qs, samples) -> np.ndarray:
    """Max relative tension residual over samples, for every (p, q) on the grid.

    The ingredients are computed once for all samples; each sample's
    residual is then broadcast over the (len(ps), len(qs)) grid, so the
    working set stays at one grid of vectors.
    """
    M = field.space
    P = np.asarray(ps, dtype=float)[:, None]
    Q = np.asarray(qs, dtype=float)[None, :]
    ing = _sampled(field, samples)
    out = np.zeros((P.size, Q.size))
    for i in range(len(ing.sigma_sq)):
        t, scale = _assemble(ing[i], P, Q)
        out = np.maximum(out, _relative(M.norm(t), scale))
    return out


def isometry_equivariance_check(field: AffineField, g, mp: MetricParams, samples) -> float:
    """max over samples of |g tau(sigma)(x) - tau(g.sigma)(g x)| / scale."""
    ing = _sampled(field, samples)
    M = field.space
    g = np.asarray(g, dtype=float)
    if not M.is_isometry(g):
        raise ValueError("g does not preserve the signature form (and sheet)")
    t, scale = _assemble(ing, mp.p, mp.q)
    moved = tension(field.transform(g), M.normalize_point(samples @ g.T), mp)
    return float(_relative(M.norm(t @ g.T - moved), scale).max())


def circle_equivariance_check(field: AffineField, t: float, mp: MetricParams, samples) -> float:
    """max over samples of |e^{it}.tau(sigma)(x) - tau(e^{it}.sigma)(x)| / scale.

    The two sides are independent derivations: on the left the tension is
    turned pointwise by SpaceForm.complex_rotation, on the right the field is
    turned first by AffineField.circle_action, the linear map on (L, c).
    """
    M = field.space
    v, scale = _assemble(_sampled(field, samples), mp.p, mp.q)
    lhs = np.cos(t) * v + np.sin(t) * M.complex_rotation(samples, v)
    rhs = tension(field.circle_action(t), samples, mp)
    return float(_relative(M.norm(lhs - rhs), scale).max())
