"""The harmonic-section operator and the verification suite built on it.

For metric parameters (p, q) the operator is

    tau_{p,q}(sigma) = T_p(sigma) - phi_{p,q}(sigma) * sigma,
    T_p(sigma)       = (1 + |sigma|^2) nabla*nabla sigma + 2p nabla_{grad F} sigma,
    phi_{p,q}(sigma) = p |nabla sigma|^2 - p q |grad F|^2 - q (1 + |sigma|^2) Delta F,

and sigma is (p, q)-harmonic when the residual vanishes.  verify() samples
points, measures the relative residual against a per-point scale, and also
checks the Weitzenboeck identity, the spinnaker identities, and the
q-Riemannian inequality q|sigma|^2 >= -1.  For preharmonic eigenfields the
scalar reduction

    (p + q + 2qF) Delta F + 2p (1 + qF) zeta + nu (1 + 2(1 - p)F) = 0

is available as an independent residual.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import AffineField, circle_action

HARMONIC_TOL = 1e-7  # an order above the observed oracle noise floor (~1e-9)
ZERO_LENGTH = 1e-6  # samples below this |sigma| are excluded from spinnaker division
PREHARMONIC_TOL = 1e-8


@dataclass(frozen=True)
class MetricParams:
    """The pair (p, q) selecting a generalised Cheeger-Gromoll metric."""

    p: float
    q: float

    def __post_init__(self):
        if not (np.isfinite(self.p) and np.isfinite(self.q)):
            raise ValueError("metric parameters must be finite")


@dataclass
class Ingredients:
    """Everything the operator needs at one point."""

    sigma: np.ndarray
    sigma_sq: float
    rough: np.ndarray
    nabla_gradF_sigma: np.ndarray
    nabla_sq: float
    gradF_sq: float
    lap_F: float
    source: str  # "closed-form" or "finite-difference"


def ingredients(field: AffineField, x, fd: bool = False, h: float | None = None) -> Ingredients:
    """Collect the operator inputs, from closed forms or the FD oracle."""
    M = field.space
    s = field.sigma(x)
    s_sq = M.sig.norm_sq(s)
    if not fd:
        gF = field.grad_F(x)
        return Ingredients(
            sigma=s,
            sigma_sq=s_sq,
            rough=field.rough_laplacian(x),
            nabla_gradF_sigma=field.nabla_gradF_sigma(x),
            nabla_sq=field.nabla_norm_sq(x),
            gradF_sq=M.sig.norm_sq(gF),
            lap_F=field.lap_F(x),
            source="closed-form",
        )
    h1 = h if h is not None else 1e-4
    h2 = h if h is not None else 1e-3
    frame = M.frame(x)
    derivs = [M.covariant_derivative_fd(field, x, E, h1) for E in frame]
    gF = sum(M.inner(d, s) * E for d, E in zip(derivs, frame))
    return Ingredients(
        sigma=s,
        sigma_sq=s_sq,
        rough=M.rough_laplacian_fd(field, x, h2),
        nabla_gradF_sigma=M.covariant_derivative_fd(field, x, gF, h1),
        nabla_sq=sum(M.sig.norm_sq(d) for d in derivs),
        gradF_sq=M.sig.norm_sq(gF),
        lap_F=M.laplacian_fd(lambda y: 0.5 * M.sig.norm_sq(field.sigma(y)), x, h2),
        source="finite-difference",
    )


def _phi(ing: Ingredients, p: float, q: float) -> float:
    return p * ing.nabla_sq - p * q * ing.gradF_sq - q * (1.0 + ing.sigma_sq) * ing.lap_F


def tension_from_ingredients(ing: Ingredients, mp: MetricParams) -> np.ndarray:
    Tp = (1.0 + ing.sigma_sq) * ing.rough + 2.0 * mp.p * ing.nabla_gradF_sigma
    return Tp - _phi(ing, mp.p, mp.q) * ing.sigma


def residual_scale(ing: Ingredients, mp: MetricParams, norm) -> float:
    """(1 + |s|^2)(1 + |rough| + |nabla_gradF s| + |phi||s|): keeps the relative
    residual dimensionally sane for fields of unbounded length."""
    phi = _phi(ing, mp.p, mp.q)
    return float(
        (1.0 + ing.sigma_sq)
        * (
            1.0
            + norm(ing.rough)
            + norm(ing.nabla_gradF_sigma)
            + abs(phi) * math.sqrt(max(ing.sigma_sq, 0.0))
        )
    )


def tension(field: AffineField, x, mp: MetricParams, fd: bool = False) -> np.ndarray:
    """The tension tau_{p,q}(sigma) at x; zero exactly for harmonic fields."""
    return tension_from_ingredients(ingredients(field, x, fd=fd), mp)


def tension_residual(field: AffineField, x, mp: MetricParams, fd: bool = False) -> tuple[float, float]:
    """(residual norm, scale) of the tension at x."""
    ing = ingredients(field, x, fd=fd)
    t = tension_from_ingredients(ing, mp)
    return field.space.norm(t), residual_scale(ing, mp, field.space.norm)


def reduced_pde_residual(field: AffineField, x, mp: MetricParams) -> float:
    """Scalar residual of the reduced harmonicity equation for preharmonic eigenfields."""
    nu = field.nu
    zeta = field.spinnaker(x)
    if nu is None or zeta is None:
        raise ValueError("field is not a preharmonic rough-Laplacian eigenfunction")
    F = field.F(x)
    dF = field.lap_F(x)
    p, q = mp.p, mp.q
    return (p + q + 2.0 * q * F) * dF + 2.0 * p * (1.0 + q * F) * zeta + nu * (
        1.0 + 2.0 * (1.0 - p) * F
    )


def preharmonic_check(field: AffineField, samples) -> tuple[bool, float]:
    """Is nabla_{grad F} sigma = zeta sigma at the samples, for the family zeta?

    Falls back to zeta = |grad F|^2 / |sigma|^2 (the only candidate) when the
    family does not provide a spinnaker.  Returns (verdict, max relative
    error); points with |sigma| <= 1e-6 are skipped.
    """
    M = field.space
    worst = 0.0
    for x in samples:
        s = field.sigma(x)
        s_sq = M.sig.norm_sq(s)
        if s_sq <= ZERO_LENGTH**2:
            continue
        ngfs = field.nabla_gradF_sigma(x)
        zeta = field.spinnaker(x)
        if zeta is None:
            zeta = M.sig.norm_sq(field.grad_F(x)) / s_sq
        scale = 1.0 + M.norm(ngfs) + abs(zeta) * np.sqrt(s_sq)
        worst = max(worst, M.norm(ngfs - zeta * s) / scale)
    return worst < PREHARMONIC_TOL, worst


def spinnaker_identity_error(field: AffineField, x) -> float | None:
    """Relative error in |sigma|^2 zeta = |grad F|^2, None when zeta is absent."""
    zeta = field.spinnaker(x)
    if zeta is None:
        return None
    M = field.space
    s_sq = M.sig.norm_sq(field.sigma(x))
    g_sq = M.sig.norm_sq(field.grad_F(x))
    return abs(s_sq * zeta - g_sq) / (1.0 + abs(s_sq * zeta) + g_sq)


def weitzenbock_error(field: AffineField, x) -> float:
    """Relative error in <nabla*nabla sigma, sigma> = |nabla sigma|^2 + Delta F."""
    M = field.space
    lhs = M.inner(field.rough_laplacian(x), field.sigma(x))
    n_sq = field.nabla_norm_sq(x)
    rhs = n_sq + field.lap_F(x)
    return abs(lhs - rhs) / (1.0 + abs(lhs) + n_sq)


def q_riemannian_check(field: AffineField, q: float, samples) -> bool:
    """q |sigma(x)|^2 >= -1 at every sample; constant-length fields pass outright."""
    vals = [field.sigma_sq(x) for x in samples]
    hi, lo = max(vals), min(vals)
    if hi - lo <= 1e-9 * (1.0 + abs(hi)):
        return True
    return all(q * v >= -1.0 - 1e-12 for v in vals)


@dataclass
class TensionReport:
    """Aggregated verification verdicts over a seeded sample of points."""

    family: str
    params: dict
    p: float
    q: float
    n: int
    epsilon: int
    seed: int
    count: int
    max_rel_residual: float
    harmonic: bool
    preharmonic: bool
    q_riemannian: bool
    weitzenbock_max_err: float
    spinnaker_max_err: float | None
    derivative_source: str
    per_point: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "p": self.p,
            "q": self.q,
            "n": self.n,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "count": self.count,
            "max_rel_residual": self.max_rel_residual,
            "verdicts": {
                "harmonic": self.harmonic,
                "preharmonic": self.preharmonic,
                "q_riemannian": self.q_riemannian,
            },
            "weitzenbock_max_err": self.weitzenbock_max_err,
            "spinnaker_max_err": self.spinnaker_max_err,
            "derivative_source": self.derivative_source,
            "per_point": self.per_point,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def verify(
    field: AffineField,
    mp: MetricParams,
    count: int = 200,
    seed: int = 42,
    tol: float = HARMONIC_TOL,
    fd: bool = False,
    h: float | None = None,
) -> TensionReport:
    """Run the full identity/residual suite on `count` seeded sample points."""
    if count < 1:
        raise ValueError("count must be >= 1")
    M = field.space
    samples = M.sample_points(count, seed)
    per_point = []
    max_rel = 0.0
    wb = 0.0
    sp_err = None
    for i, x in enumerate(samples):
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
            ing = ingredients(field, x, fd=fd, h=h)
            t = tension_from_ingredients(ing, mp)
            scale = residual_scale(ing, mp, M.norm)
            res = M.norm(t)
        # a non-finite ingredient makes the tension t non-finite too
        if not (np.isfinite(t).all() and math.isfinite(res) and math.isfinite(scale)):
            raise ValueError(f"non-finite tension residual or ingredient at sample {i}")
        max_rel = max(max_rel, res / scale)
        per_point.append({"index": i, "point": list(x), "residual": res, "scale": scale})
        wb = max(wb, weitzenbock_error(field, x))
        if ing.sigma_sq > ZERO_LENGTH**2:
            e = spinnaker_identity_error(field, x)
            if e is not None:
                sp_err = e if sp_err is None else max(sp_err, e)
    pre, _ = preharmonic_check(field, samples)
    return TensionReport(
        family=field.family,
        params=field.params(),
        p=mp.p,
        q=mp.q,
        n=M.n,
        epsilon=M.eps,
        seed=seed,
        count=count,
        max_rel_residual=float(max_rel),
        harmonic=bool(max_rel < tol),
        preharmonic=bool(pre),
        q_riemannian=bool(q_riemannian_check(field, mp.q, samples)),
        weitzenbock_max_err=wb,
        spinnaker_max_err=sp_err,
        derivative_source="finite-difference" if fd else "closed-form",
        per_point=per_point,
    )


def metric_grid_scan(field: AffineField, ps, qs, samples) -> np.ndarray:
    """Max relative tension residual over samples, for every (p, q) on the grid.

    Vectorised over the grid: the per-sample ingredients are computed once
    and the residual is assembled by broadcasting.  Returns an array of
    shape (len(ps), len(qs)).
    """
    ps = np.asarray(ps, dtype=float)
    qs = np.asarray(qs, dtype=float)
    M = field.space
    out = np.zeros((ps.size, qs.size))
    P = ps[:, None]
    Q = qs[None, :]
    for x in samples:
        ing = ingredients(field, x)
        phi = P * ing.nabla_sq - P * Q * ing.gradF_sq - Q * (1.0 + ing.sigma_sq) * ing.lap_F
        base = (1.0 + ing.sigma_sq) * ing.rough
        # residual vector over the grid: base + 2p*ngfs - phi*sigma
        vec = (
            base[None, None, :]
            + 2.0 * P[:, :, None] * ing.nabla_gradF_sigma[None, None, :]
            - phi[:, :, None] * ing.sigma[None, None, :]
        )
        eta_diag = np.ones(M.ambient_dim)
        eta_diag[-1] = M.eps
        res = np.sqrt(np.clip((vec * vec * eta_diag).sum(axis=-1), 0.0, None))
        s_norm = np.sqrt(max(ing.sigma_sq, 0.0))
        scale = (1.0 + ing.sigma_sq) * (
            1.0
            + M.norm(ing.rough)
            + M.norm(ing.nabla_gradF_sigma)
            + np.abs(phi) * s_norm
        )
        out = np.maximum(out, res / scale)
    return out


def isometry_equivariance_check(field: AffineField, g, mp: MetricParams, samples) -> float:
    """max over samples of |g tau(sigma)(x) - tau(g.sigma)(g x)| / scale."""
    M = field.space
    g = np.asarray(g, dtype=float)
    if not M.is_isometry(g):
        raise ValueError("g does not preserve the signature form (and sheet)")
    moved = field.transform(g)
    worst = 0.0
    for x in samples:
        ing = ingredients(field, x)
        gx = M.normalize_point(g @ x)
        lhs = g @ tension_from_ingredients(ing, mp)
        rhs = tension(moved, gx, mp)
        worst = max(worst, M.norm(lhs - rhs) / residual_scale(ing, mp, M.norm))
    return worst


def circle_equivariance_check(field: AffineField, t: float, mp: MetricParams, samples) -> float:
    """max over samples of |e^{it}.tau(sigma)(x) - tau(e^{it}.sigma)(x)| / scale."""
    M = field.space
    moved = circle_action(field, t)
    worst = 0.0
    for x in samples:
        ing = ingredients(field, x)
        v = tension_from_ingredients(ing, mp)
        lhs = np.cos(t) * v + np.sin(t) * M.complex_rotation(x, v)
        rhs = tension(moved, x, mp)
        worst = max(worst, M.norm(lhs - rhs) / residual_scale(ing, mp, M.norm))
    return worst
