"""Closed-form parameter solutions and the classified-field catalogue.

The classification results reduce to polynomial equations with rational
coefficients: the twist equation

    2ck w^4 + eps (2nk - c) w^2 + 1 - n = 0,   c = n+1-2r,  k = r-1,

for balanced Killing fields, the quartic

    (r-2) L^4 + 2 (r^2-5) L^2 - 8 (r+1) = 0

for two-eigenvalue quadratic gradient fields, and linear conditions for
conformal gradients.  Roots are produced as exact surds in Q(sqrt(d)),
whose floats do not cancel (QuadExt.__float__), together with the metric
parameters (p, q) and the classified bound chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .exactnum import QuadExt, solve_quadratic
from .params import MetricParams

if TYPE_CHECKING:
    from .fields import AffineField


@dataclass
class Classification:
    """A classified harmonic field family with its metric parameters."""

    family: str
    n: int
    epsilon: int
    exists: bool
    reason: str = ""
    r: int | None = None
    mu: float | None = None
    omega0_sq: float | None = None
    lambda0_sq: float | None = None
    metric_params: list[MetricParams] = field(default_factory=list)
    metrically_unique: bool = False
    q_free: bool = False  # constant-length Hopf fields: p = 2, every q works
    exact: dict[str, QuadExt] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# twist equation and Killing classification
# ---------------------------------------------------------------------------


def _twist_coeffs(n: int, r: int, epsilon: int):
    c = n + 1 - 2 * r
    k = r - 1
    return 2 * c * k, epsilon * (2 * n * k - c), 1 - n


def _validate_twist_input(n: int, r: int, epsilon: int):
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    if r < 1:
        raise ValueError("rotational rank must be >= 1")
    if 2 * r >= n + 1:
        raise ValueError(f"need 2r < n+1, got r={r}, n={n}")
    if r == 1 and epsilon == 1:
        raise ValueError("the rank-1 twist equation has no solution on the sphere")


def twist_roots_exact(n: int, r: int, epsilon: int) -> QuadExt:
    """The unique positive root w0^2 of the twist equation, as an exact element of Q(sqrt(d))."""
    _validate_twist_input(n, r, epsilon)
    if r == 1:
        return QuadExt(1)
    a, b, c0 = _twist_coeffs(n, r, epsilon)
    plus, minus = solve_quadratic(a, b, c0)
    return plus if plus.sign() > 0 else minus


def killing_classification(n: int, r: int, epsilon: int) -> Classification:
    """Harmonic Killing fields of rank r: the optimal twist w0 with p = n+1 and

        q = (1-n)/2                       if r = 1 (hyperbolic only),
        q = 2(1-r) w0^2 / (w0^2 + eps)    if r > 1.

    Rank-1 spherical input (including every request on S^2 and S^3) returns a
    structured no-solution; maximal rank on odd spheres returns the Hopf
    record (constant length, (2, q)-harmonic for all q).
    """
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    if r < 1 or n < 2:
        raise ValueError("need r >= 1 and n >= 2")
    if epsilon == 1 and 2 * r == n + 1:
        return Classification(
            family="hopf",
            n=n,
            epsilon=epsilon,
            exists=True,
            reason="constant-length Hopf field: (2, q)-harmonic for every q",
            r=r,
            omega0_sq=1.0,
            metric_params=[MetricParams(2.0, 0.0)],
            metrically_unique=False,
            q_free=True,
        )
    if 2 * r >= n + 1:
        raise ValueError(f"need 2r < n+1, got r={r}, n={n}")
    if epsilon == 1 and r == 1:
        return Classification(
            family="killing",
            n=n,
            epsilon=epsilon,
            exists=False,
            reason="no harmonic spherical Killing fields of rank 1",
            r=r,
        )
    w_sq = twist_roots_exact(n, r, epsilon)
    if r == 1:
        q = QuadExt(Fraction(1 - n, 2))
    else:
        q = 2 * (1 - r) * w_sq / (w_sq + epsilon)
    return Classification(
        family="killing",
        n=n,
        epsilon=epsilon,
        exists=True,
        r=r,
        omega0_sq=float(w_sq),
        metric_params=[MetricParams(float(n + 1), float(q))],
        metrically_unique=True,
        exact={"omega0_sq": w_sq, "q": q, "p": QuadExt(n + 1)},
    )


# ---------------------------------------------------------------------------
# conformal gradient classification
# ---------------------------------------------------------------------------


def conformal_gradient_classification(n: int, epsilon: int, mu_sign: int) -> Classification:
    """Harmonic conformal gradient fields, by the sign of mu = <a, a>.

    mu >= 0 (sphere, or zero-free hyperbolic): exists iff n > 2, with
    mu = 1/(n-2) and the unique pair (n+1, 2-n).  mu < 0 (hyperbolic with a
    zero): mu = -1; unique pair (3, -1/2) for n = 2, and exactly two pairs
    (n+1, 1-n+1/n), (1/(2-n), 0) for n > 2.
    """
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    if n < 2:
        raise ValueError("need n >= 2")
    if mu_sign not in (1, 0, -1):
        raise ValueError("mu_sign must be +1, 0 or -1")
    if mu_sign < 0 and epsilon != -1:
        raise ValueError("mu < 0 requires hyperbolic space")
    base = dict(family="confgrad", n=n, epsilon=epsilon)
    if mu_sign >= 0:
        if n == 2:
            return Classification(
                **base,
                exists=False,
                reason="no harmonic conformal gradient fields in dimension 2 with mu >= 0",
            )
        if mu_sign == 0:
            return Classification(
                **base,
                exists=False,
                reason="a lightlike pole cannot meet mu = 1/(n-2) > 0",
            )
        mu = Fraction(1, n - 2)
        q = QuadExt(2 - n)
        return Classification(
            **base,
            exists=True,
            mu=float(mu),
            metric_params=[MetricParams(float(n + 1), float(q))],
            metrically_unique=True,
            exact={"mu": QuadExt(mu), "p": QuadExt(n + 1), "q": q},
        )
    if n == 2:
        return Classification(
            **base,
            exists=True,
            mu=-1.0,
            metric_params=[MetricParams(3.0, -0.5)],
            metrically_unique=True,
            exact={"mu": QuadExt(-1), "p": QuadExt(3), "q": QuadExt(Fraction(-1, 2))},
        )
    q_a = QuadExt(Fraction(1 - n) + Fraction(1, n))
    p_b = QuadExt(Fraction(1, 2 - n))
    return Classification(
        **base,
        exists=True,
        mu=-1.0,
        metric_params=[
            MetricParams(float(n + 1), float(q_a)),
            MetricParams(float(p_b), 0.0),
        ],
        metrically_unique=False,
        exact={"mu": QuadExt(-1), "p_a": QuadExt(n + 1), "q_a": q_a, "p_b": p_b, "q_b": QuadExt(0)},
    )


# ---------------------------------------------------------------------------
# quadratic gradient classification
# ---------------------------------------------------------------------------


def quadratic_roots_exact(r: int) -> QuadExt:
    """The unique positive root L0^2 of (r-2) L^4 + 2(r^2-5) L^2 - 8(r+1) = 0."""
    if r < 3:
        raise ValueError("need r >= 3")
    plus, minus = solve_quadratic(r - 2, 2 * (r * r - 5), -8 * (r + 1))
    return plus if plus.sign() > 0 else minus


def quadratic_classification(n: int) -> Classification:
    """Harmonic quadratic gradient fields on S^n: odd n >= 5 only, with
    r = (n+1)/2, the optimal gap L0, p = r+1 and
    2q = (2-r)(1+r) / (1 + r + (L0/2)^2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    base = dict(family="quadratic", n=n, epsilon=1)
    if n % 2 == 0 or n < 5:
        return Classification(
            **base,
            exists=False,
            reason="harmonic quadratic gradient fields need odd n >= 5",
        )
    r = (n + 1) // 2
    lam_sq = quadratic_roots_exact(r)
    q = (2 - r) * (1 + r) / (2 * (1 + r) + lam_sq / 2)
    return Classification(
        **base,
        exists=True,
        r=r,
        lambda0_sq=float(lam_sq),
        metric_params=[MetricParams(float(r + 1), float(q))],
        metrically_unique=True,
        exact={"lambda0_sq": lam_sq, "p": QuadExt(r + 1), "q": q},
    )


def loxodromic_classification() -> Classification:
    """Harmonic loxodromic fields: the associate family on H^2 at (3, -1/2)."""
    return Classification(
        family="loxodromic",
        n=2,
        epsilon=-1,
        exists=True,
        r=1,
        metric_params=[MetricParams(3.0, -0.5)],
        metrically_unique=True,
        reason="the loop sin(t) sigma_0 + cos(t) sigma_1 on H^2; omega^2 - mu = 1",
        exact={"p": QuadExt(3), "q": QuadExt(Fraction(-1, 2))},
    )


# ---------------------------------------------------------------------------
# bound chains
# ---------------------------------------------------------------------------


@dataclass
class BoundCheck:
    name: str
    statement: str
    holds: bool
    margin: float


def _chain(name, lower, value, upper) -> BoundCheck:
    margins = []
    text = []
    if lower is not None:
        margins.append(value - lower)
        text.append(f"{lower:.6g} < ")
    text.append(f"{value:.10g}")
    if upper is not None:
        margins.append(upper - value)
        text.append(f" < {upper:.6g}")
    margin = min(margins)
    return BoundCheck(name, "".join(text), margin > 0.0, margin)


def bounds_report(cl: Classification) -> list[BoundCheck]:
    """Evaluate the classified bound chains, with their side conditions.

    Killing (spherical, r > 1): w0^2 < 1/(2(r-1)); q > -(2r-2)/(2r-1);
    1/n < w0^2 < 1/(2r-2).  Killing (hyperbolic, r > 1): w0^2 > (n+c)/(2c);
    2d(1-r) < q < 2(1-r) with d = (n+c)/(n-c).  Quadratic (r = (n+1)/2):
    3/(r-2) < L0^2 (r >= 4) and L0^2 < 4/(r-2) (r >= 3); 2q > 2-r;
    4/r < L0^2 < 4/(r-2); (3-2(r-1)^2)/(4r) < q (r >= 4) and
    q < (4-2(r-1)^2)/(4r) (r >= 3).  The compact-manifold sanity bounds
    (q < 0; q < 1 - p/2 when p >= 2 and the sup-norm hypothesis holds) are
    appended for spherical entries.
    """
    out: list[BoundCheck] = []
    if not cl.exists or cl.q_free:
        return out
    if cl.family == "killing":
        n, r = cl.n, cl.r
        q = cl.metric_params[0].q
        w_sq = cl.omega0_sq
        c = n + 1 - 2 * r
        if cl.epsilon == 1 and r > 1:
            out.append(_chain("twist upper (3.20)", None, w_sq, 1.0 / (2 * (r - 1))))
            out.append(_chain("q lower (3.26)", -(2.0 * r - 2) / (2.0 * r - 1), q, None))
            out.append(_chain("twist window (3.27)", 1.0 / n, w_sq, 1.0 / (2 * r - 2)))
        if cl.epsilon == -1 and r > 1:
            out.append(_chain("twist lower (3.21)", (n + c) / (2.0 * c), w_sq, None))
            delta = (n + c) / (n - c)
            out.append(_chain("q window (3.28)", 2 * delta * (1 - r), q, 2.0 * (1 - r)))
        out.append(_chain("q negative", None, q, 0.0))
        sup_sq = w_sq if cl.epsilon == 1 else None
        out.extend(_compactness_sanity(cl, sup_sq))
    elif cl.family == "quadratic":
        r = cl.r
        q = cl.metric_params[0].q
        l_sq = cl.lambda0_sq
        if r >= 4:
            out.append(_chain("gap lower (7.18)", 3.0 / (r - 2), l_sq, None))
        out.append(_chain("gap upper (7.18)", None, l_sq, 4.0 / (r - 2)))
        out.append(_chain("2q lower (7.21)", 2.0 - r, 2 * q, None))
        out.append(_chain("gap window (7.22)", 4.0 / r, l_sq, 4.0 / (r - 2)))
        if r >= 4:
            out.append(_chain("q lower (7.23)", (3.0 - 2 * (r - 1) ** 2) / (4 * r), q, None))
        out.append(_chain("q upper (7.23)", None, q, (4.0 - 2 * (r - 1) ** 2) / (4 * r)))
        out.append(_chain("q negative", None, q, 0.0))
        out.extend(_compactness_sanity(cl, l_sq / 4.0))
    return out


def _compactness_sanity(cl: Classification, sup_sq: float | None) -> list[BoundCheck]:
    """Compact-case sanity bounds, applied only when their hypothesis holds."""
    if cl.epsilon != 1:
        return []
    out = []
    for mp in cl.metric_params:
        p, q = mp.p, mp.q
        applies = abs(p) <= 1 or (p > 1 and sup_sq is not None and sup_sq <= 1.0 / (p - 1))
        if applies and p >= 2:
            out.append(_chain("q < 1 - p/2 (compact sanity)", None, q, 1.0 - p / 2.0))
    return out


# ---------------------------------------------------------------------------
# building concrete fields from classifications, and the full catalogue
# ---------------------------------------------------------------------------


def build_classified_field(cl: Classification, t: float = math.pi / 4) -> AffineField:
    """Instantiate a concrete field realising a classification.

    For the loxodromic loop, t picks the member.  Raises for no-solution
    records.
    """
    from . import fields as fld

    if not cl.exists:
        raise ValueError(f"no field exists: {cl.reason}")
    if cl.family == "loxodromic":
        return fld.associate_family_member(t)
    doc = {"family": cl.family, "n": cl.n, "epsilon": cl.epsilon}
    if cl.family == "confgrad":
        doc["mu"] = cl.mu
    elif cl.family in ("killing", "hopf"):
        doc.update(r=cl.r, omega=math.sqrt(cl.omega0_sq))
    elif cl.family == "quadratic":
        doc.update(r=cl.r, lam=math.sqrt(cl.lambda0_sq))
    else:
        raise ValueError(f"cannot build family {cl.family!r}")
    return fld.build_field(doc)


@dataclass
class CatalogueEntry:
    label: str
    field: AffineField
    mp: MetricParams
    classification: Classification
    constant_length: bool = False

    def rescaled(self, factor: float) -> AffineField:
        from .fields import scale_field

        return scale_field(self.field, factor)


def harmonic_catalogue() -> list[CatalogueEntry]:
    """Every classified harmonic field at desk scale, with its metric parameters.

    Spherical conformal gradients for n = 3, 4, 5; hyperbolic conformal
    gradients (mu = -1) with both parameter pairs for n = 3, 4; sigma_0,
    sigma_1 and three loop members on H^2; the optimal-twist Killing fields
    for (n, r) in {(4,2), (5,2)} x {S, H} and (2,1), (3,1) on H^n; the
    quadratic fields for n = 5, 7, 9; and the Hopf field on S^3 at (2, 0.7).
    """
    out: list[CatalogueEntry] = []
    for n in (3, 4, 5):
        cl = conformal_gradient_classification(n, 1, 1)
        out.append(
            CatalogueEntry(f"confgrad S^{n}", build_classified_field(cl), cl.metric_params[0], cl)
        )
    for n in (3, 4):
        cl = conformal_gradient_classification(n, -1, -1)
        f = build_classified_field(cl)
        for j, mp in enumerate(cl.metric_params):
            out.append(CatalogueEntry(f"confgrad H^{n} pair {'ab'[j]}", f, mp, cl))
    cl2 = conformal_gradient_classification(2, -1, -1)
    out.append(
        CatalogueEntry("sigma_1 on H^2", build_classified_field(cl2), cl2.metric_params[0], cl2)
    )
    clk = killing_classification(2, 1, -1)
    out.append(
        CatalogueEntry("sigma_0 on H^2", build_classified_field(clk), clk.metric_params[0], clk)
    )
    cll = loxodromic_classification()
    for t in (math.pi / 6, math.pi / 4, math.pi / 3):
        out.append(
            CatalogueEntry(
                f"loop member t={t:.3f}",
                build_classified_field(cll, t=t),
                cll.metric_params[0],
                cll,
            )
        )
    for n, r, eps in ((4, 2, 1), (4, 2, -1), (5, 2, 1), (5, 2, -1), (3, 1, -1)):
        cl = killing_classification(n, r, eps)
        sign = "S" if eps == 1 else "H"
        out.append(
            CatalogueEntry(
                f"killing {sign}^{n} r={r}", build_classified_field(cl), cl.metric_params[0], cl
            )
        )
    for n in (5, 7, 9):
        cl = quadratic_classification(n)
        out.append(
            CatalogueEntry(f"quadratic S^{n}", build_classified_field(cl), cl.metric_params[0], cl)
        )
    hopf = killing_classification(3, 2, 1)
    out.append(
        CatalogueEntry(
            "Hopf S^3",
            build_classified_field(hopf),
            MetricParams(2.0, 0.7),
            hopf,
            constant_length=True,
        )
    )
    return out


def table7(ns=(5, 7, 9)) -> list[dict]:
    """The quadratic-gradient classification table: n, r, p, q, L0^2/4."""
    rows = []
    for n in ns:
        cl = quadratic_classification(n)
        if not cl.exists:
            continue
        rows.append(
            {
                "n": n,
                "r": cl.r,
                "p": int(cl.metric_params[0].p),
                "q": cl.metric_params[0].q,
                "lambda0_sq_over_4": cl.lambda0_sq / 4.0,
                "q_exact": str(cl.exact["q"]),
                "lambda0_sq_over_4_exact": str(cl.exact["lambda0_sq"] / 4),
            }
        )
    return rows
