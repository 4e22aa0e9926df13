"""Exact trivariate polynomial arithmetic and reduction modulo the quadric.

Working in the "coordinates" (alpha, beta, psi) of a 2-dimensional space
form, the manifold is cut out by

    Q(alpha, beta, psi) = alpha^2 + beta^2 + eps*psi^2 - eps = 0,

and a conformal field is harmonic exactly when a certain quartic
P(alpha, beta, psi) vanishes modulo Q, i.e. P = Q*S for a quadratic S.
build_harmonicity_poly writes P from coefficient formulas: the squared
length A = 2F and the spinnaker zeta are dicts over the ten monomials of
degree <= 2, and P = eps + eps(1 + q)A - 2q zeta + A*B with B quadratic, so
the only product is A*B, taken over the non-zero coefficients, and one
TriPoly is constructed at the end.  The ring operations of TriPoly serve
the reduction's re-check and callers that build their own polynomials.
Divisibility is decided by substitution: psi^2 -> 1 - eps*(alpha^2 + beta^2)
leaves a remainder of degree <= 1 in psi that is zero exactly when Q
divides P, and the substitutions collect the unique witness S, which is
always re-verified via P - Q*S = 0.  P is affine in q and pq, so
harmonicity_remainders reduces one field once and gives the remainder for
every (p, q), as a sweep over metric parameters needs.

Coefficients are exact (Fraction, or QuadExt for one square-root extension).
A double-precision fallback (build_harmonicity_poly(exact=False), and
vanishes_mod_quadric(tol=) with NUMERIC_ZERO_TOL, a zero threshold relative
to the largest coefficient) is flagged as approximate in its result.  No
part of hvf calls it (scan2d is exact only); the benchmark's exact workload
(perfbench/workloads.py) still times it, so it goes when that workload's
float sweeps are replaced (ROADMAP item 2).

When every parameter is rational, both builders clear the denominators once
(A and zeta are homogeneous of degree 2 in the field's five parameters),
compute every coefficient on Python ints and divide by one common
denominator at the end, so no Fraction is normalised before the last step;
floats and QuadExt values run through the same formulas with unit scales.
The reduction of vanishes_mod_quadric stays on Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import QuadExt

MAX_DEGREE = 4
NUMERIC_ZERO_TOL = 1e-10
_VAR_NAMES = ("alpha", "beta", "psi")

Monomial = tuple[int, int, int]


def _to_exact(v):
    if isinstance(v, (QuadExt, Fraction)):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v)  # exact binary-float value
    raise TypeError(f"cannot coerce {type(v).__name__} to an exact coefficient")


class TriPoly:
    """A polynomial in (alpha, beta, psi) of total degree <= 4; TriPoly() is zero."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean: dict[Monomial, object] = {}
        for mon, coeff in (terms or {}).items():
            i, j, k = mon
            if min(i, j, k) < 0:
                raise ValueError(f"negative exponent in monomial {mon}")
            if i + j + k > MAX_DEGREE:
                raise ValueError(f"total degree of {mon} exceeds {MAX_DEGREE}")
            if coeff:
                clean[(i, j, k)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "TriPoly":
        return cls({(0, 0, 0): c})

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TriPoly):
            return other
        return TriPoly.constant(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for mon, c in other.terms.items():
            out[mon] = out.get(mon, 0) + c
        return TriPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return TriPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, TriPoly):
            return TriPoly({m: c * other for m, c in self.terms.items()})
        out: dict[Monomial, object] = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                mon = (i1 + i2, j1 + j2, k1 + k2)
                out[mon] = out.get(mon, 0) + c1 * c2
        return TriPoly(out)

    def __rmul__(self, other):
        return TriPoly({m: other * c for m, c in self.terms.items()})

    def __pow__(self, k: int):
        out = TriPoly.constant(Fraction(1))
        for _ in range(k):
            out = out * self
        return out

    # -- structure ----------------------------------------------------------

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def coeff(self, mon: Monomial):
        return self.terms.get(tuple(mon), Fraction(0))

    def is_zero(self, tol: float | None = None) -> bool:
        if tol is None:
            return not self.terms
        return all(abs(float(c)) <= tol for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, (TriPoly, int, Fraction, float, QuadExt)):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash(frozenset((m, c) for m, c in self.terms.items()))

    # -- canonical text form ---------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        # graded-lex, alpha > beta > psi, highest degree first
        mons = sorted(self.terms, key=lambda m: (sum(m), m), reverse=True)
        parts = []
        for pos, mon in enumerate(mons):
            c = self.terms[mon]
            cs = str(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            names = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(_VAR_NAMES, mon)
                if e > 0
            ]
            if not names:
                body = cs
            elif cs == "1":
                body = "*".join(names)
            else:
                body = "*".join([cs] + names)
            if pos == 0:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"TriPoly({self})"


def quadric(eps: int) -> TriPoly:
    """The defining polynomial alpha^2 + beta^2 + eps psi^2 - eps of M^2."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    return TriPoly(
        {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(eps), (0, 0, 0): Fraction(-eps)}
    )


# ---------------------------------------------------------------------------
# the harmonicity quartic of a conformal field on M^2
# ---------------------------------------------------------------------------


def _on_integers(*groups):
    """(groups, scales, rational): each group times the lcm of its denominators, when every value is rational.

    The scaled values are Python ints and scales holds the lcms.  When any
    value is a float or a QuadExt, every group comes back unchanged with unit
    scales and rational False, so it runs through the same formulas.
    """
    if all(isinstance(v, Fraction) for g in groups for v in g):
        scales = [math.lcm(*(v.denominator for v in g)) for g in groups]
        return [[v.numerator * (D // v.denominator) for v in g] for g, D in zip(groups, scales)], scales, True
    return groups, [1] * len(groups), False


def _tripoly(terms: dict, den: int, rational: bool) -> TriPoly:
    """TriPoly(terms / den): one Fraction per non-zero integer coefficient when rational, else terms as given."""
    if not rational:
        return TriPoly(terms)
    return TriPoly({m: Fraction(c, den) for m, c in terms.items() if c})


def _length_and_spinnaker(eps, om, ta, rs, rt, h):
    """(eps, A, zeta): the squared length A = 2F = |sigma|^2 and the spinnaker zeta
    of the conformal field K + C, as dicts over the monomials of degree <= 2.

    With rs = rr*s and rt = rr*t,

        A    = (omega^2 + eps tau^2 - eps rs^2) alpha^2 + (omega^2 - eps rt^2) beta^2
               + (tau^2 - eps h^2) psi^2 - 2 eps rs rt alpha beta - 2 eps rs h alpha psi
               + (2 omega tau - 2 eps rt h) beta psi + (2 omega rt + 2 eps tau h) alpha
               - 2 omega rs beta - 2 tau rs psi + rs^2 + rt^2 + eps h^2,
        zeta = rs^2 alpha^2 + (tau^2 + rt^2) beta^2 + (omega^2 + h^2) psi^2
               + 2 rs rt alpha beta + 2 rs h alpha psi + (2 rt h - 2 eps omega tau) beta psi.

    A is expanded from the pairwise inner products of the component fields,
    so no quadric relation is consumed.  Every coefficient is homogeneous of
    degree 2 in (omega, tau, rs, rt, h), so scaling those five by D scales
    A and zeta by D^2.
    """
    eps = int(eps)
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    A = {
        (2, 0, 0): om * om + eps * ta * ta - eps * rs * rs,
        (0, 2, 0): om * om - eps * rt * rt,
        (0, 0, 2): ta * ta - eps * h * h,
        (1, 1, 0): -2 * eps * rs * rt,
        (1, 0, 1): -2 * eps * rs * h,
        (0, 1, 1): 2 * om * ta - 2 * eps * rt * h,
        (1, 0, 0): 2 * om * rt + 2 * eps * ta * h,
        (0, 1, 0): -2 * om * rs,
        (0, 0, 1): -2 * ta * rs,
        (0, 0, 0): rs * rs + rt * rt + eps * h * h,
    }
    zeta = {
        (2, 0, 0): rs * rs,
        (0, 2, 0): ta * ta + rt * rt,
        (0, 0, 2): om * om + h * h,
        (1, 1, 0): 2 * rs * rt,
        (1, 0, 1): 2 * rs * h,
        (0, 1, 1): 2 * rt * h - 2 * eps * om * ta,
    }
    return eps, A, zeta


def _add_product(out: dict, A: dict, B: dict) -> None:
    """out += A*B, taken over the non-zero coefficients of A and B only."""
    B = [(m, b) for m, b in B.items() if b]
    for (i1, j1, k1), a in A.items():
        if a:
            for (i2, j2, k2), b in B:
                mon = (i1 + i2, j1 + j2, k1 + k2)
                out[mon] = out.get(mon, 0) + a * b


def build_harmonicity_poly(eps, omega, tau, rr, s, t, h, p, q, exact: bool = True) -> TriPoly:
    """The quartic whose vanishing mod the quadric is (p,q)-harmonicity.

    Parameters describe the conformal field K + C at a frame (a, b, w):
    K = omega*R + tau*T and pole c = rr*s*a + rr*t*b + h*w.  In exact mode
    every parameter is coerced to Fraction (floats keep their exact binary
    value) or kept as a QuadExt; pass exact=False for plain doubles.

    With the squared length A = 2F = |sigma|^2 and the spinnaker zeta written
    from their coefficients (_length_and_spinnaker),

        P = eps (1 + A)(1 + qA) + 2q((p - 2)/2 A - 1) zeta
          = eps + eps (1 + q) A - 2q zeta + A B,  B = eps q A + q (p - 2) zeta,

    and A B is the one product, taken over the non-zero coefficients only.
    When every parameter is rational, omega, tau, rs, rt and h are scaled by
    D, the lcm of their denominators, and p = P'/E, q = Q/E; the assembly

        D^4 E^2 P = eps D^4 E^2 + eps E (E + Q) D^2 A' - 2 Q E D^2 zeta' + A' B',
        B' = eps Q E A' + Q (P' - 2E) zeta',

    with A' = D^2 A and zeta' = D^2 zeta, runs on Python ints, and each
    coefficient is divided by D^4 E^2 once.  Floats and QuadExt values take
    the same formulas with D = E = 1.  The result agrees with the reduced
    closed form modulo the quadric.
    """
    conv = _to_exact if exact else float
    om, ta, r, s, t, h, p, q = (conv(v) for v in (omega, tau, rr, s, t, h, p, q))
    if not q:
        raise ValueError("harmonicity forces q != 0 for conformal fields on M^2")
    (five, (p, q)), (D, E), rational = _on_integers((om, ta, r * s, r * t, h), (p, q))
    eps, A, zeta = _length_and_spinnaker(eps, *five)

    DD = D * D
    uA, uZ, vA, vZ = eps * q * E, q * (p - 2 * E), eps * E * (E + q) * DD, -2 * q * E * DD
    out = {m: vA * a + vZ * zeta.get(m, 0) for m, a in A.items()}
    out[0, 0, 0] += eps * DD * DD * E * E
    _add_product(out, A, {m: uA * a + uZ * zeta.get(m, 0) for m, a in A.items()})
    return _tripoly(out, DD * DD * E * E, rational)


def harmonicity_remainders(eps, omega, tau, rr, s, t, h) -> tuple[TriPoly, TriPoly, TriPoly]:
    """(R_X, R_Y, R_Z): one field's remainder mod the quadric, for every (p, q) at once.

    The quartic of build_harmonicity_poly is P = X + q Y + pq Z with

        X = eps + eps A,  Y = eps A - 2 zeta + eps A^2 - 2 A zeta,  Z = A zeta,

    and the division by the quadric is linear, so P leaves the remainder
    R_X + q R_Y + pq R_Z: P is divisible exactly when that vanishes, and
    otherwise its total degree is vanishes_mod_quadric's failing grade.
    Parameters are coerced as in exact mode (floats keep their exact binary
    value); in floating point the split would round differently from P.
    Rational fields are scaled as in build_harmonicity_poly: D^2 X and
    D^4 Y, D^4 Z are built and divided by the quadric on ints, and each
    remainder coefficient is divided by D^2 or D^4 once.
    """
    om, ta, r, s, t, h = (_to_exact(v) for v in (omega, tau, rr, s, t, h))
    (five,), (D,), rational = _on_integers((om, ta, r * s, r * t, h))
    eps, A, zeta = _length_and_spinnaker(eps, *five)
    DD = D * D
    X = {m: eps * a for m, a in A.items()}
    X[0, 0, 0] += eps * DD
    W = {m: eps * a - 2 * zeta.get(m, 0) for m, a in A.items()}  # W = eps A - 2 zeta; Y = W + A W
    Y = {m: DD * w for m, w in W.items()}
    _add_product(Y, A, W)
    Z = {}
    _add_product(Z, A, zeta)
    for part in (X, Y, Z):
        _divide_by_quadric(part, eps)
    return _tripoly(X, DD, rational), _tripoly(Y, DD * DD, rational), _tripoly(Z, DD * DD, rational)


# ---------------------------------------------------------------------------
# reduction modulo the quadric
# ---------------------------------------------------------------------------


@dataclass
class ReductionResult:
    divisible: bool
    witness: TriPoly | None
    failing_grade: int | None
    detail: str
    approximate: bool = False

    def __bool__(self):
        return self.divisible


def _divide_by_quadric(R: dict, eps: int) -> dict:
    """Reduce R in place to its remainder of degree <= 1 in psi; return the quotient.

    From psi^4 down to psi^2, each term c*alpha^i*beta^j*psi^k is rewritten
    by psi^2 = 1 - eps*(alpha^2 + beta^2) + eps*Q, which adds
    eps*c*alpha^i*beta^j*psi^(k-2) to the quotient.
    """
    S = {}
    for k in (4, 3, 2):
        for i, j, _ in [m for m in R if m[2] == k]:
            c = R.pop((i, j, k))
            S[i, j, k - 2] = eps * c  # each quotient monomial arises once
            for mon, d in (((i, j, k - 2), c), ((i + 2, j, k - 2), -eps * c), ((i, j + 2, k - 2), -eps * c)):
                R[mon] = R.get(mon, 0) + d
    return S


def vanishes_mod_quadric(P: TriPoly, eps: int, tol: float | None = None) -> ReductionResult:
    """Decide whether P = Q*S for some quadratic S, by division by Q in psi.

    The division (_divide_by_quadric) leaves a remainder R of degree <= 1 in
    psi and collects the quotient S.  R has degree <= 1 in psi, and such polynomials are independent mod Q, so P is
    divisible exactly when R = 0; S is then the unique witness, re-verified
    via P - Q*S = 0.  Otherwise failing_grade is the total degree of R.
    Pass tol for the double-precision fallback (flagged approximate): a
    coefficient counts as zero only when |c| <= tol * max(1, |c'|) for the
    largest finite coefficient c' of P, so NaN and inf never do, and the
    verdict does not depend on the scale of P or on the order of its terms.
    """
    Q = quadric(eps)
    approx = tol is not None
    if approx:
        tol *= max([1.0] + [a for a in (abs(float(c)) for c in P.terms.values()) if a < math.inf])
    R = dict(P.terms)
    S = TriPoly(_divide_by_quadric(R, eps))
    grades = [sum(m) for m, c in R.items() if c and (tol is None or not abs(float(c)) <= tol)]
    if grades:
        return ReductionResult(False, None, max(grades), f"remainder of degree {max(grades)} mod the quadric", approx)
    residual = P - Q * S
    if not residual.is_zero(tol):
        return ReductionResult(False, None, 2, "witness failed the exact re-check", approx)
    return ReductionResult(True, S, None, "P = Q*S verified", approx)
