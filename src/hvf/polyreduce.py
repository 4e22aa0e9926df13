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
always re-verified via P - Q*S = 0.

Coefficients are exact (Fraction, or QuadExt for one square-root extension);
a numeric double-precision fallback with a zero threshold relative to the
largest coefficient is available for irrational parameter scans and is
flagged as approximate in its result.
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
    """A polynomial in (alpha, beta, psi) of total degree <= 4."""

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
    def zero(cls) -> "TriPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "TriPoly":
        return cls({(0, 0, 0): c})

    @classmethod
    def variable(cls, name: str) -> "TriPoly":
        if name not in _VAR_NAMES:
            raise ValueError(f"unknown variable {name!r}")
        mon = tuple(1 if v == name else 0 for v in _VAR_NAMES)
        return cls({mon: Fraction(1)})

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

    def homogeneous_part(self, k: int) -> "TriPoly":
        return TriPoly({m: c for m, c in self.terms.items() if sum(m) == k})

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


ALPHA = TriPoly.variable("alpha")
BETA = TriPoly.variable("beta")
PSI = TriPoly.variable("psi")


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


def build_harmonicity_poly(eps, omega, tau, rr, s, t, h, p, q, exact: bool = True) -> TriPoly:
    """The quartic whose vanishing mod the quadric is (p,q)-harmonicity.

    Parameters describe the conformal field K + C at a frame (a, b, w):
    K = omega*R + tau*T and pole c = rr*s*a + rr*t*b + h*w.  In exact mode
    every parameter is coerced to Fraction (floats keep their exact binary
    value) or kept as a QuadExt; pass exact=False for plain doubles.

    With rs = rr*s and rt = rr*t, the squared length A = 2F = |sigma|^2 and
    the spinnaker zeta are written from their coefficients:

        A    = (omega^2 + eps tau^2 - eps rs^2) alpha^2 + (omega^2 - eps rt^2) beta^2
               + (tau^2 - eps h^2) psi^2 - 2 eps rs rt alpha beta - 2 eps rs h alpha psi
               + (2 omega tau - 2 eps rt h) beta psi + (2 omega rt + 2 eps tau h) alpha
               - 2 omega rs beta - 2 tau rs psi + rs^2 + rt^2 + eps h^2,
        zeta = rs^2 alpha^2 + (tau^2 + rt^2) beta^2 + (omega^2 + h^2) psi^2
               + 2 rs rt alpha beta + 2 rs h alpha psi + (2 rt h - 2 eps omega tau) beta psi.

    Then P = eps (1 + A)(1 + qA) + 2q((p - 2)/2 A - 1) zeta
           = eps + eps (1 + q) A - 2q zeta + A B,  B = eps q A + q (p - 2) zeta,
    and A B is the one product, taken over the non-zero coefficients only.
    A is expanded from the pairwise inner products of the component fields,
    so no quadric relation is consumed in the build; the result agrees with
    the reduced closed form modulo the quadric.
    """
    conv = _to_exact if exact else float
    eps = int(eps)
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    om, ta, r, s, t, h, p, q = (conv(v) for v in (omega, tau, rr, s, t, h, p, q))
    if not q:
        raise ValueError("harmonicity forces q != 0 for conformal fields on M^2")

    rs, rt = r * s, r * t
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
    uA, uZ, vA, vZ = eps * q, q * (p - 2), eps * (1 + q), -2 * q
    out = {m: vA * a + vZ * zeta.get(m, 0) for m, a in A.items()}
    out[0, 0, 0] += eps
    B = [(m, b) for m, a in A.items() if (b := uA * a + uZ * zeta.get(m, 0))]
    for (i1, j1, k1), a in A.items():
        if a:
            for (i2, j2, k2), b in B:
                mon = (i1 + i2, j1 + j2, k1 + k2)
                out[mon] = out.get(mon, 0) + a * b
    return TriPoly(out)


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


def vanishes_mod_quadric(P: TriPoly, eps: int, tol: float | None = None) -> ReductionResult:
    """Decide whether P = Q*S for some quadratic S, by division by Q in psi.

    From psi^4 down to psi^2, each term c*alpha^i*beta^j*psi^k is rewritten
    by psi^2 = 1 - eps*(alpha^2 + beta^2) + eps*Q, which adds
    eps*c*alpha^i*beta^j*psi^(k-2) to the quotient S.  The remainder R has
    degree <= 1 in psi, and such polynomials are independent mod Q, so P is
    divisible exactly when R = 0; S is then the unique witness, re-verified
    via P - Q*S = 0.  Otherwise failing_grade is the total degree of R.
    Pass tol for the double-precision fallback (flagged approximate): a
    coefficient counts as zero only when |c| <= tol * max(1, |c'|) for the
    largest finite coefficient c' of P, so NaN and inf never do, and the
    verdict does not depend on the scale of P or on the order of its terms.
    """
    if P.degree() > MAX_DEGREE:
        raise ValueError("P must have total degree <= 4")
    Q = quadric(eps)
    approx = tol is not None
    if approx:
        tol *= max([1.0] + [a for a in (abs(float(c)) for c in P.terms.values()) if a < math.inf])
    R, S = dict(P.terms), {}
    for k in (4, 3, 2):
        for i, j, _ in [m for m in R if m[2] == k]:
            c = R.pop((i, j, k))
            S[i, j, k - 2] = eps * c  # each quotient monomial arises once
            for mon, d in (((i, j, k - 2), c), ((i + 2, j, k - 2), -eps * c), ((i, j + 2, k - 2), -eps * c)):
                R[mon] = R.get(mon, 0) + d
    S = TriPoly(S)
    grades = [sum(m) for m, c in R.items() if c and (tol is None or not abs(float(c)) <= tol)]
    if grades:
        return ReductionResult(False, None, max(grades), f"remainder of degree {max(grades)} mod the quadric", approx)
    residual = P - Q * S
    if not residual.is_zero(tol):
        return ReductionResult(False, None, 2, "witness failed the exact re-check", approx)
    return ReductionResult(True, S, None, "P = Q*S verified", approx)
