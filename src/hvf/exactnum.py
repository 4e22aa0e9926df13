"""Exact arithmetic in real quadratic extensions Q(sqrt(d)).

Every number is stored as a + b*sqrt(d) with rational a, b and a squarefree
integer radicand d >= 0.  This is enough to carry all closed-form parameter
values produced by the solvers (roots of quadratics with rational
coefficients) and to do exact zero-testing in the polynomial reduction,
with no tolerance debate.  Products, quotients, signs and str share one
integer normal form, (an + bn*sqrt(d))/den with den the lcm of the
denominators of a and b, so each part of a result is one Fraction(num, den).

Mixing two irrational numbers with different radicands is an error; mixing
with rationals (int / Fraction) is always fine.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


def _squarefree_split(d: int) -> tuple[int, int]:
    """Write d = s**2 * d0 with d0 squarefree; return (s, d0).

    Trial division only runs to the cube root of the remaining cofactor: what
    is left then has at most two prime factors, so it is a square or squarefree.
    """
    if d < 0:
        raise ValueError("radicand must be non-negative")
    s, d0, f = 1, 1, 2
    while f * f * f <= d:
        k = 0
        while d % f == 0:
            d //= f
            k += 1
        s, d0, f = s * f ** (k // 2), d0 * f ** (k % 2), f + 1
    r = math.isqrt(d)
    return (s * r, d0) if r * r == d else (s, d0 * d)


def _binary(op):
    """op(self, other, d) as a binary method: an int or Fraction other becomes a rational QuadExt,
    any other type gives NotImplemented, and d is the radicand the two operands share."""

    def method(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadExt(other)
        elif not isinstance(other, QuadExt):
            return NotImplemented
        if self.d and other.d and self.d != other.d:
            raise ValueError(f"mixed radicands {self.d} and {other.d}")
        return op(self, other, self.d or other.d)

    return method


@functools.total_ordering
class QuadExt:
    """An element a + b*sqrt(d) of Q(sqrt(d)), with exact rational a, b."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=0):
        a, b, d = Fraction(a), Fraction(b), int(d)
        if b != 0 and d != 0:
            s, d = _squarefree_split(d)
            a, b, d = (a + b * s, 0, 0) if d == 1 else (a, b * s, d)
        self._set(a, b, d)

    def _set(self, a: Fraction, b: Fraction, d: int) -> None:
        if b == 0 or d == 0:
            b, d = Fraction(0), 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @classmethod
    def _trusted(cls, a: Fraction, b: Fraction, d: int) -> "QuadExt":
        """a + b*sqrt(d) for a radicand already split to squarefree: ring results skip the split."""
        out = object.__new__(cls)
        out._set(a, b, d)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def _integers(self) -> tuple[int, int, int]:
        """The normal form: (an, bn, den) with self = (an + bn*sqrt(d))/den, den the lcm of the denominators."""
        a, b = self.a, self.b
        den = math.lcm(a.denominator, b.denominator)
        return a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den

    def _times(self, an: int, bn: int, num: int, den: int, d: int) -> "QuadExt":
        """self * (an + bn*sqrt(d)) * num/den, each part of it one Fraction(num, den)."""
        xa, xb, xden = self._integers()
        den *= xden
        return QuadExt._trusted(Fraction((xa * an + xb * bn * d) * num, den), Fraction((xa * bn + xb * an) * num, den), d)

    # -- ring operations ------------------------------------------------

    @_binary
    def __add__(self, other, d):
        return QuadExt._trusted(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._trusted(-self.a, -self.b, self.d)

    @_binary
    def __sub__(self, other, d):
        return QuadExt._trusted(self.a - other.a, self.b - other.b, d)

    @_binary
    def __rsub__(self, other, d):
        return QuadExt._trusted(other.a - self.a, other.b - self.b, d)

    @_binary
    def __mul__(self, other, d):
        an, bn, den = other._integers()
        return self._times(an, bn, 1, den, d)

    __rmul__ = __mul__

    @_binary
    def __truediv__(self, other, d):
        # 1/(an + bn*sqrt(d)) = (an - bn*sqrt(d)) / (an^2 - bn^2 d): the norm is not 0, as d is squarefree
        if not other:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        an, bn, den = other._integers()
        return self._times(an, -bn, den, an * an - bn * bn * d, d)

    @_binary
    def __rtruediv__(self, other, d):
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = QuadExt(1)
        for _ in range(k):
            out = out * self
        return out

    # -- predicates and conversions --------------------------------------

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    @_binary
    def __eq__(self, other, d):
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        if self.d == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def sign(self) -> int:
        """Exact sign (-1, 0, +1) of a + b*sqrt(d): of the part with the larger square, a^2 or b^2 d, if the signs differ."""
        an, bn, _ = self._integers()
        sa, sb = (an > 0) - (an < 0), (bn > 0) - (bn < 0)
        if sa * sb >= 0:
            return sa or sb
        return sa if an * an > bn * bn * self.d else sb

    @_binary
    def __lt__(self, other, d):
        return (self - other).sign() < 0

    def __float__(self):
        """a + b*sqrt(d) as a float; opposite-signed terms go through (a^2 - b^2 d) / (a - b*sqrt(d)), which does not cancel."""
        if not self.d:  # rational
            return float(self.a)
        root = float(self.b) * math.sqrt(self.d)
        if self.a * self.b < 0:
            return float(self.a * self.a - self.b * self.b * self.d) / (float(self.a) - root)
        return float(self.a) + root

    def is_rational(self) -> bool:
        return self.d == 0

    # -- rendering --------------------------------------------------------

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d!r})"

    def __str__(self):
        if self.d == 0:
            return str(self.a)
        an, bn, den = self._integers()
        root = f"sqrt({self.d})" if abs(bn) == 1 else f"{abs(bn)}*sqrt({self.d})"
        num = root if bn > 0 else f"-{root}"
        if an > 0:
            num += f" + {an}"
        elif an < 0:
            num += f" - {-an}"
        if den == 1:
            return f"({num})" if an != 0 else num
        return f"({num})/{den}"


def sqrt_fraction(f) -> QuadExt:
    """Exact square root of a non-negative rational, as a QuadExt."""
    f = Fraction(f)
    if f < 0:
        raise ValueError("square root of a negative rational")
    if f == 0:
        return QuadExt(0)
    return QuadExt(0, Fraction(1, f.denominator), f.numerator * f.denominator)


def solve_quadratic(a, b, c) -> tuple[QuadExt, QuadExt]:
    """Exact roots of a*u^2 + b*u + c = 0 with rational coefficients.

    Returns (root with +sqrt branch, root with -sqrt branch); raises when the
    discriminant is negative or the equation is not quadratic.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a == 0:
        raise ValueError("leading coefficient is zero")
    disc = b * b - 4 * a * c
    if disc < 0:
        raise ValueError("negative discriminant, no real roots")
    root = sqrt_fraction(disc)
    return (root - b) / (2 * a), (-root - b) / (2 * a)
