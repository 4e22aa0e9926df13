"""Exact arithmetic in real quadratic extensions Q(sqrt(d)).

Every number is stored as a + b*sqrt(d) with rational a, b and a squarefree
integer radicand d >= 0.  This is enough to carry all closed-form parameter
values produced by the solvers (roots of quadratics with rational
coefficients) and to do exact zero-testing in the polynomial reduction,
with no tolerance debate.

Mixing two irrational numbers with different radicands is an error; mixing
with rationals (int / Fraction) is always fine.
"""

from __future__ import annotations

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

    # -- coercion -------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadExt(x)
        return None

    def _common_radicand(self, other: "QuadExt") -> int:
        if self.d and other.d and self.d != other.d:
            raise ValueError(f"mixed radicands {self.d} and {other.d}")
        return self.d or other.d

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self._common_radicand(other)
        return QuadExt._trusted(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._trusted(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self._common_radicand(other)
        return QuadExt._trusted(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        d = self._common_radicand(other)
        # 1/(a + b*sqrt(d)) = (a - b*sqrt(d)) / (a^2 - b^2 d); the norm is
        # nonzero for nonzero elements because d is squarefree.
        nrm = other.a * other.a - other.b * other.b * d
        inv = QuadExt._trusted(other.a / nrm, -other.b / nrm, d)
        return self * inv

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
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

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return not (self - other)

    def __hash__(self):
        if self.d == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def sign(self) -> int:
        """Exact sign (-1, 0, +1) of the real number a + b*sqrt(d)."""
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return 0 if a == 0 else (1 if a > 0 else -1)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 d
        lead_a = a * a > b * b * d
        if a > 0:
            return 1 if lead_a else -1
        return -1 if lead_a else 1

    def __lt__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __le__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() <= 0

    def __gt__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() > 0

    def __ge__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() >= 0

    def __float__(self):
        """a + b*sqrt(d) as a float; opposite-signed terms go through (a^2 - b^2 d) / (a - b*sqrt(d)), which does not cancel."""
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
        den = math.lcm(self.a.denominator, self.b.denominator)
        an = self.a.numerator * (den // self.a.denominator)
        bn = self.b.numerator * (den // self.b.denominator)
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
