import math
from fractions import Fraction

import pytest

from hvf.exactnum import QuadExt, _squarefree_split, solve_quadratic, sqrt_fraction


def test_radicand_reduction():
    x = QuadExt(0, 1, 192)  # sqrt(192) = 8 sqrt(3)
    assert x.d == 3 and x.b == 8
    assert QuadExt(0, 1, 49) == 7
    assert QuadExt(2, 0, 73).is_rational()


def test_squarefree_split_matches_trial_division_to_the_square_root():
    def reference(d):
        s, d0, f = 1, d, 2
        while f * f <= d0:
            while d0 % (f * f) == 0:
                d0 //= f * f
                s *= f
            f += 1
        return s, d0

    big = [p * q * k for p in (9973, 104729) for q in (1, 2, 9973, 7919, 104729) for k in (1, 12, 49)]
    for d in list(range(1, 20000)) + big:
        assert _squarefree_split(d) == reference(d), d


def test_field_arithmetic():
    x = QuadExt(Fraction(1, 2), Fraction(3), 5)
    y = QuadExt(-2, Fraction(1, 3), 5)
    assert (x + y) - y == x
    assert x * y == y * x
    assert (x / y) * y == x
    assert x * 0 == 0
    assert float(x) == pytest.approx(0.5 + 3 * math.sqrt(5))
    assert (x - x).sign() == 0


def test_rational_interop():
    x = QuadExt(0, 1, 2)
    assert 1 + x == QuadExt(1, 1, 2)
    assert Fraction(1, 2) * x == QuadExt(0, Fraction(1, 2), 2)
    assert 2 / QuadExt(0, 1, 2) == QuadExt(0, 1, 2)  # 2/sqrt(2) = sqrt(2)


def test_mixed_radicands_rejected():
    with pytest.raises(ValueError):
        QuadExt(0, 1, 2) + QuadExt(0, 1, 3)


def test_exact_sign_and_order():
    assert (QuadExt(-1, 1, 2)).sign() == 1  # sqrt(2) > 1
    assert (QuadExt(-2, 1, 2)).sign() == -1
    assert QuadExt(0, 1, 2) < QuadExt(0, 1, 8)  # sqrt2 < 2 sqrt2
    assert QuadExt(7, 0, 0) > 6


def test_solve_quadratic():
    # 2u^2 + 7u - 3 = 0: positive root (sqrt(73) - 7)/4
    plus, minus = solve_quadratic(2, 7, -3)
    assert plus == QuadExt(Fraction(-7, 4), Fraction(1, 4), 73)
    assert float(plus) == pytest.approx((math.sqrt(73) - 7) / 4, abs=1e-15)
    assert minus.sign() == -1
    with pytest.raises(ValueError):
        solve_quadratic(1, 0, 1)
    with pytest.raises(ValueError):
        solve_quadratic(0, 1, 1)


def test_sqrt_fraction():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    r = sqrt_fraction(Fraction(1, 2))
    assert r * r == Fraction(1, 2)


def test_rendering():
    assert str(QuadExt(Fraction(-13, 8), Fraction(1, 8), 73)) == "(sqrt(73) - 13)/8"
    assert str(QuadExt(Fraction(7, 4), Fraction(1, 4), 73)) == "(sqrt(73) + 7)/4"
    assert str(QuadExt(0, -1, 3)) == "-sqrt(3)"
    assert str(QuadExt(Fraction(5, 3))) == "5/3"
