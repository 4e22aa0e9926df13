import decimal
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# Q(sqrt(d)) against a reference on (a, b) pairs of Fractions, with the textbook formulas
RADICANDS = (2, 3, 5, 6, 7, 10, 73, 10007)
PARTS = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6))
REFERENCE = settings(max_examples=150, deadline=None, database=None, derandomize=True)


def _pair(v, d):
    """The reference (a, b) of a QuadExt, int or Fraction operand."""
    return (v.a, v.b) if isinstance(v, QuadExt) else (Fraction(v), Fraction(0))


def _ref_repr(a, b, d):
    return f"QuadExt({a!r}, {b!r}, {d})" if b else f"QuadExt({a!r}, Fraction(0, 1), 0)"


def _ref_sign(a, b, d):
    with decimal.localcontext() as ctx:
        ctx.prec = 200
        v = decimal.Decimal(a.numerator) / a.denominator + decimal.Decimal(b.numerator) / b.denominator * decimal.Decimal(d).sqrt()
        return (v > 0) - (v < 0)


def _ref_str(a, b, d):
    if not b:
        return str(a)
    den = math.lcm(a.denominator, b.denominator)
    an, bn = int(a * den), int(b * den)
    num = ("-" if bn < 0 else "") + ("" if abs(bn) == 1 else f"{abs(bn)}*") + f"sqrt({d})"
    num += f" + {an}" if an > 0 else f" - {-an}" if an < 0 else ""
    return num if (an, den) == (0, 1) else f"({num})" + ("" if den == 1 else f"/{den}")


def _ref_ops(x, y, d):
    (a1, b1), (a2, b2) = x, y
    out = {
        "+": (a1 + a2, b1 + b2),
        "-": (a1 - a2, b1 - b2),
        "*": (a1 * a2 + b1 * b2 * d, a1 * b2 + b1 * a2),
    }
    norm = a2 * a2 - b2 * b2 * d
    if norm:
        out["/"] = ((a1 * a2 - b1 * b2 * d) / norm, (b1 * a2 - a1 * b2) / norm)
    return out


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@st.composite
def _operands(draw):
    """(x, y, d): a QuadExt x and a QuadExt, int or Fraction y, over one radicand d."""
    d = draw(st.sampled_from(RADICANDS))
    x = QuadExt(draw(PARTS), draw(PARTS), d)
    y = draw(st.one_of(
        st.builds(lambda a, b: QuadExt(a, b, d), PARTS, PARTS),
        st.integers(-10**6, 10**6),
        PARTS,
    ))
    return x, y, d


@REFERENCE
@given(operands=_operands())
def test_quadext_equals_the_two_fraction_reference(operands):
    x, y, d = operands
    px, py = _pair(x, d), _pair(y, d)
    for (left, pl), (right, pr) in (((x, px), (y, py)), ((y, py), (x, px))):
        want = _ref_ops(pl, pr, d)
        for name, op in OPS.items():
            if name not in want:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            got = op(left, right)
            assert isinstance(got, QuadExt) and repr(got) == _ref_repr(*want[name], d), (name, left, right)
        diff = _ref_sign(*want["-"], d)
        assert (left == right, left != right) == (diff == 0, diff != 0)
        assert (left < right, left <= right, left > right, left >= right) == (diff < 0, diff <= 0, diff > 0, diff >= 0)
    for v, (a, b) in ((x, px), (QuadExt(*py, d), py)):
        assert v.sign() == _ref_sign(a, b, d)
        assert hash(v) == (hash(a) if not b else hash((a, b, d)))
        assert str(v) == _ref_str(a, b, d)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            exact = decimal.Decimal(a.numerator) / a.denominator + decimal.Decimal(b.numerator) / b.denominator * decimal.Decimal(d).sqrt()
        assert math.isclose(float(v), float(exact), rel_tol=2**-50, abs_tol=0.0)
    if not isinstance(y, QuadExt):
        assert QuadExt(y) == y and y == QuadExt(y) and hash(QuadExt(y)) == hash(y)


@pytest.mark.parametrize("name", [*OPS, "==", "<", "<=", ">", ">="])
def test_quadext_rejects_mixed_radicands_and_floats(name):
    op = {**OPS, "==": operator.eq, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}[name]
    x = QuadExt(1, 2, 3)
    with pytest.raises(ValueError, match="mixed radicands 3 and 5"):
        op(x, QuadExt(0, 1, 5))
    if name == "==":
        assert (x == 1.5, 1.5 == x) == (False, False)
        return
    for left, right in ((x, 1.5), (1.5, x)):
        with pytest.raises(TypeError):
            op(left, right)


@pytest.mark.parametrize("zero", [0, Fraction(0), QuadExt(0), QuadExt(0, 0, 7)])
def test_quadext_division_by_zero(zero):
    for num in (QuadExt(1, 2, 7), QuadExt(3)):
        with pytest.raises(ZeroDivisionError):
            num / zero
    with pytest.raises(ZeroDivisionError):
        5 / QuadExt(0)
