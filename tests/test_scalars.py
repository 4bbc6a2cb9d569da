from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import scalars
from cuntzsum import Scalar, delta, generator, unit
from cuntzsum.bialgebra import lift_left


def test_normalization():
    s = Scalar(Fraction(2, 4), Fraction(-3, 6))
    assert (s.re_num, s.re_den) == (1, 2)
    assert (s.im_num, s.im_den) == (-1, 2)
    zero = Scalar(0)
    assert (zero.re_num, zero.re_den, zero.im_num, zero.im_den) == (0, 1, 0, 1)
    assert zero.is_zero() and not zero


def test_field_ops():
    a = Scalar(Fraction(1, 2), Fraction(1, 3))
    b = Scalar(2, -1)
    assert a + b == Scalar(Fraction(5, 2), Fraction(-2, 3))
    assert a * b == Scalar(Fraction(1) + Fraction(1, 3), Fraction(2, 3) - Fraction(1, 2))
    assert -a == Scalar(Fraction(-1, 2), Fraction(-1, 3))
    assert a.conjugate() == Scalar(Fraction(1, 2), Fraction(-1, 3))
    assert Scalar(0, 1) * Scalar(0, 1) == Scalar(-1)


def test_a_scalar_scales_an_element_from_either_side():
    x = generator(2, 1) + unit(3).scale(Scalar(0, 1))
    for value in (x, delta(x)):
        assert Scalar(2) * value == value * Scalar(2) == value.scale(2)
    with pytest.raises(TypeError):
        Scalar(1) * "a"
    with pytest.raises(TypeError):
        "a" * Scalar(1)


def test_a_fraction_scales_an_element_from_either_side():
    x = generator(2, 1) + unit(3).scale(Scalar(0, 1))
    half = Fraction(1, 2)
    for value in (x, delta(x)):
        assert half * value == value * half == value.scale(half) == Scalar(half) * value
    triple = lift_left(delta, delta(x))
    assert half * triple == triple.scale(half)


def test_inverse():
    a = Scalar(3, 4)
    assert a * a.inverse() == Scalar(1)
    assert Scalar(1) / a == a.inverse()
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()


def test_literal_forms():
    assert Scalar(3).literal() == "3"
    assert Scalar(Fraction(-1, 2)).literal() == "-1/2"
    assert Scalar(Fraction(1, 2), Fraction(1, 3)).literal() == "1/2+1/3i"
    assert Scalar(0, -1).literal() == "0-1i"


def test_immutability_and_coercion():
    s = Scalar(1)
    with pytest.raises(AttributeError):
        s.re = Fraction(2)
    assert Scalar.coerce(2) == Scalar(2)
    assert Scalar.coerce(Fraction(1, 2)) == Scalar(Fraction(1, 2))
    with pytest.raises(TypeError):
        Scalar.coerce(1.5)


@given(scalars(), scalars(), scalars())
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a
    if not a.is_zero():
        assert a * a.inverse() == Scalar(1)


def test_real_scalars_hash_like_their_fractions():
    for value in (1, 0, -3, Fraction(1, 2), Fraction(-7, 3)):
        assert Scalar(value) == value
        assert hash(Scalar(value)) == hash(value) == hash(Fraction(value))
    assert len({Scalar(1), 1}) == 1
    assert len({Scalar(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert {Scalar(2): "two"}[2] == "two"


@given(scalars(), scalars())
def test_equal_scalars_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)
    if a.im == 0:
        assert hash(a) == hash(a.re)


class FractionSubclass(Fraction):
    """A Fraction that is not exactly a Fraction, so a Scalar converts it."""


_BIG = 10**40
_PARTS = st.one_of(
    st.integers(-_BIG, _BIG),
    st.booleans(),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
    st.builds(FractionSubclass, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
)


def _exact(s):
    """The parts of ``s``, each checked to be exactly a Fraction."""
    assert type(s.re) is type(s.im) is Fraction
    return s.re, s.im


@given(_PARTS, _PARTS, _PARTS, _PARTS)
@settings(max_examples=300)
def test_arithmetic_matches_pairs_of_fractions(re1, im1, re2, im2):
    """Every result of Scalar arithmetic holds two exact Fractions, equal to
    the same arithmetic done on pairs of Fractions."""
    x, y = Scalar(re1, im1), Scalar(re2, im2)
    (a, b), (c, d) = _exact(x), _exact(y)
    assert (a, b, c, d) == tuple(map(Fraction, (re1, im1, re2, im2)))
    expected = [
        (x + y, (a + c, b + d)),
        (x - y, (a - c, b - d)),
        (x * y, (a * c - b * d, a * d + b * c)),
        (-x, (-a, -b)),
        (x.conjugate(), (a, -b)),
        (x + re2, (a + c, b)),
        (re2 + x, (a + c, b)),
        (x - re2, (a - c, b)),
        (re2 - x, (c - a, -b)),
        (x * re2, (a * c, b * c)),
        (re2 * x, (a * c, b * c)),
    ]
    norm = c * c + d * d
    if norm:
        expected += [
            (y.inverse(), (c / norm, -d / norm)),
            (x / y, ((a * c + b * d) / norm, (b * c - a * d) / norm)),
        ]
    if c:
        expected += [(x / re2, (a / c, b / c))]
    if a or b:
        expected += [(re2 / x, (c * a / (a * a + b * b), -c * b / (a * a + b * b)))]
    for result, pair in expected:
        assert _exact(result) == pair
