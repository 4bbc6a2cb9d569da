"""Exact Gaussian-rational scalars.

A scalar is ``re + im*i`` with both parts exactly ``fractions.Fraction``,
so every field operation is exact, denominators stay positive, fractions
stay in lowest terms, and zero has the unique form 0/1.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError


class Scalar:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # An exact Fraction is kept as it is; anything else (an int, a bool, a
        # Fraction subclass, a string) goes through `Fraction()`.
        _set_re(self, re if type(re) is Fraction else Fraction(re))
        _set_im(self, im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @classmethod
    def coerce(cls, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot interpret {value!r} as a Scalar")

    # Fraction components as integer pairs, mostly for serialization.
    @property
    def re_num(self) -> int:
        return self.re.numerator

    @property
    def re_den(self) -> int:
        return self.re.denominator

    @property
    def im_num(self) -> int:
        return self.im.numerator

    @property
    def im_den(self) -> int:
        return self.im.denominator

    def __add__(self, other):
        other = Scalar.coerce(other)
        return _of(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = Scalar.coerce(other)
        return _of(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __neg__(self):
        return _of(-self.re, -self.im)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar(other)
        return _of(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "Scalar":
        return _of(self.re, -self.im)

    def inverse(self) -> "Scalar":
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        return _of(self.re / norm, -self.im / norm)

    def __truediv__(self, other):
        return self * Scalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return Scalar.coerce(other) * self.inverse()

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # A real scalar equals its Fraction (and int), so it hashes like one.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def literal(self) -> str:
        """Canonical text form: ``3``, ``-1/2``, ``1/2+1/3i``, ``0-1i``."""
        if self.im == 0:
            return _frac_text(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{_frac_text(self.re)}{sign}{_frac_text(abs(self.im))}i"

    def __repr__(self):
        return f"Scalar({self.literal()})"


_set_re = Scalar.re.__set__
_set_im = Scalar.im.__set__


def _of(re: Fraction, im: Fraction) -> Scalar:
    """The Scalar ``re + im*i`` on two exact Fractions, kept as they are: the
    trusted constructor for arithmetic, whose Fraction results need no re-wrap."""
    s = object.__new__(Scalar)
    _set_re(s, re)
    _set_im(s, im)
    return s


def _int_text(k: int, what: str = "coefficient") -> str:
    """``str(k)``, or an InputError past the interpreter's limit on digits converted to text."""
    try:
        return str(k)
    except ValueError:
        raise InputError(f"{what} has too many digits to print") from None


def _frac_text(q: Fraction) -> str:
    if q.denominator == 1:
        return _int_text(q.numerator)
    return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"


# What an element accepts as a coefficient factor, from either side.
_SCALAR_TYPES = (int, Fraction, Scalar)

ZERO = Scalar(0)
ONE = Scalar(1)
