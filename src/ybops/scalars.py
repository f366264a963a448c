"""Scalar field helpers.

Exact mode works over the rationals (``fractions.Fraction``); float mode uses
Python floats.  All identity checks in the library default to exact mode,
floats only appear in the numerical search.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Union

from .errors import NonIntegerExponentError, SingularParameterError

Scalar = Union[Fraction, int, float]


def rational(x) -> Fraction:
    """The exact rational value of an int, Fraction, float or 'num/den'
    string; a float converts exactly, unrounded."""
    return x if isinstance(x, Fraction) else Fraction(x)


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction))


def over_one_denominator(cols) -> tuple:
    """``(den, integer cols)`` for lists ``cols`` of ``(index, x)`` pairs
    with exact x: each x becomes the integer numerator of x over den, the
    lcm of all their denominators."""
    den = lcm(*(x.denominator for col in cols for _, x in col))
    return den, [[(i, x.numerator * (den // x.denominator)) for i, x in col]
                 for col in cols]


def scalar_pow(base, expo):
    """Real base**expo: exact mode or a negative base needs an integer expo."""
    exact = is_exact(base) and is_exact(expo)
    if exact and Fraction(expo).denominator != 1:
        raise NonIntegerExponentError(
            f"exact mode needs integer colours, got exponent {expo}")
    if base == 0 and expo < 0:
        raise SingularParameterError("0 cannot be raised to a negative power")
    if exact:
        return Fraction(base) ** int(expo)
    power = float(base) ** float(expo)
    if isinstance(power, complex):
        raise NonIntegerExponentError(
            f"a negative base needs an integer exponent, got {expo}")
    return power


def reciprocal(x):
    """1/x, exact for ints and Fractions."""
    return Fraction(1) / x if is_exact(x) else 1.0 / x


def format_scalar(x: Scalar) -> str:
    """A scalar's text: 'num' or 'num/den' for a Fraction, else its repr."""
    return str(x) if isinstance(x, Fraction) else repr(x)


def parse_scalar(s, field: str = "rational") -> Scalar:
    """Inverse of :func:`format_scalar` for the given field tag; a number
    reads as ``Fraction(s)`` or ``float(s)``."""
    try:
        if field == "rational":
            return Fraction(s)
        if field == "float64":
            return float(Fraction(s)) if "/" in str(s) else float(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None
    raise ValueError(f"unknown field {field!r}")
