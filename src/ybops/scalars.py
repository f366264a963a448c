"""Scalar field helpers.

ybops works over the rationals (``fractions.Fraction``).  Every scalar is
read as its exact rational where it enters: an algebra's entries when it
is built, a family's parameters when it is built and its colours when it
is evaluated, and the entries of a matrix handed to ``Op2``; a float
converts exactly, unrounded.  Floats only appear in the numerical search.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm
from typing import Union

from .errors import NonIntegerExponentError, SingularParameterError

Scalar = Union[Fraction, int, float]


def rational(x) -> Fraction:
    """The exact rational value of an int, Fraction, float or 'num/den'
    string; a float converts exactly, unrounded."""
    return x if isinstance(x, Fraction) else Fraction(x)


def over_one_denominator(cols) -> tuple:
    """``(den, integer cols)`` for lists ``cols`` of ``(index, x)`` pairs
    with rational x: each x becomes the integer numerator of x over den,
    the lcm of all their denominators."""
    den = lcm(*(x.denominator for col in cols for _, x in col))
    return den, [[(i, x.numerator * (den // x.denominator)) for i, x in col]
                 for col in cols]


def scalar_pow(base, expo):
    """base**expo for a rational base and a rational expo, which must be an
    integer."""
    if expo.denominator != 1:
        raise NonIntegerExponentError(
            f"exact mode needs integer colours, got exponent {expo}")
    if base == 0 and expo < 0:
        raise SingularParameterError("0 cannot be raised to a negative power")
    return rational(base) ** expo.numerator


def reciprocal(x):
    """1/x, exact for ints and Fractions."""
    return Fraction(1) / x


def format_scalar(x: Scalar) -> str:
    """A scalar's text: 'num' or 'num/den' for a Fraction, else its repr."""
    return str(x) if isinstance(x, Fraction) else repr(x)


# the exponent of a decimal literal, as Fraction reads one
_EXPONENT = re.compile(
    r"\A\s*[-+]?(?=\.?\d)[\d_]*(?:\.[\d_]*)?[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_scalar(s) -> Fraction:
    """Inverse of :func:`format_scalar`: ``Fraction(s)``.  A decimal
    exponent of magnitude at least ``sys.get_int_max_str_digits()``, where
    that limit is set, is refused, as the power written out would be."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    exponent = limit and isinstance(s, str) and _EXPONENT.search(s)
    if exponent and abs(int(exponent[1])) >= limit:
        raise ValueError(f"decimal exponent out of range in {s!r}: its "
                         f"magnitude must be below {limit}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None
