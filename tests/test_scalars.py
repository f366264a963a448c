"""A scalar's text: format_scalar, and parse_scalar as the JSON reader
uses it."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybops.algebra import algebra_from_json
from ybops.errors import InvalidStructureError
from ybops.scalars import format_scalar


class TestFormat:
    @pytest.mark.parametrize("x,text", [
        (Fraction(-6, 4), "-3/2"), (Fraction(8, 4), "2"), (Fraction(0), "0"),
        (0.5, "0.5"), (-0.0, "-0.0"), (7, "7")])
    def test_text(self, x, text):
        assert format_scalar(x) == text

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(-10**40, 10**40), d=st.integers(1, 10**40))
    def test_rational_is_numerator_over_denominator(self, n, d):
        # 'n' or 'n/d' in lowest terms, as reports have always written a
        # rational; budget under 0.5 s
        x = Fraction(n, d)
        want = (str(x.numerator) if x.denominator == 1
                else f"{x.numerator}/{x.denominator}")
        assert format_scalar(x) == want


def _read(x, field):
    """The one structure constant of a one-dimensional JSON algebra whose
    product entry is ``x``, in ``field`` (no field key when None)."""
    data = {"dim": 1, "structconst": [[[x]]], "unit": ["1"]}
    if field is not None:
        data["field"] = field
    return algebra_from_json(json.dumps(data)).structconst[0][0][0]


class TestParse:
    # parse_scalar reads each scalar of a JSON structure.  The one field
    # is "rational", named or left out, and a JSON number reads as its
    # exact value.
    @pytest.mark.parametrize("text,field,want", [
        ("-3/2", "rational", Fraction(-3, 2)), ("1/4", None, Fraction(1, 4)),
        (0.1, "rational", Fraction(0.1))])
    def test_reads_in_its_field(self, text, field, want):
        got = _read(text, field)
        assert got == want and type(got) is Fraction

    def test_unknown_field(self):
        for field in ("float64", "decimal"):
            with pytest.raises(InvalidStructureError,
                               match=f'must be "rational", got "{field}"'):
                _read("1", field)
