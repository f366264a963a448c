"""A scalar's text: format_scalar and parse_scalar."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybops.scalars import format_scalar, parse_scalar


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


class TestParse:
    @pytest.mark.parametrize("text,field,want", [
        ("-3/2", "rational", Fraction(-3, 2)), ("1/4", "float64", 0.25),
        ("0.5", "float64", 0.5)])
    def test_reads_in_its_field(self, text, field, want):
        got = parse_scalar(text, field)
        assert got == want and type(got) is type(want)

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown field 'decimal'"):
            parse_scalar("1", "decimal")
