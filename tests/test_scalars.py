"""A scalar's text: format_scalar, and parse_scalar, which reads it."""

import sys
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


_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class TestParse:
    @pytest.mark.parametrize("text,want", [
        ("-3/2", Fraction(-3, 2)), ("1/4", Fraction(1, 4)), ("7", 7),
        (0.1, Fraction(0.1)), ("1e4299", Fraction(10) ** 4299)])
    def test_reads_its_exact_rational(self, text, want):
        got = parse_scalar(text)
        assert got == want and type(got) is Fraction

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            parse_scalar("1/0")

    @pytest.mark.skipif(not _LIMIT, reason="no int digit limit is set")
    @pytest.mark.parametrize("text", [
        f"1e{_LIMIT}", f"-2.5E-{_LIMIT}", "1e999999999", f"1e+00_{_LIMIT}"])
    def test_exponent_at_the_digit_limit(self, text):
        # refused before 10**|e| is computed, as the power written out
        # with more than sys.get_int_max_str_digits() digits is
        with pytest.raises(ValueError, match="decimal exponent out of range"):
            parse_scalar(text)

    def test_a_word_with_an_exponent_is_no_literal(self):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            parse_scalar("abce99999")
