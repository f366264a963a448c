"""Structure-constant algebras, coalgebras and their validation."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bad_unit_algebra, both_routes
from ybops import algebra
from ybops.algebra import (Algebra, cubic_algebra, dual_coalgebra,
                           multiply, poly_quotient, quadratic_algebra,
                           require_valid, validate)
from ybops.colored import ColoredFamily
from ybops.errors import (DimensionMismatchError, InvalidStructureError)
from ybops.scalars import rational
from ybops.tensorop import colored_qybe_residual
from ybops.ybsystem import thm3_system


def e(n, i):
    return tuple(Fraction(int(t == i)) for t in range(n))


class TestPolyQuotient:
    def test_quadratic_structure(self):
        # x * x = sigma * 1 in k[X]/(X^2 - sigma)
        A = quadratic_algebra(Fraction(7, 3))
        assert multiply(A, e(2, 1), e(2, 1)) == (Fraction(7, 3), Fraction(0))

    def test_cubic_structure(self):
        # x^2 * x = eps*x + rho*1, x^2 * x^2 = eps*x^2 + rho*x
        B = cubic_algebra(2, 5)
        assert multiply(B, e(3, 2), e(3, 1)) == (5, 2, 0)
        assert multiply(B, e(3, 2), e(3, 2)) == (0, 5, 2)

    def test_unit_is_index_zero(self, Bc):
        assert Bc.unit == e(3, 0)
        for i in range(3):
            assert multiply(Bc, Bc.unit, e(3, i)) == e(3, i)
            assert multiply(Bc, e(3, i), Bc.unit) == e(3, i)

    def test_rejects_nonmonic(self):
        with pytest.raises(InvalidStructureError):
            poly_quotient([1, 0, 2])

    def test_rejects_degree_zero(self):
        with pytest.raises(InvalidStructureError):
            poly_quotient([1])

    def test_small_float_parameter_is_exact(self):
        # a float converts exactly: 1e-13 must not round to 0
        assert rational(1e-13) == Fraction(1e-13)
        assert quadratic_algebra(1e-13) != quadratic_algebra(0)


def reference_poly_quotient(coeffs):
    """``(structconst, unit)`` of k[X]/(f) by plain Fraction arithmetic:
    x^n = -(c_0 + ... + c_{n-1} x^{n-1}), and each power up to x^(2n-2)
    shifted from the one before."""
    coeffs = [Fraction(c) for c in coeffs]
    n = len(coeffs) - 1
    reps = [[Fraction(int(i == m)) for i in range(n)] for m in range(n)]
    for m in range(n, 2 * n - 1):
        prev = reps[m - 1]
        shifted = [Fraction(0)] + prev[:n - 1]
        reps.append([s - prev[n - 1] * c for s, c in zip(shifted, coeffs)])
    return (tuple(tuple(tuple(reps[i + j]) for j in range(n))
                  for i in range(n)), tuple(reps[0]))


class TestPolyQuotientOnIntegers:
    # ~0.4 s: 100 monic polynomials of degree 1..5, zero coefficients,
    # integers and rationals of mixed denominators among them
    @settings(max_examples=100, deadline=None)
    @given(lower=st.lists(st.one_of(
        st.just(0), st.integers(-5, 5),
        st.fractions(min_value=-5, max_value=5, max_denominator=7)),
        min_size=1, max_size=5))
    @example(lower=[Fraction(-1, 2), 0])  # x^2 = 1/2, as sigma = 1/2 gives
    @example(lower=[Fraction(1, 3), Fraction(-2, 5), 0, 0, Fraction(6, 7)])
    def test_matches_fraction_reference(self, lower):
        A = poly_quotient(lower + [1])
        structconst, unit = reference_poly_quotient(lower + [1])
        assert A.structconst == structconst and A.unit == unit
        assert all(type(x) is Fraction for plane in A.structconst
                   for row in plane for x in row)
        assert A == Algebra(dim=A.dim, structconst=structconst, unit=unit)
        assert A.valid


class TestValidate:
    def test_valid_families(self, Aq, Bc):
        assert validate(Aq).ok
        assert validate(Bc).ok

    def test_broken_associativity_reported(self, A1):
        # redefine x*1 = 1: then (x*1)*x = x but x*(1*x) = x*x = 1
        c = [[[x for x in row] for row in plane] for plane in A1.structconst]
        c[1][0] = [Fraction(1), Fraction(0)]
        bad = Algebra(dim=2,
                      structconst=tuple(tuple(map(tuple, p)) for p in c),
                      unit=A1.unit)
        rep = validate(bad)
        assert not rep.ok
        assert any(law == "associativity" for law, _, _ in rep.violations)
        assert any(law == "right-unit" for law, _, _ in rep.violations)

    def test_multiply_dimension_check(self, A1):
        with pytest.raises(DimensionMismatchError):
            multiply(A1, (1, 0, 0), (0, 1))


class TestDualCoalgebra:
    def test_dual_is_valid_coalgebra(self, Aq, Bc):
        assert validate(dual_coalgebra(Aq).algebra).ok
        assert validate(dual_coalgebra(Bc).algebra).ok

    def test_comult_transposes_product(self, Bc):
        C = dual_coalgebra(Bc)
        n = Bc.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert C.comult[i][j][k] == Bc.structconst[j][k][i]

    def test_counit_is_unit(self, A1):
        assert dual_coalgebra(A1).counit == A1.unit

    def test_rejects_invalid_algebra(self, A1):
        c = [[[x for x in row] for row in plane] for plane in A1.structconst]
        c[1][0] = [Fraction(1), Fraction(0)]  # x*1 = 1 is not unital
        bad = Algebra(dim=2,
                      structconst=tuple(tuple(map(tuple, p)) for p in c),
                      unit=A1.unit)
        with pytest.raises(InvalidStructureError):
            dual_coalgebra(bad)


class TestKnownValidity:
    def test_valid_is_validate_ok(self, Bc, M2):
        for A in (Bc, M2, bad_unit_algebra()):
            assert A.valid == validate(A).ok

    def test_poly_quotient_is_valid_without_validating(self, monkeypatch):
        def refuse(A):
            raise AssertionError("validate called")
        monkeypatch.setattr(algebra, "validate", refuse)
        A = poly_quotient([Fraction(1, 2), -1, 0, 1])
        assert A.valid
        assert require_valid(A) is A and dual_coalgebra(A).algebra is A

    def test_hand_built_algebra_validated_once(self, M2, monkeypatch):
        # an algebra built by hand is validated at its first triple, once,
        # and its residuals are then decided by the five equations
        validated = []

        def spy(A):
            validated.append(A)
            return validate(A)
        monkeypatch.setattr(algebra, "validate", spy)
        params = {"p": Fraction(1), "q": Fraction(3)}
        uvw = (Fraction(1, 2), Fraction(-2), Fraction(3))
        fam = ColoredFamily("thm1", M2, params)
        for _ in range(3):
            res = colored_qybe_residual(fam, *uvw)
            assert res == 0 and type(res) is Fraction
        assert len(validated) == 1 and validated[0] is M2

    def test_invalid_algebra_still_rejected(self):
        bad = bad_unit_algebra()
        assert not bad.valid
        for build in (require_valid, dual_coalgebra,
                      lambda A: thm3_system(A, 1, 1)):
            with pytest.raises(InvalidStructureError):
                build(bad)
        # a family on it gets the kernel's non-zero value, not a system 0
        fam = ColoredFamily("thm1", bad, {"p": Fraction(1), "q": Fraction(3)})
        uvw = (Fraction(1, 2), Fraction(-2), Fraction(3))
        res = colored_qybe_residual(fam, *uvw)
        assert res != 0
        assert res == colored_qybe_residual(both_routes(fam)[1], *uvw)


class TestShapeChecks:
    def test_constructor_rejects(self, A1):
        c, unit = A1.structconst, A1.unit
        ragged = (c[0], (c[1][0][:-1], c[1][1]))
        for dim, cube, vector in (
                (2, c, unit[:1]),  # a short unit
                (2, c[:1], unit),  # a missing plane
                (2, ragged, unit),  # a ragged row
                (3, c, unit),  # a dim that is not the tensor's
                # 2.0 and True are no dimension, though 2.0 == 2, True == 1
                (2.0, c, unit),
                (True, (((1,),),), (1,))):
            with pytest.raises(DimensionMismatchError):
                Algebra(dim=dim, structconst=cube, unit=vector)

    def test_strings_and_scalars_are_no_rows(self, A1):
        # a string of n characters or a bytes-like object of n bytes is no
        # row of n entries, and a scalar is no plane or row: each is a
        # dimension error, not a character- or byte-wise read or a bare
        # TypeError; budget ~1 ms
        c, unit = A1.structconst, A1.unit
        for cube, vector in (
                ((c[0], ("01", "10")), unit),  # string rows
                ((c[0], "01"), unit),  # a string plane
                ((c[0], (c[1][0], "10")), unit),  # one string row
                (c, "10"),  # a string unit
                ((c[0], (b"01", b"10")), unit),  # bytes rows
                ((c[0], (c[1][0], bytearray(b"10"))), unit),  # a bytearray
                ((c[0], (c[1][0], memoryview(b"10"))), unit),  # a memoryview
                ((c[0], b"01"), unit),  # a bytes plane
                (c, b"\x01\x00"),  # a bytes unit
                (c, bytearray(2)),  # a bytearray unit
                ((c[0], 5), unit),  # a scalar plane
                ((c[0], (c[1][0], 5)), unit),  # a scalar row
                (5, unit),  # a scalar tensor
                (c, 1)):  # a scalar unit
            with pytest.raises(DimensionMismatchError):
                Algebra(dim=2, structconst=cube, unit=vector)
        # a row of strings is n entries, each read as its rational
        rows = tuple(tuple(tuple(str(x) for x in row) for row in plane)
                     for plane in c)
        assert Algebra(dim=2, structconst=rows, unit=unit) == A1
