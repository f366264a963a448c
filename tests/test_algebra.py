"""Structure-constant algebras, coalgebras and their validation."""

import json
from fractions import Fraction

import pytest

from conftest import bad_unit_algebra, both_routes
from ybops import algebra
from ybops.algebra import (Algebra, algebra_from_json, algebra_to_json,
                           coalgebra_from_json, coalgebra_to_json,
                           cubic_algebra, dual_coalgebra,
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
        # an exact algebra built by hand is validated at its first triple,
        # once, and its residuals are then decided by the five equations;
        # a float algebra goes to the kernel unvalidated
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
        floats = Algebra(dim=2, structconst=quadratic_algebra(2).structconst,
                         unit=(1.0, Fraction(0)))
        colored_qybe_residual(ColoredFamily("thm1", floats, params), *uvw)
        assert len(validated) == 1

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


class TestJson:
    def test_algebra_roundtrip(self, Bc):
        assert algebra_from_json(algebra_to_json(Bc)) == Bc

    def test_coalgebra_roundtrip(self, A1, M2):
        # M2 is not commutative, so a reader that swaps i and j fails on it
        for A in (A1, M2):
            C = dual_coalgebra(A)
            assert coalgebra_from_json(coalgebra_to_json(C)) == C

    def test_fractions_survive(self):
        A = quadratic_algebra(Fraction(-3, 7))
        assert algebra_from_json(algebra_to_json(A)) == A

    def test_numbers_read_in_their_field(self):
        # JSON numbers in place of strings: floats under float64, and
        # exact values under rational
        data = json.loads(algebra_to_json(quadratic_algebra(Fraction(-3, 4))))
        data["structconst"] = [[[float(Fraction(x)) for x in row]
                                for row in plane]
                               for plane in data["structconst"]]
        data["unit"] = [int(x) for x in data["unit"]]
        for field, kind in (("float64", float), ("rational", Fraction)):
            data["field"] = field
            A = algebra_from_json(json.dumps(data))
            assert A == quadratic_algebra(Fraction(-3, 4))
            assert all(type(x) is kind for x in A.unit) and all(
                type(x) is kind for plane in A.structconst
                for row in plane for x in row)


_BAD_SCALARS = {"null-entry": None, "array-entry": ["1"],
                "object-entry": {"num": 1}, "word-entry": "one",
                "zero-den-entry": "1/0"}


def _misshape(data, tensor, vector, how):
    """Damage one field of a structure's JSON dict."""
    if how == "short-unit":
        data[vector] = data[vector][:-1]
    elif how == "missing-plane":
        data[tensor] = data[tensor][:-1]
    elif how == "ragged-row":
        data[tensor][1][0] = data[tensor][1][0][:-1]
    elif how == "string-row":  # "01" is not the row ["0", "1"]
        data[tensor][1][0] = "".join(data[tensor][1][0])
    elif how == "string-unit":
        data[vector] = "".join(data[vector])
    elif how == "scalar-plane":  # a scalar where a plane belongs
        data[tensor][1] = data[tensor][1][0][0]
    elif how == "missing-key":
        del data[tensor]
    elif how == "top-array":
        data = list(data.values())
    elif how == "top-string":
        data = json.dumps(data)
    elif how in _BAD_SCALARS:  # one scalar slot holds no scalar
        data[tensor][1][0][0] = _BAD_SCALARS[how]
    elif how == "bool-unit":  # true is no 1, though True == 1
        data[vector][0] = True
    elif how == "too-deep":  # deeper than the JSON parser recurses
        depth = 200_000
        return ('{"dim": 2, "' + vector + '": ' + "[" * depth
                + "]" * depth + "}")
    else:  # float-dim: 2.0 is no dimension, though 2.0 == 2
        data["dim"] = float(data["dim"])
    return json.dumps(data)


class TestShapeChecks:
    HOWS = ["short-unit", "missing-plane", "ragged-row", "string-row",
            "string-unit", "scalar-plane", "missing-key", "top-array",
            "top-string", "float-dim", *_BAD_SCALARS, "bool-unit",
            "too-deep"]
    # a document that is not an object with every key, or that holds
    # something other than a number or a string where a scalar belongs, is
    # malformed, not mis-shaped
    ERROR = {how: InvalidStructureError for how in (
        "missing-key", "top-array", "top-string", *_BAD_SCALARS,
        "bool-unit", "too-deep")}

    @pytest.mark.parametrize("how", HOWS)
    def test_algebra_reader_rejects(self, how, A1):
        text = _misshape(json.loads(algebra_to_json(A1)),
                         "structconst", "unit", how)
        with pytest.raises(self.ERROR.get(how, DimensionMismatchError)):
            algebra_from_json(text)

    @pytest.mark.parametrize("how", HOWS)
    def test_coalgebra_reader_rejects(self, how, A1):
        text = _misshape(json.loads(coalgebra_to_json(dual_coalgebra(A1))),
                         "comult", "counit", how)
        with pytest.raises(self.ERROR.get(how, DimensionMismatchError)):
            coalgebra_from_json(text)

    def test_constructor_rejects(self, A1):
        with pytest.raises(DimensionMismatchError):
            Algebra(dim=2, structconst=A1.structconst, unit=A1.unit[:1])
