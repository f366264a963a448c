"""Coloured operator families: residuals, inverses, matrix forms."""

import copy
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ybops.algebra import dual_coalgebra, quadratic_algebra
from ybops.colored import (ColoredFamily, coalgebra_colored_op, remark2_op,
                           thm1_inv, thm1_op, thm2_inv, thm2_op)
from ybops.errors import (NonIntegerExponentError, SingularParameterError,
                          UnknownFamilyError)
from ybops.funceq import FAMILIES, catalogue
from ybops.onepar import OneParFamily
from ybops.scalars import scalar_pow
from ybops.tensorop import colored_qybe_residual, tensor_basis_labels
from conftest import both_routes, rand_fraction, table_triple
from dense_reference import identity_mat, mat_mul, mat_transpose


def _admissible(rng):
    """Random (p,q,u,v) avoiding the singular loci pu=qv, qu=pv."""
    while True:
        p, q, u, v = (rand_fraction(rng) for _ in range(4))
        if p * u != q * v and q * u != p * v:
            return p, q, u, v


class TestThm1:
    def test_residual_zero_on_quadratic(self, Aq, rng):
        fam = ColoredFamily(kind="thm1", carrier=Aq,
                            params={"p": Fraction(1), "q": Fraction(3)})
        for _ in range(5):
            u, v, w = (rand_fraction(rng) for _ in range(3))
            for f in both_routes(fam):
                assert colored_qybe_residual(f, u, v, w) == 0

    def test_residual_zero_on_cubic(self, Bc, rng):
        fam = ColoredFamily(kind="thm1", carrier=Bc,
                            params={"p": Fraction(2), "q": Fraction(5, 3)})
        for _ in range(3):
            u, v, w = (rand_fraction(rng) for _ in range(3))
            for f in both_routes(fam):
                assert colored_qybe_residual(f, u, v, w) == 0

    def test_residual_zero_on_matrix_algebra(self, M2, rng):
        fam = ColoredFamily(kind="thm1", carrier=M2,
                            params={"p": Fraction(2), "q": Fraction(-1, 3)})
        for _ in range(2):
            u, v, w = (rand_fraction(rng) for _ in range(3))
            for f in both_routes(fam):
                assert colored_qybe_residual(f, u, v, w) == 0

    def test_wrong_beta_breaks_qybe(self, A1):
        # oracle guard: perturbing beta must produce a nonzero residual
        class Fake:
            def op(self, u, v):
                from ybops.colored import ansatz_op
                return ansatz_op(A1, u - v, 3 * (u - v) + 1, u - 3 * v)
        assert colored_qybe_residual(Fake(), 2, 1, 4) != 0

    def test_inverse_two_sided(self, Aq, Bc, M2, rng):
        for A in (Aq, Bc, M2):
            for _ in range(5):
                p, q, u, v = _admissible(rng)
                R = thm1_op(A, p, q, u, v)
                S = thm1_inv(A, p, q, u, v)
                I = identity_mat(A.dim ** 2)
                assert mat_mul(R.mat, S.mat) == I
                assert mat_mul(S.mat, R.mat) == I

    def test_inverse_reuses_one_opposite(self, Bc, monkeypatch):
        # the opposite algebra is built once per algebra, not per inverse
        import ybops.colored as colored
        built_on = []
        real = colored.ansatz_op

        def spy(A, *coeffs):
            built_on.append(A)
            return real(A, *coeffs)
        monkeypatch.setattr(colored, "ansatz_op", spy)
        S1 = thm1_inv(Bc, 1, 3, 2, 5)
        S2 = thm1_inv(Bc, 1, 3, 2, 5)
        assert built_on[0] is built_on[1] is Bc.opposite
        n = Bc.dim
        assert all(built_on[0].structconst[i][j] == Bc.structconst[j][i]
                   for i in range(n) for j in range(n))
        assert S1.mat == S2.mat
        assert mat_mul(thm1_op(Bc, 1, 3, 2, 5).mat, S1.mat) == identity_mat(
            Bc.dim ** 2)

    def test_singular_loci_raise(self, A1):
        with pytest.raises(SingularParameterError):
            thm1_inv(A1, 1, 2, 2, 1)  # pu = qv
        with pytest.raises(SingularParameterError):
            thm1_inv(A1, 2, 1, 2, 1)  # qu = pv


class TestThm2:
    def test_residual_zero_integer_colours(self, Aq, rng):
        fam = ColoredFamily(kind="thm2", carrier=Aq,
                            params={"p": Fraction(2), "q": Fraction(3),
                                    "s": Fraction(5)})
        for _ in range(4):
            u, v, w = (rng.randint(-3, 3) for _ in range(3))
            for f in both_routes(fam):
                assert colored_qybe_residual(f, u, v, w) == 0

    def test_inverse_two_sided(self, A1, M2):
        for A in (A1, M2):
            R = thm2_op(A, 2, 3, 5, 2, -1)
            S = thm2_inv(A, 2, 3, 5, 2, -1)
            I = identity_mat(A.dim ** 2)
            assert mat_mul(R.mat, S.mat) == I
            assert mat_mul(S.mat, R.mat) == I

    def test_zero_base_raises(self, A1):
        with pytest.raises(SingularParameterError):
            thm2_inv(A1, 0, 3, 5, 1, 1)

    def test_exact_mode_rejects_fractional_colour(self, A1):
        with pytest.raises(NonIntegerExponentError):
            thm2_op(A1, 2, 3, 5, Fraction(1, 2), 1)


class TestScalarPow:
    def test_exact_integer(self):
        assert scalar_pow(Fraction(2, 3), -2) == Fraction(9, 4)

    def test_zero_negative_raises(self):
        for base, expo in [(Fraction(0), -1), (0, -2)]:
            with pytest.raises(SingularParameterError):
                scalar_pow(base, expo)
        # a float 0.0 parameter reads as Fraction(0)
        with pytest.raises(SingularParameterError):
            ColoredFamily("thm2", quadratic_algebra(1),
                          {"p": 0.0, "q": 1, "s": 1}).op(-1, 1)
        # an exact exponent that is not an integer is checked first
        with pytest.raises(NonIntegerExponentError):
            scalar_pow(Fraction(0), Fraction(-1, 2))

    def test_negative_float_base(self):
        # a float base and colour read as exact rationals: an integer
        # colour gives the exact power, any other raises
        A = quadratic_algebra(1)
        floats = ColoredFamily("thm2", A, {"p": -2.0, "q": 1.0, "s": 1})
        exact = ColoredFamily("thm2", A, {"p": -2, "q": 1, "s": 1})
        assert table_triple(floats, 3.0, 1) == (-8, -8, -8)
        assert floats.integer_triple(3.0, 1) == (-8, -8, -8)
        assert floats.op(3.0, 1) == exact.op(3, 1)
        with pytest.raises(NonIntegerExponentError):
            floats.op(0.5, 1)


class TestRemark2:
    def test_residual_zero(self, A0, rng):
        fam = ColoredFamily(kind="remark2", carrier=A0,
                            params={"p": Fraction(2), "q": Fraction(3),
                                    "s": Fraction(7)})
        for _ in range(4):
            u, v, w = (rng.randint(-2, 3) for _ in range(3))
            for f in both_routes(fam):
                assert colored_qybe_residual(f, u, v, w) == 0

    def test_free_function_is_the_family_build(self, A0, rng):
        pqs = (Fraction(2), Fraction(3), Fraction(7))
        fam = ColoredFamily(kind="remark2", carrier=A0,
                            params=dict(zip("pqs", pqs)))
        for u, v in ((1, 2), (-2, 3), (0, -1)):
            assert remark2_op(A0, *pqs, u, v) == fam.op(u, v)
        view = SimpleNamespace(op=lambda u, v: remark2_op(A0, *pqs, u, v))
        for _ in range(2):
            u, v, w = (rng.randint(-2, 3) for _ in range(3))
            res = colored_qybe_residual(view, u, v, w)
            assert res == 0 and type(res) is Fraction

    def test_alpha_equals_gamma(self):
        alpha, beta, gamma = catalogue("remark2", p=2, q=3, s=7).coeffs(1, 2)
        assert alpha == gamma
        assert beta == Fraction(7 * 9)


class TestCoalgebraTransfer:
    def test_duality_transpose(self, Aq, Bc, M2, rng):
        # coalgebra operator on the dual equals the transpose of the algebra
        # operator, in the same flattening
        for A in (Aq, Bc, M2):
            C = dual_coalgebra(A)
            for _ in range(3):
                p, q, u, v = (rand_fraction(rng) for _ in range(4))
                R = thm1_op(A, p, q, u, v)
                Rc = coalgebra_colored_op(C, p, q, u, v)
                assert Rc.mat == tuple(map(tuple, mat_transpose(R.mat)))

    def test_coalgebra_inverse_two_sided(self, M2):
        fam = ColoredFamily(kind="coalgebra_thm1", carrier=dual_coalgebra(M2),
                            params={"p": Fraction(1), "q": Fraction(2)})
        u, v = Fraction(3), Fraction(5, 2)
        R, S = fam.op(u, v), fam.inv(u, v)
        I = identity_mat(16)
        assert mat_mul(R.mat, S.mat) == I
        assert mat_mul(S.mat, R.mat) == I

    def test_coalgebra_family_solves_qybe(self, A1, rng):
        fam = ColoredFamily(kind="coalgebra_thm1", carrier=dual_coalgebra(A1),
                            params={"p": Fraction(1), "q": Fraction(2)})
        for _ in range(3):
            u, v, w = (rand_fraction(rng) for _ in range(3))
            for f in both_routes(fam):
                assert colored_qybe_residual(f, u, v, w) == 0


class TestFamilyAndMatrixForm:
    def test_unknown_kind_rejected(self, A1):
        with pytest.raises(UnknownFamilyError):
            ColoredFamily(kind="nope", carrier=A1)

    @pytest.mark.parametrize("cls,kind,message", [
        (ColoredFamily, "prop1", "'prop1' is not a coloured family"),
        (OneParFamily, "thm1", "'thm1' is not a one-parameter family")])
    def test_kind_of_the_other_system_rejected(self, A1, cls, kind, message):
        with pytest.raises(UnknownFamilyError) as exc:
            cls(kind, A1)
        assert str(exc.value) == message

    @pytest.mark.parametrize("cls,kind,params", [
        (ColoredFamily, "thm1", {"p": 1, "q": 2}),
        (ColoredFamily, "coalgebra_thm1", {"p": 1, "q": 2}),
        (OneParFamily, "prop1", {"q": 2}),
        (OneParFamily, "prop1_coalgebra", {"q": 2})])
    def test_carrier_of_the_wrong_kind_rejected(self, A1, cls, kind, params):
        # a coalgebra family needs a Coalgebra and every other an Algebra;
        # built on the wrong one, a family would fail with a bare
        # AttributeError at its first evaluation
        wrong = A1 if FAMILIES[kind].coalgebra else dual_coalgebra(A1)
        with pytest.raises(TypeError, match="carrier"):
            cls(kind, wrong, params)

    @pytest.mark.parametrize("cls,kind,params", [
        (ColoredFamily, "thm1", {"p": 1}),
        (ColoredFamily, "thm1", {"p": 1, "q": 3, "z": 3}),
        (ColoredFamily, "thm2", {}),
        (OneParFamily, "prop2", {"x": 1})])
    def test_parameter_names_are_the_tables(self, A1, cls, kind, params):
        # a missing name would fail with a KeyError at the first
        # evaluation, and an extra one would be kept and change equality
        with pytest.raises(TypeError, match="parameters"):
            cls(kind, A1, params)

    def test_the_two_systems_stay_apart(self, A1):
        col = ColoredFamily("thm1", A1, {"p": 1, "q": 2})
        # no one-parameter family can have a coloured kind, so its twin
        # with the same fields is built past the kind check
        twin = object.__new__(OneParFamily)
        for name, value in vars(col).items():
            object.__setattr__(twin, name, value)
        assert vars(twin) == vars(col)
        assert col != twin and twin != col
        assert col == ColoredFamily("thm1", A1, {"p": 1, "q": 2})
        assert repr(col).startswith("ColoredFamily(")
        assert repr(OneParFamily("prop2", A1)).startswith("OneParFamily(")
        # each class has its own op, which the benchmark's tracer wraps
        assert "op" in vars(ColoredFamily) and "op" in vars(OneParFamily)

    def test_no_inverse_formula_for_remark2(self, A1):
        fam = ColoredFamily(kind="remark2", carrier=A1,
                            params={"p": 2, "q": 3, "s": 5})
        with pytest.raises(UnknownFamilyError):
            fam.inv(1, 1)

    def test_shorthand_values(self, A1):
        fam = ColoredFamily(kind="thm1", carrier=A1,
                            params={"p": Fraction(1), "q": Fraction(2)})
        F = FAMILIES[fam.kind]
        u, v = Fraction(3), Fraction(1)
        assert F.shorthand(*F.args(fam.params), u, v) == {
            "lambda": 2, "t": 1, "t'": 3, "w": 5, "w'": -1}
        assert tensor_basis_labels(fam.op(u, v).n) == [
            "1⊗1", "1⊗x", "x⊗1", "x⊗x"]


class TestReadOnlyParams:
    """A family's parameters cannot change after it is built, so its
    operator and its integer triple stay those of its parameters; families
    compare as before, by kind, carrier and parameter values, and hash."""

    CHANGES = (lambda d: d.__setitem__("p", 7), lambda d: d.__delitem__("p"),
               lambda d: d.update(p=7), lambda d: d.pop("p"),
               lambda d: d.popitem(), lambda d: d.setdefault("s", 7),
               lambda d: d.clear(), lambda d: d.__ior__({"p": 7}))

    @pytest.mark.parametrize("change", CHANGES)
    def test_params_are_read_only(self, A1, change):
        fam = ColoredFamily("thm1", A1, {"p": 2, "q": Fraction(3)})
        R, t = fam.op(3, 1), fam.integer_triple(3, 1)
        with pytest.raises(TypeError, match="read-only"):
            change(fam.params)
        assert fam.params == {"p": 2, "q": 3}
        assert fam.op(3, 1) == R and fam.integer_triple(3, 1) == t

    def test_equality_and_hash(self, A1):
        fam = ColoredFamily("thm1", A1, {"p": 2, "q": Fraction(3)})
        same = ColoredFamily("thm1", A1, {"q": 3.0, "p": Fraction(2)})
        assert same == fam and hash(same) == hash(fam)
        assert {fam: "thm1"}[same] == "thm1"
        assert {"p": 2, "q": 3} == fam.params
        for other in (ColoredFamily("thm1", A1, {"p": 2, "q": 4}),
                      ColoredFamily("thm1", quadratic_algebra(2),
                                    {"p": 2, "q": 3}),
                      ColoredFamily("coalgebra_thm1", dual_coalgebra(A1),
                                    {"p": 2, "q": 3})):
            assert other != fam
        one = OneParFamily("prop2", A1)
        assert one == OneParFamily("prop2", A1) and hash(one) == hash(
            OneParFamily("prop2", A1))
        assert repr(fam).endswith(
            "params={'p': Fraction(2, 1), 'q': Fraction(3, 1)})")

    def test_pickles_and_copies(self, A1):
        # also once the family has cached its integer triple
        fam = ColoredFamily("thm1", A1, {"p": 2, "q": Fraction(3)})
        t = fam.integer_triple(3, 1)
        for twin in (pickle.loads(pickle.dumps(fam)), copy.deepcopy(fam),
                     copy.copy(fam)):
            assert twin == fam and twin.op(3, 1) == fam.op(3, 1)
            assert twin.integer_triple(3, 1) == t
            with pytest.raises(TypeError):
                twin.params["p"] = 7
