"""One-parameter families, their composition maps and inverses."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from ybops.algebra import dual_coalgebra
from ybops.errors import SingularParameterError, UnknownFamilyError
from ybops.onepar import (OneParFamily, prop1_coalgebra_op, prop1_inv,
                          prop1_op, prop2_inv, prop2_op, remark_x_op)
from ybops.tensorop import onepar_qybe_residual
from conftest import both_routes, rand_fraction
from dense_reference import identity_mat, mat_mul, mat_scale


class TestProp1:
    def test_residual_zero(self, Aq, Bc, rng):
        for A in (Aq, Bc):
            fam = OneParFamily(kind="prop1", carrier=A,
                               params={"q": Fraction(5, 2)})
            for _ in range(4):
                x, z = (rand_fraction(rng) for _ in range(2))
                for f in both_routes(fam):
                    assert onepar_qybe_residual(f, x, z) == 0

    def test_residual_zero_on_matrix_algebra(self, M2, rng):
        fam = OneParFamily(kind="prop1", carrier=M2,
                           params={"q": Fraction(-2, 3)})
        for _ in range(2):
            x, z = (rand_fraction(rng) for _ in range(2))
            for f in both_routes(fam):
                assert onepar_qybe_residual(f, x, z) == 0

    def test_wrong_phi_breaks_residual(self, A1):
        fam = OneParFamily(kind="prop1", carrier=A1, params={"q": Fraction(3)})
        # prop1 requires phi = x*z; using z instead must fail somewhere
        from dense_reference import max_abs_entry
        from ybops.tensorop import embed_leg, mat_sub
        bad_mid = Fraction(5)  # z, not x*z, for x=2, z=5
        x, z = Fraction(2), Fraction(5)
        l = mat_mul(mat_mul(embed_leg(fam.op(x), 12).mat,
                            embed_leg(fam.op(bad_mid), 13).mat),
                    embed_leg(fam.op(z), 23).mat)
        r = mat_mul(mat_mul(embed_leg(fam.op(z), 23).mat,
                            embed_leg(fam.op(bad_mid), 13).mat),
                    embed_leg(fam.op(x), 12).mat)
        assert max_abs_entry(mat_sub(l, r)) != 0

    def test_inverse_two_sided(self, Aq, M2, rng):
        q = Fraction(3)
        for A in (Aq, M2):
            for _ in range(5):
                x = rand_fraction(rng)
                if x == q or q * x == 1:
                    continue
                R = prop1_op(A, q, x)
                S = prop1_inv(A, q, x)
                I = identity_mat(A.dim ** 2)
                assert mat_mul(R.mat, S.mat) == I
                assert mat_mul(S.mat, R.mat) == I

    def test_singularities(self, A1):
        with pytest.raises(SingularParameterError):
            prop1_inv(A1, 3, 3)  # x = q
        with pytest.raises(SingularParameterError):
            prop1_inv(A1, 3, Fraction(1, 3))  # qx = 1


class TestProp2:
    def test_residual_zero(self, Aq, rng):
        fam = OneParFamily(kind="prop2", carrier=Aq)
        for _ in range(4):
            x, z = (rand_fraction(rng) for _ in range(2))
            for f in both_routes(fam):
                assert onepar_qybe_residual(f, x, z) == 0

    def test_inverse(self, A0, M2):
        x = Fraction(7, 2)
        for A in (A0, M2):
            R = prop2_op(A, x)
            S = prop2_inv(A, x)
            I = identity_mat(A.dim ** 2)
            assert mat_mul(R.mat, S.mat) == I
            assert mat_mul(S.mat, R.mat) == I

    def test_zero_raises(self, A0):
        with pytest.raises(SingularParameterError):
            prop2_inv(A0, 0)


class TestRemarkX:
    def test_residual_zero(self, Aq, rng):
        fam = OneParFamily(kind="remark_x", carrier=Aq)
        for _ in range(4):
            x, z = (rand_fraction(rng) for _ in range(2))
            for f in both_routes(fam):
                assert onepar_qybe_residual(f, x, z) == 0

    def test_no_inverse_formula(self, A1):
        fam = OneParFamily(kind="remark_x", carrier=A1)
        with pytest.raises(UnknownFamilyError):
            fam.inv(2)


class TestCoalgebraTransfer:
    def test_residual_zero(self, A1, rng):
        fam = OneParFamily(kind="prop1_coalgebra",
                           carrier=dual_coalgebra(A1),
                           params={"q": Fraction(2)})
        for _ in range(4):
            x, z = (rand_fraction(rng) for _ in range(2))
            for f in both_routes(fam):
                assert onepar_qybe_residual(f, x, z) == 0

    def test_free_function_is_the_family_build(self, A1, rng):
        C, q = dual_coalgebra(A1), Fraction(2)
        fam = OneParFamily(kind="prop1_coalgebra", carrier=C,
                           params={"q": q})
        for x in (Fraction(3), Fraction(-1, 2), Fraction(0)):
            assert prop1_coalgebra_op(C, q, x) == fam.op(x)
        view = SimpleNamespace(op=lambda x: prop1_coalgebra_op(C, q, x),
                               phi=lambda x, z: x * z)
        for _ in range(2):
            x, z = (rand_fraction(rng) for _ in range(2))
            res = onepar_qybe_residual(view, x, z)
            assert res == 0 and type(res) is Fraction


class TestPhi:
    def test_family_phis(self, A1):
        p1 = OneParFamily(kind="prop1", carrier=A1, params={"q": 2})
        p2 = OneParFamily(kind="prop2", carrier=A1)
        rx = OneParFamily(kind="remark_x", carrier=A1)
        assert p1.phi(3, 5) == 15
        assert p2.phi(3, 5) == 5
        assert rx.phi(3, 5) == 3


class TestScalingRelation:
    def test_thm1_p1_is_v_times_prop1(self, Aq, rng):
        # the two-colour operator at p=1 equals v times the one-parameter
        # operator evaluated at u/v (q plays the same role in both)
        from ybops.colored import thm1_op
        for _ in range(5):
            q = rand_fraction(rng)
            u = rand_fraction(rng)
            v = rand_fraction(rng, nonzero=True)
            lhs = thm1_op(Aq, 1, q, u, v)
            rhs = mat_scale(v, prop1_op(Aq, q, u / v).mat)
            assert lhs.mat == tuple(map(tuple, rhs))
