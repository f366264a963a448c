"""WXZ-system construction and residuals."""

from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import both_routes, matrix_algebra
from dense_reference import identity_mat, max_abs_entry
from ybops.algebra import Algebra, cubic_algebra, quadratic_algebra
from ybops.colored import ansatz_op
from ybops.errors import DimensionMismatchError, InvalidStructureError
from ybops.onepar import OneParFamily, prop2_op, remark_x_op
from ybops.tensorop import (Op2, freeze, onepar_qybe_residual,
                            yb_commutator)
from ybops.ybsystem import WXZSystem, thm3_system, wxz_residuals


class TestThm3System:
    @pytest.mark.parametrize("lam,mu", [(1, 1), (3, 5),
                                        (-2, Fraction(1, 2))])
    def test_residuals_vanish(self, Aq, lam, mu):
        S = thm3_system(Aq, lam, mu)
        assert wxz_residuals(S) == (0, 0, 0, 0)

    def test_cubic_carrier(self, Bc):
        S = thm3_system(Bc, 3, 5)
        assert wxz_residuals(S) == (0, 0, 0, 0)

    # a float lam or mu reads as its exact rational; the triples are the
    # families' integer triples, W's (-7/2, 1, 1) cleared to (-7, 2, 2)
    @pytest.mark.parametrize("lam,mu,W,Z", [
        (Fraction(-7, 2), 5, (-7, 2, 2), (1, 5, 1)),
        (2.0, 5, (2, 1, 1), (1, 5, 1)), (2, 5.0, (2, 1, 1), (1, 5, 1))])
    def test_triples_are_the_families(self, Aq, lam, mu, W, Z):
        S = thm3_system(Aq, lam, mu)
        assert S.triples == (W, (1, 1, 1), Z)
        assert all(type(x) is int for t in S.triples for x in t)
        assert S.triples == tuple(
            OneParFamily(kind, Aq).integer_triple(x) for kind, x in
            (("prop2", lam), ("prop2", 1), ("remark_x", mu)))

    def test_invalid_algebra_rejected(self, A1):
        c = [[[x for x in row] for row in plane] for plane in A1.structconst]
        c[1][0] = [Fraction(1), Fraction(0)]  # x*1 = 1 breaks unitality
        bad = Algebra(dim=2,
                      structconst=tuple(tuple(map(tuple, p)) for p in c),
                      unit=A1.unit)
        with pytest.raises(InvalidStructureError):
            thm3_system(bad, 1, 1)


class TestWXZSystem:
    def test_dimension_guard(self):
        I2 = Op2(n=2, mat=freeze(identity_mat(4)))
        I3 = Op2(n=3, mat=freeze(identity_mat(9)))
        with pytest.raises(DimensionMismatchError):
            WXZSystem(W=I2, X=I3, Z=I2)

    def test_broken_system_has_nonzero_residual(self, A1):
        S = WXZSystem(W=ansatz_op(A1, 3, 1, 1),
                      X=ansatz_op(A1, 1, 2, 1),  # X must be (1,1,1)
                      Z=ansatz_op(A1, 1, 5, 1))
        assert any(r != 0 for r in wxz_residuals(S))

    def test_replaced_operator_goes_to_the_kernel(self):
        # a replace()d system keeps no triples of the operators it replaced
        A = quadratic_algebra(3)
        bad = ansatz_op(A, 1, 2, 7)
        S = replace(thm3_system(A, 2, 5), Z=bad)
        kernel = tuple(max_abs_entry(yb_commutator(*ops)) for ops in (
            (S.W,) * 3, (bad,) * 3, (S.W, S.X, S.X), (S.X, S.X, bad)))
        assert wxz_residuals(S) == kernel and kernel[1] != 0

    def test_triples_are_not_an_argument(self):
        S = thm3_system(quadratic_algebra(3), 2, 5)
        with pytest.raises(TypeError):
            WXZSystem(W=S.W, X=S.X, Z=S.Z, triples=S.triples)


class TestThm3Identification:
    """Theorem 3 from the family table: W is prop2 at lambda, X is prop2 at
    1 (also remark_x at 1) and Z is remark_x at mu, so each commutator is a
    one-parameter residual of prop2 or remark_x."""

    @pytest.mark.parametrize("carrier", [
        lambda: quadratic_algebra(3), lambda: cubic_algebra(2, 5),
        matrix_algebra], ids=["quadratic", "cubic", "M2"])
    def test_operators_and_residuals(self, carrier):
        A, lam, mu = carrier(), Fraction(-7, 2), 5
        S = thm3_system(A, lam, mu)
        assert (S.W, S.X, S.Z) == (prop2_op(A, lam), prop2_op(A, 1),
                                   remark_x_op(A, mu))
        assert S.X == remark_x_op(A, 1)
        want = wxz_residuals(S)
        assert want == wxz_residuals(WXZSystem(W=S.W, X=S.X, Z=S.Z))
        for prop2, remark_x in zip(both_routes(OneParFamily("prop2", A)),
                                   both_routes(OneParFamily("remark_x", A))):
            got = (onepar_qybe_residual(prop2, lam, lam),
                   onepar_qybe_residual(remark_x, mu, mu),
                   onepar_qybe_residual(prop2, lam, 1),
                   onepar_qybe_residual(remark_x, 1, mu))
            assert got == want
            assert list(map(type, got)) == list(map(type, want))
