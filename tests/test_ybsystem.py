"""WXZ-system construction and residuals."""

from fractions import Fraction

import pytest

from ybops.algebra import Algebra, quadratic_algebra
from ybops.errors import DimensionMismatchError, InvalidStructureError
from ybops.tensorop import Op2, freeze, identity_mat
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
        from ybops.colored import ansatz_op
        S = WXZSystem(W=ansatz_op(A1, 3, 1, 1),
                      X=ansatz_op(A1, 1, 2, 1),  # X must be (1,1,1)
                      Z=ansatz_op(A1, 1, 5, 1))
        assert any(r != 0 for r in wxz_residuals(S))
