"""One-parameter Yang-Baxter operator families with composition map phi.

Each family fixes its own phi (prop1: x*z, prop2: z, remark_x: x) in
:data:`ybops.funceq.FAMILIES`, so residual checks cannot pair an operator
with the wrong composition map.
"""

from __future__ import annotations

from .algebra import Algebra, Coalgebra
from .colored import _TableFamily
from .funceq import family
from .scalars import rational
from .tensorop import Op2


def prop1_op(A: Algebra, q, x) -> Op2:
    """The one-parameter family of Proposition 1; phi = x*z."""
    return OneParFamily("prop1", A, {"q": q}).op(x)


def prop1_inv(A: Algebra, q, x) -> Op2:
    """Inverse of prop1_op; needs x != q and qx != 1."""
    return OneParFamily("prop1", A, {"q": q}).inv(x)


def prop1_coalgebra_op(C: Coalgebra, q, x) -> Op2:
    """Coalgebra transfer of prop1_op; phi = x*z."""
    return OneParFamily("prop1_coalgebra", C, {"q": q}).op(x)


def prop2_op(A: Algebra, x) -> Op2:
    """The one-parameter family of Proposition 2; phi = z."""
    return OneParFamily("prop2", A).op(x)


def prop2_inv(A: Algebra, x) -> Op2:
    """Inverse of prop2_op; needs x != 0."""
    return OneParFamily("prop2", A).inv(x)


def remark_x_op(A: Algebra, x) -> Op2:
    """The one-parameter family with phi = x."""
    return OneParFamily("remark_x", A).op(x)


class OneParFamily(_TableFamily):
    """Immutable evaluator x -> Op2 with the family's composition map phi.

    The domain Z of phi is taken to be all of X times X; the one-parameter
    QYBE is checked by :func:`ybops.tensorop.onepar_qybe_residual`, which
    evaluates the family at x, phi(x,z) and z.
    """

    system = "one-parameter"

    def op(self, x) -> Op2:
        return self._build(*self._coeffs((x,)))

    def phi(self, x, z):
        """phi at x and z read as exact rationals, as the colours are."""
        return family(self.kind).phi(rational(x), rational(z))
