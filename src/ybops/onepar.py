"""One-parameter Yang-Baxter operator families with composition map phi.

Each family fixes its own phi (prop1: x*z, prop2: z, remark_x: x) in
:data:`ybops.funceq.FAMILIES`, so residual checks cannot pair an operator
with the wrong composition map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Algebra, Coalgebra
from .colored import family_inv, family_op, family_triple
from .errors import UnknownFamilyError
from .funceq import family
from .tensorop import Op2


def prop1_op(A: Algebra, q, x) -> Op2:
    """The one-parameter family of Proposition 1; phi = x*z."""
    return family_op("prop1", A, {"q": q}, x)


def prop1_inv(A: Algebra, q, x) -> Op2:
    """Inverse of prop1_op; needs x != q and qx != 1."""
    return family_inv("prop1", A, {"q": q}, x)


def prop1_coalgebra_op(C: Coalgebra, q, x) -> Op2:
    """Coalgebra transfer of prop1_op; phi = x*z."""
    return family_op("prop1_coalgebra", C, {"q": q}, x)


def prop2_op(A: Algebra, x) -> Op2:
    """The one-parameter family of Proposition 2; phi = z."""
    return family_op("prop2", A, {}, x)


def prop2_inv(A: Algebra, x) -> Op2:
    """Inverse of prop2_op; needs x != 0."""
    return family_inv("prop2", A, {}, x)


def remark_x_op(A: Algebra, x) -> Op2:
    """The one-parameter family with phi = x."""
    return family_op("remark_x", A, {}, x)


@dataclass(frozen=True)
class OneParFamily:
    """Immutable evaluator x -> Op2 with the family's composition map phi.

    The domain Z of phi is taken to be all of X times X; the one-parameter
    QYBE is checked by :func:`ybops.tensorop.onepar_qybe_residual`, which
    evaluates the family at x, phi(x,z) and z.
    """

    kind: str
    carrier: object
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if family(self.kind).phi is None:
            raise UnknownFamilyError(
                f"{self.kind!r} is not a one-parameter family")

    def op(self, x) -> Op2:
        return family_op(self.kind, self.carrier, self.params, x)

    def exact_triple(self, x):
        """The coefficients of ``op(x)`` when they decide its residual
        exactly (see :func:`ybops.colored.family_triple`), else None."""
        return family_triple(self.kind, self.carrier, self.params, x)

    def inv(self, x) -> Op2:
        return family_inv(self.kind, self.carrier, self.params, x)

    def phi(self, x, z):
        return family(self.kind).phi(x, z)
