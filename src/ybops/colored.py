"""Coloured (two-parameter) Yang-Baxter operator families.

Every operator here has the ansatz shape

    R(u,v)(a (x) b) = alpha * 1 (x) ab + beta * ab (x) 1 - gamma * b (x) a

for an associative algebra A, with the coefficients of each family taken
from :data:`ybops.funceq.FAMILIES`.  On a coalgebra C the transferred
operator is the transpose of the ansatz on the algebra dual to C,

    R_C(u,v)(c (x) d) = alpha * eps(c) Delta(d) + beta * eps(d) Delta(c)
                        - gamma * d (x) c,

and every inverse is the ansatz on the opposite algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Algebra, Coalgebra, opposite_algebra
from .errors import UnknownFamilyError
from .funceq import family
from .scalars import scalar_pow  # noqa: F401  (re-exported)
from .tensorop import Op2, freeze


def ansatz_op(A: Algebra, alpha, beta, gamma) -> Op2:
    """Operator a(x)b -> alpha 1(x)ab + beta ab(x)1 - gamma b(x)a on A(x)A."""
    n = A.dim
    unit = A.unit
    mat = [[Fraction(0)] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            col = i * n + j
            prod = A.structconst[i][j]
            for a in range(n):
                for b in range(n):
                    mat[a * n + b][col] += (alpha * unit[a] * prod[b]
                                            + beta * prod[a] * unit[b])
            mat[j * n + i][col] -= gamma
    return Op2(n=n, mat=freeze(mat))


def _build(F, carrier, coeffs, opposite: bool = False) -> Op2:
    A = carrier.algebra if F.coalgebra else carrier
    R = ansatz_op(opposite_algebra(A) if opposite else A, *coeffs)
    return Op2(n=R.n, mat=tuple(zip(*R.mat))) if F.coalgebra else R


def family_op(kind: str, carrier, params: dict, *colours) -> Op2:
    """Operator of table family ``kind`` at the given colours."""
    F = family(kind)
    return _build(F, carrier, F.coeffs(*F.args(params), *colours))


def family_inv(kind: str, carrier, params: dict, *colours) -> Op2:
    """Inverse of :func:`family_op`; SingularParameterError off its domain."""
    F = family(kind)
    if F.inverse is None:
        raise UnknownFamilyError(f"no inverse formula for {kind!r}")
    args = F.args(params) + colours
    F.check_regular(*args)
    return _build(F, carrier, F.inverse(*args), opposite=True)


# --- the catalogue families -----------------------------------------------------

def thm1_op(A: Algebra, p, q, u, v) -> Op2:
    """The linear coloured family (Theorem 1)."""
    return family_op("thm1", A, {"p": p, "q": q}, u, v)


def thm1_inv(A: Algebra, p, q, u, v) -> Op2:
    """Inverse of thm1_op; needs pu != qv and qu != pv."""
    return family_inv("thm1", A, {"p": p, "q": q}, u, v)


def thm2_op(A: Algebra, p, q, s, u, v) -> Op2:
    """The exponential coloured family (Theorem 2)."""
    return family_op("thm2", A, {"p": p, "q": q, "s": s}, u, v)


def thm2_inv(A: Algebra, p, q, s, u, v) -> Op2:
    """Inverse of thm2_op; needs p, q, s all nonzero."""
    return family_inv("thm2", A, {"p": p, "q": q, "s": s}, u, v)


def remark2_op(A: Algebra, p, q, s, u, v) -> Op2:
    """The second exponential coloured family (Remark 2)."""
    return family_op("remark2", A, {"p": p, "q": q, "s": s}, u, v)


def coalgebra_colored_op(C: Coalgebra, p, q, u, v) -> Op2:
    """Coalgebra transfer of thm1_op."""
    return family_op("coalgebra_thm1", C, {"p": p, "q": q}, u, v)


@dataclass(frozen=True)
class ColoredFamily:
    """Immutable evaluator (u,v) -> Op2 for one of the coloured families."""

    kind: str
    carrier: object  # Algebra, or Coalgebra for coalgebra_thm1
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if family(self.kind).phi is not None:
            raise UnknownFamilyError(f"{self.kind!r} is not a coloured family")

    def op(self, u, v) -> Op2:
        return family_op(self.kind, self.carrier, self.params, u, v)

    def inv(self, u, v) -> Op2:
        return family_inv(self.kind, self.carrier, self.params, u, v)
