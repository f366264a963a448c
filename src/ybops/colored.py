"""Coloured (two-parameter) Yang-Baxter operator families.

Every operator here has the ansatz shape

    R(u,v)(a (x) b) = alpha * 1 (x) ab + beta * ab (x) 1 - gamma * b (x) a

for an associative algebra A, with the coefficients of each family taken
from :data:`ybops.funceq.FAMILIES`.  On a coalgebra C the transferred
operator is the transpose of the ansatz on the algebra dual to C,

    R_C(u,v)(c (x) d) = alpha * eps(c) Delta(d) + beta * eps(d) Delta(c)
                        - gamma * d (x) c,

and every inverse is the ansatz on the opposite algebra.

Every operator is exact.  A family reads its parameters as exact
rationals (:func:`ybops.scalars.rational`) when it is built, and its
colours when it is evaluated, as ``ansatz_op`` reads its coefficients and
an :class:`ybops.algebra.Algebra` its entries; a float converts exactly,
and a colour of an exponential family that is not an integer raises
``NonIntegerExponentError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .algebra import Algebra, Coalgebra
from .errors import UnknownFamilyError
from .funceq import family
from .scalars import rational
from .tensorop import Op2, _transpose


def ansatz_op(A: Algebra, alpha, beta, gamma) -> Op2:
    """Operator a(x)b -> alpha 1(x)ab + beta ab(x)1 - gamma b(x)a on A(x)A.

    The coefficients are read as exact rationals.  Column i*n+j is written
    straight from the non-zeros of the unit and of e_i e_j (``A.cleared``),
    at most 2n+1 entries for a unit basis element, with integer
    multiply-adds over the one denominator
    lcm(den alpha, den beta, den gamma) * d_A * d_U of the coefficients,
    the structure constants and the unit."""
    alpha, beta, gamma = map(rational, (alpha, beta, gamma))
    n = A.dim
    d_A, products, d_U, units = A.cleared
    d = lcm(alpha.denominator, beta.denominator, gamma.denominator)
    a, b, g = (x.numerator * (d // x.denominator)
               for x in (alpha, beta, gamma))
    g *= d_A * d_U
    alpha_units = [(k * n, a * x) for k, x in units]
    beta_units = [(k, b * x) for k, x in units]
    cols = []
    for i in range(n):
        for j in range(n):
            nonzero = products[i][j]
            acc = {}
            for r, x in alpha_units:
                for k, y in nonzero:
                    acc[r + k] = x * y
            for k, y in nonzero:
                for c, x in beta_units:
                    r = k * n + c
                    acc[r] = acc.get(r, 0) + y * x
            r = j * n + i
            acc[r] = acc.get(r, 0) - g
            cols.append([(r, x) for r, x in sorted(acc.items()) if x])
    return Op2(n=n, cols=cols, den=d * d_A * d_U)


@dataclass(frozen=True)
class _TableFamily:
    """A family of :data:`ybops.funceq.FAMILIES` on a carrier at fixed
    parameters, evaluated at colours: its operator, its exact coefficients
    and its inverse.  A coalgebra family's operator is the transpose of the
    ansatz on the carrier's algebra, and every inverse is the ansatz on the
    opposite algebra.  The parameters are read as exact rationals once,
    here, and the colours at each evaluation."""

    kind: str
    carrier: object  # Algebra, or Coalgebra for a coalgebra family
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", {
            k: rational(x) for k, x in self.params.items()})

    def _coeffs(self, colours):
        """The table entry and its ansatz coefficients at ``colours``, each
        read as an exact rational."""
        F = family(self.kind)
        return F, F.coeffs(*F.args(self.params), *map(rational, colours))

    def _build(self, F, coeffs, opposite: bool = False) -> Op2:
        A = self.carrier.algebra if F.coalgebra else self.carrier
        R = ansatz_op(A.opposite if opposite else A, *coeffs)
        return _transpose(R) if F.coalgebra else R

    def exact_triple(self, *colours):
        """The ansatz coefficients (alpha, beta, gamma) that ``op`` builds
        at these colours, when the algebra ``op`` builds on is associative
        and unital (``A.valid``, computed once per algebra); None otherwise.
        The coefficients are evaluated first, as ``op`` does, so they raise
        the same errors."""
        F, coeffs = self._coeffs(colours)
        A = self.carrier.algebra if F.coalgebra else self.carrier
        return coeffs if A.valid else None

    def inv(self, *colours) -> Op2:
        """Inverse of ``op``; SingularParameterError off its domain."""
        F = family(self.kind)
        if F.inverse is None:
            raise UnknownFamilyError(f"no inverse formula for {self.kind!r}")
        args = (*F.args(self.params), *map(rational, colours))
        F.check_regular(*args)
        return self._build(F, F.inverse(*args), opposite=True)


# --- the catalogue families -----------------------------------------------------

def thm1_op(A: Algebra, p, q, u, v) -> Op2:
    """The linear coloured family (Theorem 1)."""
    return ColoredFamily("thm1", A, {"p": p, "q": q}).op(u, v)


def thm1_inv(A: Algebra, p, q, u, v) -> Op2:
    """Inverse of thm1_op; needs pu != qv and qu != pv."""
    return ColoredFamily("thm1", A, {"p": p, "q": q}).inv(u, v)


def thm2_op(A: Algebra, p, q, s, u, v) -> Op2:
    """The exponential coloured family (Theorem 2)."""
    return ColoredFamily("thm2", A, {"p": p, "q": q, "s": s}).op(u, v)


def thm2_inv(A: Algebra, p, q, s, u, v) -> Op2:
    """Inverse of thm2_op; needs p, q, s all nonzero."""
    return ColoredFamily("thm2", A, {"p": p, "q": q, "s": s}).inv(u, v)


def remark2_op(A: Algebra, p, q, s, u, v) -> Op2:
    """The second exponential coloured family (Remark 2)."""
    return ColoredFamily("remark2", A, {"p": p, "q": q, "s": s}).op(u, v)


def coalgebra_colored_op(C: Coalgebra, p, q, u, v) -> Op2:
    """Coalgebra transfer of thm1_op."""
    return ColoredFamily("coalgebra_thm1", C, {"p": p, "q": q}).op(u, v)


@dataclass(frozen=True)
class ColoredFamily(_TableFamily):
    """Immutable evaluator (u,v) -> Op2 for one of the coloured families."""

    def __post_init__(self):
        super().__post_init__()
        if family(self.kind).phi is not None:
            raise UnknownFamilyError(f"{self.kind!r} is not a coloured family")

    def op(self, u, v) -> Op2:
        return self._build(*self._coeffs((u, v)))
