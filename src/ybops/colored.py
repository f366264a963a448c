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
from itertools import product
from math import lcm

from .algebra import Algebra, Coalgebra, known_valid
from .errors import UnknownFamilyError
from .funceq import family
from .scalars import is_exact
from .tensorop import Op2, _transpose


def ansatz_op(A: Algebra, alpha, beta, gamma) -> Op2:
    """Operator a(x)b -> alpha 1(x)ab + beta ab(x)1 - gamma b(x)a on A(x)A.

    When the algebra and the coefficients are exact, column i*n+j is written
    straight from the non-zeros of the unit and of e_i e_j, at most 2n+1
    entries for a unit basis element, as integer numerators over one
    denominator.  Any other build is the dense n^4 definition: each cell is
    ``Fraction(0) + (alpha*unit[a]*prod[b] + beta*prod[a]*unit[b])``, less
    gamma at the flip cell, so a float entering a cell's sum makes that
    entry a float, kept even when it is 0.0.
    """
    if A.cleared is not None and all(map(is_exact, (alpha, beta, gamma))):
        return _integer_ansatz(A, alpha, beta, gamma)
    n = A.dim
    unit = A.unit
    mat = [[Fraction(0)] * (n * n) for _ in range(n * n)]
    for i, j, a, b in product(range(n), repeat=4):
        prod = A.structconst[i][j]
        mat[a * n + b][i * n + j] += (alpha * unit[a] * prod[b]
                                      + beta * prod[a] * unit[b])
    for i, j in product(range(n), repeat=2):
        mat[j * n + i][i * n + j] -= gamma
    return Op2(n=n, mat=mat)


def _integer_ansatz(A: Algebra, alpha, beta, gamma) -> Op2:
    """``ansatz_op`` of an exact algebra at exact coefficients, written with
    integer multiply-adds over the denominator
    lcm(den alpha, den beta, den gamma) * d_A * d_U of the coefficients, the
    structure constants and the unit."""
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
    opposite algebra."""

    kind: str
    carrier: object  # Algebra, or Coalgebra for a coalgebra family
    params: dict = field(default_factory=dict)

    def _coeffs(self, colours):
        """The table entry and its ansatz coefficients at ``colours``."""
        F = family(self.kind)
        return F, F.coeffs(*F.args(self.params), *colours)

    def _build(self, F, coeffs, opposite: bool = False) -> Op2:
        A = self.carrier.algebra if F.coalgebra else self.carrier
        R = ansatz_op(A.opposite if opposite else A, *coeffs)
        return _transpose(R) if F.coalgebra else R

    def exact_triple(self, *colours):
        """The ansatz coefficients (alpha, beta, gamma) that ``op`` builds
        at these colours, when they are exact and the carrier's algebra is
        known to be exact, associative and unital
        (:func:`ybops.algebra.known_valid`); None otherwise.  The
        coefficients are evaluated first, as ``op`` does, so they raise the
        same errors."""
        F, coeffs = self._coeffs(colours)
        A = (getattr(self.carrier, "algebra", None) if F.coalgebra
             else self.carrier)
        if all(map(is_exact, coeffs)) and known_valid(A):
            return coeffs
        return None

    def inv(self, *colours) -> Op2:
        """Inverse of ``op``; SingularParameterError off its domain."""
        F = family(self.kind)
        if F.inverse is None:
            raise UnknownFamilyError(f"no inverse formula for {self.kind!r}")
        args = F.args(self.params) + colours
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
        if family(self.kind).phi is not None:
            raise UnknownFamilyError(f"{self.kind!r} is not a coloured family")

    def op(self, u, v) -> Op2:
        return self._build(*self._coeffs((u, v)))
