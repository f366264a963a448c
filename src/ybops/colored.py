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
from itertools import chain

from .algebra import Algebra, Coalgebra, opposite_algebra
from .errors import UnknownFamilyError
from .funceq import family
from .scalars import scalar_pow  # noqa: F401  (re-exported)
from .tensorop import Op2


def ansatz_op(A: Algebra, alpha, beta, gamma) -> Op2:
    """Operator a(x)b -> alpha 1(x)ab + beta ab(x)1 - gamma b(x)a on A(x)A.

    Column i*n+j is written straight from the non-zeros of the unit and of
    e_i e_j, at most 2n+1 entries for a unit basis element, and exact zeros
    are left out.  Each entry is the sum ``0 + alpha*unit[a]*prod[b] +
    beta*prod[a]*unit[b] (- gamma)`` of the dense definition, its terms taken
    in that order, so value and type agree cell by cell: a float alpha or
    beta makes every entry a float; otherwise an entry is a float, kept even
    when it is 0.0, exactly when a float enters its own sum.
    """
    n = A.dim
    unit = A.unit
    uniform = isinstance(alpha, float) or isinstance(beta, float)
    zero = 0.0 if uniform else Fraction(0)
    units = [(b, x) for b, x in enumerate(unit) if x]
    alpha_units = [(a * n, alpha * x) for a, x in units]
    # an exact unit coordinate 1 needs no product: x * 1 == x, and an int x
    # still ends as a Fraction, as x * Fraction(1) would be
    beta_units = [(b, None if x == 1 and not isinstance(x, float) else x)
                  for b, x in units]
    # a float in the algebra makes floats of the entries its terms reach
    floats = not uniform and any(isinstance(x, float) for x in chain(
        unit, *chain(*A.structconst)))
    cols = []
    for i in range(n):
        for j in range(n):
            prod = A.structconst[i][j]
            nonzero = [(k, x) for k, x in enumerate(prod) if x]
            acc = {}
            for r, x in alpha_units:
                for b, y in nonzero:
                    acc[r + b] = x * y
            for a, x in nonzero:
                x = beta * x
                for b, y in beta_units:
                    t = x if y is None else x * y
                    r = a * n + b
                    acc[r] = acc[r] + t if r in acc else t
            # the dense sum adds a float zero term to some cells: to all of
            # them with a float alpha or beta, else to the rows and columns
            # of a float unit or product entry
            if uniform:
                for r in acc:
                    acc[r] += 0.0
            elif floats:
                hit = [k for k in range(n) if isinstance(unit[k], float)
                       or isinstance(prod[k], float)]
                for r in ({a * n + b for a in hit for b in range(n)}
                          | {a * n + b for b in hit for a in range(n)}):
                    acc[r] = acc.get(r, 0) + 0.0
            r = j * n + i
            acc[r] = acc.get(r, zero) - gamma
            cols.append([(r, Fraction(x) if type(x) is int else x)
                         for r, x in sorted(acc.items())
                         if x or (isinstance(x, float) and not uniform)])
    return Op2(n=n, cols=cols, zero=zero)


def _transpose(R: Op2) -> Op2:
    cols = [[] for _ in R.cols]
    for j, col in enumerate(R.cols):
        for i, x in col:
            cols[i].append((j, x))
    return Op2(n=R.n, cols=cols, zero=R.zero)


def _build(F, carrier, coeffs, opposite: bool = False) -> Op2:
    A = carrier.algebra if F.coalgebra else carrier
    R = ansatz_op(opposite_algebra(A) if opposite else A, *coeffs)
    return _transpose(R) if F.coalgebra else R


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
