"""WXZ Yang-Baxter systems built from an associative algebra.

A WXZ-system is a triple of two-site operators with vanishing Yang-Baxter
commutators [W,W,W], [Z,Z,Z], [W,X,X], [X,X,Z].  The construction takes
W with coefficients (lambda, 1, 1), Z with (1, mu, 1) and X the constant
operator (1, 1, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .algebra import Algebra, require_valid
from .colored import ansatz_op
from .errors import DimensionMismatchError
from .scalars import is_exact
from .tensorop import Op2, _max_abs, _qybe_numerators, _solves_system


@dataclass(frozen=True)
class WXZSystem:
    W: Op2
    X: Op2
    Z: Op2
    # the exact ansatz coefficients of W, X and Z on an exact valid algebra,
    # as thm3_system sets them; None for operators given as they are
    triples: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # the defining commutators only pair W with X and X with Z, but the
        # one-space construction used here keeps all three on one space
        if not (self.W.n == self.X.n == self.Z.n):
            raise DimensionMismatchError("W, X, Z must share a base dimension")


def thm3_system(A: Algebra, lam, mu) -> WXZSystem:
    """W(a(x)b) = lam 1(x)ab + ab(x)1 - b(x)a, Z = (1, mu, 1), X = (1, 1, 1)."""
    require_valid(A)
    triples = ((lam, 1, 1), (1, 1, 1), (1, mu, 1))
    exact = A.cleared is not None and is_exact(lam) and is_exact(mu)
    W, X, Z = (ansatz_op(A, *t) for t in triples)
    return WXZSystem(W=W, X=X, Z=Z, triples=triples if exact else None)


def wxz_residuals(S: WXZSystem) -> tuple:
    """Max-abs entries of [W,W,W], [Z,Z,Z], [W,X,X], [X,X,Z]; all zero for
    genuine systems.

    A commutator whose stored triples solve the five-equation system is
    ``Fraction(0)`` without the kernel, as in
    :func:`ybops.tensorop.colored_qybe_residual`; a system without triples
    (built from operators alone) uses the kernel.
    """
    ops, triples = (S.W, S.X, S.Z), S.triples or (None,) * 3
    return tuple(Fraction(0) if _solves_system(triples[k] for k in legs)
                 else _max_abs(_qybe_numerators(*(ops[k] for k in legs)))
                 for legs in ((0, 0, 0), (2, 2, 2), (0, 1, 1), (1, 1, 2)))
