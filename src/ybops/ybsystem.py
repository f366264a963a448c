"""WXZ Yang-Baxter systems built from an associative algebra.

A WXZ-system is a triple of two-site operators with vanishing Yang-Baxter
commutators [W,W,W], [Z,Z,Z], [W,X,X], [X,X,Z].  The construction takes
W with coefficients (lambda, 1, 1), Z with (1, mu, 1) and X the constant
operator (1, 1, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, require_valid
from .colored import ansatz_op
from .errors import DimensionMismatchError
from .tensorop import Op2, _max_abs, _qybe_difference


@dataclass(frozen=True)
class WXZSystem:
    W: Op2
    X: Op2
    Z: Op2

    def __post_init__(self):
        # the defining commutators only pair W with X and X with Z, but the
        # one-space construction used here keeps all three on one space
        if not (self.W.n == self.X.n == self.Z.n):
            raise DimensionMismatchError("W, X, Z must share a base dimension")


def thm3_system(A: Algebra, lam, mu) -> WXZSystem:
    """W(a(x)b) = lam 1(x)ab + ab(x)1 - b(x)a, Z = (1, mu, 1), X = (1, 1, 1)."""
    require_valid(A)
    return WXZSystem(W=ansatz_op(A, lam, 1, 1),
                     X=ansatz_op(A, 1, 1, 1),
                     Z=ansatz_op(A, 1, mu, 1))


def wxz_residuals(S: WXZSystem) -> tuple:
    """Max-abs entries of [W,W,W], [Z,Z,Z], [W,X,X], [X,X,Z]; all zero for
    genuine systems."""
    return tuple(_max_abs(_qybe_difference(*ops)) for ops in (
        (S.W, S.W, S.W), (S.Z, S.Z, S.Z), (S.W, S.X, S.X), (S.X, S.X, S.Z)))
