"""WXZ Yang-Baxter systems built from an associative algebra.

A WXZ-system is a triple of two-site operators with vanishing Yang-Baxter
commutators [W,W,W], [Z,Z,Z], [W,X,X], [X,X,Z].  Theorem 3 builds one from
the one-parameter families of the table: W is prop2 at lambda, with
coefficients (lambda, 1, 1), X is prop2 at 1, the constant operator
(1, 1, 1), and Z is remark_x at mu, with coefficients (1, mu, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, require_valid
from .errors import DimensionMismatchError
from .onepar import OneParFamily
from .tensorop import Op2, _qybe_max_abs, onepar_qybe_residual


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
    """W = prop2 at lam, X = prop2 at 1 and Z = remark_x at mu; lam and mu
    are read as exact rationals."""
    require_valid(A)
    prop2 = OneParFamily("prop2", A)
    return WXZSystem(prop2.op(lam), prop2.op(1),
                     OneParFamily("remark_x", A).op(mu))


def thm3_residuals(A: Algebra, lam, mu) -> tuple:
    """:func:`wxz_residuals` of ``thm3_system(A, lam, mu)``, as the
    one-parameter residuals they are: prop2 at (lam, lam) and (lam, 1), and
    remark_x at (mu, mu) and (1, mu), in the order [W,W,W], [Z,Z,Z],
    [W,X,X], [X,X,Z].  Each is decided by its family's ``integer_legs``,
    so no operator is built."""
    require_valid(A)
    prop2, remark_x = OneParFamily("prop2", A), OneParFamily("remark_x", A)
    return (onepar_qybe_residual(prop2, lam, lam),
            onepar_qybe_residual(remark_x, mu, mu),
            onepar_qybe_residual(prop2, lam, 1),
            onepar_qybe_residual(remark_x, 1, mu))


def wxz_residuals(S: WXZSystem) -> tuple:
    """Max-abs entries of [W,W,W], [Z,Z,Z], [W,X,X], [X,X,Z], each from the
    sparse kernel on S's operators; all zero for genuine systems."""
    W, X, Z = S.W, S.X, S.Z
    return tuple(_qybe_max_abs(*ops) for ops in
                 ((W, W, W), (Z, Z, Z), (W, X, X), (X, X, Z)))
