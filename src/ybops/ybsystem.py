"""WXZ Yang-Baxter systems built from an associative algebra.

A WXZ-system is a triple of two-site operators with vanishing Yang-Baxter
commutators [W,W,W], [Z,Z,Z], [W,X,X], [X,X,Z].  Theorem 3 builds one from
the one-parameter families of the table: W is prop2 at lambda, with
coefficients (lambda, 1, 1), X is prop2 at 1, the constant operator
(1, 1, 1), and Z is remark_x at mu, with coefficients (1, mu, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .algebra import Algebra, require_valid
from .errors import DimensionMismatchError
from .onepar import OneParFamily
from .tensorop import Op2, _decided


@dataclass(frozen=True)
class WXZSystem:
    W: Op2
    X: Op2
    Z: Op2
    # the integer triples of W, X and Z, set only by thm3_system; a
    # system built or replace()d from operators has none
    triples: Optional[tuple] = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        # the defining commutators only pair W with X and X with Z, but the
        # one-space construction used here keeps all three on one space
        if not (self.W.n == self.X.n == self.Z.n):
            raise DimensionMismatchError("W, X, Z must share a base dimension")


def thm3_system(A: Algebra, lam, mu) -> WXZSystem:
    """W = prop2 at lam, X = prop2 at 1 and Z = remark_x at mu, keeping
    their ``integer_triple``s; lam and mu are read as exact rationals."""
    require_valid(A)
    prop2, remark_x = OneParFamily("prop2", A), OneParFamily("remark_x", A)
    builds = ((prop2, lam), (prop2, 1), (remark_x, mu))
    S = WXZSystem(*(fam.op(x) for fam, x in builds))
    object.__setattr__(S, "triples", tuple(
        fam.integer_triple(x) for fam, x in builds))
    return S


def wxz_residuals(S: WXZSystem) -> tuple:
    """Max-abs entries of [W,W,W], [Z,Z,Z], [W,X,X], [X,X,Z]; all zero for
    genuine systems.

    A commutator whose three triples from :func:`thm3_system` solve the
    five-equation system is ``Fraction(0)`` without the kernel, as in
    :func:`ybops.tensorop.colored_qybe_residual`; every other commutator,
    and every one of a system without triples, goes to the kernel.
    """
    ops, triples = (S.W, S.X, S.Z), S.triples
    return tuple(_decided(triples and [triples[k] for k in legs],
                          lambda: [ops[k] for k in legs])
                 for legs in ((0, 0, 0), (2, 2, 2), (0, 1, 1), (1, 1, 2)))
