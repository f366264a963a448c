"""Comparison of the twisted one-parameter R-matrix with the Okado/Perk-type
braid matrix (single-parameter specialisation, all extra parameters set to 1).

Both 4x4 families satisfy the braid equation under multiplicative parameter
composition; at q=1 their closeness is reported, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import UnknownFamilyError
from .onepar import prop1_op
from .algebra import quadratic_algebra
from .scalars import format_scalar, rational
from .tensorop import Op2, mat_sub, twist_compose


def okado_rhat(q, x) -> Op2:
    """The 4x4 braid matrix of the U_{q,Q}(sl2-hat) specialisation."""
    q, x = rational(q), rational(x)
    mat = [
        [q * q * x - 1, 0, 0, 0],
        [0, q * q - 1, q * (x - 1), 0],
        [0, q * (x - 1), (q * q - 1) * x, 0],
        [0, 0, 0, q * q * x - 1],
    ]
    return Op2(n=2, mat=mat)


def twisted_prop1_rhat(q, x) -> Op2:
    """Twist-composed one-parameter matrix: tau times the prop1 matrix at
    sigma = 0."""
    return twist_compose(prop1_op(quadratic_algebra(0), q, x))


@dataclass(frozen=True)
class BraidFamily:
    """Braid matrix at x: okado(q), or twisted_prop1(q) at sigma = 0."""

    kind: str
    q: object

    def __post_init__(self):
        if self.kind not in ("okado", "twisted_prop1"):
            raise UnknownFamilyError(f"unknown braid family {self.kind!r}")

    def __call__(self, x) -> Op2:
        if self.kind == "okado":
            return okado_rhat(self.q, x)
        return twisted_prop1_rhat(self.q, x)


def compare_q1() -> dict:
    """Both families at q=1, sigma=0 and x = 1, 2, 3, and their difference.

    At q=1 the twisted matrix is the Okado one with entry (3, 3) negated, so
    the verdict per sample is identical (at x=1, where both vanish) or
    differ, decided by exact equality; nothing is reconciled silently.
    A fresh report per call; its rows are computed once (:func:`_q1_samples`).
    """
    return {"q": "1", "sigma": "0", "samples": [
        {"x": x, "okado": list(map(list, ok)),
         "twisted_prop1": list(map(list, tw)),
         "difference": list(map(list, diff)), "verdict": verdict}
        for x, ok, tw, diff, verdict in _q1_samples()]}


@cache
def _q1_samples():
    """The sample rows of :func:`compare_q1` as tuples:
    ``(x, okado, twisted_prop1, difference, verdict)``."""
    def text(mat):
        return tuple(tuple(map(format_scalar, row)) for row in mat)
    rows = []
    for x in (1, 2, 3):
        ok = okado_rhat(1, x)
        tw = twisted_prop1_rhat(1, x)
        verdict = "identical" if ok.mat == tw.mat else "differ"
        rows.append((format_scalar(x), text(ok.mat), text(tw.mat),
                     text(mat_sub(ok.mat, tw.mat)), verdict))
    return tuple(rows)
