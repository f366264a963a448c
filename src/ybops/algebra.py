"""Finite-dimensional unital associative algebras given by structure constants.

Conventions (shared by every module):

* ``structconst[i][j][k]`` is the coefficient of basis element ``e_k`` in the
  product ``e_i * e_j``.
* For polynomial quotients the basis is the power basis ``{1, x, x^2, ...}``
  and index 0 is the unit.

A coalgebra is the transpose structure: ``comult[i][j][k]`` is the coefficient
of ``e_j (x) e_k`` in ``Delta(e_i)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatchError, InvalidStructureError
from .scalars import Scalar, format_scalar, parse_scalar, rational


@dataclass(frozen=True)
class Algebra:
    dim: int
    structconst: tuple  # n x n x n nested tuples
    unit: tuple  # coordinates of 1

    def multiply(self, a: Sequence[Scalar], b: Sequence[Scalar]) -> tuple:
        return multiply(self, a, b)


@dataclass(frozen=True)
class Coalgebra:
    dim: int
    comult: tuple  # n x n x n nested tuples
    counit: tuple


@dataclass(frozen=True)
class ValidationReport:
    """Every violated identity, as (law, indices, residual) triples."""

    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def _freeze3(c):
    return tuple(tuple(tuple(x for x in row) for row in plane) for plane in c)


def poly_quotient(coeffs: Sequence[Scalar]) -> Algebra:
    """Build k[X]/(f) for a monic polynomial f, in the power basis.

    ``coeffs`` lists all coefficients of f, constant term first, so
    ``coeffs[i]`` multiplies ``X^i`` and the leading coefficient must be 1.
    Covers A = k[X]/(X^2 - sigma) and B = k[X]/(X^3 - eps*X - rho).
    """
    coeffs = [rational(c) for c in coeffs]
    n = len(coeffs) - 1
    if n < 1:
        raise InvalidStructureError("polynomial must have degree >= 1")
    if coeffs[-1] != 1:
        raise InvalidStructureError("polynomial must be monic")
    # x^n = -(c_0 + c_1 x + ... + c_{n-1} x^{n-1});  extend to x^(2n-2)
    reps = [[Fraction(int(i == m)) for i in range(n)] for m in range(n)]
    top = [-c for c in coeffs[:n]]
    for m in range(n, 2 * n - 1):
        prev = reps[m - 1]
        shifted = [Fraction(0)] + prev[: n - 1]
        overflow = prev[n - 1]
        reps.append([shifted[i] + overflow * top[i] for i in range(n)])
    struct = [[[reps[i + j][k] for k in range(n)] for j in range(n)]
              for i in range(n)]
    # structconst orientation: c[i][j][k] = coeff of e_k in e_i * e_j
    unit = tuple(Fraction(int(i == 0)) for i in range(n))
    return Algebra(dim=n, structconst=_freeze3(struct), unit=unit)


def quadratic_algebra(sigma: Scalar) -> Algebra:
    """A = k[X]/(X^2 - sigma)."""
    return poly_quotient([-rational(sigma), 0, 1])


def cubic_algebra(eps: Scalar, rho: Scalar) -> Algebra:
    """B = k[X]/(X^3 - eps*X - rho)."""
    return poly_quotient([-rational(rho), -rational(eps), 0, 1])


def multiply(A: Algebra, a: Sequence[Scalar], b: Sequence[Scalar]) -> tuple:
    """Bilinear product of coordinate vectors via the structure constants."""
    n = A.dim
    if len(a) != n or len(b) != n:
        raise DimensionMismatchError(
            f"vectors must have length {n}, got {len(a)} and {len(b)}")
    c = A.structconst
    out = [0] * n
    for i in range(n):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(n):
            bj = b[j]
            if bj == 0:
                continue
            cij = c[i][j]
            for k in range(n):
                out[k] += ai * bj * cij[k]
    return tuple(out)


def validate(A: Algebra) -> ValidationReport:
    """Check associativity and two-sided unitality; report every violation."""
    n = A.dim
    c = A.structconst
    bad = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    lhs = sum(c[i][j][m] * c[m][k][l] for m in range(n))
                    rhs = sum(c[j][k][m] * c[i][m][l] for m in range(n))
                    if lhs != rhs:
                        bad.append(("associativity", (i, j, k, l), lhs - rhs))
    basis = [tuple(Fraction(int(t == i)) for t in range(n)) for i in range(n)]
    for i in range(n):
        left = multiply(A, A.unit, basis[i])
        right = multiply(A, basis[i], A.unit)
        for k in range(n):
            want = Fraction(int(k == i))
            if left[k] != want:
                bad.append(("left-unit", (i, k), left[k] - want))
            if right[k] != want:
                bad.append(("right-unit", (i, k), right[k] - want))
    return ValidationReport(violations=tuple(bad))


def validate_coalgebra(C: Coalgebra) -> ValidationReport:
    """Coassociativity and the counit law, as 3-index identities."""
    n = C.dim
    d = C.comult
    eps = C.counit
    bad = []
    # (Delta (x) id) Delta = (id (x) Delta) Delta on e_i, component (j,k,l)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    lhs = sum(d[i][m][l] * d[m][j][k] for m in range(n))
                    rhs = sum(d[i][j][m] * d[m][k][l] for m in range(n))
                    if lhs != rhs:
                        bad.append(("coassociativity", (i, j, k, l), lhs - rhs))
    for i in range(n):
        for k in range(n):
            want = Fraction(int(k == i))
            left = sum(eps[j] * d[i][j][k] for j in range(n))
            right = sum(d[i][k][j] * eps[j] for j in range(n))
            if left != want:
                bad.append(("left-counit", (i, k), left - want))
            if right != want:
                bad.append(("right-counit", (i, k), right - want))
    return ValidationReport(violations=tuple(bad))


def dual_coalgebra(A: Algebra) -> Coalgebra:
    """Dual coalgebra of A: comult is the transposed product, counit the unit.

    Raises if A itself is not a valid algebra.
    """
    report = validate(A)
    if not report.ok:
        raise InvalidStructureError(
            f"not an associative unital algebra: {report.violations[0]}")
    n = A.dim
    c = A.structconst
    comult = [[[c[j][k][i] for k in range(n)] for j in range(n)]
              for i in range(n)]
    return Coalgebra(dim=n, comult=_freeze3(comult), counit=tuple(A.unit))


def opposite_algebra(A: Algebra) -> Algebra:
    """A with the reversed product a*b := ba."""
    c = A.structconst
    return Algebra(dim=A.dim, unit=A.unit, structconst=tuple(
        tuple(c[j][i] for j in range(A.dim)) for i in range(A.dim)))


def dual_algebra(C: Coalgebra) -> Algebra:
    """Algebra dual to C: the transposed comultiplication, unit the counit."""
    n = C.dim
    d = C.comult
    struct = [[[d[k][i][j] for k in range(n)] for j in range(n)]
              for i in range(n)]
    return Algebra(dim=n, structconst=_freeze3(struct), unit=tuple(C.counit))


# --- JSON interface ---------------------------------------------------------

def algebra_to_json(A: Algebra) -> str:
    return json.dumps({
        "dim": A.dim,
        "structconst": [[[format_scalar(x) for x in row] for row in plane]
                        for plane in A.structconst],
        "unit": [format_scalar(x) for x in A.unit],
        "field": "rational",
    })


def algebra_from_json(text: str) -> Algebra:
    data = json.loads(text)
    field = data.get("field", "rational")
    struct = [[[parse_scalar(x, field) for x in row] for row in plane]
              for plane in data["structconst"]]
    unit = tuple(parse_scalar(x, field) for x in data["unit"])
    return Algebra(dim=data["dim"], structconst=_freeze3(struct), unit=unit)


def coalgebra_to_json(C: Coalgebra) -> str:
    return json.dumps({
        "dim": C.dim,
        "comult": [[[format_scalar(x) for x in row] for row in plane]
                   for plane in C.comult],
        "counit": [format_scalar(x) for x in C.counit],
        "field": "rational",
    })


def coalgebra_from_json(text: str) -> Coalgebra:
    data = json.loads(text)
    field = data.get("field", "rational")
    comult = [[[parse_scalar(x, field) for x in row] for row in plane]
              for plane in data["comult"]]
    counit = tuple(parse_scalar(x, field) for x in data["counit"])
    return Coalgebra(dim=data["dim"], comult=_freeze3(comult), counit=counit)
