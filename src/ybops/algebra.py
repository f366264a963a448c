"""Finite-dimensional unital associative algebras given by structure constants.

Conventions (shared by every module):

* ``structconst[i][j][k]`` is the coefficient of basis element ``e_k`` in the
  product ``e_i * e_j``.
* For polynomial quotients the basis is the power basis ``{1, x, x^2, ...}``
  and index 0 is the unit.

A coalgebra is stored as the algebra it is dual to: ``comult[i][j][k]``, the
coefficient of ``e_j (x) e_k`` in ``Delta(e_i)``, is ``structconst[j][k][i]``
and the counit is the unit.  Coassociativity and the counit laws of C are
then the associativity and unit laws of ``C.algebra``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Sequence

from .errors import DimensionMismatchError, InvalidStructureError
from .scalars import (Scalar, format_scalar, is_exact, over_one_denominator,
                      parse_scalar, rational)


def _check_shape(n: int, cube, vector) -> None:
    if type(n) is not int:  # a bool or a float is no dimension
        raise DimensionMismatchError(f"dim must be an integer, got {n!r}")
    if len(vector) != n or len(cube) != n or any(
            len(plane) != n or any(len(row) != n for row in plane)
            for plane in cube):
        raise DimensionMismatchError(
            f"structure tensor must be {n}x{n}x{n} and the (co)unit of "
            f"length {n}")


@dataclass(frozen=True)
class Algebra:
    dim: int
    structconst: tuple  # n x n x n nested tuples
    unit: tuple  # coordinates of 1

    def __post_init__(self):
        _check_shape(self.dim, self.structconst, self.unit)

    @cached_property
    def cleared(self):
        """The structure constants and the unit over integers, or None when
        one of them is a float.

        ``(den, products, unit_den, unit)``: ``products[i][j]`` lists the
        ``(k, m)`` such that e_i e_j has the non-zero coefficient m / den at
        e_k, and ``unit`` lists the ``(k, m)`` such that 1 has the non-zero
        coordinate m / unit_den at e_k.
        """
        n = self.dim
        rows = [row for plane in self.structconst for row in plane]
        if not all(map(is_exact, chain(self.unit, *rows))):
            return None
        den, rows = over_one_denominator(
            [[(k, x) for k, x in enumerate(row) if x] for row in rows])
        unit_den, (unit,) = over_one_denominator(
            [[(k, x) for k, x in enumerate(self.unit) if x]])
        return (den, [rows[i * n:(i + 1) * n] for i in range(n)],
                unit_den, unit)

    @cached_property
    def valid(self) -> bool:
        """``validate(self).ok``, computed once per algebra;
        :func:`poly_quotient` sets it at build."""
        return validate(self).ok

    @cached_property
    def opposite(self) -> Algebra:
        """This algebra with the reversed product a*b := ba."""
        c = self.structconst
        return Algebra(dim=self.dim, unit=self.unit, structconst=tuple(
            tuple(c[j][i] for j in range(self.dim)) for i in range(self.dim)))


@dataclass(frozen=True)
class Coalgebra:
    """The coalgebra dual to ``algebra``."""

    algebra: Algebra

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def comult(self) -> tuple:
        """``comult[i][j][k]``: the coefficient of e_j (x) e_k in Delta(e_i)."""
        c, n = self.algebra.structconst, self.algebra.dim
        return tuple(tuple(tuple(c[j][k][i] for k in range(n))
                           for j in range(n)) for i in range(n))

    @property
    def counit(self) -> tuple:
        return self.algebra.unit


@dataclass(frozen=True)
class ValidationReport:
    """Every violated identity, as (law, indices, residual) triples."""

    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


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
    # structconst orientation: c[i][j][k] = coeff of e_k in e_i * e_j
    struct = tuple(tuple(tuple(reps[i + j]) for j in range(n))
                   for i in range(n))
    unit = tuple(Fraction(int(i == 0)) for i in range(n))
    A = Algebra(dim=n, structconst=struct, unit=unit)
    # k[X]/(f) is associative and unital by construction
    object.__setattr__(A, "valid", True)
    return A


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


def require_valid(A: Algebra) -> Algebra:
    """A itself; InvalidStructureError if A is not associative and unital."""
    if not A.valid:
        raise InvalidStructureError(
            f"not an associative unital algebra: {validate(A).violations[0]}")
    return A


def dual_coalgebra(A: Algebra) -> Coalgebra:
    """Dual coalgebra of A; raises if A itself is not a valid algebra."""
    return Coalgebra(require_valid(A))


# --- JSON interface ---------------------------------------------------------

def _to_json(n, cube_key, cube, vector_key, vector) -> str:
    return json.dumps({
        "dim": n,
        cube_key: [[[format_scalar(x) for x in row] for row in plane]
                   for plane in cube],
        vector_key: [format_scalar(x) for x in vector],
        "field": "rational",
    })


def _array(x) -> list:
    # a string would otherwise be read as one scalar per character
    if not isinstance(x, list):
        raise DimensionMismatchError(f"expected a JSON array, got {x!r}")
    return x


def _scalar(x, field):
    # a string or a number; JSON true and false would read as 1 and 0
    if isinstance(x, (str, int, float)) and not isinstance(x, bool):
        try:
            return parse_scalar(x, field)
        except (ValueError, ArithmeticError):
            pass
    raise InvalidStructureError(f"not a {field} scalar: {json.dumps(x)}")


def _from_json(text, cube_key, vector_key):
    """(dim, n x n x n tensor, length-n vector), shape-checked."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise InvalidStructureError(
            "the document is nested too deeply to read") from None
    if not isinstance(data, dict):
        raise InvalidStructureError("the document must be a JSON object")
    missing = [k for k in ("dim", cube_key, vector_key) if k not in data]
    if missing:
        raise InvalidStructureError(f"missing key(s): {', '.join(missing)}")
    field = data.get("field", "rational")
    cube = tuple(tuple(tuple(_scalar(x, field) for x in _array(row))
                       for row in _array(plane))
                 for plane in _array(data[cube_key]))
    vector = tuple(_scalar(x, field) for x in _array(data[vector_key]))
    _check_shape(data["dim"], cube, vector)
    return data["dim"], cube, vector


def algebra_to_json(A: Algebra) -> str:
    return _to_json(A.dim, "structconst", A.structconst, "unit", A.unit)


def algebra_from_json(text: str) -> Algebra:
    n, c, unit = _from_json(text, "structconst", "unit")
    return Algebra(dim=n, structconst=c, unit=unit)


def coalgebra_to_json(C: Coalgebra) -> str:
    return _to_json(C.dim, "comult", C.comult, "counit", C.counit)


def coalgebra_from_json(text: str) -> Coalgebra:
    n, d, counit = _from_json(text, "comult", "counit")
    # the dual algebra: e_i * e_j has coefficient comult[k][i][j] at e_k
    struct = tuple(tuple(tuple(d[k][i][j] for k in range(n))
                         for j in range(n)) for i in range(n))
    return Coalgebra(Algebra(dim=n, structconst=struct, unit=counit))
