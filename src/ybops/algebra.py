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

from collections.abc import Sequence, Sized
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatchError, InvalidStructureError
from .scalars import Scalar, over_one_denominator, rational


@dataclass(frozen=True)
class Algebra:
    """Structure constants and unit, each entry read as its exact rational
    (:func:`ybops.scalars.rational`) when the algebra is built."""

    dim: int
    structconst: tuple  # n x n x n nested tuples
    unit: tuple  # coordinates of 1

    def __post_init__(self):
        n, cube = self.dim, self.structconst
        if type(n) is not int:  # a bool or a float is no dimension
            raise DimensionMismatchError(f"dim must be an integer, got {n!r}")

        def fits(x):  # n entries, and no text or bytes read one per item
            return isinstance(x, Sized) and len(x) == n and not isinstance(
                x, (str, bytes, bytearray, memoryview))
        if not (fits(self.unit) and fits(cube) and all(
                fits(plane) and all(map(fits, plane)) for plane in cube)):
            raise DimensionMismatchError(
                f"structure tensor must be {n}x{n}x{n} and the unit of "
                f"length {n}")
        object.__setattr__(self, "structconst", tuple(
            tuple(tuple(map(rational, row)) for row in plane)
            for plane in self.structconst))
        object.__setattr__(self, "unit", tuple(map(rational, self.unit)))

    @cached_property
    def cleared(self):
        """The structure constants and the unit over integers.

        ``(den, products, unit_den, unit)``: ``products[i][j]`` lists the
        ``(k, m)`` such that e_i e_j has the non-zero coefficient m / den at
        e_k, and ``unit`` lists the ``(k, m)`` such that 1 has the non-zero
        coordinate m / unit_den at e_k.
        """
        n = self.dim
        rows = [row for plane in self.structconst for row in plane]
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
