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
from math import lcm

from .errors import DimensionMismatchError, InvalidStructureError
from .scalars import Scalar, rational


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
    def ansatz_template(self):
        """The ansatz of :func:`ybops.colored.ansatz_op` on integers, before
        its coefficients, built at the first read: ``(den, cols)``, where
        ``cols[i*n + j]`` lists in row order the ``(row, ca, cb, cg)`` whose
        entry of the image of e_i(x)e_j is alpha ca + beta cb + gamma cg
        over den = d_A d_U."""
        # d_A and d_U clear the structure constants and the unit; ca and cb
        # come from 1(x)e_ie_j and e_ie_j(x)1, and cg is -den at row j*n+i
        n = self.dim

        def ratios(v):  # (k, numerator, denominator) of each non-zero v[k]
            return [(k, *x.as_integer_ratio()) for k, x in enumerate(v) if x]
        rows = [ratios(row) for plane in self.structconst for row in plane]
        unit = ratios(self.unit)
        d_A = lcm(*(d for row in rows for _, _, d in row))
        d_U = lcm(*(d for _, _, d in unit))
        unit = [(c, m * (d_U // d)) for c, m, d in unit]
        cols = []
        for ij, row in enumerate(rows):
            acc = {(ij % n) * n + ij // n: [0, 0, -d_A * d_U]}
            for k, m, d in row:
                m *= d_A // d
                for c, x in unit:  # no two terms share a row and a slot
                    acc.setdefault(c * n + k, [0, 0, 0])[0] = x * m
                    acc.setdefault(k * n + c, [0, 0, 0])[1] = x * m
            cols.append([(r, *acc[r]) for r in sorted(acc)])
        return d_A * d_U, cols

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
    # x^n = -(c_0 + c_1 x + ... + c_{n-1} x^{n-1}) = top / d, on integers;
    # each power x^m up to x^(2n-2) is x times the one before, nums / den
    d = lcm(*(c.denominator for c in coeffs))
    top = [-c.numerator * (d // c.denominator) for c in coeffs[:n]]
    zero, one = Fraction(0), Fraction(1)
    reps = [(zero,) * m + (one,) + (zero,) * (n - 1 - m) for m in range(n)]
    nums, den = [0] * (n - 1) + [1], 1
    for _ in range(n - 1):
        nums = [d * x + nums[-1] * t for x, t in zip([0] + nums[:-1], top)]
        den *= d
        reps.append(tuple(Fraction(x, den) if x else zero for x in nums))
    # structconst orientation: c[i][j][k] = coeff of e_k in e_i * e_j;
    # every entry is already a Fraction in place, so the algebra's checks
    # and reading are skipped, and k[X]/(f) is associative and unital by
    # construction
    A = object.__new__(Algebra)
    vars(A).update(dim=n, unit=reps[0], valid=True, structconst=tuple(
        tuple(reps[i + j] for j in range(n)) for i in range(n)))
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
    # 1*e_i and e_i*1, read off the structure constants
    unit = list(enumerate(A.unit))
    for i in range(n):
        for k in range(n):
            want = Fraction(int(k == i))
            left = sum(u * c[a][i][k] for a, u in unit)
            right = sum(u * c[i][a][k] for a, u in unit)
            if left != want:
                bad.append(("left-unit", (i, k), left - want))
            if right != want:
                bad.append(("right-unit", (i, k), right - want))
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
