"""Dense matrix products, identities, the twist map, the (2 3) and (1 3)
factor swaps of V^(x)3 and the Kronecker product: the tests' references for the sparse
kernel, built independently of it from the plain matrix definitions.  Also
the kernel's chains as a direct dict-accumulating loop, the reference for
the compiled kernel's values and row order, the compiled kernel's result
in that ``(cols, den)`` form, and the max-abs reader of it.  No library
path calls them.  Tests only."""

from fractions import Fraction

from ybops.errors import DimensionMismatchError
from ybops.tensorop import Op2, _leg_columns, _qybe_columns


def mat_mul(A, B):
    if len(A[0]) != len(B):
        raise DimensionMismatchError("inner dimensions differ")
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def mat_scale(c, A):
    return [[c * x for x in row] for row in A]


def mat_transpose(A):
    return [list(row) for row in zip(*A)]


def max_abs_entry(mat):
    return max(abs(x) for row in mat for x in row)


def identity_mat(m):
    return [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]


def identity_op2(n: int) -> Op2:
    return Op2(n=n, mat=identity_mat(n * n))


def flip_op2(n: int) -> Op2:
    """The twist map tau: a(x)b -> b(x)a."""
    m = n * n
    mat = [[Fraction(0)] * m for _ in range(m)]
    for a in range(n):
        for b in range(n):
            mat[b * n + a][a * n + b] = Fraction(1)
    return Op2(n=n, mat=mat)


def _perm23(n):
    """Permutation matrix swapping tensor factors 2 and 3 of V^(x)3."""
    m = n ** 3
    P = [[Fraction(0)] * m for _ in range(m)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                P[(a * n + c) * n + b][(a * n + b) * n + c] = Fraction(1)
    return P


def _perm13(n):
    """Permutation matrix swapping tensor factors 1 and 3 of V^(x)3."""
    m = n ** 3
    P = [[Fraction(0)] * m for _ in range(m)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                P[(c * n + b) * n + a][(a * n + b) * n + c] = Fraction(1)
    return P


def kron(A, B):
    na, nb = len(A), len(B)
    return [[A[i // nb][j // nb] * B[i % nb][j % nb]
             for j in range(na * nb)] for i in range(na * nb)]


def loop_numerators(R12, R13, R23):
    """R12 R13 R23 - R23 R13 R12 as ``(cols, den)``, interpreted: both
    chains of column j add into one dict accumulator, rows in first-touch
    order, zeros dropped at the end."""
    n = R12.n
    L12, L13, L23 = (_leg_columns(R.cols, n, legs)
                     for R, legs in ((R12, 12), (R13, 13), (R23, 23)))
    out = []
    for j in range(n ** 3):
        acc, mid = {}, {}
        for k, c in L23[j]:
            for i, x in L13[k]:
                mid[i] = mid.get(i, 0) + c * x
        for k, c in mid.items():
            for i, x in L12[k]:
                acc[i] = acc.get(i, 0) + c * x
        mid = {}
        for k, c in L12[j]:
            for i, x in L13[k]:
                mid[i] = mid.get(i, 0) + c * x
        for k, c in mid.items():
            for i, x in L23[k]:
                acc[i] = acc.get(i, 0) - c * x
        out.append({i: x for i, x in acc.items() if x})
    return out, R12.den * R13.den * R23.den


def _qybe_numerators(R12, R13, R23):
    """The compiled kernel's difference as ``(cols, den)``: ``cols[j]`` maps
    each row i of a non-zero entry [i][j] to its numerator, in the kernel's
    order."""
    rows, values, den = _qybe_columns(R12, R13, R23)
    return [{i: x for i, x in zip(r, v) if x}
            for r, v in zip(rows, values)], den


def _max_abs(diff):
    """The max-abs entry of a kernel result ``(cols, den)``: one
    ``Fraction(top, den)`` over the integer numerators."""
    cols, den = diff
    return Fraction(max((abs(x) for col in cols for x in col.values()),
                        default=0), den)
