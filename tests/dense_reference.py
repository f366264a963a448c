"""Dense matrix products, identities, the twist map, the (2 3) factor swap
of V^(x)3 and the Kronecker product: the tests' references for the sparse
kernel, built independently of it from the plain matrix definitions.  No
library path calls them.  Tests only."""

from fractions import Fraction

from ybops.errors import DimensionMismatchError
from ybops.tensorop import Op2


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


def kron(A, B):
    na, nb = len(A), len(B)
    return [[A[i // nb][j // nb] * B[i % nb][j % nb]
             for j in range(na * nb)] for i in range(na * nb)]
