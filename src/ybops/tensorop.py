"""Operators on V(x)V and V(x)V(x)V: exact matrix-free Yang-Baxter residuals,
matrix emitters, and dense products kept only as the tests' references.

Matrix convention: ``mat[i][j]`` is the coefficient of basis element ``i`` in
the image of basis element ``j``.  The tensor basis is lexicographic, so
``e_a (x) e_b`` has index ``a*n + b`` (for n=2: 1(x)1, 1(x)x, x(x)1, x(x)x).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, prod

from .errors import DimensionMismatchError
from .scalars import format_scalar


class Op2:
    """An operator on V(x)V, n = dim V, held as its sparse columns.

    ``cols[j]`` lists the ``(row, entry)`` pairs of column j in increasing
    row order, and every entry it does not list is ``zero``.  A listed entry
    may be a zero of another type than ``zero`` (a float 0.0 among
    Fractions), so the dense view keeps the type of every entry.
    ``Op2(n=..., mat=...)`` derives the columns from an n^2 x n^2 matrix;
    ``mat`` is otherwise built on first read and cached.  Two operators are
    equal when ``n`` and ``mat`` are.
    """

    __slots__ = ("n", "cols", "zero", "_mat")

    def __init__(self, n: int, mat=None, *, cols=None, zero=Fraction(0)):
        m = n * n
        if mat is not None:
            if len(mat) != m or any(len(row) != m for row in mat):
                raise DimensionMismatchError("Op2 matrix must be n^2 x n^2")
            zero = Fraction(0)
            cols = [[(i, x) for i, x in enumerate(col)
                     if x or type(x) is not Fraction] for col in zip(*mat)]
        elif cols is None or len(cols) != m:
            raise DimensionMismatchError("Op2 needs n^2 columns")
        for name, value in (("n", n), ("cols", cols), ("zero", zero),
                            ("_mat", mat)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Op2 is immutable")

    @property
    def mat(self) -> tuple:
        if self._mat is None:
            m = self.n * self.n
            rows = [[self.zero] * m for _ in range(m)]
            for j, col in enumerate(self.cols):
                for i, x in col:
                    rows[i][j] = x
            object.__setattr__(self, "_mat", freeze(rows))
        return self._mat

    def __eq__(self, other):
        if other.__class__ is not Op2:
            return NotImplemented
        return self.n == other.n and self.mat == other.mat

    def __hash__(self):
        return hash((self.n, self.mat))

    def __repr__(self):
        return f"Op2(n={self.n!r}, mat={self.mat!r})"


def _is_exact(R: Op2) -> bool:
    """Whether every entry of ``R.mat`` is an int or a Fraction."""
    return isinstance(R.zero, (int, Fraction)) and all(
        isinstance(x, (int, Fraction)) for col in R.cols for _, x in col)


@dataclass(frozen=True)
class Op3:
    n: int  # base dimension; matrix is n^3 x n^3
    mat: tuple

    def __post_init__(self):
        m = self.n ** 3
        if len(self.mat) != m or any(len(row) != m for row in self.mat):
            raise DimensionMismatchError("Op3 matrix must be n^3 x n^3")


def freeze(mat) -> tuple:
    return tuple(tuple(row) for row in mat)


def mat_mul(A, B):
    if len(A[0]) != len(B):
        raise DimensionMismatchError("inner dimensions differ")
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(c, A):
    return [[c * x for x in row] for row in A]


def mat_transpose(A):
    return [list(row) for row in zip(*A)]


def max_abs_entry(mat):
    return max(abs(x) for row in mat for x in row)


def identity_mat(m):
    return [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]


def identity_op2(n: int) -> Op2:
    return Op2(n=n, mat=freeze(identity_mat(n * n)))


def flip_op2(n: int) -> Op2:
    """The twist map tau: a(x)b -> b(x)a."""
    m = n * n
    mat = [[Fraction(0)] * m for _ in range(m)]
    for a in range(n):
        for b in range(n):
            mat[b * n + a][a * n + b] = Fraction(1)
    return Op2(n=n, mat=freeze(mat))


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


def embed_leg(R: Op2, legs: int) -> Op3:
    """Embed a two-site operator into V^(x)3 on the given pair of factors.

    R12 = R(x)I, R23 = I(x)R, and R13 is R(x)I conjugated by the (2 3)
    factor swap.
    """
    n = R.n
    if legs not in (12, 13, 23):
        raise ValueError(f"legs must be one of 12, 13, 23, got {legs}")
    m = n ** 3
    zero = Fraction(0)
    mat = [[zero] * m for _ in range(m)]
    # built by index bookkeeping; equals the kron/permutation-conjugation
    # definition (asserted as the leg-coherence property test)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                row = (a * n + b) * n + c
                for d in range(n):
                    for e in range(n):
                        if legs == 12:
                            mat[row][(d * n + e) * n + c] = R.mat[a * n + b][d * n + e]
                        elif legs == 23:
                            mat[row][(a * n + d) * n + e] = R.mat[b * n + c][d * n + e]
                        else:
                            mat[row][(d * n + b) * n + e] = R.mat[a * n + c][d * n + e]
    return Op3(n=n, mat=freeze(mat))


# --- the residual kernel -----------------------------------------------------
#
# Every residual is P - Q for two products P, Q of leg operators on V^(x)3.
# Both are applied to each basis vector e_a(x)e_b(x)e_c through the sparse
# columns of the two-site operators, never as dense n^3 x n^3 matrices: an
# ansatz column has at most 2n+1 non-zeros, so a column of P costs about
# (2n+1)^3 products instead of the n^6 of a dense triple product.  Exact
# operators are first scaled to integers, one denominator per operator; the
# chains' common denominator divides out of the difference at the end.

def _leg_columns(cols: list, n: int, legs: int) -> list:
    """Sparse columns of a two-site operator on legs 12, 13 or 23 of V^(x)3,
    from its own sparse columns ``[(row, entry), ...]``."""
    stride = {1: n * n, 2: n, 3: 1}
    s, t = divmod(legs, 10)
    r = 6 - s - t  # the site the operator does not act on
    rows = [(i // n) * stride[s] + (i % n) * stride[t] for i in range(n * n)]
    return [[(rows[i] + site[r - 1] * stride[r], x)
             for i, x in cols[site[s - 1] * n + site[t - 1]]]
            for site in product(range(n), repeat=3)]


def _apply(cols, vec: dict, out: dict) -> dict:
    """out += (the operator with sparse columns ``cols``) vec."""
    for k, c in vec.items():
        for i, m in cols[k]:
            out[i] = out.get(i, 0) + c * m
    return out


def _chain_difference(lhs, rhs):
    """P - Q, where P and Q are the products of the leg operators in ``lhs``
    and ``rhs``: sequences of ``(Op2, legs)`` read as written, so the last
    factor acts first.

    Returns ``(cols, zero)``: ``cols[j]`` maps each row i with a non-zero
    (P - Q)[i][j] to that entry, and ``zero`` is the value of the others.
    When every entry is an int or Fraction the result is exact Fractions;
    otherwise the entries are combined as they are (float mode).
    """
    ops = list({id(R): R for R, _ in (*lhs, *rhs)}.values())
    n = ops[0].n
    if any(R.n != n for R in ops):
        raise DimensionMismatchError("operators live on different base spaces")
    exact = all(_is_exact(R) for R in ops)
    den, sparse = {}, {}
    for R in ops:
        # a listed zero only carries its type into the dense view
        cols = [[(i, x) for i, x in col if x] for col in R.cols]
        d = den[id(R)] = (lcm(*(x.denominator for col in cols for _, x in col))
                          if exact else 1)
        sparse[id(R)] = ([[(i, x.numerator * (d // x.denominator))
                           for i, x in col] for col in cols] if exact
                         else cols)
    embedded = {(id(R), l): _leg_columns(sparse[id(R)], n, l)
                for R, l in (*lhs, *rhs)}
    chains = [[embedded[id(R), l] for R, l in reversed(chain)]
              for chain in (lhs, rhs)]
    dl, dr = (prod(den[id(R)] for R, _ in chain) for chain in (lhs, rhs))
    common = lcm(dl, dr)
    out = []
    for j in range(n ** 3):
        acc = {}
        for chain, f in zip(chains, (common // dl, -(common // dr))):
            vec = {j: f}
            for cols in chain[:-1]:
                vec = _apply(cols, vec, {})
            _apply(chain[-1], vec, acc)
        out.append({i: Fraction(x, common) if exact else x
                    for i, x in acc.items() if x})
    return out, Fraction(0) if exact else 0.0


def _qybe_difference(R12: Op2, R13: Op2, R23: Op2):
    return _chain_difference(((R12, 12), (R13, 13), (R23, 23)),
                             ((R23, 23), (R13, 13), (R12, 12)))


def _max_abs(diff):
    cols, zero = diff
    return max((abs(x) for col in cols for x in col.values()), default=zero)


def yb_commutator(R: Op2, S: Op2, T: Op2) -> Op3:
    """Yang-Baxter commutator [R,S,T] = R12 S13 T23 - T23 S13 R12."""
    cols, zero = _qybe_difference(R, S, T)
    m = R.n ** 3
    return Op3(n=R.n, mat=tuple(tuple(col.get(i, zero) for col in cols)
                                for i in range(m)))


def colored_qybe_residual(family, u, v, w):
    """Max-abs-entry of R12(u,v) R13(u,w) R23(v,w) - R23(v,w) R13(u,w) R12(u,v).

    ``family`` must expose ``op(u, v) -> Op2``.  Zero exactly for genuine
    coloured Yang-Baxter operators.
    """
    return _max_abs(_qybe_difference(family.op(u, v), family.op(u, w),
                                     family.op(v, w)))


def onepar_qybe_residual(family, x, z):
    """Residual of R12(x) R13(phi(x,z)) R23(z) - R23(z) R13(phi(x,z)) R12(x).

    ``family`` must expose ``op(x) -> Op2`` and ``phi(x, z) -> scalar``; the
    composition map is attached to the family so checks cannot mix a family
    with the wrong phi.
    """
    return _max_abs(_qybe_difference(family.op(x), family.op(family.phi(x, z)),
                                     family.op(z)))


def twist_compose(R: Op2) -> Op2:
    """Rhat = tau . R, turning QYBE solutions into braid-equation solutions.

    tau permutes the rows: row b*n+a of tau R is row a*n+b of R."""
    n = R.n
    return Op2(n=n, zero=R.zero,
               cols=[sorted(((i % n) * n + i // n, x) for i, x in col)
                     for col in R.cols])


def braid_residual(rhat, x, y):
    """Braid residual with multiplicative parameter composition.

    Computes Rh12(x) Rh23(x*y) Rh12(y) - Rh23(y) Rh12(x*y) Rh23(x) where
    ``rhat`` is a callable x -> Op2.  The composition mirrors phi(x,z)=x*z of
    the one-parameter families and is confirmed by the brute-force oracle.
    """
    Rx, Rxy, Ry = rhat(x), rhat(x * y), rhat(y)
    return _max_abs(_chain_difference(((Rx, 12), (Rxy, 23), (Ry, 12)),
                                      ((Ry, 23), (Rxy, 12), (Rx, 23))))


# --- basis labels and emitters ------------------------------------------------

_SUP = {2: "\u00b2", 3: "\u00b3"}


def power_basis_labels(n: int) -> list:
    """Names of the power basis {1, x, x2, ...} as printed strings."""
    out = []
    for i in range(n):
        if i == 0:
            out.append("1")
        elif i == 1:
            out.append("x")
        else:
            out.append("x" + _SUP.get(i, f"^{i}"))
    return out


def tensor_basis_labels(n: int, factors: int = 2) -> list:
    base = power_basis_labels(n)
    labels = base
    for _ in range(factors - 1):
        labels = [a + "\u2297" + b for a in labels for b in base]
    return labels


def op_to_json(op) -> str:
    n = op.n
    return json.dumps({
        "n": n,
        "basis": tensor_basis_labels(n, 3 if isinstance(op, Op3) else 2),
        "entries": [[format_scalar(x) for x in row] for row in op.mat],
        "field": "rational",
    }, ensure_ascii=False)


def op_to_csv(op) -> str:
    return "\n".join(",".join(format_scalar(x) for x in row)
                     for row in op.mat) + "\n"


def op_to_latex(op) -> str:
    rows = [" & ".join(format_scalar(x) for x in row) for row in op.mat]
    body = " \\\\\n".join(rows)
    return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}\n"
