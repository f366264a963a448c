"""Operators on V(x)V and V(x)V(x)V: exact matrix-free Yang-Baxter residuals
and matrix emitters.  Every operator is exact: its entries are rationals,
held as integer numerators over one denominator.

Matrix convention: ``mat[i][j]`` is the coefficient of basis element ``i`` in
the image of basis element ``j``.  The tensor basis is lexicographic, so
``e_a (x) e_b`` has index ``a*n + b`` (for n=2: 1(x)1, 1(x)x, x(x)1, x(x)x).
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

from .errors import DimensionMismatchError
from .funceq import _system, leg_colours
from .scalars import format_scalar, over_one_denominator, rational


class Op2:
    """An operator on V(x)V, n = dim V, held as its sparse columns.

    ``Op2(n=..., mat=...)`` is the one place where an n^2 x n^2 matrix
    becomes columns: each entry is read as its exact rational
    (:func:`ybops.scalars.rational`), and that matrix is kept, frozen, as
    ``mat``.  ``den`` is a positive integer and ``cols[j]`` lists the
    ``(row, numerator)`` pairs of the non-zero entries of column j in row
    order, each entry being ``Fraction(numerator, den)``; an unlisted entry
    is ``Fraction(0)``.  Built from ``cols`` and ``den`` (1 unless given;
    ``ValueError`` unless a positive ``int``), ``mat`` is made on first
    read and cached.  Operators are equal when ``n`` and ``mat`` are.
    """

    __slots__ = ("n", "cols", "den", "_mat")

    def __init__(self, n: int, mat=None, *, cols=None, den=1):
        m = n * n
        if mat is not None:
            mat = tuple(tuple(map(rational, row)) for row in mat)
            if len(mat) != m or any(len(row) != m for row in mat):
                raise DimensionMismatchError("Op2 matrix must be n^2 x n^2")
            den, cols = over_one_denominator(
                [[(i, x) for i, x in enumerate(col) if x]
                 for col in zip(*mat)])
        elif cols is None or len(cols) != m:
            raise DimensionMismatchError("Op2 needs n^2 columns")
        elif type(den) is not int or den < 1:
            raise ValueError(f"Op2 den must be a positive int, got {den!r}")
        for name, value in (("n", n), ("cols", cols), ("den", den),
                            ("_mat", mat)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Op2 is immutable")

    @property
    def mat(self) -> tuple:
        if self._mat is None:
            den = self.den
            object.__setattr__(self, "_mat", _dense_view(
                [[(i, Fraction(x, den)) for i, x in col] for col in self.cols]))
        return self._mat

    def __eq__(self, other):
        if other.__class__ is not Op2:
            return NotImplemented
        return self.n == other.n and self.mat == other.mat

    def __hash__(self):
        return hash((self.n, self.mat))

    def __repr__(self):
        return f"Op2(n={self.n!r}, mat={self.mat!r})"


def freeze(mat) -> tuple:
    return tuple(tuple(row) for row in mat)


def _dense_view(cols) -> tuple:
    """The frozen rows of the square matrix whose column j lists the
    ``(row, entry)`` pairs in ``cols[j]``; every unlisted entry is
    ``Fraction(0)``."""
    rows = [[Fraction(0)] * len(cols) for _ in cols]
    for j, col in enumerate(cols):
        for i, x in col:
            rows[i][j] = x
    return freeze(rows)


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


# --- the residual kernel -----------------------------------------------------
#
# Every residual is R12 R13 R23 - R23 R13 R12 on V^(x)3; a braid residual
# is one too, by the identity in :func:`braid_residual`.  Both chains are
# applied to each basis vector e_a(x)e_b(x)e_c through the sparse columns of
# the two-site operators, never as dense n^3 x n^3 matrices: an ansatz
# column has at most 2n+1 non-zeros, so a chain's column costs about
# (2n+1)^3 products instead of the n^6 of a dense triple product.  The
# operators enter as their integer numerators; both chains hold the same
# three operators, so the product of their denominators is the denominator
# of the difference, and the residual callers divide by it once, after
# taking the max-abs numerator.

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


def embed_leg(R: Op2, legs: int) -> tuple:
    """The frozen n^3 x n^3 rows of a two-site operator on the given pair of
    factors of V^(x)3: the kernel's :func:`_leg_columns` of every entry of
    ``R.mat``, and ``Fraction(0)`` off the listed cells.

    R12 = R(x)I, R23 = I(x)R, and R13 is R(x)I conjugated by the (2 3)
    factor swap; the tests hold it to those dense definitions.
    """
    if legs not in (12, 13, 23):
        raise ValueError(f"legs must be one of 12, 13, 23, got {legs}")
    cols = [list(enumerate(col)) for col in zip(*R.mat)]
    return _dense_view(_leg_columns(cols, R.n, legs))


def _apply(cols, vec: dict, out: dict, f=1) -> dict:
    """out += f (the operator with sparse columns ``cols``) vec."""
    for k, c in vec.items():
        c *= f
        for i, m in cols[k]:
            out[i] = out.get(i, 0) + c * m
    return out


def _qybe_numerators(R12: Op2, R13: Op2, R23: Op2):
    """R12 R13 R23 - R23 R13 R12 on V^(x)3, the one chain pair of the
    kernel.  Each operator is embedded once on its legs; column j of each
    chain starts as column j of the factor that acts first.

    Returns ``(cols, den)`` in the convention of :class:`Op2`: ``den`` is
    the positive integer ``R12.den * R13.den * R23.den``, the denominator
    of both chains, ``cols[j]`` maps each row i with a non-zero entry
    [i][j] of the difference to its integer numerator over ``den``, and
    the others are 0.
    """
    n = R12.n
    if R13.n != n or R23.n != n:
        raise DimensionMismatchError("operators live on different base spaces")
    L12, L13, L23 = (_leg_columns(R.cols, n, legs)
                     for R, legs in ((R12, 12), (R13, 13), (R23, 23)))
    out = []
    for j in range(n ** 3):
        acc = _apply(L12, _apply(L13, dict(L23[j]), {}), {})
        _apply(L23, _apply(L13, dict(L12[j]), {}), acc, -1)
        out.append({i: x for i, x in acc.items() if x})
    return out, R12.den * R13.den * R23.den


def _max_abs(diff):
    """The max-abs entry of a kernel result ``(cols, den)``, taken over the
    integer numerators: one ``Fraction(top, den)`` is built, ``Fraction(0)``
    when no entry is left.  ``den`` is positive, so the largest numerator
    is the largest entry."""
    cols, den = diff
    return Fraction(max((abs(x) for col in cols for x in col.values()),
                        default=0), den)


def yb_commutator(R: Op2, S: Op2, T: Op2) -> tuple:
    """Yang-Baxter commutator [R,S,T] = R12 S13 T23 - T23 S13 R12, the
    frozen rows of the kernel's ``(cols, den)``."""
    cols, den = _qybe_numerators(R, S, T)
    return _dense_view(
        [[(i, Fraction(x, den)) for i, x in col.items()] for col in cols])


# --- the five-equation system as a proof --------------------------------------
#
# Over the free algebra F<a,b,c>, with one ansatz triple t12, t13, t23 per leg
# pair, R12 R13 R23 - R23 R13 R12 maps a(x)b(x)c to
#
#   e1 1(x)abc(x)1 + e2 bc(x)1(x)a + e3 1(x)bc(x)a - e4 c(x)ab(x)1 - e5 c(x)1(x)ab
#
# with (e1, ..., e5) = funceq._system(t12, t13, t23) (tests/test_identity.py).
# The ansatz uses only the product and the unit, so it commutes with every
# unital algebra map, and F<a,b,c> maps onto e_a, e_b, e_c of any associative
# unital algebra: where all five e_k vanish, every residual entry is 0.  On
# the coalgebra transfer the residual is minus the transpose of the algebra's.

def colored_qybe_residual(family, u, v, w):
    """Max-abs-entry of R12(u,v) R13(u,w) R23(v,w) - R23(v,w) R13(u,w) R12(u,v).

    ``family`` must expose ``op(u, v) -> Op2``.  Zero exactly for genuine
    coloured Yang-Baxter operators.

    A table family (:class:`ybops.colored.ColoredFamily`) also exposes
    ``integer_triple``: on a valid algebra (``A.valid``) a function
    ``(u, v) -> (a, b, c)``, a positive integer multiple of the
    coefficients of ``op(u, v)``; on any other, None.  When the three
    triples solve the five-equation system the residual is ``Fraction(0)``
    by the identity above, and no operator is built.  Every other input
    (an invalid carrier, a family exposing only ``op``) goes to the sparse
    kernel, and so does a non-zero equation: a non-zero residual keeps its
    value.
    """
    return _family_residual(family, leg_colours(None, u, v, w))


def onepar_qybe_residual(family, x, z):
    """Residual of R12(x) R13(phi(x,z)) R23(z) - R23(z) R13(phi(x,z)) R12(x).

    ``family`` must expose ``op(x) -> Op2`` and ``phi(x, z) -> scalar``; the
    composition map is attached to the family so checks cannot mix a family
    with the wrong phi.  A family whose ``integer_triple`` is a function
    ``x -> (a, b, c)`` (:class:`ybops.onepar.OneParFamily` on a valid
    algebra) is decided by the five-equation system at x, phi(x,z), z, as
    in :func:`colored_qybe_residual`.
    ``phi(x, z)`` is evaluated before any operator or triple is built.
    """
    return _family_residual(family, leg_colours(family.phi, x, z))


def _family_residual(family, colours):
    """The QYBE residual of ``family.op(*c)`` on legs 12, 13, 23 for the
    three argument tuples c in ``colours``, decided by the triples
    ``family.integer_triple(*c)`` when the family has that function and
    it is not None; they are all drawn before any operator is built."""
    triple = getattr(family, "integer_triple", None)
    return _decided(triple and [triple(*c) for c in colours],
                    (family.op(*c) for c in colours))


def _decided(triples, ops):
    """``Fraction(0)`` when ``triples``, three integer triples or None,
    solve the five equations, else the max-abs entry of the kernel's QYBE
    difference of the three operators in ``ops``, which a lazy iterable
    builds only then.

    A table family's ``integer_triple`` is a positive integer multiple of
    its coefficients.  Each e_k is trilinear, every monomial taking one
    factor from each of t12, t13 and t23, so scaling each triple by a
    positive integer scales it by their non-zero product and the e_k that
    vanish are the same."""
    if triples is not None and not any(_system(*triples)):
        return Fraction(0)
    return _max_abs(_qybe_numerators(*ops))


def twist_compose(R: Op2) -> Op2:
    """Rhat = tau . R, turning QYBE solutions into braid-equation solutions.

    tau permutes the rows: row b*n+a of tau R is row a*n+b of R."""
    n = R.n
    return Op2(n=n, den=R.den,
               cols=[sorted(((i % n) * n + i // n, x) for i, x in col)
                     for col in R.cols])


def _transpose(R: Op2) -> Op2:
    """R^T, keeping ``den``: column i of R^T lists the (j, R[i][j]) in j
    order."""
    cols = [[] for _ in R.cols]
    for j, col in enumerate(R.cols):
        for i, x in col:
            cols[i].append((j, x))
    return Op2(n=R.n, cols=cols, den=R.den)


def braid_residual(rhat, x, y):
    """Braid residual with multiplicative parameter composition.

    The max-abs entry of Rh12(x) Rh23(x*y) Rh12(y) - Rh23(y) Rh12(x*y)
    Rh23(x), where ``rhat`` is a callable x -> Op2.  The composition
    mirrors phi(x,z)=x*z of the one-parameter families and is confirmed by
    the brute-force oracle.  x and y are read as rationals first, so x*y is
    exact, and ``rhat`` is called at x, x*y and y in that order.

    With R = tau Rhat and P13 the swap of the first and third factors,
    P12 P23 P12 = P13 gives

        Rh12(x) Rh23(xy) Rh12(y) - Rh23(y) Rh12(xy) Rh23(x)
            = -P13 [R12(y) R13(xy) R23(x) - R23(x) R13(xy) R12(y)],

    and P13 permutes entries, so the braid residual is the QYBE residual
    of tau Rhat at (y, xy, x), taken by the one kernel.
    """
    x, y = rational(x), rational(y)
    Rx, Rxy, Ry = rhat(x), rhat(x * y), rhat(y)
    return _max_abs(_qybe_numerators(*map(twist_compose, (Ry, Rxy, Rx))))


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


def tensor_basis_labels(n: int) -> list:
    base = power_basis_labels(n)
    return [a + "\u2297" + b for a in base for b in base]


def op_to_json(op) -> str:
    n = op.n
    return json.dumps({
        "n": n,
        "basis": tensor_basis_labels(n),
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
