"""Operators on V(x)V and V(x)V(x)V: exact matrix-free Yang-Baxter residuals
and matrix emitters.

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
from .funceq import _system, leg_colours
from .scalars import format_scalar, is_exact, over_one_denominator


class Op2:
    """An operator on V(x)V, n = dim V, held as its sparse columns.

    ``Op2(n=..., mat=...)`` is the one place where an n^2 x n^2 matrix
    becomes columns.  If every entry is an int or a Fraction, ``den`` is an
    integer and ``cols[j]`` lists the ``(row, numerator)`` pairs of the
    non-zero entries of column j in row order, each entry being
    ``Fraction(numerator, den)``.  Otherwise ``den`` is None and ``cols[j]``
    lists, as they are, the ``(row, entry)`` pairs of every entry that is
    not a Fraction zero, so a float 0.0 keeps its type.  An unlisted entry
    is ``Fraction(0)``.  ``mat`` is kept frozen when given, else built on
    first read and cached.  Operators are equal when ``n`` and ``mat`` are.
    """

    __slots__ = ("n", "cols", "den", "_mat")

    def __init__(self, n: int, mat=None, *, cols=None, den=None):
        m = n * n
        if mat is not None:
            mat = freeze(mat)
            if len(mat) != m or any(len(row) != m for row in mat):
                raise DimensionMismatchError("Op2 matrix must be n^2 x n^2")
            cols = [[(i, x) for i, x in enumerate(col)
                     if x or type(x) is not Fraction] for col in zip(*mat)]
            if all(is_exact(x) for col in cols for _, x in col):
                den, cols = over_one_denominator(
                    [[(i, x) for i, x in col if x] for col in cols])
        elif cols is None or len(cols) != m:
            raise DimensionMismatchError("Op2 needs n^2 columns")
        for name, value in (("n", n), ("cols", cols), ("den", den),
                            ("_mat", mat)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Op2 is immutable")

    def entries(self) -> list:
        """``cols`` with each exact numerator as its Fraction."""
        den = self.den
        if den is None:
            return self.cols
        return [[(i, Fraction(x, den)) for i, x in col] for col in self.cols]

    @property
    def mat(self) -> tuple:
        if self._mat is None:
            object.__setattr__(self, "_mat", _dense_view(self.entries()))
        return self._mat

    def __eq__(self, other):
        if other.__class__ is not Op2:
            return NotImplemented
        return self.n == other.n and self.mat == other.mat

    def __hash__(self):
        return hash((self.n, self.mat))

    def __repr__(self):
        return f"Op2(n={self.n!r}, mat={self.mat!r})"


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


def _dense_view(cols, zero=Fraction(0)) -> tuple:
    """The frozen rows of the square matrix whose column j lists the
    ``(row, entry)`` pairs in ``cols[j]``; every unlisted entry is ``zero``."""
    rows = [[zero] * len(cols) for _ in cols]
    for j, col in enumerate(cols):
        for i, x in col:
            rows[i][j] = x
    return freeze(rows)


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


# --- the residual kernel -----------------------------------------------------
#
# Every residual is P - Q for two products P, Q of leg operators on V^(x)3.
# Both are applied to each basis vector e_a(x)e_b(x)e_c through the sparse
# columns of the two-site operators, never as dense n^3 x n^3 matrices: an
# ansatz column has at most 2n+1 non-zeros, so a column of P costs about
# (2n+1)^3 products instead of the n^6 of a dense triple product.  Exact
# operators enter as their integer numerators; the product of a chain's
# denominators, made common to both chains, is the denominator of the
# difference, and the residual callers divide by it once, after taking the
# max-abs numerator.

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


def embed_leg(R: Op2, legs: int) -> Op3:
    """The dense view of a two-site operator on the given pair of factors of
    V^(x)3: the kernel's :func:`_leg_columns` of every entry of ``R.mat``,
    so each keeps its type, and ``Fraction(0)`` off the listed cells.

    R12 = R(x)I, R23 = I(x)R, and R13 is R(x)I conjugated by the (2 3)
    factor swap; the tests hold it to those dense definitions.
    """
    if legs not in (12, 13, 23):
        raise ValueError(f"legs must be one of 12, 13, 23, got {legs}")
    cols = [list(enumerate(col)) for col in zip(*R.mat)]
    return Op3(n=R.n, mat=_dense_view(_leg_columns(cols, R.n, legs)))


def _apply(cols, vec: dict, out: dict) -> dict:
    """out += (the operator with sparse columns ``cols``) vec."""
    for k, c in vec.items():
        for i, m in cols[k]:
            out[i] = out.get(i, 0) + c * m
    return out


def _chain_numerators(lhs, rhs):
    """P - Q, where P and Q are the products of the leg operators in ``lhs``
    and ``rhs``: sequences of ``(Op2, legs)`` read as written, so the last
    factor acts first.

    Returns ``(cols, den)`` in the convention of :class:`Op2`:
    ``cols[j]`` maps each row i with a non-zero (P - Q)[i][j] to its
    entry, and the others are 0.  When every operator is exact, ``den`` is
    a positive integer and each listed value is an integer numerator over
    it.  Otherwise ``den`` is None and the entries are combined as they
    are (float mode).
    """
    ops = list({id(R): R for R, _ in (*lhs, *rhs)}.values())
    n = ops[0].n
    if any(R.n != n for R in ops):
        raise DimensionMismatchError("operators live on different base spaces")
    exact = all(R.den is not None for R in ops)
    # in float mode an exact operator enters with its Fraction entries, and
    # a listed zero only carries its type into the dense view
    sparse = {id(R): R.cols if exact else
              [[(i, x) for i, x in col if x] for col in R.entries()]
              for R in ops}
    embedded = {(id(R), l): _leg_columns(sparse[id(R)], n, l)
                for R, l in (*lhs, *rhs)}
    chains = [[embedded[id(R), l] for R, l in reversed(chain)]
              for chain in (lhs, rhs)]
    dl, dr = (prod(R.den for R, _ in chain) if exact else 1
              for chain in (lhs, rhs))
    common = lcm(dl, dr)
    out = []
    for j in range(n ** 3):
        acc = {}
        for chain, f in zip(chains, (common // dl, -(common // dr))):
            vec = {j: f}
            for cols in chain[:-1]:
                vec = _apply(cols, vec, {})
            _apply(chain[-1], vec, acc)
        out.append({i: x for i, x in acc.items() if x})
    return out, common if exact else None


def _qybe_numerators(R12: Op2, R13: Op2, R23: Op2):
    return _chain_numerators(((R12, 12), (R13, 13), (R23, 23)),
                             ((R23, 23), (R13, 13), (R12, 12)))


def _max_abs(diff):
    """The max-abs entry of a kernel result ``(cols, den)``.  In exact mode
    it is taken over the integer numerators, and one ``Fraction(top, den)``
    is built, ``Fraction(0)`` when no entry is left: ``den`` is positive, so
    the largest numerator is the largest entry.  In float mode it is the
    largest listed entry as it is, or 0.0."""
    cols, den = diff
    entries = (abs(x) for col in cols for x in col.values())
    if den is None:
        return max(entries, default=0.0)
    return Fraction(max(entries, default=0), den)


def yb_commutator(R: Op2, S: Op2, T: Op2) -> Op3:
    """Yang-Baxter commutator [R,S,T] = R12 S13 T23 - T23 S13 R12, the
    dense view of the kernel's ``(cols, den)``."""
    cols, den = _qybe_numerators(R, S, T)
    if den is None:
        return Op3(n=R.n, mat=_dense_view([col.items() for col in cols], 0.0))
    return Op3(n=R.n, mat=_dense_view(
        [[(i, Fraction(x, den)) for i, x in col.items()] for col in cols]))


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

def _solves_system(triples) -> bool:
    """True when each of the three exact triples, drawn in turn from the
    iterable ``triples``, is not None and together they solve the five
    equations.  Stops at the first None, so a lazy iterable evaluates no
    further.

    The equations are evaluated on integers: each triple is cleared over the
    lcm of its three denominators.  Each e_k is trilinear, every monomial
    taking one factor from each of t12, t13 and t23, so clearing multiplies
    it by the non-zero product of the three lcms and the e_k that vanish are
    the same."""
    drawn = []
    for t in triples:
        if t is None:
            return False
        den = lcm(*(x.denominator for x in t))
        drawn.append(tuple(x.numerator * (den // x.denominator) for x in t))
    return not any(_system(*drawn))


def colored_qybe_residual(family, u, v, w):
    """Max-abs-entry of R12(u,v) R13(u,w) R23(v,w) - R23(v,w) R13(u,w) R12(u,v).

    ``family`` must expose ``op(u, v) -> Op2``.  Zero exactly for genuine
    coloured Yang-Baxter operators.

    A table family (:class:`ybops.colored.ColoredFamily`) also exposes
    ``exact_triple(u, v)``, the exact coefficients of ``op(u, v)`` on an
    exact and valid algebra (``A.valid``), else None.  When the three
    triples solve the five-equation system the residual is ``Fraction(0)``
    by the identity above, and no operator is built.  Every other input (a
    float coefficient or carrier, an invalid carrier, a family exposing
    only ``op``) goes to the sparse kernel, and so does a non-zero
    equation: a non-zero residual keeps its value and type.
    """
    return _family_residual(family, leg_colours(None, u, v, w))


def onepar_qybe_residual(family, x, z):
    """Residual of R12(x) R13(phi(x,z)) R23(z) - R23(z) R13(phi(x,z)) R12(x).

    ``family`` must expose ``op(x) -> Op2`` and ``phi(x, z) -> scalar``; the
    composition map is attached to the family so checks cannot mix a family
    with the wrong phi.  A family that also exposes ``exact_triple(x)``
    (:class:`ybops.onepar.OneParFamily`) is decided by the five-equation
    system at x, phi(x,z), z, as in :func:`colored_qybe_residual`.
    ``phi(x, z)`` is evaluated before any operator or triple is built.
    """
    return _family_residual(family, leg_colours(family.phi, x, z))


def _family_residual(family, colours):
    """The QYBE residual of ``family.op(*c)`` on legs 12, 13, 23 for the
    three argument tuples c in ``colours``, decided by the triples
    ``family.exact_triple(*c)`` when the family has them."""
    triple = getattr(family, "exact_triple", None)
    return _decided((None,) if triple is None else
                    (triple(*c) for c in colours),
                    (family.op(*c) for c in colours))


def _decided(triples, ops):
    """``Fraction(0)`` when the triples drawn from ``triples`` solve the
    five equations (:func:`_solves_system`), else the max-abs entry of the
    kernel's QYBE difference of the three operators in ``ops``, which a
    lazy iterable builds only then."""
    if _solves_system(triples):
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

    Computes Rh12(x) Rh23(x*y) Rh12(y) - Rh23(y) Rh12(x*y) Rh23(x) where
    ``rhat`` is a callable x -> Op2.  The composition mirrors phi(x,z)=x*z of
    the one-parameter families and is confirmed by the brute-force oracle.
    """
    Rx, Rxy, Ry = rhat(x), rhat(x * y), rhat(y)
    return _max_abs(_chain_numerators(((Rx, 12), (Rxy, 23), (Ry, 12)),
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
