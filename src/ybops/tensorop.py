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
from functools import lru_cache
from itertools import chain, islice

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
# (2n+1)^3 products instead of the n^6 of a dense triple product.  Each
# leg's columns are one per-operator base list, offset once per index of
# the spectator site.
#
# Which products a column takes depends only on where the operators'
# non-zeros are, not on their values.  So the chains are walked once per
# sparsity pattern, over the positions of the entries, and each column of
# the difference becomes one straight-line function of the three operators'
# numerator lists: a local per intermediate entry, then one integer sum per
# accumulator row, chain 1 added and chain 2 subtracted, the rows in the
# walk's first-touch order.  A pattern is compiled at its first call and
# kept in a bounded cache; nothing is compiled at import.  Both chains hold
# the same three operators, so the product of their denominators is the
# denominator of the difference, and the residual callers divide by it
# once, after taking the max-abs numerator.

# patterns kept compiled at once.  At n = 5 an ansatz pattern (at most
# 2n+1 non-zeros per column) compiles in ~0.1-0.2 s and keeps ~1.6 MB of
# code, so eight keep ~13 MB; a fully dense one takes ~4.4 s and ~97 MB,
# so the worst case at n = 5 is ~780 MB
_PATTERNS = 8


def _leg_columns(cols: list, n: int, legs: int) -> list:
    """Sparse columns of a two-site operator on legs 12, 13 or 23 of V^(x)3,
    from its own sparse columns ``[(row, entry), ...]``."""
    # index a*n + b of V(x)V goes to a*s + b*t, s and t the strides of the
    # two legs; spectator index e adds e*r, r the third stride, to the
    # column and to every row of the base list
    m = n * n
    s, t = {12: (m, n), 13: (m, 1), 23: (n, 1)}[legs]
    r = m + n + 1 - s - t
    at = [(i // n) * s + (i % n) * t for i in range(m)]
    out = [None] * (m * n)
    for k, col in enumerate(cols):
        out[at[k]] = base = [(at[i], x) for i, x in col]
        for e in range(r, n * r, r):
            out[at[k] + e] = [(i + e, x) for i, x in base]
    return out


def embed_leg(R: Op2, legs: int) -> tuple:
    """The frozen n^3 x n^3 rows of a two-site operator on the given pair of
    factors of V^(x)3: the kernel's :func:`_leg_columns` of ``R.cols``, each
    entry over ``R.den``, and ``Fraction(0)`` off the listed cells.

    R12 = R(x)I, R23 = I(x)R, and R13 is R(x)I conjugated by the (2 3)
    factor swap; the tests hold it to those dense definitions.
    """
    if legs not in (12, 13, 23):
        raise ValueError(f"legs must be one of 12, 13, 23, got {legs}")
    cols = [[(i, Fraction(x, R.den)) for i, x in col] for col in R.cols]
    return _dense_view(_leg_columns(cols, R.n, legs))


@lru_cache(maxsize=_PATTERNS)
def _compiled(pattern: tuple):
    """``(rows, columns)`` of a sparsity pattern ``(n, lengths, rows, ...)``:
    each operator's column lengths and the rows of its entries in column
    order, for R12, R13 and R23.  ``columns[j](a, b, c)``, given their
    numerators in the same order, returns the numerators of column j of
    the difference at the rows ``rows[j]``."""
    n, legs = pattern[0], []
    for name, lens, rows, leg in zip("abc", pattern[1::2], pattern[2::2],
                                     (12, 13, 23)):
        at = iter(enumerate(rows))
        legs.append(_leg_columns([[(i, f"{name}[{p}]") for p, i in
                                   islice(at, k)] for k in lens], n, leg))
    L12, L13, L23 = legs
    rows, columns = [], []
    for j in range(n ** 3):
        lines, acc = ["def column(a, b, c):"], {}
        for first, last, sign in ((L23, L12, "+"), (L12, L23, "-")):
            mid = {}
            for k, c in first[j]:
                for i, x in L13[k]:
                    mid.setdefault(i, []).append(f"{c}*{x}")
            for k, terms in mid.items():
                if last[k]:
                    m = f"m{len(lines)}"
                    lines.append(f" {m}={'+'.join(terms)}")
                for i, x in last[k]:
                    acc.setdefault(i, []).append(f"{sign}{m}*{x}")
        exprs = ("".join(t).removeprefix("+") + "," for t in acc.values())
        lines.append(f" return ({''.join(exprs)})")
        exec(compile("\n".join(lines), f"<qybe column {j}>", "exec"),
             namespace := {})
        rows.append(tuple(acc))
        columns.append(namespace["column"])
    return tuple(rows), tuple(columns)


def _qybe_columns(R12: Op2, R13: Op2, R23: Op2):
    """R12 R13 R23 - R23 R13 R12 on V^(x)3, the one entry point of the
    kernel: ``(rows, values, den)``, where column j of the difference has
    ``Fraction(values[j][t], den)`` at row ``rows[j][t]`` and 0 at every
    other row, ``den`` being the positive integer
    ``R12.den * R13.den * R23.den``; a listed value may be 0."""
    n = R12.n
    if R13.n != n or R23.n != n:
        raise DimensionMismatchError("operators live on different base spaces")
    pattern, values = [n], []
    for R in (R12, R13, R23):
        # lists, not iterators, feed zip and tuple: CPython builds a tuple
        # from an iterator at a guessed size and resizes it; released, it
        # goes on the free list of its final size, which such builds never
        # draw from, so the free lists would fill (about 0.7 MB of peak RSS
        # on verify-dims)
        rows, vals = [*zip(*[*chain.from_iterable(R.cols)])] or ((), ())
        pattern += tuple([len(col) for col in R.cols]), rows
        values.append(vals)
    rows, columns = _compiled(tuple(pattern))
    return rows, [f(*values) for f in columns], R12.den * R13.den * R23.den


def _qybe_max_abs(R12: Op2, R13: Op2, R23: Op2) -> Fraction:
    """The max-abs entry of the kernel's difference: one ``Fraction(top,
    den)``, top the largest numerator in absolute value (``den`` > 0)."""
    _, values, den = _qybe_columns(R12, R13, R23)
    return Fraction(max(map(abs, chain.from_iterable(values)), default=0),
                    den)


def yb_commutator(R: Op2, S: Op2, T: Op2) -> tuple:
    """Yang-Baxter commutator [R,S,T] = R12 S13 T23 - T23 S13 R12, the
    frozen rows of the kernel's non-zero values over its ``den``."""
    rows, values, den = _qybe_columns(R, S, T)
    return _dense_view([[(i, Fraction(x, den)) for i, x in zip(r, v) if x]
                        for r, v in zip(rows, values)])


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
# Each e_k is trilinear, every monomial taking one factor from each triple,
# so positive integer multiples of the coefficients vanish where the
# coefficients do.

# the one decided zero, shared: a Fraction cannot change
_ZERO = Fraction(0)


def colored_qybe_residual(family, u, v, w):
    """Max-abs-entry of R12(u,v) R13(u,w) R23(v,w) - R23(v,w) R13(u,w) R12(u,v).

    ``family`` must expose ``op(u, v) -> Op2``.  Zero exactly for genuine
    coloured Yang-Baxter operators.  A table family
    (:class:`ybops.colored.ColoredFamily`) also exposes ``integer_legs``:
    None off a valid algebra (``A.valid``), else ``(u, v, w) -> [t12, t13,
    t23]``, positive integer multiples of the coefficients of ``op`` at
    (u,v), (u,w) and (v,w).  Legs that solve the five equations give
    ``Fraction(0)`` by the identity above, and no operator is built; every
    other input goes to the sparse kernel, so a non-zero residual keeps
    its value.
    """
    legs = getattr(family, "integer_legs", None)
    if legs is not None and not any(_system(*legs(u, v, w))):
        return _ZERO
    return _qybe_max_abs(*[family.op(*c)
                           for c in leg_colours(None, u, v, w)])


def onepar_qybe_residual(family, x, z):
    """Residual of R12(x) R13(phi(x,z)) R23(z) - R23(z) R13(phi(x,z)) R12(x).

    ``family`` must expose ``op(x) -> Op2`` and ``phi(x, z) -> scalar``; the
    composition map is attached to the family so checks cannot mix a family
    with the wrong phi.  Its ``integer_legs``, if any, give the triples at
    x, phi(x,z) and z and decide it as in :func:`colored_qybe_residual`;
    where the kernel decides, ``phi(x, z)`` is evaluated before any
    operator is built.
    """
    legs = getattr(family, "integer_legs", None)
    if legs is not None and not any(_system(*legs(x, z))):
        return _ZERO
    return _qybe_max_abs(*[family.op(*c)
                           for c in leg_colours(family.phi, x, z)])


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
    return _qybe_max_abs(*map(twist_compose, (Ry, Rxy, Rx)))


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
