"""Coloured (two-parameter) Yang-Baxter operator families.

Every operator here has the ansatz shape

    R(u,v)(a (x) b) = alpha * 1 (x) ab + beta * ab (x) 1 - gamma * b (x) a

for an associative algebra A, with the coefficients of each family taken
from :data:`ybops.funceq.FAMILIES`.  On a coalgebra C the transferred
operator is the transpose of the ansatz on the algebra dual to C,

    R_C(u,v)(c (x) d) = alpha * eps(c) Delta(d) + beta * eps(d) Delta(c)
                        - gamma * d (x) c,

and every inverse is the ansatz on the opposite algebra.

Every operator is exact.  A family reads its parameters as exact
rationals (:func:`ybops.scalars.rational`) when it is built, and its
colours when it is evaluated, as ``ansatz_op`` reads its coefficients and
an :class:`ybops.algebra.Algebra` its entries; a float converts exactly,
and a colour of an exponential family that is not an integer raises
``NonIntegerExponentError``.

A genuine residual is decided by the five equations on integer triples
(:func:`ybops.tensorop.colored_qybe_residual`), which every family on an
associative unital carrier gives as its ``integer_triple``, with no
``Fraction`` arithmetic; on any other carrier ``integer_triple`` is None,
decided once per family, and the kernel decides.  The six
families whose colours are not exponents (thm1, coalgebra_thm1, prop1,
prop1_coalgebra, prop2, remark_x) have coefficients affine in the colours:
their triple evaluates integer affine forms on the colours' numerators.
thm2 and remark2 are log-affine, each coefficient k x^u y^v: their triple
raises the integer numerators and denominators of x and y to the integer
colours.  Both are exact: each triple is a positive integer multiple of
the table's coefficients, and every equation is trilinear in the triples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import lcm

from .algebra import Algebra, Coalgebra
from .errors import UnknownFamilyError
from .funceq import family
from .scalars import rational
from .tensorop import Op2, _transpose


def ansatz_op(A: Algebra, alpha, beta, gamma) -> Op2:
    """Operator a(x)b -> alpha 1(x)ab + beta ab(x)1 - gamma b(x)a on A(x)A.

    The coefficients are read as exact rationals.  Column i*n+j is written
    straight from the non-zeros of the unit and of e_i e_j (``A.cleared``),
    at most 2n+1 entries for a unit basis element, with integer
    multiply-adds over the one denominator
    lcm(den alpha, den beta, den gamma) * d_A * d_U of the coefficients,
    the structure constants and the unit."""
    alpha, beta, gamma = map(rational, (alpha, beta, gamma))
    n = A.dim
    d_A, products, d_U, units = A.cleared
    d = lcm(alpha.denominator, beta.denominator, gamma.denominator)
    a, b, g = (x.numerator * (d // x.denominator)
               for x in (alpha, beta, gamma))
    g *= d_A * d_U
    alpha_units = [(k * n, a * x) for k, x in units]
    beta_units = [(k, b * x) for k, x in units]
    cols = []
    for i in range(n):
        for j in range(n):
            nonzero = products[i][j]
            acc = {}
            for r, x in alpha_units:
                for k, y in nonzero:
                    acc[r + k] = x * y
            for k, y in nonzero:
                for c, x in beta_units:
                    r = k * n + c
                    acc[r] = acc.get(r, 0) + y * x
            r = j * n + i
            acc[r] = acc.get(r, 0) - g
            cols.append([(r, x) for r, x in sorted(acc.items()) if x])
    return Op2(n=n, cols=cols, den=d * d_A * d_U)


@lru_cache
def _forms(F, params) -> tuple:
    """A table entry ``F`` at ``params``, read once off its coefficients c0
    at zero colours and c_j at unit colours: affine, the rows c0, c_j - c0
    times the lcm L of their denominators; exponential (k x^u y^v), the
    pairs (numerator, denominator > 0) of k = c0, x = c1/c0, y = c2/c0."""
    args, k = F.args(params), len(F.colours)
    # the coefficients at the zero colours, then at each unit colour
    c0, *at_units = (F.coeffs(*args, *(int(i == j) for j in range(k)))
                     for i in range(-1, k))
    rows = [c0, *([rational(x) / y if F.integer_colours else x - y
                   for x, y in zip(t, c0)] for t in at_units)]
    if F.integer_colours:
        return tuple(tuple(x.as_integer_ratio() for x in entry)
                     for entry in zip(*rows))
    den = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                 for row in rows)


class _Params(dict):
    """A family's parameters, name -> exact rational: a dict that cannot
    change, hashable, so that a family is."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a family's parameters are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return _Params, (dict(self),)


@dataclass(frozen=True)
class _TableFamily:
    """A family of :data:`ybops.funceq.FAMILIES` on a carrier at fixed
    parameters, evaluated at colours: its operator, its integer triple
    and its inverse.  A coalgebra family's operator is the transpose of the
    ansatz on the carrier's algebra, and every inverse is the ansatz on the
    opposite algebra.  The parameters are read as exact rationals once,
    here, into a read-only ``params``, and the colours at each
    evaluation.

    Each subclass names its ``system``, "coloured" or "one-parameter",
    and gives ``op``.  A kind of the other system raises
    ``UnknownFamilyError``; a carrier of the wrong kind (a ``Coalgebra``
    exactly for a coalgebra family, else an ``Algebra``) and parameter
    names other than the table's raise ``TypeError``."""

    kind: str
    carrier: object  # Algebra, or Coalgebra for a coalgebra family
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        F = family(self.kind)
        if ("coloured" if F.phi is None else "one-parameter") != self.system:
            raise UnknownFamilyError(
                f"{self.kind!r} is not a {self.system} family")
        carrier = Coalgebra if F.coalgebra else Algebra
        if not isinstance(self.carrier, carrier):
            raise TypeError(f"{self.kind!r} needs a carrier of type "
                            f"{carrier.__name__}, not "
                            f"{type(self.carrier).__name__}")
        if set(self.params) != set(F.params):
            raise TypeError(f"{self.kind!r} takes the parameters "
                            f"{F.params}, got {tuple(self.params)}")
        object.__setattr__(self, "params", _Params(
            (k, rational(x)) for k, x in self.params.items()))

    def _coeffs(self, colours):
        """The table entry and its ansatz coefficients at ``colours``, each
        read as an exact rational."""
        F = family(self.kind)
        return F, F.coeffs(*F.args(self.params), *map(rational, colours))

    def _algebra(self, F):
        """The algebra the ansatz is built on: the carrier, or the algebra
        of a coalgebra family's carrier."""
        return self.carrier.algebra if F.coalgebra else self.carrier

    def _build(self, F, coeffs, opposite: bool = False) -> Op2:
        A = self._algebra(F)
        R = ansatz_op(A.opposite if opposite else A, *coeffs)
        return _transpose(R) if F.coalgebra else R

    @cached_property
    def integer_triple(self):
        """``colours -> (a, b, c)``, ints: a positive multiple of the
        coefficients ``op`` builds at these colours.  None where the
        algebra is not associative and unital (``A.valid``, computed once
        per algebra), since no triple proves a residual there; decided
        once, at the first read.  A colour that ``op`` refuses raises the
        same error here.

        An exponential family raises the integer pairs of its
        :func:`_forms` to the colours (reversed for a negative colour) and
        clears each k x^u y^v over one lcm.  At colours U/D (, V/D) over
        their common denominator D, any other family gives c0 D + c1 U
        (+ c2 V) on its :func:`_forms`, L D times the table's triple."""
        F = family(self.kind)
        if not self._algebra(F).valid:
            return None
        if F.integer_colours:
            args, entries = F.args(self.params), _forms(F, self.params)

            def triple(u, v):
                # an int colour is read as it is, any other as its rational
                u, v = (c if type(c) is int else rational(c) for c in (u, v))
                t = []
                if u.denominator == v.denominator == 1:
                    u, v = u.numerator, v.numerator
                    U, V = abs(u), abs(v)
                    for (n, d), x, y in entries:
                        (xn, xd), (yn, yd) = (x[::-1] if u < 0 else x,
                                              y[::-1] if v < 0 else y)
                        n, d = n * xn ** U * yn ** V, d * xd ** U * yd ** V
                        t.append((n, d))
                if not (t and all(d for _, d in t)):
                    # a colour that is no integer, or a zero base to a
                    # negative colour: the table entry raises its error
                    t = [x.as_integer_ratio() for x in F.coeffs(*args, u, v)]
                (a, da), (b, db), (g, dg) = t
                den = lcm(da, db, dg)
                return a * (den // da), b * (den // db), g * (den // dg)
            return triple
        (a0, b0, g0), (a1, b1, g1), *c2 = _forms(F, self.params)
        if not c2:
            def triple(x):
                x = rational(x)
                d, X = x.denominator, x.numerator
                return a0 * d + a1 * X, b0 * d + b1 * X, g0 * d + g1 * X
            return triple
        [(a2, b2, g2)] = c2

        def triple(u, v):
            u, v = rational(u), rational(v)
            du, dv = u.denominator, v.denominator
            d = lcm(du, dv)
            U, V = u.numerator * (d // du), v.numerator * (d // dv)
            return (a0 * d + a1 * U + a2 * V, b0 * d + b1 * U + b2 * V,
                    g0 * d + g1 * U + g2 * V)
        return triple

    def __getstate__(self):
        # the cached integer_triple is a closure, rebuilt at its first use
        return {k: x for k, x in vars(self).items() if k != "integer_triple"}

    def inv(self, *colours) -> Op2:
        """Inverse of ``op``; SingularParameterError off its domain."""
        F = family(self.kind)
        if F.inverse is None:
            raise UnknownFamilyError(f"no inverse formula for {self.kind!r}")
        args = (*F.args(self.params), *map(rational, colours))
        F.check_regular(*args)
        return self._build(F, F.inverse(*args), opposite=True)


# --- the catalogue families -----------------------------------------------------

def thm1_op(A: Algebra, p, q, u, v) -> Op2:
    """The linear coloured family (Theorem 1)."""
    return ColoredFamily("thm1", A, {"p": p, "q": q}).op(u, v)


def thm1_inv(A: Algebra, p, q, u, v) -> Op2:
    """Inverse of thm1_op; needs pu != qv and qu != pv."""
    return ColoredFamily("thm1", A, {"p": p, "q": q}).inv(u, v)


def thm2_op(A: Algebra, p, q, s, u, v) -> Op2:
    """The exponential coloured family (Theorem 2)."""
    return ColoredFamily("thm2", A, {"p": p, "q": q, "s": s}).op(u, v)


def thm2_inv(A: Algebra, p, q, s, u, v) -> Op2:
    """Inverse of thm2_op; needs p, q, s all nonzero."""
    return ColoredFamily("thm2", A, {"p": p, "q": q, "s": s}).inv(u, v)


def remark2_op(A: Algebra, p, q, s, u, v) -> Op2:
    """The second exponential coloured family (Remark 2)."""
    return ColoredFamily("remark2", A, {"p": p, "q": q, "s": s}).op(u, v)


def coalgebra_colored_op(C: Coalgebra, p, q, u, v) -> Op2:
    """Coalgebra transfer of thm1_op."""
    return ColoredFamily("coalgebra_thm1", C, {"p": p, "q": q}).op(u, v)


class ColoredFamily(_TableFamily):
    """Immutable evaluator (u,v) -> Op2 for one of the coloured families."""

    system = "coloured"

    def op(self, u, v) -> Op2:
        return self._build(*self._coeffs((u, v)))
