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

A genuine residual is decided by the five equations on the integer
triples of its three legs, from one call to a family's ``integer_legs``
(None off an associative unital carrier, decided once per family): affine
forms on the colours' numerators, or integer powers of the bases of each
k x^u y^v for thm2 and remark2.  Each triple is a positive integer
multiple of the table's coefficients; the equations are trilinear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import lcm

from .algebra import Algebra, Coalgebra
from .errors import UnknownFamilyError
from .funceq import family, leg_colours
from .scalars import rational
from .tensorop import Op2, _transpose


def ansatz_op(A: Algebra, alpha, beta, gamma) -> Op2:
    """Operator a(x)b -> alpha 1(x)ab + beta ab(x)1 - gamma b(x)a on A(x)A.

    The coefficients are read as exact rationals, and cleared to integers
    a, b, g over d = lcm(den alpha, den beta, den gamma).  Each column is
    written from the algebra's integer template
    (:attr:`ybops.algebra.Algebra.ansatz_template`, built once per
    algebra): an entry is a ca + b cb + g cg over d d_A d_U, one
    multiply-add per term, at most 2n+1 non-zeros for a unit basis
    element."""
    alpha, beta, gamma = map(rational, (alpha, beta, gamma))
    den, template = A.ansatz_template
    d = lcm(alpha.denominator, beta.denominator, gamma.denominator)
    a, b, g = (x.numerator * (d // x.denominator)
               for x in (alpha, beta, gamma))
    return Op2(n=A.dim, den=d * den, cols=[
        [(r, x) for r, ca, cb, cg in col if (x := a * ca + b * cb + g * cg)]
        for col in template])


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


def _power(base, c):
    """A pair (n, d) to the int c: (n^c, d^c), or (d^-c, n^-c) if c < 0."""
    n, d = base
    return (n ** c, d ** c) if c >= 0 else (d ** -c, n ** -c)


def _cleared(quotients):
    """Three pairs (n, d) as ints over the lcm of the d; None if a d is 0."""
    (a, da), (b, db), (g, dg) = quotients
    if da and db and dg:
        den = lcm(da, db, dg)
        return a * (den // da), b * (den // db), g * (den // dg)


@lru_cache
def _integer_legs(F, params):
    """``colours -> [t12, t13, t23]`` of a table entry ``F`` at ``params``,
    from its :func:`_forms`: affine forms on each leg's two colours cleared
    over the product of their denominators, or each base raised to each
    integer colour once; where that fails, the table entry, leg by leg,
    raises what ``op`` raises."""
    forms, args = _forms(F, params), F.args(params)
    if F.integer_colours:
        def table(*colours):
            return _cleared([x.as_integer_ratio() for x in
                             F.coeffs(*args, *map(rational, colours))])

        def legs(u, v, w):
            try:
                (U, du), (V, dv), (W, dw) = (rational(u).as_integer_ratio(),
                                             rational(v).as_integer_ratio(),
                                             rational(w).as_integer_ratio())
            except (ArithmeticError, TypeError, ValueError):
                du = dv = dw = 0  # the table raises on the first failing leg
            if du == dv == dw == 1:
                t12, t13, t23 = quotients = [], [], []
                for (kn, kd), x, y in forms:
                    # x^u = a/b, x^v = c/d, y^v = e/f, y^w = g/h
                    (a, b), (c, d) = _power(x, U), _power(x, V)
                    (e, f), (g, h) = _power(y, V), _power(y, W)
                    t12.append((kn * a * e, kd * b * f))
                    t13.append((kn * a * g, kd * b * h))
                    t23.append((kn * c * g, kd * d * h))
                t = [*map(_cleared, quotients)]
                if None not in t:
                    return t
            return [table(*c) for c in leg_colours(None, u, v, w)]
        return legs
    (a0, b0, g0), (a1, b1, g1), *c2 = forms
    if not c2:
        phi = F.phi

        def form(X, d):
            return a0 * d + a1 * X, b0 * d + b1 * X, g0 * d + g1 * X

        def legs(x, z):
            (X, dx), (Z, dz) = (rational(x).as_integer_ratio(),
                                rational(z).as_integer_ratio())
            return [form(X, dx), form(phi(X, Z), phi(dx, dz)), form(Z, dz)]
        return legs
    [(a2, b2, g2)] = c2

    def form(d, U, V):
        return (a0 * d + a1 * U + a2 * V, b0 * d + b1 * U + b2 * V,
                g0 * d + g1 * U + g2 * V)

    def legs(u, v, w):
        (U, du), (V, dv), (W, dw) = (rational(u).as_integer_ratio(),
                                     rational(v).as_integer_ratio(),
                                     rational(w).as_integer_ratio())
        return [form(du * dv, U * dv, V * du), form(du * dw, U * dw, W * du),
                form(dv * dw, V * dw, W * dv)]
    return legs


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
    parameters, evaluated at colours: its operator, the integer triples of
    a QYBE's three legs, and its inverse.  A coalgebra family's operator
    is the transpose of the ansatz on the carrier's algebra, and every
    inverse is the ansatz on the opposite algebra.  The parameters are
    read as exact rationals once, here, into a read-only ``params``, and
    the colours at each evaluation.

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
    def integer_legs(self):
        """``colours -> [t12, t13, t23]``, ints: positive multiples of the
        coefficients ``op`` builds at the legs of
        :func:`ybops.funceq.leg_colours`, from one call, raising what ``op``
        raises on the first failing leg.  None, decided once, where the
        algebra is not associative and unital (``A.valid``), since no
        triple proves a residual there."""
        F = family(self.kind)
        return (_integer_legs(F, self.params) if self._algebra(F).valid
                else None)

    def __getstate__(self):
        # the cached closure is rebuilt at its first use
        return {k: x for k, x in vars(self).items() if k != "integer_legs"}

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
