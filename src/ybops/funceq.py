"""The functional-equation systems behind the ansatz operators.

The coloured system (five equations in alpha, beta, gamma as functions of two
colours) and its one-parameter counterpart (arguments x, z and phi(x,z)).
Every catalogue family's coefficient triple solves the matching system
identically; each equation is homogeneous of degree three in the triple.
The family table :data:`FAMILIES` is the one place that lists the families
and their coefficients; operators, inverses and the CLI read it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

from .errors import SingularParameterError, UnknownFamilyError
from .scalars import reciprocal, scalar_pow


@dataclass(frozen=True)
class CoeffTriple:
    """The coefficients of an ansatz operator as one function of the colours.

    ``coeffs(*colours)`` gives (alpha, beta, gamma), the shape
    :attr:`Family.coeffs` has at fixed parameters.  A triple carrying a
    composition map ``phi`` is one-parameter (a function of one colour);
    one without is coloured (a function of two colours).
    """

    coeffs: Callable
    phi: Optional[Callable] = None


def scale_triple(T: CoeffTriple, c) -> CoeffTriple:
    return replace(T, coeffs=lambda *a: tuple(c * x for x in T.coeffs(*a)))


def _system(uv, uw, vw):
    """The five cubic equations shared by both systems.

    Each argument is a triple (alpha, beta, gamma) at one of the three leg
    arguments of :func:`leg_colours`, which alone tells the systems apart.

    ``search._compile_objective`` traces this function into the search's
    float objective, so a rewrite must keep every float operation's
    operands and their order: a product reused as computed here keeps the
    bits, a reassociated sum does not, and the search reports pin them.
    """
    a_uv, b_uv, g_uv = uv
    a_uw, b_uw, g_uw = uw
    a_vw, b_vw, g_vw = vw
    e1 = ((b_vw - g_vw) * (a_uv * b_uw - a_uw * b_uv)
          + (a_uv - g_uv) * (a_vw * b_uw - a_uw * b_vw))
    e2 = (b_vw * (b_uv - g_uv) * (a_uw - g_uw)
          + (a_vw - g_vw) * (b_uw * g_uv - b_uv * g_uw))
    e3 = (a_uv * b_vw * (a_uw - g_uw) + a_vw * g_uw * (g_uv - a_uv)
          + g_vw * (a_uv * g_uw - a_uw * g_uv))
    e4 = (a_uv * b_vw * (b_uw - g_uw) + b_vw * g_uw * (g_uv - b_uv)
          + g_vw * (b_uv * g_uw - b_uw * g_uv))
    e5 = (a_uv * (a_vw - g_vw) * (b_uw - g_uw)
          + (b_uv - g_uv) * (a_uw * g_vw - a_vw * g_uw))
    return (e1, e2, e3, e4, e5)


def leg_colours(phi, *colours) -> tuple:
    """The arguments of the QYBE's operators on legs 12, 13 and 23: (u, v),
    (u, w), (v, w) at colours (u, v, w), or (x,), (phi(x, z),), (z,) at
    (x, z) for a composition map ``phi``."""
    if phi is None:
        u, v, w = colours
        return (u, v), (u, w), (v, w)
    x, z = colours
    return (x,), (phi(x, z),), (z,)


def eval_colored_system(T: CoeffTriple, u, v, w) -> tuple:
    """The five coloured-system residuals at colours (u, v, w)."""
    if T.phi is not None:
        raise ValueError("coloured system needs a two-colour triple")
    return _system(*(T.coeffs(*a) for a in leg_colours(None, u, v, w)))


def eval_onepar_system(T: CoeffTriple, x, z) -> tuple:
    """The five one-parameter residuals at (x, z) with middle argument phi(x,z)."""
    if T.phi is None:
        raise ValueError("one-parameter system needs a triple carrying phi")
    return _system(*(T.coeffs(*a) for a in leg_colours(T.phi, x, z)))


# --- the family table ------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """Everything the package knows about one catalogue family.

    ``coeffs(*params, *colours)`` gives the ansatz coefficients
    (alpha, beta, gamma); colours are (u, v) for coloured families and (x,)
    for one-parameter families, which also fix their composition map
    ``phi``.  ``inverse`` gives, in the same argument order, the ansatz
    coefficients of the inverse operator built on the opposite algebra; it
    is valid wherever ``singular`` is false.  ``coalgebra`` families act on
    a coalgebra carrier by the transposed operator.  ``integer_colours``
    marks families whose colours are exponents, so exact checks sample
    integers; each coefficient is then log-affine, k x^u y^v, and a
    family's ``integer_legs`` (:class:`ybops.colored.ColoredFamily`)
    raises integer numerators and denominators to the colours.  Every
    other family's coefficients are affine in its colours, which its
    ``integer_legs`` reads as integer forms.  ``shorthand`` names
    parameter combinations reported beside the matrix form.
    """

    name: str
    params: tuple
    coeffs: Callable
    phi: Optional[Callable] = None
    inverse: Optional[Callable] = None
    singular: Optional[Callable] = None
    coalgebra: bool = False
    integer_colours: bool = False
    shorthand: Optional[Callable] = None

    @property
    def colours(self) -> tuple:
        return ("u", "v") if self.phi is None else ("x",)

    def args(self, params: dict) -> tuple:
        """The parameter values in table order, from a name -> value dict."""
        return tuple(params[n] for n in self.params)

    def check_regular(self, *args) -> None:
        """Raise SingularParameterError where the operator is not invertible."""
        if self.singular is not None and self.singular(*args):
            values = ", ".join(f"{n}={a}" for n, a in
                               zip(self.params + self.colours, args))
            raise SingularParameterError(
                f"{self.name} operator is singular at {values}")


def _thm2(p, q, s, u, v):
    pu, sv = scalar_pow(p, u), scalar_pow(s, v)
    return pu * scalar_pow(q, v), pu * sv, pu * sv


def _remark2(p, q, s, u, v):
    pu, qv = scalar_pow(p, u), scalar_pow(q, v)
    return pu * qv, scalar_pow(s, u) * qv, pu * qv


def _thm1_inverse(p, q, u, v):
    r = reciprocal((q * u - p * v) * (p * u - q * v))
    return q * (u - v) * r, p * (u - v) * r, reciprocal(p * u - q * v)


def _prop1_inverse(q, x):
    r = reciprocal((q * x - 1) * (x - q))
    return q * (x - 1) * r, (x - 1) * r, reciprocal(x - q)


_THM1 = Family(
    "thm1", ("p", "q"),
    coeffs=lambda p, q, u, v: (p * (u - v), q * (u - v), p * u - q * v),
    inverse=_thm1_inverse,
    singular=lambda p, q, u, v: p * u == q * v or q * u == p * v,
    shorthand=lambda p, q, u, v: {"lambda": u - v, "t": q - p, "t'": q + p,
                                  "w": q * u - p * v, "w'": q * v - p * u})
_PROP1 = Family(
    "prop1", ("q",),
    coeffs=lambda q, x: (x - 1, q * (x - 1), x - q),
    phi=lambda x, z: x * z,
    inverse=_prop1_inverse,
    singular=lambda q, x: x == q or q * x == 1)

FAMILIES = {f.name: f for f in (
    _THM1,
    # exponential families: colours are exponents; thm2's inverse
    # coefficients are its own at the negated colours
    Family("thm2", ("p", "q", "s"), coeffs=_thm2,
           inverse=lambda p, q, s, u, v: _thm2(p, q, s, -u, -v),
           singular=lambda p, q, s, u, v: p == 0 or q == 0 or s == 0,
           integer_colours=True),
    Family("remark2", ("p", "q", "s"), coeffs=_remark2,
           integer_colours=True),
    replace(_THM1, name="coalgebra_thm1", coalgebra=True),
    _PROP1,
    replace(_PROP1, name="prop1_coalgebra", coalgebra=True),
    Family("prop2", (), coeffs=lambda x: (x, 1, 1), phi=lambda x, z: z,
           inverse=lambda x: (reciprocal(x), 1, 1),
           singular=lambda x: x == 0),
    Family("remark_x", (), coeffs=lambda x: (1, x, 1), phi=lambda x, z: x),
)}


def family(kind: str) -> Family:
    """The table entry of ``kind``; UnknownFamilyError if there is none."""
    if kind not in FAMILIES:
        raise UnknownFamilyError(f"unknown family {kind!r}")
    return FAMILIES[kind]


def catalogue(kind: str, **params) -> CoeffTriple:
    """Coefficient triple of a known solution family, from :data:`FAMILIES`.

    Coloured kinds: thm1(p,q), thm2(p,q,s), remark2(p,q,s) and the
    coalgebra transfer coalgebra_thm1(p,q).  One-parameter kinds: prop1(q)
    and prop1_coalgebra(q) with phi=x*z, prop2 with phi=z, remark_x with
    phi=x.
    """
    F = family(kind)
    return CoeffTriple(partial(F.coeffs, *F.args(params)), phi=F.phi)


# --- the search's linear coloured ansatz as a triple ------------------------------

def linear_colored_triple(params) -> CoeffTriple:
    """alpha = p*u - p'*v, beta = q*u - q'*v, gamma = r*u - r'*v."""
    p, pp, q, qp, r, rp = params
    return CoeffTriple(lambda u, v: (p * u - pp * v, q * u - qp * v,
                                     r * u - rp * v))
