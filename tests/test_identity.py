"""The identity that lets a residual be decided by the five-equation system.

Over the free algebra F<a,b,c>, give each leg pair of the ansatz
R(x(x)y) = alpha 1(x)xy + beta xy(x)1 - gamma y(x)x its own symbolic triple
t12, t13, t23.  Then R12 R13 R23 - R23 R13 R12 maps a(x)b(x)c to

    e1 1(x)abc(x)1 + e2 bc(x)1(x)a + e3 1(x)bc(x)a - e4 c(x)ab(x)1
    - e5 c(x)1(x)ab,   (e1, ..., e5) = funceq._system(t12, t13, t23).

``colored_qybe_residual`` and ``onepar_qybe_residual``, and so
``thm3_residuals``, return 0 without the kernel on the strength of this
computation, done here exactly with nine commuting symbols and words in a,
b, c.  They evaluate the system on each triple cleared to integers, which
the trilinearity of every e_k allows; that rule is checked here too.
"""

from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import LINEAR_COMPONENTS, cleared, linear_coeffs
from ybops.funceq import _system


class Poly:
    """A polynomial in commuting symbols with integer coefficients: a dict
    from sorted tuples of symbol names (a monomial) to non-zero ints."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {m: c for m, c in terms.items() if c}

    @staticmethod
    def of(x):
        return x if isinstance(x, Poly) else Poly({(): x})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in Poly.of(other).terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -Poly.of(other)

    def __rsub__(self, other):
        return Poly.of(other) - self

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in Poly.of(other).terms.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.terms == Poly.of(other).terms

    def __repr__(self):
        return f"Poly({self.terms!r})"


def _triple(legs):
    return tuple(Poly({(f"{name}{legs}",): 1})
                 for name in ("alpha", "beta", "gamma"))


T12, T13, T23 = _triple(12), _triple(13), _triple(23)


def _add(acc, key, coeff):
    total = acc.get(key, Poly({})) + coeff
    if total.terms:
        acc[key] = total
    else:
        acc.pop(key, None)


def _apply(triple, legs, tensor):
    """The ansatz with ``triple`` on tensor factors ``legs`` (12, 13 or 23)
    applied to ``tensor``: a dict from word triples ("" is the unit) to
    polynomial coefficients."""
    alpha, beta, gamma = triple
    i, j = divmod(legs, 10)
    i, j = i - 1, j - 1
    out = {}
    for words, coeff in tensor.items():
        x, y = words[i], words[j]
        for a, b, c in (("", x + y, alpha), (x + y, "", beta),
                        (y, x, -gamma)):
            key = list(words)
            key[i], key[j] = a, b
            _add(out, tuple(key), c * coeff)
    return out


def _chain(*factors):
    """The product of ``(triple, legs)`` factors, read as written (the last
    acts first), applied to a(x)b(x)c."""
    tensor = {("a", "b", "c"): Poly({(): 1})}
    for triple, legs in reversed(factors):
        tensor = _apply(triple, legs, tensor)
    return tensor


def free_residual():
    """(R12 R13 R23 - R23 R13 R12)(a(x)b(x)c) over F<a,b,c>."""
    out = _chain((T12, 12), (T13, 13), (T23, 23))
    for words, coeff in _chain((T23, 23), (T13, 13), (T12, 12)).items():
        _add(out, words, -coeff)
    return out


def word_tensors(e):
    """e1 1(x)abc(x)1 + e2 bc(x)1(x)a + e3 1(x)bc(x)a - e4 c(x)ab(x)1
    - e5 c(x)1(x)ab."""
    e1, e2, e3, e4, e5 = e
    out = {}
    for words, coeff in ((("", "abc", ""), e1), (("bc", "", "a"), e2),
                         (("", "bc", "a"), e3), (("c", "ab", ""), -e4),
                         (("c", "", "ab"), -e5)):
        _add(out, words, coeff)
    return out


def test_residual_is_the_system_times_five_word_tensors():
    e = _system(T12, T13, T23)
    assert all(ek.terms for ek in e)
    assert free_residual() == word_tensors(e)


def test_linear_relation_among_the_equations():
    e1, e2, e3, e4, e5 = _system(T12, T13, T23)
    assert e1 + e2 + e3 - e4 - e5 == 0


def _flip(k):
    def mutant(uv, uw, vw):
        e = list(_system(uv, uw, vw))
        e[k] = -e[k]
        return tuple(e)
    return mutant


@pytest.mark.parametrize("mutant", [
    *(_flip(k) for k in range(5)),
    lambda uv, uw, vw: _system(uw, uv, vw),
    lambda uv, uw, vw: _system(uv, vw, uw),
    lambda uv, uw, vw: _system(vw, uw, uv),
], ids=[*(f"negated-e{k + 1}" for k in range(5)), "swap-12-13",
        "swap-13-23", "swap-12-23"])
def test_a_mutated_system_fails_the_identity(mutant):
    assert free_residual() != word_tensors(mutant(T12, T13, T23))


# --- clearing denominators -----------------------------------------------

def test_each_equation_is_trilinear():
    # every monomial of each e_k takes one factor from each of t12, t13 and
    # t23, so clearing a triple's denominators scales every e_k by the same
    # non-zero integer, and the e_k that vanish stay the same
    for ek in _system(T12, T13, T23):
        assert ek.terms
        assert all(sorted(name[-2:] for name in monomial) == ["12", "13", "23"]
                   for monomial in ek.terms)


_scalars = st.one_of(
    st.sampled_from((0, 1, -1, Fraction(0))),
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                 max_denominator=10 ** 12))


@st.composite
def _exact_triples(draw):
    """(three exact triples mixing ints and Fractions, whether they lie on a
    solution component): random entries, prop2's shape (x, 1, 1), or the
    linear ansatz at (u,v), (u,w), (v,w) on one of the five components of
    the linear system's solution set."""
    shape = draw(st.sampled_from(("random", "x11", "component")))
    if shape == "component":
        make = draw(st.sampled_from(LINEAR_COMPONENTS))
        params = make(*draw(st.tuples(_scalars, _scalars, _scalars)))
        u, v, w = draw(st.tuples(_scalars, _scalars, _scalars))
        return [linear_coeffs(*params, *c)
                for c in ((u, v), (u, w), (v, w))], True
    if shape == "x11":
        return [(draw(_scalars), 1, 1) for _ in range(3)], False
    return [draw(st.tuples(_scalars, _scalars, _scalars))
            for _ in range(3)], False


@settings(max_examples=150, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(drawn=_exact_triples())
def test_cleared_decision_equals_the_rational_one(drawn):
    # each triple is cleared over the lcm of its denominators here, so the
    # decision sees ints only; budget well under 1 s
    triples, on_component = drawn
    want = not any(_system(*triples))
    assert (not any(_system(*map(cleared, triples)))) is want
    assert want or not on_component
