"""Coloured RTT relations for the dimension-2 linear R-matrix.

Expands the entries of R(u,v) T1u T2v - T2v T1u R(u,v) as noncommutative
quadratic polynomials in the eight coloured generators a_u .. d_v and checks,
by exact linear algebra per parameter sample, that they span the same space
as the relation list r1-r12 (resp. its p=q limit), on integer rows as
stored, over one denominator per polynomial.

The list gives one representative per u <-> v exchange orbit, so a
RelationSet is read symmetrically in the colour pair: the RTT report closes
the set under the exchange first (see exchange_closure).  The bare twelve
span 12 dimensions; four residual entries need the exchanged instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional

from .algebra import quadratic_algebra
from .colored import thm1_op
from .errors import DimensionMismatchError
from .funceq import FAMILIES
from .scalars import over_one_denominator, rational
from .tensorop import Op2

LETTERS = ("a", "b", "c", "d")

# A generator is a (colour tag, letter) pair; a word is a tuple of generators.


class NCPoly:
    """Noncommutative polynomial: words of generators with rational
    coefficients, stored as integer numerators ``num`` over one non-zero
    integer ``den``; ``terms``, the ``Fraction`` view, is built when read."""

    def __init__(self, terms=None):
        pairs = [(w, c) for w, x in (terms or {}).items() if (c := rational(x))]
        den, (pairs,) = over_one_denominator([pairs])
        self.num, self.den = dict(pairs), den

    @classmethod
    def _of(cls, num: dict, den: int = 1) -> "NCPoly":
        """``num`` over ``den`` taken as they are."""
        poly = cls.__new__(cls)
        poly.num, poly.den = num, den
        return poly

    @classmethod
    def gen(cls, letter: str, tag: str) -> "NCPoly":
        return cls._of({((tag, letter),): 1})

    @cached_property
    def terms(self) -> dict:
        return {w: Fraction(c, self.den) for w, c in self.num.items()}

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        den = lcm(self.den, other.den)
        return _collect(chain(
            ((w, c * (den // self.den)) for w, c in self.num.items()),
            ((w, c * (den // other.den)) for w, c in other.num.items())), den)

    def __neg__(self):
        return NCPoly._of({w: -c for w, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            return _collect(((w1 + w2, c1 * c2)
                             for w1, c1 in self.num.items()
                             for w2, c2 in other.num.items()),
                            self.den * other.den)
        c = rational(other)
        return _collect(((w, c.numerator * x) for w, x in self.num.items()),
                        c.denominator * self.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, NCPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for w, c in sorted(self.terms.items()):
            mono = "*".join(f"{letter}_{tag}" for tag, letter in w) or "1"
            bits.append(f"({c})*{mono}")
        return " + ".join(bits)


def _collect(pairs, den: int) -> NCPoly:
    """The sum of the (word, numerator) pairs over ``den``, dropping what
    cancels."""
    out = {}
    for w, c in pairs:
        out[w] = out.get(w, 0) + c
    return NCPoly._of({w: c for w, c in out.items() if c}, den)


@dataclass(frozen=True)
class RelationSet:
    relations: tuple  # NCPoly, quadratic in the generators
    labels: tuple  # template names, usable to re-instantiate at swapped colours
    params: dict  # the (u, v, p, q, sigma) values used


def _gens(tag):
    return {l: NCPoly.gen(l, tag) for l in LETTERS}


_U, _V = _gens("u"), _gens("v")  # the eight generators, built once


def _comm(x, y):
    return x * y - y * x


def _anti(x, y):
    return x * y + y * x


def _relation_templates():
    """Builders for (r1)-(r12) and the p=q limit list, keyed by label.

    Each takes the generator dicts ``g`` (colour u) and ``h`` (colour v) and
    the scalars; calling it at ``(h, g, v, u, ...)`` gives its u <-> v
    exchange, since the tag swap is a ring automorphism.
    """
    def r1(g, h, u, v, p, q, s):
        return p * (u - v) * _comm(g["a"], h["d"]) \
            - (q - p) * (u * (h["c"] * g["b"]) - v * (g["c"] * h["b"]))

    def r2(g, h, u, v, p, q, s):
        return p * (u - v) * (g["a"] * h["c"]) \
            - (q * u - p * v) * (h["c"] * g["a"]) \
            + (q - p) * v * (g["c"] * h["a"])

    def r3(g, h, u, v, p, q, s):
        return (q * u - p * v) * (g["a"] * h["b"]) \
            - p * (u - v) * (h["b"] * g["a"]) \
            - (q - p) * u * (h["a"] * g["b"]) \
            + s * (q + p) * (u - v) * (g["c"] * h["d"])

    def r4(g, h, u, v, p, q, s):
        return p * (u - v) * (h["b"] * g["c"]) \
            - q * (u - v) * (g["c"] * h["b"]) \
            - (q - p) * u * (g["a"] * h["d"] - h["a"] * g["d"])

    def r5(g, h, u, v, p, q, s):
        return (q * v - p * u) * (g["c"] * h["d"]) \
            - p * (u - v) * (h["d"] * g["c"]) \
            - (q - p) * u * (h["c"] * g["d"])

    def r6(g, h, u, v, p, q, s):
        return p * (u - v) * (g["b"] * h["d"]) \
            - (q * v - p * u) * (h["d"] * g["b"]) \
            + (q - p) * v * (g["d"] * h["b"]) \
            - s * (q + p) * (u - v) * (h["c"] * g["a"])

    def r7(g, h, u, v, p, q, s):
        return (q * u - p * v) * _comm(g["a"], h["a"]) \
            + s * (q + p) * (u - v) * (g["c"] * h["c"])

    def r8(g, h, u, v, p, q, s):
        return (q * u - p * v) * (g["b"] * h["b"]) \
            - (q * v - p * u) * (h["b"] * g["b"]) \
            - s * (q + p) * (u - v) * (h["a"] * g["a"] - g["d"] * h["d"])

    def r9(g, h, u, v, p, q, s):
        return (q * v - p * u) * (g["c"] * h["c"]) \
            - (q * u - p * v) * (h["c"] * g["c"])

    def r10(g, h, u, v, p, q, s):
        return _comm(g["d"], h["d"]) + _comm(g["a"], h["a"])

    def r11(g, h, u, v, p, q, s):
        return _comm(g["a"], h["d"]) - _comm(h["a"], g["d"])

    def r12(g, h, u, v, p, q, s):
        return q * (v * (g["c"] * h["b"]) - u * (h["c"] * g["b"])) \
            - p * (v * (h["b"] * g["c"]) - u * (g["b"] * h["c"]))

    # p = q limit list (coefficients no longer involve p, q, u, v)
    def pq1(g, h, u, v, p, q, s):
        return _comm(g["a"], h["d"])

    def pq2(g, h, u, v, p, q, s):
        return _comm(g["a"], h["c"])

    def pq3(g, h, u, v, p, q, s):
        return _comm(h["b"], g["c"])

    def pq4(g, h, u, v, p, q, s):
        return _anti(g["c"], h["d"])

    def pq5(g, h, u, v, p, q, s):
        return _anti(g["c"], h["c"])

    def pq6(g, h, u, v, p, q, s):
        return _comm(g["a"], h["b"]) + 2 * s * (g["c"] * h["d"])

    def pq7(g, h, u, v, p, q, s):
        return _anti(g["b"], h["d"]) - 2 * s * (h["c"] * g["a"])

    def pq8(g, h, u, v, p, q, s):
        return _comm(g["a"], h["a"]) + 2 * s * (g["c"] * h["c"])

    def pq9(g, h, u, v, p, q, s):
        return _anti(g["b"], h["b"]) - 2 * s * (h["a"] * g["a"] - g["d"] * h["d"])

    return dict(locals())  # every local is a template


_TEMPLATES = _relation_templates()


@cache
def _compiled(label: str) -> dict:
    """``{word: ((monomial, integer), ...)}`` for the relation a label
    names.  ``rN~`` names the u <-> v exchange of ``rN``: its template at
    (v, u) with the generator tags swapped back.  The template runs once,
    on the scalars u, v, p, q, sigma as letters of tag "#"; a monomial is
    the bitmask of the scalars in a term, by index.  Every template is
    multilinear in the scalars, which stand left of the generators, with
    integer coefficients."""
    x = [NCPoly.gen(i, "#") for i in range(5)]
    g, h = _U, _V
    if label.endswith("~"):
        g, h, x[0], x[1] = h, g, x[1], x[0]
    table = {}
    for (*scalars, y, z), c in _TEMPLATES[label.rstrip("~")](
            g, h, *x).terms.items():
        mono = sum(1 << i for _, i in scalars)
        assert c.denominator == 1 and mono.bit_count() == len(scalars)
        assert {t for t, _ in scalars} <= {"#"} and "#" not in (y[0], z[0])
        row = table.setdefault((y, z), {})
        row[mono] = row.get(mono, 0) + c.numerator
    return {w: tuple(row.items()) for w, row in table.items()}


def _relations(labels: Iterable[str], u, v, p, q, sigma) -> tuple:
    """The relations the labels name, at the given scalars.  With D the
    product of the five denominators, a monomial times D is the product of
    the numerators it holds and the denominators it lacks, so every
    coefficient is an integer over D, and each relation is stored so."""
    values = [1]  # monomial -> its value times D
    for x in map(rational, (u, v, p, q, sigma)):
        values = ([c * x.denominator for c in values]
                  + [c * x.numerator for c in values])
    out = []
    for label in labels:
        terms = {}
        for word, row in _compiled(label).items():
            if c := sum(k * values[m] for m, k in row):
                terms[word] = c
        out.append(NCPoly._of(terms, values[0]))
    return tuple(out)


def _instantiate(labels: Iterable[str], u, v, p, q, sigma) -> RelationSet:
    u, v, p, q, sigma = (rational(x) for x in (u, v, p, q, sigma))
    return RelationSet(relations=_relations(labels, u, v, p, q, sigma),
                       labels=tuple(labels),
                       params={"u": u, "v": v, "p": p, "q": q, "sigma": sigma})


def claimed_relations(u, v, p, q, sigma) -> RelationSet:
    """The twelve commutation relations r1-r12, instantiated at scalars."""
    return _instantiate([f"r{i}" for i in range(1, 13)], u, v, p, q, sigma)


def pq_limit_relations(sigma, u, v) -> RelationSet:
    """The nine p=q limit relations plus (r10) and (r11), which survive as is."""
    labels = [f"pq{i}" for i in range(1, 10)] + ["r10", "r11"]
    return _instantiate(labels, u, v, 1, 1, sigma)


def exchange_closure(rels: RelationSet) -> RelationSet:
    """Close a relation set under the colour exchange u <-> v.

    A relation list written for a generic colour pair is read symmetrically:
    each relation is imposed at both colour orders.  The closure appends the
    exchange partner of every label it lacks, ``rN~`` for ``rN`` and ``rN``
    for ``rN~``, in the order of the labels, at ``rels.params`` as they are.
    Original relations keep their positions, so coefficient vectors reported
    against the closure agree with the plain list on the first entries.
    """
    p = rels.params
    have = set(rels.labels)
    extra = []
    for label in rels.labels:
        partner = label[:-1] if label.endswith("~") else label + "~"
        if partner not in have:
            have.add(partner)
            extra.append(partner)
    return RelationSet(
        relations=rels.relations + _relations(
            extra, p["u"], p["v"], p["p"], p["q"], p["sigma"]),
        labels=rels.labels + tuple(extra), params=dict(p))


# the words of (T1u T2v)[k][j] and (T2v T1u)[i][k], T = [[a, b], [c, d]] in
# either colour: (T1u T2v)_{(k1 k2),(j1 j2)} = Tu[k1][j1] Tv[k2][j2], and
# reversed order for T2v T1u; word order encodes noncommutativity.
_T12 = [[(("u", LETTERS[k // 2 * 2 + j // 2]),
          ("v", LETTERS[k % 2 * 2 + j % 2])) for j in range(4)]
        for k in range(4)]
_T21 = [[(("v", LETTERS[i % 2 * 2 + k % 2]),
          ("u", LETTERS[i // 2 * 2 + k // 2])) for k in range(4)]
        for i in range(4)]


def rtt_residual(R: Op2) -> list:
    """Entries of R T1u T2v - T2v T1u R as 16 noncommutative polynomials,
    for an ``Op2`` R with n = 2.

    Entry (i, j) is the sum over k of R[i][k] (T1u T2v)[k][j] and
    -(T2v T1u)[i][k] R[k][j].  Each product is one word with an entry of R
    for coefficient and no two of them share a word, so each entry R[a][b]
    of the sparse columns is read once and written into row a and column
    b of the result, stored over ``R.den``."""
    if not isinstance(R, Op2) or R.n != 2:
        raise DimensionMismatchError("RTT residual needs an Op2 with n = 2")
    out = [{} for _ in range(16)]
    for b, col in enumerate(R.cols):
        for a, c in col:
            for j in range(4):
                out[4 * a + j][_T12[b][j]] = c
            for i in range(4):
                out[4 * i + b][_T21[i][a]] = -c
    return [NCPoly._of(terms, R.den) for terms in out]


# --- exact span arithmetic ------------------------------------------------------

def _combine(a: int, x: dict, f: int, y: dict) -> dict:
    """a*x - f*y for integer dicts, dropping the entries that cancel."""
    out = {key: a * c for key, c in x.items()}
    for key, c in y.items():
        c = out.get(key, 0) - f * c
        if c:
            out[key] = c
        else:
            del out[key]
    return out


class _Echelon:
    """Row echelon form of a polynomial list, eliminated over the integers.

    A row is a primitive word -> integer dict whose least word is its pivot
    and which holds no pivot of an earlier row, so reducing by the rows in
    insertion order leaves no pivot word; it carries its combination of the
    inputs, in integers too.  Inputs enter as stored, ``num`` over ``den``,
    and rows combine fraction-free, a*x - f*row, so a remainder is an
    integer multiple of the one a Fraction elimination leaves, with the
    same least word.  Only inputs independent of the ones before them
    enter, so a member is written on the leftmost independent inputs, where
    it is unique; Fractions are built only for what :meth:`solve` returns.
    """

    def __init__(self, polys):
        self.rows = {}  # pivot word -> (terms, {input index: coefficient})
        self.size = 0
        for poly in polys:
            scale, rest, comb = self._reduce(poly)
            if rest:
                comb[self.size] = scale
                g = gcd(*rest.values(), *comb.values())
                self.rows[min(rest)] = ({w: c // g for w, c in rest.items()},
                                        {j: c // g for j, c in comb.items()})
            self.size += 1

    def _reduce(self, poly: NCPoly):
        """``(s, s*poly + y, y on the inputs)`` for an integer s: s*poly + y
        has integer coefficients and no pivot word, y lies in the span."""
        scale, rest, comb = poly.den, poly.num, {}
        for pivot, (row, row_comb) in self.rows.items():
            if f := rest.get(pivot):
                a = row[pivot]
                rest = _combine(a, rest, f, row)
                comb = _combine(a, comb, f, row_comb)
                scale *= a
        return scale, rest, comb

    def solve(self, poly: NCPoly):
        """``(coefficients, None)`` for a member, else ``(None, residue)``:
        the canonical normal form of ``poly``, free of pivot words."""
        return self._solution(*self._reduce(poly))

    def _solution(self, scale, rest, comb):
        """:meth:`solve`'s result from :meth:`_reduce`'s."""
        if rest:
            return None, NCPoly._of(rest, scale)
        zero = Fraction(0)
        return [Fraction(-comb[j], scale) if j in comb else zero
                for j in range(self.size)], None


def _rank(vectors) -> int:
    """Rank of integer dicts, by _Echelon's elimination with no combinations."""
    rows = {}
    for rest in vectors:
        for pivot, row in rows.items():
            if f := rest.get(pivot):
                rest = _combine(row[pivot], rest, f, row)
        if rest:
            rows[min(rest)] = rest
    return len(rows)


def span_dimension(polys) -> int:
    """Dimension of the span of ``polys``: the rank of their numerators."""
    return _rank(poly.num for poly in polys)


def in_span(poly: NCPoly, basis) -> Optional[list]:
    """Coefficients writing ``poly`` on ``basis``, by one exact elimination,
    or None; they sit on the leftmost independent basis polynomials and are
    zero elsewhere."""
    return _Echelon(basis).solve(poly)[0]


@dataclass(frozen=True)
class SpanReport:
    members: tuple  # per entry: coefficient tuple, or None
    residues: tuple  # per entry: NCPoly left over when not a member, else None
    entry_span_dim: int
    relation_span_dim: int

    @property
    def all_members(self) -> bool:
        return all(m is not None for m in self.members)

    @property
    def same_span(self) -> bool:
        """Every entry is a member and both spans have the same dimension,
        so the relations span exactly the entries' space."""
        return self.all_members and self.entry_span_dim == self.relation_span_dim


def span_membership(entries, basis) -> SpanReport:
    """Express each polynomial in the span of ``basis``, read as given and
    eliminated once, or certify failure.  If all are members,
    ``entry_span_dim`` is the rank of their integer combinations, which lie
    on independent basis polynomials; else :func:`span_dimension`."""
    entries = list(entries)
    echelon = _Echelon(basis)
    reduced = [echelon._reduce(e) for e in entries]
    solved = [echelon._solution(*r) for r in reduced]
    combs = [comb for _, rest, comb in reduced if not rest]
    return SpanReport(
        members=tuple(None if m is None else tuple(m) for m, _ in solved),
        residues=tuple(r for _, r in solved),
        entry_span_dim=(_rank(combs) if len(combs) == len(entries)
                        else span_dimension(entries)),
        relation_span_dim=len(echelon.rows))


def rtt_span_report(rels: RelationSet) -> SpanReport:
    """:func:`span_membership` of the 16 RTT residual entries of the
    dimension-2 linear R-matrix at ``rels.params``, in exchange_closure(rels).

    Raises SingularParameterError when the R-matrix itself degenerates at
    the stored parameters (pu = qv or qu = pv).
    """
    p = rels.params
    FAMILIES["thm1"].check_regular(p["p"], p["q"], p["u"], p["v"])
    R = thm1_op(quadratic_algebra(p["sigma"]), p["p"], p["q"], p["u"], p["v"])
    return span_membership(rtt_residual(R), exchange_closure(rels).relations)


def uv_symmetry_check(rels: RelationSet) -> bool:
    """True iff the relation set, read symmetrically in u <-> v, presents
    exactly the RTT residual at its own parameters.

    The exchange swaps generator colour tags and the colour values in the
    coefficients.  Checked: the exchange-closed span (exchange_closure) and
    the span of the RTT residual entries (:func:`rtt_span_report`)
    coincide.  A set that is too small to imply the swapped relations
    fails, because its closure then falls short of the residual span.
    SingularParameterError on the singular locus, as for the report.
    """
    return rtt_span_report(rels).same_span
