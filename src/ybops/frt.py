"""Coloured RTT relations for the dimension-2 linear R-matrix.

Expands the entries of R(u,v) T1u T2v - T2v T1u R(u,v) as noncommutative
quadratic polynomials in the eight coloured generators a_u .. d_v and checks,
by exact linear algebra per parameter sample, that they span the same space
as the relation list r1-r12 (resp. its p=q limit).

The list gives one representative per u <-> v exchange orbit, so a
RelationSet is read symmetrically in the colour pair: span checks close the
set under the exchange first (see exchange_closure).  The bare twelve span a
12-dimensional space; four residual entries need the exchanged instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import DimensionMismatchError
from .scalars import rational
from .tensorop import Op2

LETTERS = ("a", "b", "c", "d")

# A generator is a (colour tag, letter) pair; a word is a tuple of generators.


class NCPoly:
    """Noncommutative polynomial: words of generators with rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for word, coeff in terms.items():
                c = rational(coeff)
                if c != 0:
                    self.terms[word] = c

    @classmethod
    def gen(cls, letter: str, tag: str) -> "NCPoly":
        return cls({((tag, letter),): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return NCPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return NCPoly({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            out = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    w = w1 + w2
                    out[w] = out.get(w, Fraction(0)) + c1 * c2
            return NCPoly(out)
        c = rational(other)
        return NCPoly({w: c * x for w, x in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

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


def swap_colours(poly: NCPoly, tag1: str = "u", tag2: str = "v") -> NCPoly:
    """Swap the colour tags of every generator (coefficients untouched)."""
    flip = {tag1: tag2, tag2: tag1}
    return NCPoly({tuple((flip.get(t, t), l) for t, l in w): c
                   for w, c in poly.terms.items()})


@dataclass(frozen=True)
class RelationSet:
    relations: tuple  # NCPoly, quadratic in the generators
    labels: tuple  # template names, usable to re-instantiate at swapped colours
    params: dict  # the (u, v, p, q, sigma) values used


def _gens(tag):
    return {l: NCPoly.gen(l, tag) for l in LETTERS}


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

    return {
        "r1": r1, "r2": r2, "r3": r3, "r4": r4, "r5": r5, "r6": r6,
        "r7": r7, "r8": r8, "r9": r9, "r10": r10, "r11": r11, "r12": r12,
        "pq1": pq1, "pq2": pq2, "pq3": pq3, "pq4": pq4, "pq5": pq5,
        "pq6": pq6, "pq7": pq7, "pq8": pq8, "pq9": pq9,
    }


_TEMPLATES = _relation_templates()


def _instantiate(labels: Iterable[str], u, v, p, q, sigma) -> RelationSet:
    u, v, p, q, sigma = (rational(x) for x in (u, v, p, q, sigma))
    g, h = _gens("u"), _gens("v")
    rels = tuple(_TEMPLATES[l](g, h, u, v, p, q, sigma) for l in labels)
    return RelationSet(relations=rels, labels=tuple(labels),
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
    each relation is imposed at both colour orders.  The closure appends, for
    every template, its instantiation at (v, u) with the generator tags
    swapped back; appended relations carry a trailing ``~`` in their label.
    Original relations keep their positions, so coefficient vectors reported
    against the closure agree with the plain list on the first entries.
    """
    p = rels.params
    scalars = (p["p"], p["q"], p["sigma"])
    g, h = _gens("u"), _gens("v")
    have = set(rels.labels)
    extra_rels, extra_labels = [], []
    for label in rels.labels:
        if label.endswith("~"):
            partner_label = label[:-1]
            partner = _TEMPLATES[partner_label](g, h, p["u"], p["v"], *scalars)
        else:
            partner_label = label + "~"
            partner = _TEMPLATES[label](h, g, p["v"], p["u"], *scalars)
        if partner_label not in have:
            have.add(partner_label)
            extra_rels.append(partner)
            extra_labels.append(partner_label)
    return RelationSet(relations=rels.relations + tuple(extra_rels),
                       labels=rels.labels + tuple(extra_labels),
                       params=dict(p))


def subset(rels: RelationSet, labels: Iterable[str]) -> RelationSet:
    keep = tuple(labels)
    idx = {l: i for i, l in enumerate(rels.labels)}
    return RelationSet(relations=tuple(rels.relations[idx[l]] for l in keep),
                       labels=keep, params=dict(rels.params))


def rtt_residual(Rm, u_tag: str = "u", v_tag: str = "v") -> list:
    """Entries of R T1u T2v - T2v T1u R as 16 noncommutative polynomials."""
    if isinstance(Rm, Op2):
        Rm = Rm.mat
    if len(Rm) != 4 or any(len(row) != 4 for row in Rm):
        raise DimensionMismatchError("RTT residual needs a 4x4 R-matrix")
    Tu = [[NCPoly.gen("a", u_tag), NCPoly.gen("b", u_tag)],
          [NCPoly.gen("c", u_tag), NCPoly.gen("d", u_tag)]]
    Tv = [[NCPoly.gen("a", v_tag), NCPoly.gen("b", v_tag)],
          [NCPoly.gen("c", v_tag), NCPoly.gen("d", v_tag)]]
    # (T1u T2v)_{(i1 i2),(j1 j2)} = Tu[i1][j1] Tv[i2][j2], and reversed order
    # for T2v T1u; word order encodes noncommutativity.
    t12 = [[Tu[i // 2][j // 2] * Tv[i % 2][j % 2] for j in range(4)]
           for i in range(4)]
    t21 = [[Tv[i % 2][j % 2] * Tu[i // 2][j // 2] for j in range(4)]
           for i in range(4)]
    out = []
    for i in range(4):
        for j in range(4):
            acc = NCPoly()
            for k in range(4):
                acc = acc + Rm[i][k] * t12[k][j] - t21[i][k] * Rm[k][j]
            out.append(acc)
    return out


# --- exact span arithmetic ------------------------------------------------------

def _sub_scaled(acc: dict, f, row: dict) -> None:
    """acc -= f * row, in place, dropping the entries that cancel."""
    for key, x in row.items():
        c = acc.get(key, 0) - f * x
        if c:
            acc[key] = c
        else:
            acc.pop(key, None)


class _Echelon:
    """Reduced row echelon form of a polynomial list, eliminated once.

    A row is a word -> coefficient dict with coefficient 1 on its least word,
    its pivot, which no other row contains; it carries its combination of the
    inputs.  Only inputs independent of the ones before them enter, so a
    member is written on the leftmost independent inputs, where it is unique.
    """

    def __init__(self, polys):
        self.rows = {}  # pivot word -> (terms, {input index: coefficient})
        self.size = 0
        for poly in polys:
            rest, comb = self._reduce(poly)
            if rest:
                pivot = min(rest)
                inv = 1 / rest[pivot]
                row = {w: c * inv for w, c in rest.items()}
                comb = {j: -c * inv for j, c in comb.items()}
                comb[self.size] = inv
                for other, other_comb in self.rows.values():
                    f = other.get(pivot)
                    if f:
                        _sub_scaled(other, f, row)
                        _sub_scaled(other_comb, f, comb)
                self.rows[pivot] = (row, comb)
            self.size += 1

    def _reduce(self, poly: NCPoly):
        """``poly`` less its part along the rows; that part on the inputs."""
        rest, comb = dict(poly.terms), {}
        for pivot, (row, row_comb) in self.rows.items():
            f = rest.get(pivot)
            if f:
                _sub_scaled(rest, f, row)
                _sub_scaled(comb, -f, row_comb)
        return rest, comb

    def solve(self, poly: NCPoly):
        """``(coefficients, None)`` for a member, else ``(None, residue)``:
        the canonical normal form of ``poly``, free of pivot words."""
        rest, comb = self._reduce(poly)
        if rest:
            return None, NCPoly(rest)
        return [comb.get(j, Fraction(0)) for j in range(self.size)], None


def span_dimension(polys) -> int:
    return len(_Echelon(polys).rows)


def in_span(poly: NCPoly, basis) -> Optional[list]:
    """Coefficients writing ``poly`` as a combination of ``basis``, or None.

    Solved exactly by one elimination; the coefficients sit on the
    leftmost independent basis polynomials and are zero elsewhere.
    """
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


def span_membership(entries, rels: RelationSet,
                    symmetric: bool = True) -> SpanReport:
    """Express each polynomial in the span of the relations, or certify failure.

    By default the relation set is read symmetrically in the colour pair
    (see exchange_closure), since the list gives one representative
    per u <-> v exchange orbit; coefficient positions for the original
    relations are unchanged by the closure.  Pass ``symmetric=False`` to
    check against the bare list.  The relations are eliminated once.
    """
    entries = list(entries)
    basis = _Echelon((exchange_closure(rels) if symmetric else rels).relations)
    solved = [basis.solve(e) for e in entries]
    return SpanReport(
        members=tuple(None if m is None else tuple(m) for m, _ in solved),
        residues=tuple(r for _, r in solved),
        entry_span_dim=span_dimension(entries),
        relation_span_dim=len(basis.rows))


def uv_symmetry_check(rels: RelationSet) -> bool:
    """True iff the relation set, read symmetrically in u <-> v, presents
    exactly the RTT residual at its own parameters.

    The exchange swaps generator colour tags and the colour values in the
    coefficients.  Checked: the exchange-closed span (exchange_closure) and
    the span of the 16 RTT residual entries of the dimension-2 linear
    R-matrix at ``rels.params`` coincide: every entry lies in the closed
    span and both spans have the same dimension.  A set that is too small to
    imply the swapped relations fails, because its closure then falls short
    of the residual span.

    Raises SingularParameterError when the R-matrix itself degenerates at
    the stored parameters (pu = qv or qu = pv).
    """
    from .algebra import quadratic_algebra
    from .colored import thm1_op
    from .funceq import FAMILIES

    p = rels.params
    FAMILIES["thm1"].check_regular(p["p"], p["q"], p["u"], p["v"])
    R = thm1_op(quadratic_algebra(p["sigma"]), p["p"], p["q"], p["u"], p["v"])
    rep = span_membership(rtt_residual(R.mat), rels)
    return rep.all_members and rep.entry_span_dim == rep.relation_span_dim
