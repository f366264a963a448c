"""References for the FRT layer: the RTT expansion by dense ``NCPoly``
products and the elimination over ``Fraction`` rows, as the library
computed them before it moved to integer rows, the exchange closure that
built each partner relation itself, and the relations and span report
built by calling the templates at each point, as the library did before
it compiled them; and two helpers only the tests use, a colour swap and a
relation subset.  Tests only."""

from fractions import Fraction
from typing import Iterable

from ybops.algebra import quadratic_algebra
from ybops.colored import thm1_op
from ybops.errors import DimensionMismatchError
from ybops.frt import (_TEMPLATES, _U, _V, NCPoly, RelationSet, SpanReport,
                       _gens, rtt_residual, span_membership)
from ybops.tensorop import Op2


def dense_rtt_residual(Rm) -> list:
    """Entries of R T1u T2v - T2v T1u R from the dense matrix, by 64
    ``NCPoly`` products."""
    if isinstance(Rm, Op2):
        Rm = Rm.mat
    if len(Rm) != 4 or any(len(row) != 4 for row in Rm):
        raise DimensionMismatchError("RTT residual needs a 4x4 R-matrix")
    Tu, Tv = ([[g["a"], g["b"]], [g["c"], g["d"]]]
              for g in (_gens("u"), _gens("v")))
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
    have = set(rels.labels)
    extra_rels, extra_labels = [], []
    for label in rels.labels:
        partner = label[:-1] if label.endswith("~") else label + "~"
        if partner not in have:
            have.add(partner)
            extra_rels.append(template_relation(
                partner, p["u"], p["v"], p["p"], p["q"], p["sigma"]))
            extra_labels.append(partner)
    return RelationSet(relations=rels.relations + tuple(extra_rels),
                       labels=rels.labels + tuple(extra_labels),
                       params=dict(p))


def template_relation(label: str, u, v, p, q, sigma) -> NCPoly:
    """The relation a label names, its template called on the generators:
    ``rN`` at (u, v), ``rN~`` at (v, u) with the generator tags swapped."""
    if label.endswith("~"):
        return _TEMPLATES[label[:-1]](_V, _U, v, u, p, q, sigma)
    return _TEMPLATES[label](_U, _V, u, v, p, q, sigma)


def template_relations(labels: Iterable[str], u, v, p, q,
                       sigma) -> RelationSet:
    """A relation set with each relation built by its template."""
    labels = tuple(labels)
    u, v, p, q, sigma = map(Fraction, (u, v, p, q, sigma))
    return RelationSet(
        relations=tuple(template_relation(l, u, v, p, q, sigma)
                        for l in labels),
        labels=labels,
        params={"u": u, "v": v, "p": p, "q": q, "sigma": sigma})


def template_span_report(rels: RelationSet) -> SpanReport:
    """The RTT span report of ``rels`` with the exchange partners built by
    their templates (:func:`exchange_closure`)."""
    p = rels.params
    R = thm1_op(quadratic_algebra(p["sigma"]), p["p"], p["q"], p["u"], p["v"])
    return span_membership(rtt_residual(R), exchange_closure(rels).relations)


def swap_colours(poly: NCPoly) -> NCPoly:
    """Swap colours u and v in every generator; coefficients are untouched."""
    flip = {"u": "v", "v": "u"}
    return NCPoly({tuple((flip.get(t, t), l) for t, l in w): c
                   for w, c in poly.terms.items()})


def subset(rels: RelationSet, labels: Iterable[str]) -> RelationSet:
    keep = tuple(labels)
    idx = {l: i for i, l in enumerate(rels.labels)}
    return RelationSet(relations=tuple(rels.relations[idx[l]] for l in keep),
                       labels=keep, params=dict(rels.params))
