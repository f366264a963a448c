"""Cross-module invariants, partly driven by hypothesis."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ybops.algebra import dual_coalgebra, quadratic_algebra
from ybops.colored import coalgebra_colored_op, thm1_op
from ybops.frt import (NCPoly, RelationSet, in_span, rtt_residual,
                       span_dimension, span_membership)
from ybops.funceq import catalogue, eval_colored_system, scale_triple
from ybops.onepar import prop1_op
from ybops.tensorop import (Op2, colored_qybe_residual, freeze, mat_scale,
                            mat_transpose)

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
nonzero_fractions = fractions.filter(lambda f: f != 0)

A0 = quadratic_algebra(0)
A1 = quadratic_algebra(1)


class GaugeScaled:
    """A coloured family rescaled by a scalar gauge function phi(u, v)."""

    def __init__(self, base, phi):
        self.base = base
        self.phi = phi

    def op(self, u, v):
        R = self.base(u, v)
        return Op2(n=R.n, mat=freeze(mat_scale(self.phi(u, v), R.mat)))


class TestGaugeInvariance:
    @settings(max_examples=15, deadline=None)
    @given(u=fractions, v=fractions, w=fractions)
    def test_scaling_preserves_colored_qybe(self, u, v, w):
        fam = GaugeScaled(lambda a, b: thm1_op(A1, 1, 3, a, b),
                          lambda a, b: a + 2 * b + 1)
        assert colored_qybe_residual(fam, u, v, w) == 0

    @settings(max_examples=15, deadline=None)
    @given(u=fractions, v=fractions, w=fractions, c=nonzero_fractions)
    def test_functional_system_gauge(self, u, v, w, c):
        # constant rescaling of a solution triple stays a solution
        T = scale_triple(catalogue("thm1", p=Fraction(2), q=Fraction(5)), c)
        assert eval_colored_system(T, u, v, w) == (0, 0, 0, 0, 0)


class TestScalingRelation:
    @settings(max_examples=20, deadline=None)
    @given(q=fractions, u=fractions, v=nonzero_fractions)
    def test_two_colour_reduces_to_one_parameter(self, q, u, v):
        lhs = thm1_op(A0, 1, q, u, v)
        rhs = mat_scale(v, prop1_op(A0, q, u / v).mat)
        assert lhs.mat == freeze(rhs)


class TestDuality:
    @settings(max_examples=15, deadline=None)
    @given(p=fractions, q=fractions, u=fractions, v=fractions)
    def test_coalgebra_operator_is_transpose(self, p, q, u, v):
        C = dual_coalgebra(A1)
        R = thm1_op(A1, p, q, u, v)
        Rc = coalgebra_colored_op(C, p, q, u, v)
        assert Rc.mat == freeze(mat_transpose(R.mat))


class TestBilinearity:
    @settings(max_examples=15, deadline=None)
    @given(a=fractions, b=fractions)
    def test_ansatz_linear_in_coefficients(self, a, b):
        from ybops.colored import ansatz_op
        from ybops.tensorop import mat_sub, max_abs_entry
        R1 = ansatz_op(A1, a, 1, 2)
        R2 = ansatz_op(A1, b, 1, 2)
        Rsum = ansatz_op(A1, a + b, 2, 4)
        diff = mat_sub(Rsum.mat, [[x + y for x, y in zip(r1, r2)]
                                  for r1, r2 in zip(R1.mat, R2.mat)])
        assert max_abs_entry(diff) == 0


def _dense_rref(rows):
    """Dense reduced row echelon form over Fraction: (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _span_oracle(basis, targets):
    """Per target: (coefficients on the leftmost independent basis
    polynomials or None, residue terms); then both span dimensions."""
    words = sorted({w for p in basis + targets for w in p.terms})

    def vec(p):
        return [p.terms.get(w, Fraction(0)) for w in words]

    # columns: basis, then targets; a target is a member iff the rows
    # without a basis pivot vanish in its column
    cols, k = [vec(p) for p in basis + targets], len(basis)
    rows, pivots = _dense_rref(list(zip(*cols)))
    bpiv = [c for c in pivots if c < k]
    brows, wpiv = _dense_rref([vec(p) for p in basis])
    out = []
    for j, t in enumerate(targets, start=k):
        if any(row[j] != 0 for row in rows[len(bpiv):]):
            coeffs = None
        else:
            coeffs = [Fraction(0)] * k
            for r, c in enumerate(bpiv):
                coeffs[c] = rows[r][j]
        rest = vec(t)
        for row, c in zip(brows, wpiv):
            f = rest[c]
            rest = [x - f * y for x, y in zip(rest, row)]
        out.append((coeffs, {w: x for w, x in zip(words, rest) if x != 0}))
    entry_dim = len(_dense_rref([vec(t) for t in targets])[1])
    return out, entry_dim, len(wpiv)


# RTT entries plus two words outside their span, so targets fall both
# inside and outside a drawn basis
_POOL = rtt_residual(thm1_op(A1, 1, 3, 2, 1)) + [
    NCPoly.gen("b", "u") * NCPoly.gen("b", "u"),
    NCPoly.gen("a", "v") * NCPoly.gen("d", "u")]
_combos = st.lists(st.tuples(st.integers(0, len(_POOL) - 1), fractions),
                   max_size=3).map(
    lambda terms: sum((c * _POOL[i] for i, c in terms), NCPoly()))


@st.composite
def _span_cases(draw):
    basis = draw(st.lists(_combos, max_size=6))
    if basis and draw(st.booleans()):  # a repeat, rescaled
        basis.append(draw(fractions) * draw(st.sampled_from(basis)))
    targets = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = draw(st.lists(fractions, min_size=len(basis),
                               max_size=len(basis)))
        inside = sum((c * b for c, b in zip(coeffs, basis)), NCPoly())
        targets.append(inside + draw(_combos) if draw(st.booleans())
                       else inside)
    return basis, targets


class TestSpanElimination:
    @settings(max_examples=40, deadline=None)
    @given(case=_span_cases())
    def test_matches_dense_oracle(self, case):
        basis, targets = case
        want, entry_dim, rel_dim = _span_oracle(basis, targets)
        rels = RelationSet(tuple(basis),
                           tuple(f"x{i}" for i in range(len(basis))), {})
        rep = span_membership(targets, rels, symmetric=False)
        assert (rep.entry_span_dim, rep.relation_span_dim) == (entry_dim,
                                                               rel_dim)
        assert span_dimension(basis) == rel_dim
        for t, (coeffs, residue), member, got in zip(
                targets, want, rep.members, rep.residues):
            assert in_span(t, basis) == coeffs
            assert member == (None if coeffs is None else tuple(coeffs))
            assert (got is None) == (coeffs is not None)
            if got is not None:
                assert got.terms == residue
