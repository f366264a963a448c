"""Cross-module invariants, partly driven by hypothesis."""

from fractions import Fraction
from itertools import product
from types import SimpleNamespace

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ybops.algebra import (Algebra, Coalgebra, dual_coalgebra,
                           opposite_algebra, poly_quotient, quadratic_algebra,
                           validate)
from ybops.colored import ansatz_op, coalgebra_colored_op, thm1_op
from ybops.frt import (NCPoly, RelationSet, in_span, rtt_residual,
                       span_dimension, span_membership)
from ybops.funceq import (FAMILIES, catalogue, eval_colored_system,
                          eval_onepar_system, scale_triple)
from ybops.onepar import prop1_op
from ybops.tensorop import (Op2, _chain_difference, _qybe_difference,
                            braid_residual, colored_qybe_residual, embed_leg,
                            freeze, identity_op2, mat_mul, mat_scale,
                            mat_sub, mat_transpose, max_abs_entry,
                            yb_commutator)

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


@st.composite
def _family_points(draw):
    """A table family, parameters and colours: nonzero parameters and
    integer colours for the exponential (integer-colour) families."""
    kind = draw(st.sampled_from(sorted(FAMILIES)))
    F = FAMILIES[kind]
    param = nonzero_fractions if F.integer_colours else fractions
    colour = st.integers(-3, 3) if F.integer_colours else fractions
    params = {name: draw(param) for name in F.params}
    colours = [draw(colour) for _ in range(3 if F.phi is None else 2)]
    return kind, params, colours


class TestCatalogueFamilies:
    @settings(max_examples=80, deadline=None)
    @given(case=_family_points())
    def test_solves_its_system(self, case):
        # every table family, the coalgebra kinds included, through catalogue
        kind, params, colours = case
        F = FAMILIES[kind]
        T = catalogue(kind, **params)
        evaluate = eval_colored_system if T.phi is None else eval_onepar_system
        assert evaluate(T, *colours) == (0, 0, 0, 0, 0)
        at = colours[:2 if T.phi is None else 1]
        assert T.coeffs(*at) == F.coeffs(*F.args(params), *at)


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


def _coalgebra_law_counts(C):
    """Violated coassociativity and left/right counit identities of C, read
    off ``comult`` and ``counit`` directly: the reference for validating
    the dual algebra."""
    n, d, eps = C.dim, C.comult, C.counit
    counts = dict.fromkeys(("coassociativity", "left-counit",
                            "right-counit"), 0)
    # (Delta (x) id) Delta = (id (x) Delta) Delta on e_i, component (j,k,l)
    for i, j, k, l in product(range(n), repeat=4):
        lhs = sum(d[i][m][l] * d[m][j][k] for m in range(n))
        rhs = sum(d[i][j][m] * d[m][k][l] for m in range(n))
        counts["coassociativity"] += lhs != rhs
    for i, k in product(range(n), repeat=2):
        want = int(k == i)
        counts["left-counit"] += sum(eps[j] * d[i][j][k]
                                     for j in range(n)) != want
        counts["right-counit"] += sum(d[i][k][j] * eps[j]
                                      for j in range(n)) != want
    return counts


@st.composite
def _coalgebras(draw):
    """A 1-3-dimensional Coalgebra(Algebra(...)): a polynomial quotient
    (valid) or a random integer tensor and unit, perhaps with one entry
    changed."""
    n = draw(st.integers(1, 3))
    small = st.integers(-1, 1)
    if draw(st.booleans()):
        A = poly_quotient(draw(st.lists(st.integers(-2, 2), min_size=n,
                                        max_size=n)) + [1])
        c = [[list(row) for row in plane] for plane in A.structconst]
        unit = list(A.unit)
    else:
        c = draw(st.lists(st.lists(st.lists(small, min_size=n, max_size=n),
                                   min_size=n, max_size=n),
                          min_size=n, max_size=n))
        unit = draw(st.lists(small, min_size=n, max_size=n))
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        c[i][j][k] += draw(st.sampled_from((-1, 1)))
    return Coalgebra(Algebra(dim=n, unit=tuple(unit), structconst=tuple(
        tuple(map(tuple, plane)) for plane in c)))


class TestCoalgebraLaws:
    @settings(max_examples=150, deadline=None)
    @given(C=_coalgebras())
    def test_dual_algebra_laws_are_coalgebra_laws(self, C):
        # coassociativity <-> associativity, counit <-> unit laws
        law = {"associativity": "coassociativity",
               "left-unit": "left-counit", "right-unit": "right-counit"}
        counts = dict.fromkeys(law.values(), 0)
        for name, _, _ in validate(C.algebra).violations:
            counts[law[name]] += 1
        assert counts == _coalgebra_law_counts(C)


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


# --- the residual kernel against dense leg embeddings ------------------------

_entries = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# The dense reference takes ~0.4 s at n = 3, so shrinking a failure entry by
# entry would run for minutes; a failure is reported as drawn.
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@st.composite
def _dense_ops(draw, count=3):
    """``count`` dense operators on one carrier dimension, n = 2 or 3, with
    rational entries of mixed denominators, zeros included."""
    n = draw(st.sampled_from([2, 3]))
    row = st.lists(_entries, min_size=n * n, max_size=n * n)
    mat = st.lists(row, min_size=n * n, max_size=n * n)
    return [Op2(n=n, mat=freeze(draw(mat))) for _ in range(count)]


def _dense(chain):
    """The product of the dense ``embed_leg`` matrices of a leg chain."""
    out = embed_leg(*chain[0]).mat
    for R, legs in chain[1:]:
        out = mat_mul(out, embed_leg(R, legs).mat)
    return out


def _dense_difference(lhs, rhs):
    return mat_sub(_dense(lhs), _dense(rhs))


def _qybe_chains(R, S, T):
    return ([(R, 12), (S, 13), (T, 23)], [(T, 23), (S, 13), (R, 12)])


def _braid_chains(Rx, Rxy, Ry):
    return ([(Rx, 12), (Rxy, 23), (Ry, 12)], [(Ry, 23), (Rxy, 12), (Rx, 23)])


def _all_fractions(mat):
    return all(type(x) is Fraction for row in mat for x in row)


class TestResidualKernel:
    @settings(max_examples=8, deadline=None, phases=_NO_SHRINK)
    @given(ops=_dense_ops())
    def test_qybe_chain_matches_dense(self, ops):
        R, S, T = ops
        want = _dense_difference(*_qybe_chains(R, S, T))
        got = yb_commutator(R, S, T).mat
        assert got == freeze(want) and _all_fractions(got)
        table = {(0, 1): R, (0, 2): S, (1, 2): T}
        fam = SimpleNamespace(op=lambda u, v: table[u, v])
        res = colored_qybe_residual(fam, 0, 1, 2)
        assert res == max_abs_entry(want) and type(res) is Fraction

    @settings(max_examples=6, deadline=None, phases=_NO_SHRINK)
    @given(ops=_dense_ops())
    def test_braid_chain_matches_dense(self, ops):
        want = _dense_difference(*_braid_chains(*ops))
        cols, zero = _chain_difference(*_braid_chains(*ops))
        m = len(cols)
        assert [[cols[j].get(i, zero) for j in range(m)]
                for i in range(m)] == want
        table = dict(zip((2, 6, 3), ops))  # x = 2, y = 3, x*y = 6
        res = braid_residual(table.__getitem__, 2, 3)
        assert res == max_abs_entry(want) and type(res) is Fraction

    def test_vanishing_residual_is_exact_zero(self):
        I = identity_op2(2)
        res = braid_residual(lambda x: I, 2, 3)
        assert res == 0 and type(res) is Fraction

    @settings(max_examples=3, deadline=None, phases=_NO_SHRINK)
    @given(ops=_dense_ops())
    def test_float_entries_agree_within_tolerance(self, ops):
        # summation order differs from the dense product, so float results
        # agree to rounding, not bit for bit; entries are below 5 in size
        fl = [Op2(n=R.n, mat=freeze([[float(x) for x in row]
                                     for row in R.mat])) for R in ops]
        got = yb_commutator(*fl).mat
        want = _dense_difference(*_qybe_chains(*fl))
        assert max_abs_entry(mat_sub(got, want)) <= 1e-9


# --- the sparse ansatz build against the dense n^4 definition ----------------

def _dense_ansatz(A, alpha, beta, gamma):
    """``ansatz_op`` as the dense n^4 loop over every cell, the reference
    for the sparse build: values and types cell by cell."""
    n = A.dim
    unit = A.unit
    mat = [[Fraction(0)] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            col = i * n + j
            prod = A.structconst[i][j]
            for a in range(n):
                for b in range(n):
                    mat[a * n + b][col] += (alpha * unit[a] * prod[b]
                                            + beta * prod[a] * unit[b])
            mat[j * n + i][col] -= gamma
    return Op2(n=n, mat=freeze(mat))


def _upper_triangular():
    """The 2x2 upper triangular matrices, basis E11, E12, E22, with int
    entries: not commutative, and the unit E11 + E22 is not a basis
    element."""
    table = {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}  # E_ab E_bc = E_ac
    return Algebra(dim=3, unit=(1, 0, 1), structconst=tuple(
        tuple(tuple(int(table.get((i, j)) == k) for k in range(3))
              for j in range(3)) for i in range(3)))


def _change_basis(A, s, t):
    """A in the basis f_i = P e_i, P = (I + s E_01)(I + t E_10) C with C a
    cyclic permutation: the unit is no longer e_0."""
    n = A.dim

    def elementary(i, j, x):  # I + x E_ij
        return [[Fraction(int(r == c)) + (x if (r, c) == (i, j) else 0)
                 for c in range(n)] for r in range(n)]

    cycle = [[Fraction(int(r == (c + 1) % n)) for c in range(n)]
             for r in range(n)]
    P = mat_mul(mat_mul(elementary(0, 1, s), elementary(1, 0, t)), cycle)
    Q = mat_mul(mat_mul(mat_transpose(cycle), elementary(1, 0, -t)),
                elementary(0, 1, -s))
    c = A.structconst
    sc = tuple(tuple(tuple(
        sum(P[a][i] * P[b][j] * c[a][b][k] * Q[l][k]
            for a in range(n) for b in range(n) for k in range(n))
        for l in range(n)) for j in range(n)) for i in range(n))
    unit = tuple(sum(Q[l][k] * A.unit[k] for k in range(n)) for l in range(n))
    return Algebra(dim=n, structconst=sc, unit=unit)


@st.composite
def _carriers(draw):
    """A valid 2-3-dimensional algebra: a polynomial quotient or the upper
    triangular matrices, perhaps in a basis whose unit is not e_0, perhaps
    opposite; sometimes with some of its entries turned into floats."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 3))
        A = poly_quotient(draw(st.lists(fractions, min_size=n, max_size=n))
                          + [1])
    else:
        A = _upper_triangular()
    if draw(st.booleans()):
        A = _change_basis(A, draw(st.integers(-2, 2)),
                          draw(st.integers(-2, 2)))
    if draw(st.booleans()):
        A = opposite_algebra(A)
    assert validate(A).ok
    if draw(st.integers(0, 3)) == 0:
        # some unit coordinates and the products e_i e_j as floats: no
        # longer exact, and the float entries of the operator follow them
        i = draw(st.integers(0, A.dim - 1))
        A = Algebra(dim=A.dim, unit=tuple(
            float(x) if draw(st.booleans()) else x for x in A.unit),
            structconst=(
            *A.structconst[:i],
            tuple(tuple(map(float, row)) for row in A.structconst[i]),
            *A.structconst[i + 1:]))
    return A


# mixed denominators, ints and floats
_coefficients = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.integers(-3, 3),
    st.floats(min_value=-4, max_value=4, allow_nan=False, width=64))


def _same(x, y):
    """Equal values of equal types, -0.0 told apart from 0.0."""
    return type(x) is type(y) and repr(x) == repr(y)


def _same_mat(got, want):
    return got == want and all(_same(x, y) for gr, wr in zip(got, want)
                               for x, y in zip(gr, wr))


class TestSparseBuild:
    @settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
    @given(A=_carriers(), coeffs=st.lists(st.tuples(
        _coefficients, _coefficients, _coefficients), min_size=3,
        max_size=3))
    def test_matches_dense_build(self, A, coeffs):
        sparse = [ansatz_op(A, *c) for c in coeffs]
        dense = [_dense_ansatz(A, *c) for c in coeffs]
        for R, D in zip(sparse, dense):
            assert _same_mat(R.mat, D.mat)
        # the kernel takes the same exact/float mode on both builds and
        # returns the same entries of the same types
        got, want = _qybe_difference(*sparse), _qybe_difference(*dense)
        assert _same(got[1], want[1]) and got[0] == want[0]
        assert all(_same(col[i], want[0][j][i])
                   for j, col in enumerate(got[0]) for i in col)
        table = dict(zip(((0, 1), (0, 2), (1, 2)), sparse))
        res = colored_qybe_residual(
            SimpleNamespace(op=lambda u, v: table[u, v]), 0, 1, 2)
        assert _same(res, max((abs(x) for col in want[0]
                               for x in col.values()), default=want[1]))

    @settings(max_examples=30, deadline=None, phases=_NO_SHRINK)
    @given(A=_carriers(), args=st.lists(_coefficients, min_size=4,
                                        max_size=4))
    def test_coalgebra_transfer_is_dense_transpose(self, A, args):
        # the transfer transposes the sparse columns of the build on C's
        # dual algebra
        want = mat_transpose(_dense_ansatz(
            A, *FAMILIES["thm1"].coeffs(*args)).mat)
        got = coalgebra_colored_op(Coalgebra(A), *args).mat
        assert _same_mat(got, freeze(want))
