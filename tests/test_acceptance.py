"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Expected matrices are frozen here as independent templates (built entry by
entry from their closed forms), so a bug in the operator constructors
cannot silently cancel against itself.
"""

import random
import time
from fractions import Fraction

from ybops import frt
from ybops.algebra import cubic_algebra, dual_coalgebra, quadratic_algebra
from ybops.colored import (coalgebra_colored_op, thm1_inv, thm1_op, thm2_inv,
                           thm2_op)
from ybops.compare import BraidFamily, compare_q1
from ybops.funceq import catalogue, eval_colored_system, eval_onepar_system, \
    scale_triple
from ybops.onepar import prop1_inv, prop1_op, prop2_inv, prop2_op
from ybops.search import DEFAULT_COLORED_GRID, DEFAULT_ONEPAR_GRID, search
from ybops.tensorop import (braid_residual, colored_qybe_residual, embed_leg,
                            freeze)
from ybops.ybsystem import thm3_system, wxz_residuals
from conftest import DEFAULT_EXP_COLORED_GRID, rand_fraction
from dense_reference import (flip_op2, identity_mat, kron, mat_mul, mat_scale,
                             mat_transpose, _perm23)

F = Fraction


def _admissible(rng):
    while True:
        p, q, u, v = (rand_fraction(rng) for _ in range(4))
        if p * u != q * v and q * u != p * v:
            return p, q, u, v


# --- frozen matrix templates -------------------------------------------------

def rmat_template(p, q, u, v, s):
    return [[q * u - p * v, 0, 0, s * (q + p) * (u - v)],
            [0, p * (u - v), (q - p) * v, 0],
            [0, (q - p) * u, q * (u - v), 0],
            [0, 0, 0, q * v - p * u]]


def rmat2_template(p, q, sb, u, v, s):
    pu, qv, sv = p ** u, q ** v, sb ** v
    core = [[qv, 0, 0, s * (qv + sv)],
            [0, qv, qv - sv, 0],
            [0, 0, sv, 0],
            [0, 0, 0, -sv]]
    return [[pu * x for x in row] for row in core]


def rmat3_template(p, q, u, v, eps, rho):
    l, t, tp = u - v, q - p, q + p
    w, wp = q * u - p * v, q * v - p * u
    return [
        [w, 0, 0, 0, 0, rho * tp * l, 0, rho * tp * l, 0],
        [0, p * l, 0, t * v, 0, eps * p * l, 0, eps * p * l, rho * p * l],
        [0, 0, p * l, 0, p * l, 0, t * v, 0, eps * p * l],
        [0, t * u, 0, q * l, 0, eps * q * l, 0, eps * q * l, rho * q * l],
        [0, 0, 0, 0, wp, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, wp, 0],
        [0, 0, t * u, 0, q * l, 0, q * l, 0, eps * q * l],
        [0, 0, 0, 0, 0, wp, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, wp],
    ]


def rmat3_exp_template(p, q, sb, u, v, eps, rho):
    pu, qv, sv = p ** u, q ** v, sb ** v
    core = [
        [qv, 0, 0, 0, 0, rho * (qv + sv), 0, rho * (qv + sv), 0],
        [0, qv, 0, qv - sv, 0, eps * qv, 0, eps * qv, rho * qv],
        [0, 0, qv, 0, qv, 0, qv - sv, 0, eps * qv],
        [0, 0, 0, sv, 0, eps * sv, 0, eps * sv, rho * sv],
        [0, 0, 0, 0, -sv, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, -sv, 0],
        [0, 0, 0, 0, sv, 0, sv, 0, eps * sv],
        [0, 0, 0, 0, 0, -sv, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, -sv],
    ]
    return [[pu * x for x in row] for row in core]


def oneparrmat_template(q, x, s):
    return [[q * x - 1, 0, 0, s * (q + 1) * (x - 1)],
            [0, x - 1, q - 1, 0],
            [0, (q - 1) * x, q * (x - 1), 0],
            [0, 0, 0, q - x]]


def ybst_templates(lam, mu, s):
    W = [[lam, 0, 0, s * (lam + 1)], [0, lam, lam - 1, 0],
         [0, 0, 1, 0], [0, 0, 0, -1]]
    Z = [[mu, 0, 0, s * (mu + 1)], [0, 1, 0, 0],
         [0, mu - 1, mu, 0], [0, 0, 0, -1]]
    X = [[1, 0, 0, 2 * s], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
    return W, X, Z


def _eq(op, template):
    return op.mat == freeze([[F(x) for x in row] for row in template])


# --- criteria ------------------------------------------------------------------

def test_criterion_1_colored_residual_vanishes():
    t0 = time.perf_counter()
    rng = random.Random(1)
    carriers = [quadratic_algebra(0), quadratic_algebra(1),
                cubic_algebra(0, 0), cubic_algebra(2, 5), cubic_algebra(1, 0)]
    for A in carriers:
        for _ in range(10):
            p, q, u, v = _admissible(rng)
            w = rand_fraction(rng)

            class Fam:
                def op(self, a, b, A=A, p=p, q=q):
                    return thm1_op(A, p, q, a, b)
            assert colored_qybe_residual(Fam(), u, v, w) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 1 (coloured residual == 0, {elapsed:.2f}s): PASS")


def test_criterion_2_matrix_reproduction():
    t0 = time.perf_counter()
    rng = random.Random(2)
    for _ in range(5):
        p, q, u, v = (rand_fraction(rng) for _ in range(4))
        for s in (F(0), F(1), rand_fraction(rng)):
            A = quadratic_algebra(s)
            assert _eq(thm1_op(A, p, q, u, v), rmat_template(p, q, u, v, s))
            lam, mu = rand_fraction(rng), rand_fraction(rng)
            S = thm3_system(A, lam, mu)
            W, X, Z = ybst_templates(lam, mu, s)
            assert _eq(S.W, W) and _eq(S.X, X) and _eq(S.Z, Z)
            x = rand_fraction(rng)
            assert _eq(prop1_op(A, q, x), oneparrmat_template(q, x, s))
        # exponential family needs integer colours in exact mode
        pb, qb, sb = (rand_fraction(rng, nonzero=True) for _ in range(3))
        ui, vi = rng.randint(-3, 3), rng.randint(-3, 3)
        s = F(rng.randint(0, 3))
        assert _eq(thm2_op(quadratic_algebra(s), pb, qb, sb, ui, vi),
                   rmat2_template(pb, qb, sb, ui, vi, s))
        # dimension three, nonzero eps and rho included
        eps, rho = rand_fraction(rng, nonzero=True), rand_fraction(rng, nonzero=True)
        B = cubic_algebra(eps, rho)
        assert _eq(thm1_op(B, p, q, u, v), rmat3_template(p, q, u, v, eps, rho))
        assert _eq(thm2_op(B, pb, qb, sb, ui, vi),
                   rmat3_exp_template(pb, qb, sb, ui, vi, eps, rho))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 2 (matrix templates reproduce, {elapsed:.2f}s): PASS")


def test_criterion_3_inverses():
    import pytest
    from ybops.errors import SingularParameterError
    t0 = time.perf_counter()
    rng = random.Random(3)
    A = quadratic_algebra(1)
    I4 = identity_mat(4)
    count = 0
    while count < 10:
        p, q, u, v = _admissible(rng)
        R, S = thm1_op(A, p, q, u, v), thm1_inv(A, p, q, u, v)
        assert mat_mul(R.mat, S.mat) == I4 and mat_mul(S.mat, R.mat) == I4
        count += 1
    count = 0
    while count < 10:
        pb, qb, sb = (rand_fraction(rng, nonzero=True) for _ in range(3))
        ui, vi = rng.randint(-2, 2), rng.randint(-2, 2)
        R = thm2_op(A, pb, qb, sb, ui, vi)
        S = thm2_inv(A, pb, qb, sb, ui, vi)
        assert mat_mul(R.mat, S.mat) == I4 and mat_mul(S.mat, R.mat) == I4
        count += 1
    count = 0
    while count < 10:
        q, x = rand_fraction(rng), rand_fraction(rng)
        if x == q or q * x == 1:
            continue
        R, S = prop1_op(A, q, x), prop1_inv(A, q, x)
        assert mat_mul(R.mat, S.mat) == I4 and mat_mul(S.mat, R.mat) == I4
        count += 1
    count = 0
    while count < 10:
        x = rand_fraction(rng, nonzero=True)
        R, S = prop2_op(A, x), prop2_inv(A, x)
        assert mat_mul(R.mat, S.mat) == I4 and mat_mul(S.mat, R.mat) == I4
        count += 1
    with pytest.raises(SingularParameterError):
        thm1_inv(A, 1, 2, 2, 1)
    with pytest.raises(SingularParameterError):
        thm2_inv(A, 0, 1, 1, 1, 1)
    with pytest.raises(SingularParameterError):
        prop1_inv(A, 3, 3)
    with pytest.raises(SingularParameterError):
        prop2_inv(A, 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 3 (exact inverses, {elapsed:.2f}s): PASS")


def test_criterion_4_functional_systems():
    t0 = time.perf_counter()
    for (u, v, w) in DEFAULT_COLORED_GRID:
        assert eval_colored_system(catalogue("thm1", p=F(2), q=F(5)),
                                   u, v, w) == (0, 0, 0, 0, 0)
    exponential = [catalogue("thm2", p=F(2), q=F(3), s=F(5)),
                   catalogue("remark2", p=F(2), q=F(3), s=F(7))]
    for T in exponential:
        # colours appear as exponents, hence the all-integer grid
        for (u, v, w) in DEFAULT_EXP_COLORED_GRID:
            assert eval_colored_system(T, u, v, w) == (0, 0, 0, 0, 0)
    onepar = [catalogue("prop1", q=F(3)), catalogue("prop2"),
              catalogue("remark_x")]
    for T in onepar:
        for (x, z) in DEFAULT_ONEPAR_GRID:
            assert eval_onepar_system(T, x, z) == (0, 0, 0, 0, 0)
    # homogeneity: residual(cT) = c^3 residual(T), exactly
    from ybops.funceq import linear_colored_triple
    T = linear_colored_triple([F(1), F(2), F(-1), F(3), F(2), F(5)])
    for c in (F(2), F(-3), F(1, 5)):
        cT = scale_triple(T, c)
        for (u, v, w) in DEFAULT_COLORED_GRID:
            base = eval_colored_system(T, u, v, w)
            assert eval_colored_system(cT, u, v, w) == tuple(
                c ** 3 * r for r in base)
    elapsed = time.perf_counter() - t0
    print(f"criterion 4 (functional systems, {elapsed:.2f}s): PASS")


def test_criterion_5_frt_span():
    t0 = time.perf_counter()
    rng = random.Random(5)
    for sigma in (F(0), F(1)):
        for _ in range(5):
            while True:
                p, q, u, v = _admissible(rng)
                if u != v:
                    break
            A = quadratic_algebra(sigma)
            entries = frt.rtt_residual(thm1_op(A, p, q, u, v).mat)
            rels = frt.claimed_relations(u, v, p, q, sigma)
            rep = frt.span_membership(entries, rels)
            assert rep.all_members
            assert frt.uv_symmetry_check(rels)
            # p = q limit against the reduced list
            entries_pq = frt.rtt_residual(thm1_op(A, q, q, u, v).mat)
            rep_pq = frt.span_membership(entries_pq,
                                         frt.pq_limit_relations(sigma, u, v))
            assert rep_pq.all_members
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 5 (FRT span + symmetry, {elapsed:.2f}s): PASS")


def test_criterion_6_wxz():
    t0 = time.perf_counter()
    for sigma in (0, 1):
        A = quadratic_algebra(sigma)
        for (lam, mu) in ((F(1), F(1)), (F(3), F(5)), (F(-2), F(1, 2))):
            assert wxz_residuals(thm3_system(A, lam, mu)) == (0, 0, 0, 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    print(f"criterion 6 (WXZ residuals == 0, {elapsed:.2f}s): PASS")


def test_criterion_7_braid_and_compare():
    t0 = time.perf_counter()
    samples = ((F(2), F(3), F(5)), (F(3), F(1, 2), F(4)),
               (F(1, 2), F(2), F(3)))
    for (q, x, y) in samples:
        assert braid_residual(BraidFamily(kind="okado", q=q), x, y) == 0
        assert braid_residual(BraidFamily(kind="twisted_prop1", q=q,
                                          sigma=F(0)), x, y) == 0
    rep = compare_q1(xs=(1, 2, 3))
    verdicts = [s["verdict"] for s in rep["samples"]]
    assert all(v in ("identical", "proportional", "differ") for v in verdicts)
    # oracle-determined outcome: equal except a sign at the last diagonal
    assert verdicts == ["identical", "differ", "differ"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    print(f"criterion 7 (braid residuals + q=1 report, {elapsed:.2f}s): PASS")


def test_criterion_8_search():
    t0 = time.perf_counter()
    results = search(shape="linear", system="colored", seed=42, restarts=50)
    good = [r for r in results if r.objective < 1e-8
            and r.classification in ("thm1-family", "degenerate")]
    assert len(good) >= 1
    again = search(shape="linear", system="colored", seed=42, restarts=50)
    assert results == again
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 8 (search finds the linear family, {elapsed:.2f}s, "
          f"{len(good)} hits): PASS")


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(9)
    A = quadratic_algebra(1)
    # gauge invariance: rescaling by phi(u,v) = u + 2v + 1 keeps residual 0
    from ybops.tensorop import Op2

    class Gauged:
        def op(self, a, b):
            R = thm1_op(A, 1, 3, a, b)
            return Op2(n=2, mat=freeze(mat_scale(a + 2 * b + 1, R.mat)))
    for _ in range(5):
        u, v, w = (rand_fraction(rng) for _ in range(3))
        assert colored_qybe_residual(Gauged(), u, v, w) == 0
    # leg-embedding coherence against the kron/permutation definitions
    R = thm1_op(A, F(1), F(2), F(3), F(1))
    P = _perm23(2)
    assert embed_leg(R, 12).mat == freeze(kron(R.mat, identity_mat(2)))
    assert embed_leg(R, 23).mat == freeze(kron(identity_mat(2), R.mat))
    assert embed_leg(R, 13).mat == freeze(
        mat_mul(mat_mul(P, kron(R.mat, identity_mat(2))), P))
    # twist involution
    for n in (2, 3):
        tau = flip_op2(n)
        assert mat_mul(tau.mat, tau.mat) == identity_mat(n * n)
    # scaling relation: two-colour operator at p=1 is v times the
    # one-parameter operator at u/v
    for _ in range(5):
        q, u = rand_fraction(rng), rand_fraction(rng)
        v = rand_fraction(rng, nonzero=True)
        assert thm1_op(A, 1, q, u, v).mat == freeze(
            mat_scale(v, prop1_op(A, q, u / v).mat))
    # duality: coalgebra operator on the dual equals the transpose
    C = dual_coalgebra(A)
    for _ in range(5):
        p, q, u, v = (rand_fraction(rng) for _ in range(4))
        assert coalgebra_colored_op(C, p, q, u, v).mat == freeze(
            mat_transpose(thm1_op(A, p, q, u, v).mat))
    elapsed = time.perf_counter() - t0
    print(f"criterion 9 (property suites, {elapsed:.2f}s): PASS")
