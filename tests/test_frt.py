"""RTT residual expansion and exact span arithmetic."""

import dataclasses
from fractions import Fraction

import pytest

from ybops import frt
from ybops.algebra import quadratic_algebra
from ybops.colored import thm1_op
from ybops.errors import DimensionMismatchError, SingularParameterError
from ybops.frt import (NCPoly, RelationSet, claimed_relations,
                       exchange_closure, in_span, pq_limit_relations,
                       rtt_residual, rtt_span_report, span_dimension,
                       span_membership, uv_symmetry_check)
from ybops.tensorop import Op2, freeze
from conftest import rand_fraction
from dense_reference import identity_mat
from frt_reference import (subset, swap_colours, template_relations,
                           template_span_report)


def sample_params(rng):
    """Random rationals with u != v and both inverse loci avoided."""
    while True:
        u, v, p, q = (rand_fraction(rng, lo=1, hi=9, den=4)
                      for _ in range(4))
        if u != v and p * u != q * v and q * u != p * v:
            return u, v, p, q


class TestNCPoly:
    def test_ring_ops(self):
        a = NCPoly.gen("a", "u")
        b = NCPoly.gen("b", "v")
        prod = a * b
        assert prod.terms == {(("u", "a"), ("v", "b")): Fraction(1)}
        assert (a * b - a * b).is_zero
        assert (2 * a + a).terms == {(("u", "a"),): Fraction(3)}

    def test_noncommutative(self):
        a, b = NCPoly.gen("a", "u"), NCPoly.gen("b", "u")
        assert a * b != b * a

    def test_number_is_not_a_poly(self):
        a = NCPoly.gen("a", "u")
        with pytest.raises(TypeError):
            a + 1
        assert a != 1 and not a == 1

    def test_zero_repr(self):
        assert repr(NCPoly()) == "0"

    def test_swap_colours_involution(self):
        a, d = NCPoly.gen("a", "u"), NCPoly.gen("d", "v")
        poly = 3 * (a * d) - d * a
        assert swap_colours(swap_colours(poly)) == poly


class TestRttResidual:
    def test_identity_matrix_gives_commutators(self):
        ents = rtt_residual(Op2(n=2, mat=identity_mat(4)))
        a_u, a_v = NCPoly.gen("a", "u"), NCPoly.gen("a", "v")
        assert ents[0] == a_u * a_v - a_v * a_u

    def test_wrong_size_rejected(self):
        with pytest.raises(DimensionMismatchError):
            rtt_residual(identity_mat(3))
        with pytest.raises(DimensionMismatchError):  # 3-dim carrier
            rtt_residual(Op2(n=3, mat=freeze(identity_mat(9))))

    def test_dense_list_rejected(self):
        # only an Op2 is read: a dense 4x4 list is no operator
        with pytest.raises(DimensionMismatchError):
            rtt_residual(identity_mat(4))

    def test_entries_quadratic(self, rng):
        u, v, p, q = sample_params(rng)
        R = thm1_op(quadratic_algebra(1), p, q, u, v)
        for e in rtt_residual(R):
            assert all(len(w) == 2 for w in e.terms)


class TestClaimedRelations:
    def test_r9_instantiation(self):
        rels = claimed_relations(2, 1, 1, 3, 0)
        r9 = subset(rels, ["r9"]).relations[0]
        c_u, c_v = NCPoly.gen("c", "u"), NCPoly.gen("c", "v")
        # (qv-pu)c_u c_v - (qu-pv)c_v c_u at p=1,q=3,u=2,v=1
        assert r9 == 1 * (c_u * c_v) - 5 * (c_v * c_u)

    def test_r9_at_pq_is_anticommutator(self):
        rels = claimed_relations(2, 1, 3, 3, 1)
        r9 = subset(rels, ["r9"]).relations[0]
        c_u, c_v = NCPoly.gen("c", "u"), NCPoly.gen("c", "v")
        anti = c_u * c_v + c_v * c_u
        assert in_span(r9, [anti]) is not None

    def test_r11_swap_antisymmetric(self):
        rels = claimed_relations(2, 1, 1, 3, 0)
        r11 = subset(rels, ["r11"]).relations[0]
        assert swap_colours(r11) == -1 * r11


class TestSpanArithmetic:
    def test_zero_membership(self):
        rels = claimed_relations(2, 1, 1, 3, 0)
        coeffs = in_span(NCPoly(), list(rels.relations))
        assert coeffs == [Fraction(0)] * 12

    def test_scaled_relation_recovers_position(self):
        rels = claimed_relations(2, 1, 1, 3, 0)
        target = 2 * rels.relations[8]  # 2*(ninth relation)
        rep = span_membership([target], exchange_closure(rels).relations)
        vec = rep.members[0]
        assert vec[8] == 2
        assert all(c == 0 for i, c in enumerate(vec) if i != 8)

    def test_failure_reports_residue(self):
        rels = claimed_relations(2, 1, 1, 3, 0)
        b_u = NCPoly.gen("b", "u")
        alien = b_u * b_u  # not in any relation span
        rep = span_membership([alien], exchange_closure(rels).relations)
        assert rep.members[0] is None
        assert not rep.residues[0].is_zero

    def test_span_dimension_of_dependent_set(self):
        a = NCPoly.gen("a", "u") * NCPoly.gen("a", "v")
        assert span_dimension([a, 2 * a, 3 * a]) == 1


class TestRttSpanProperty:
    def test_all_entries_member_per_sample(self, rng):
        for sigma in (0, 1):
            for _ in range(5):
                u, v, p, q = sample_params(rng)
                R = thm1_op(quadratic_algebra(sigma), p, q, u, v)
                ents = rtt_residual(R)
                rels = claimed_relations(u, v, p, q, sigma)
                rep = span_membership(ents, exchange_closure(rels).relations)
                assert rep.all_members
                # the relation list and the residual generate the same space
                assert rep.entry_span_dim == rep.relation_span_dim == 16

    def test_bare_list_spans_twelve(self, rng):
        # without the colour exchange, the twelve relations miss four
        # entries; the RTT report reads them in both orders and misses none
        u, v, p, q = sample_params(rng)
        R = thm1_op(quadratic_algebra(0), p, q, u, v)
        rels = claimed_relations(u, v, p, q, 0)
        rep = span_membership(rtt_residual(R), rels.relations)
        assert rep.relation_span_dim == 12
        assert sum(m is not None for m in rep.members) == 12
        assert rtt_span_report(rels).all_members

    def test_relations_in_entry_span(self, rng):
        u, v, p, q = sample_params(rng)
        R = thm1_op(quadratic_algebra(1), p, q, u, v)
        ents = rtt_residual(R)
        closed = exchange_closure(claimed_relations(u, v, p, q, 1))
        assert all(in_span(r, ents) is not None for r in closed.relations)

    def test_pq_limit_span(self, rng):
        for sigma in (0, 1):
            u, v, _, q = sample_params(rng)
            R = thm1_op(quadratic_algebra(sigma), q, q, u, v)
            rels = pq_limit_relations(sigma, u, v)
            rep = span_membership(rtt_residual(R),
                                  exchange_closure(rels).relations)
            assert rep.all_members

    def test_pq_relations_from_full_list(self):
        # each p=q limit relation is implied by the full list at p=q
        full = claimed_relations(2, 1, 3, 3, 1)
        basis = list(exchange_closure(full).relations)
        for r in pq_limit_relations(1, 2, 1).relations:
            assert in_span(r, basis) is not None

    def test_r12_nonzero_at_pq(self):
        full = claimed_relations(2, 1, 3, 3, 1)
        r12 = subset(full, ["r12"]).relations[0]
        assert not r12.is_zero


class TestUvSymmetry:
    def test_full_list_passes(self):
        assert uv_symmetry_check(claimed_relations(2, 1, 1, 3, 0))
        assert uv_symmetry_check(claimed_relations(2, 1, 1, 3, 1))

    def test_single_relation_fails(self):
        full = claimed_relations(2, 1, 1, 3, 0)
        assert not uv_symmetry_check(subset(full, ["r2"]))

    def test_pq_list_passes(self):
        assert uv_symmetry_check(pq_limit_relations(0, 2, 1))
        assert uv_symmetry_check(pq_limit_relations(1, 2, 1))

    def test_random_samples(self, rng):
        for sigma in (0, 1):
            u, v, p, q = sample_params(rng)
            assert uv_symmetry_check(claimed_relations(u, v, p, q, sigma))

    def test_extra_relation_fails(self):
        # a relation from other colours: every RTT entry is still a member,
        # so only the larger relation span (17 vs 16) shows the mismatch
        full = claimed_relations(5, 1, 1, 3, 0)
        alien = claimed_relations(2, 1, 1, 3, 0).relations[0]
        rels = RelationSet(full.relations + (alien,), full.labels + ("r1",),
                           full.params)
        R = thm1_op(quadratic_algebra(0), 1, 3, 5, 1)
        rep = span_membership(rtt_residual(R),
                              exchange_closure(rels).relations)
        assert rep.all_members
        assert (rep.entry_span_dim, rep.relation_span_dim) == (16, 17)
        assert not uv_symmetry_check(rels)

    def test_singular_locus_raises(self):
        # qu = pv: the R-matrix degenerates, which is no mathematical failure
        with pytest.raises(SingularParameterError):
            uv_symmetry_check(claimed_relations(1, 3, 1, 3, 0))


class TestExchangeClosure:
    def test_positions_preserved(self):
        rels = claimed_relations(2, 1, 1, 3, 0)
        closed = exchange_closure(rels)
        assert closed.relations[:12] == rels.relations
        assert closed.labels[:12] == rels.labels
        assert closed.labels[12] == "r1~"

    def test_closure_idempotent_span(self):
        rels = claimed_relations(2, 1, 1, 3, 0)
        once = exchange_closure(rels)
        twice = exchange_closure(once)
        assert span_dimension(once.relations) == span_dimension(twice.relations)


class TestCompiledReports:
    """The report on compiled relations equals, field for field, the one on
    relations and exchange partners built by calling the templates."""

    @pytest.mark.parametrize("point", [
        (2, 1, 3, 3, 1), (2, 2, 1, 3, 0),
        (Fraction(2, 3), Fraction(-5, 4), Fraction(7, 2), 3, Fraction(-1, 2)),
        (2, 1, 1, 3, 0)], ids=["p=q", "u=v", "sigma=-1/2", "generic"])
    def test_claimed_list(self, point):
        got = rtt_span_report(claimed_relations(*point))
        want = template_span_report(
            template_relations([f"r{i}" for i in range(1, 13)], *point))
        assert got == want and hash(got) == hash(want)
        assert got.same_span == (point[0] != point[1])

    def test_pq_limit_list(self):
        u, v, sigma = Fraction(3), Fraction(-1, 2), Fraction(-1, 2)
        labels = [f"pq{i}" for i in range(1, 10)] + ["r10", "r11"]
        got = rtt_span_report(pq_limit_relations(sigma, u, v))
        want = template_span_report(
            template_relations(labels, u, v, 1, 1, sigma))
        assert got == want and got.same_span


class TestReportEquality:
    """A report compares and hashes by the values read: members, residues
    and both span dimensions, whatever integer scale each entry is stored
    at."""

    @pytest.mark.parametrize("p", [1, 0], ids=["members", "residues"])
    def test_equal_across_integer_scales(self, p):
        u, v, q, sigma = 2, 1, 3, 0
        R = thm1_op(quadratic_algebra(sigma), p, q, u, v)
        basis = exchange_closure(
            claimed_relations(u, v, p, q, sigma)).relations
        entries = rtt_residual(R)
        # the same polynomials, each stored at three times its scale
        scaled = [NCPoly._of({w: 3 * c for w, c in e.num.items()}, 3 * e.den)
                  for e in entries]
        assert scaled == entries
        want = span_membership(entries, basis)
        got = span_membership(scaled, basis)
        assert got.reduced != want.reduced
        assert got == want and hash(got) == hash(want)
        assert got.all_members == (p != 0)

    def test_unequal_span_dimension(self):
        # equal members and residues, another relation span: unequal
        report = rtt_span_report(claimed_relations(2, 1, 1, 3, 0))
        other = dataclasses.replace(
            report, relation_span_dim=report.relation_span_dim + 1)
        assert other != report and report != "report"
