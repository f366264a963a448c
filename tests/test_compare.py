"""Braid-form matrices and the q=1 comparison report."""

import copy
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ybops.compare import (BraidFamily, compare_q1, okado_rhat,
                           twisted_prop1_rhat)
from ybops.errors import UnknownFamilyError
from ybops.tensorop import braid_residual

SAMPLES = [(Fraction(2), Fraction(3), Fraction(5)),
           (Fraction(3), Fraction(1, 2), Fraction(4)),
           (Fraction(1, 2), Fraction(2), Fraction(3))]


class TestBraidResiduals:
    @pytest.mark.parametrize("q,x,y", SAMPLES)
    def test_okado_solves_braid(self, q, x, y):
        fam = BraidFamily(kind="okado", q=q)
        assert braid_residual(fam, x, y) == 0

    @pytest.mark.parametrize("q,x,y", SAMPLES)
    def test_twisted_prop1_solves_braid(self, q, x, y):
        fam = BraidFamily(kind="twisted_prop1", q=q)
        assert braid_residual(fam, x, y) == 0

    def test_untwisted_does_not_solve_braid(self, A0):
        # the one-parameter matrix solves the QYBE, not the braid equation;
        # composing with the twist is what makes the residual vanish
        from ybops.onepar import prop1_op
        fam = lambda x: prop1_op(A0, Fraction(2), x)
        assert braid_residual(fam, Fraction(3), Fraction(5)) != 0

    def test_unknown_kind(self):
        with pytest.raises(UnknownFamilyError):
            BraidFamily(kind="mystery", q=1)


class TestMatrices:
    def test_okado_entries(self):
        R = okado_rhat(Fraction(2), Fraction(3))
        assert R.mat[0][0] == 11  # q^2 x - 1
        assert R.mat[1][2] == 2 * (3 - 1)  # q(x-1)
        assert R.mat[2][2] == 3 * 3  # (q^2-1)x

    def test_twist_structure(self):
        # tau moves the ab->(x)1 part of the one-parameter matrix into the
        # off-diagonal block; spot-check one entry against a hand expansion
        R = twisted_prop1_rhat(Fraction(2), Fraction(0), Fraction(3))
        # R(1(x)1) = (x-1) 1(x)1 + q(x-1) 1(x)1 - (x-q) 1(x)1, then flip
        assert R.mat[0][0] == (3 - 1) + 2 * (3 - 1) - (3 - 2)


class TestCompareQ1:
    def test_report_shape(self):
        rep = compare_q1()
        assert [s["x"] for s in rep["samples"]] == ["1", "2", "3"]
        for s in rep["samples"]:
            assert s["verdict"] in ("identical", "differ")

    def test_oracle_determined_verdicts(self):
        # at q=1 the matrices agree except for a sign at the last diagonal
        # entry, so x=1 collapses them and x!=1 keeps them distinct
        rep = compare_q1()
        assert rep["samples"][0]["verdict"] == "identical"
        assert rep["samples"][1]["verdict"] == "differ"
        assert rep["samples"][2]["verdict"] == "differ"

    def test_difference_localised(self):
        rep = compare_q1()
        assert rep["samples"][1]["x"] == "2"
        diff = rep["samples"][1]["difference"]
        nonzero = [(i, j) for i in range(4) for j in range(4)
                   if diff[i][j] != "0"]
        assert nonzero == [(3, 3)]

    def test_fresh_report_per_call(self):
        # the rows are computed once, but a caller that mutates one report
        # does not change the next
        first, second = compare_q1(), compare_q1()
        assert first == second
        want = copy.deepcopy(second)
        first["q"] = "2"
        first["samples"][0]["okado"][0][0] = "7"
        first["samples"][1]["difference"].pop()
        first["samples"][2]["verdict"] = "identical"
        first["samples"].append({})
        assert second == want == compare_q1()


# tau, the flip of k^2 (x) k^2: e_a (x) e_b, index 2a + b, goes to e_b (x) e_a
_FLIP = [[int(i == 2 * (j % 2) + j // 2) for j in range(4)]
         for i in range(4)]


class TestQ1ClosedForm:
    # at q=1 the Okado matrix is (x-1) tau and the twisted one is the same
    # with entry (3, 3) negated, so the two agree only at x=1, where both
    # vanish; no other proportionality is possible.  ~0.15 s, under 0.5 s
    @settings(max_examples=40, deadline=None)
    @given(xs=st.lists(st.fractions(max_denominator=60)
                       | st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=3))
    @example(xs=[Fraction(0), Fraction(1)])
    def test_twisted_is_okado_with_last_entry_negated(self, xs):
        for x in xs:
            ok = okado_rhat(1, x).mat
            c = Fraction(x) - 1
            assert ok == tuple(tuple(c * e for e in row) for row in _FLIP)
            negated = [list(row) for row in ok]
            negated[3][3] = -negated[3][3]
            twisted = twisted_prop1_rhat(1, 0, x).mat
            assert twisted == tuple(map(tuple, negated))
            # compare_q1's verdict: identical exactly at x=1
            assert (twisted == ok) == (x == 1)
