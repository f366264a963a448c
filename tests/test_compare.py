"""Braid-form matrices and the q=1 comparison report."""

from fractions import Fraction

import pytest

from ybops.compare import (BraidFamily, _proportional, compare_q1,
                           okado_rhat, twisted_prop1_rhat)
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
        fam = BraidFamily(kind="twisted_prop1", q=q, sigma=Fraction(0))
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
            assert s["verdict"] in ("identical", "proportional", "differ")

    def test_oracle_determined_verdicts(self):
        # at q=1 the matrices agree except for a sign at the last diagonal
        # entry, so x=1 collapses them and x!=1 keeps them distinct
        rep = compare_q1(xs=(1, 2, 3))
        assert rep["samples"][0]["verdict"] == "identical"
        assert rep["samples"][1]["verdict"] == "differ"
        assert rep["samples"][2]["verdict"] == "differ"

    def test_difference_localised(self):
        rep = compare_q1(xs=(2,))
        diff = rep["samples"][0]["difference"]
        nonzero = [(i, j) for i in range(4) for j in range(4)
                   if diff[i][j] != "0"]
        assert nonzero == [(3, 3)]


class TestProportional:
    F = Fraction

    @pytest.mark.parametrize("A,B,expect", [
        ([[F(2), F(0)], [F(-4), F(6)]], [[F(1), F(0)], [F(-2), F(3)]], True),
        ([[F(-3), F(0)], [F(0), F(3, 2)]], [[F(2), F(0)], [F(0), F(-1)]],
         True),
        ([[F(1), F(0)], [F(0), F(1)]], [[F(1), F(1)], [F(0), F(1)]], False),
        ([[F(1), F(0)], [F(0), F(1)]], [[F(1), F(0)], [F(0), F(0)]], False),
        ([[F(1), F(2)], [F(0), F(1)]], [[F(1), F(1)], [F(0), F(1)]], False),
        ([[F(0), F(0)], [F(0), F(0)]], [[F(0), F(0)], [F(0), F(0)]], True),
    ], ids=["multiple", "negative-multiple", "extra-nonzero", "extra-zero",
            "two-ratios", "both-zero"])
    def test_verdict(self, A, B, expect):
        assert _proportional(A, B) is expect
