"""The five-equation functional systems and the solution catalogue."""

from dataclasses import replace
from fractions import Fraction

import pytest

from ybops.errors import UnknownFamilyError
from ybops.funceq import (CoeffTriple, catalogue, eval_colored_system,
                          eval_onepar_system, linear_colored_triple,
                          scale_triple)
from ybops.search import (DEFAULT_COLORED_GRID, DEFAULT_EXP_COLORED_GRID,
                          DEFAULT_ONEPAR_GRID)
from conftest import rand_fraction
from search_reference import exp_colored_triple, linear_onepar_triple

COLORED_KINDS = [("thm1", {"p": Fraction(2), "q": Fraction(5)}),
                 ("thm2", {"p": Fraction(2), "q": Fraction(3), "s": Fraction(5)}),
                 ("remark2", {"p": Fraction(2), "q": Fraction(3), "s": Fraction(7)})]
ONEPAR_KINDS = [("prop1", {"q": Fraction(3)}), ("prop2", {}), ("remark_x", {})]


class TestCatalogueSolves:
    @pytest.mark.parametrize("kind,params", COLORED_KINDS)
    def test_colored_zero_on_grid(self, kind, params):
        # exponential triples take the colours as exponents, so exact-mode
        # checks run on the all-integer default grid
        grid = (DEFAULT_COLORED_GRID if kind == "thm1"
                else DEFAULT_EXP_COLORED_GRID)
        T = catalogue(kind, **params)
        for (u, v, w) in grid:
            assert eval_colored_system(T, u, v, w) == (0, 0, 0, 0, 0)

    @pytest.mark.parametrize("kind,params", ONEPAR_KINDS)
    def test_onepar_zero_on_grid(self, kind, params):
        T = catalogue(kind, **params)
        for (x, z) in DEFAULT_ONEPAR_GRID:
            assert eval_onepar_system(T, x, z) == (0, 0, 0, 0, 0)

    def test_colored_zero_at_random_rationals(self, rng):
        T = catalogue("thm1", p=Fraction(1, 2), q=Fraction(-4, 3))
        for _ in range(10):
            u, v, w = (rand_fraction(rng) for _ in range(3))
            assert eval_colored_system(T, u, v, w) == (0, 0, 0, 0, 0)

    def test_unknown_kind(self):
        with pytest.raises(UnknownFamilyError):
            catalogue("mystery")


class TestPhiDiscipline:
    def test_mismatched_phi_is_nonzero(self):
        # prop1 coefficients with the wrong composition map must not solve
        # the system (guards against a vacuous implementation)
        T = replace(catalogue("prop1", q=Fraction(3)), phi=lambda x, z: z)
        res = eval_onepar_system(T, Fraction(2), Fraction(5))
        assert any(r != 0 for r in res)

    def test_missing_phi_raises(self):
        T = CoeffTriple(lambda x: (x, 1, 1))
        with pytest.raises(ValueError):
            eval_onepar_system(T, 1, 2)

    def test_arity_guards(self):
        T2 = catalogue("thm1", p=1, q=2)
        T1 = catalogue("prop2")
        with pytest.raises(ValueError):
            eval_onepar_system(T2, 1, 2)
        with pytest.raises(ValueError):
            eval_colored_system(T1, 1, 2, 3)


class TestHomogeneity:
    @pytest.mark.parametrize("c", [Fraction(2), Fraction(-3), Fraction(1, 5)])
    def test_residual_scales_cubically(self, c, rng):
        # each equation is homogeneous of degree three in the triple
        T = linear_colored_triple([Fraction(1), Fraction(2), Fraction(-1),
                                   Fraction(3), Fraction(2), Fraction(5)])
        cT = scale_triple(T, c)
        for _ in range(4):
            u, v, w = (rand_fraction(rng) for _ in range(3))
            base = eval_colored_system(T, u, v, w)
            scaled = eval_colored_system(cT, u, v, w)
            assert scaled == tuple(c ** 3 * r for r in base)

    @pytest.mark.parametrize("c", [Fraction(2), Fraction(-3), Fraction(1, 5)])
    def test_onepar_homogeneity(self, c, rng):
        T = linear_onepar_triple([Fraction(2), Fraction(1), Fraction(-1),
                                  Fraction(4), Fraction(1), Fraction(3)],
                                 phi_shape="xz")
        cT = scale_triple(T, c)
        for _ in range(4):
            x, z = (rand_fraction(rng) for _ in range(2))
            base = eval_onepar_system(T, x, z)
            assert eval_onepar_system(cT, x, z) == tuple(c ** 3 * r
                                                         for r in base)


class TestAnsatzBuilders:
    def test_linear_colored_matches_catalogue(self):
        # (p, p, q, q, p, q) reproduces the linear family's coefficients
        p, q = Fraction(2), Fraction(7)
        T = linear_colored_triple([p, p, q, q, p, q])
        C = catalogue("thm1", p=p, q=q)
        for (u, v) in ((1, 2), (3, -1), (Fraction(1, 2), 5)):
            assert T.coeffs(u, v) == C.coeffs(u, v)

    def test_exp_triple_solves_at_integers(self):
        T = exp_colored_triple([2.0, 3.0, 2.0, 5.0, 2.0, 5.0])
        for (u, v, w) in ((1, 2, 3), (0, 1, 2)):
            assert all(abs(r) < 1e-9
                       for r in eval_colored_system(T, u, v, w))

    def test_unknown_phi_shape(self):
        with pytest.raises(UnknownFamilyError):
            linear_onepar_triple([1] * 6, phi_shape="zz")
