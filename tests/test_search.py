"""Derivative-free search over the functional systems."""

import importlib
import math
import random
import struct

import pytest

from conftest import SEARCH_MODES, scipy_nelder_mead
from search_reference import reference_objective
from ybops.errors import UnknownFamilyError
from ybops.funceq import _system
from ybops.search import (DEFAULT_COLORED_GRID, OBJECTIVE_TOL, SearchResult,
                          _make_objective, _Sym, classify, search)


class TestClassify:
    def test_thm1_shape(self):
        # (p, p', q, q', r, r') with p=p', q=q', r=p, r'=q, after gauge
        params = (2.0, 2.0, 5.0, 5.0, 2.0, 5.0)
        assert classify("linear", "colored", "xz", params, 0.0) == "thm1-family"

    def test_constant_triple_is_thm1(self):
        params = (1.5, 1.5, 1.5, 1.5, 1.5, 1.5)
        assert classify("linear", "colored", "xz", params, 0.0) == "thm1-family"

    # the zero operator, and one under 1e-7 that is not zero
    @pytest.mark.parametrize("params", [(0.0,) * 6, (1e-9,) * 6],
                             ids=["zero", "tiny"])
    def test_zero_is_degenerate(self, params):
        assert classify("linear", "colored", "xz", params, 0.0) == "degenerate"

    def test_flip_multiple_is_degenerate(self):
        params = (0.0, 0.0, 0.0, 0.0, 3.0, 1.0)
        assert classify("linear", "colored", "xz", params, 0.0) == "degenerate"

    def test_above_tolerance_unclassified(self):
        params = (2.0, 2.0, 5.0, 5.0, 2.0, 5.0)
        assert classify("linear", "colored", "xz", params, 1e-3) is None

    def test_nan_objective_unclassified(self):
        params = (2.0, 2.0, 5.0, 5.0, 2.0, 5.0)
        assert classify("linear", "colored", "xz", params, math.nan) is None

    def test_prop2_shape(self):
        # alpha = x, beta = gamma = 1 -> (1, 0, 0, -1, 0, -1)
        params = (1.0, 0.0, 0.0, -1.0, 0.0, -1.0)
        assert classify("linear", "onepar", "z", params, 0.0) == "prop2-family"
        assert classify("linear", "onepar", "xz", params, 0.0) == "unclassified"

    def test_remark_x_shape(self):
        params = (0.0, -1.0, 1.0, 0.0, 0.0, -1.0)
        assert classify("linear", "onepar", "x", params, 0.0) == "remark-x-family"

    # catalogue points, labelled at the objective they have

    def test_prop1_point(self):
        # alpha = x - 1, beta = q(x - 1), gamma = x - q: prop1 at q = 3,
        # a solution with phi = xz only
        params = (1.0, 1.0, 3.0, 3.0, 1.0, 3.0)
        labels = {}
        for phi in ("xz", "z", "x"):
            f = _make_objective("linear", "onepar", phi)(params)
            labels[phi] = classify("linear", "onepar", phi, params, f)
        assert labels == {"xz": "prop1-family", "z": None, "x": None}

    def test_remark2_point(self):
        # alpha = gamma = p^u q^v, beta = s^u q^v, at bases near 1 so that
        # float rounding keeps the objective below OBJECTIVE_TOL
        p, q, s = map(math.log, (1.1, 0.9, 1.2))
        params = (p, q, s, q, p, q)
        f = _make_objective("exponential", "colored", "xz")(params)
        assert classify("exponential", "colored", "xz", params,
                        f) == "remark2-family"


class TestSearch:
    def test_finds_colored_solutions(self):
        results = search(shape="linear", system="colored", seed=42,
                         restarts=8)
        assert len(results) == 8
        assert any(r.objective < OBJECTIVE_TOL for r in results)

    def test_deterministic(self):
        a = search(shape="linear", system="colored", seed=7, restarts=4)
        b = search(shape="linear", system="colored", seed=7, restarts=4)
        assert a == b

    def test_results_in_restart_order(self):
        results = search(shape="linear", system="colored", seed=3, restarts=4)
        assert [r.restart for r in results] == [0, 1, 2, 3]
        assert all(isinstance(r, SearchResult) for r in results)

    def test_onepar_search(self):
        results = search(shape="linear", system="onepar", seed=1, restarts=6,
                         phi_shape="xz")
        assert any(r.objective < OBJECTIVE_TOL for r in results)

    def test_exponential_shape_runs(self):
        results = search(shape="exponential", system="colored", seed=5,
                         restarts=3)
        assert len(results) == 3

    def test_exponential_underflow_rejected(self):
        # exp(t) underflows to 0.0 and is raised to a negative power on this
        # restart; the objective must reject the point, not raise
        results = search(shape="exponential", system="colored", seed=3,
                         restarts=1)
        assert len(results) == 1

    def test_bad_restarts(self):
        with pytest.raises(ValueError):
            search(seed=0, restarts=0)

    def test_unknown_shape(self):
        with pytest.raises(UnknownFamilyError):
            search(shape="cubic", seed=0, restarts=1)

    @pytest.mark.parametrize("mode,message", [
        ({"system": "both"}, "unknown system 'both'"),
        ({"shape": "cubic"}, "unknown ansatz shape 'cubic'"),
        ({"shape": "exponential", "system": "onepar"},
         "one-parameter search supports the linear shape only"),
    ], ids=["system", "shape", "onepar-shape"])
    def test_unknown_mode_message(self, mode, message):
        with pytest.raises(UnknownFamilyError) as info:
            search(restarts=1, **mode)
        assert str(info.value) == message

    def test_unknown_phi_shape(self):
        with pytest.raises(UnknownFamilyError):
            search(system="onepar", phi_shape="zz", restarts=1)

    def test_unknown_phi_shape_colored(self):
        # the coloured system has no phi, but a bad name is still an error
        with pytest.raises(UnknownFamilyError):
            search(system="colored", phi_shape="bogus", restarts=1)

    def test_default_grid_distinct(self):
        for pt in DEFAULT_COLORED_GRID:
            assert len(set(pt)) == len(pt)


class TestObjective:
    @pytest.mark.parametrize("shape,system,phi", [
        ("linear", "colored", "xz"), ("exponential", "colored", "xz"),
        ("linear", "onepar", "xz"), ("linear", "onepar", "z"),
        ("linear", "onepar", "x")])
    def test_array_and_list_agree(self, shape, system, phi):
        # the objective takes six Python floats, a tuple from Nelder-Mead or
        # a list; the value is the same Python float for both
        objective = _make_objective(shape, system, phi)
        rng = random.Random(7)
        for _ in range(20):
            x = [rng.uniform(-3.0, 3.0) for _ in range(6)]
            got = objective(tuple(x))
            assert type(got) is float and got == objective(x)


class TestScipyReference:
    @pytest.mark.parametrize("shape,system,phi", SEARCH_MODES)
    def test_search_equals_scipy_driven(self, shape, system, phi,
                                        monkeypatch):
        # every SearchResult field equals the one a scipy-driven search
        # gives, under the stable order; exponential seed 3 ends on its 0.0
        # plateau, and the second pass of linear onepar z seed 7 keeps a
        # tie among the old vertices, left in their order
        seeds = (3, 7, 8)
        ours = [search(shape, system, seed, 1, phi) for seed in seeds]
        monkeypatch.setattr(importlib.import_module("ybops.search"),
                            "_nelder_mead", scipy_nelder_mead)
        assert ours == [search(shape, system, seed, 1, phi) for seed in seeds]


class TestTracedObjective:
    """The objective compiled from a trace of ``funceq._system``."""

    @pytest.mark.parametrize("mode", SEARCH_MODES, ids="-".join)
    def test_traced_from_system(self, mode, monkeypatch):
        # compiled once per mode; a change to _system changes the value, so
        # the five equations are stated only there
        module = importlib.import_module("ybops.search")
        params = [0.3, -0.2, 0.1, 0.25, -0.15, 0.05]
        objective = _make_objective(*mode)
        assert _make_objective(*mode) is objective
        want = objective(params)

        def mutated(uv, uw, vw):
            e = _system(uv, uw, vw)
            return e[:4] + (e[4] + uv[0] * vw[2],)
        try:
            with monkeypatch.context() as m:
                m.setattr(module, "_system", mutated)
                module._compile_objective.cache_clear()
                assert _make_objective(*mode)(params) != want
        finally:
            module._compile_objective.cache_clear()
        assert _make_objective(*mode)(params) == want

    def test_constant_on_the_left(self):
        # the reflected operators trace the constant as the left operand;
        # without them 2 * t would be str repetition, "t0t0"
        t = _Sym("t0")
        assert 2 * t == "((2.0) * t0)"
        assert 1.5 - t == "((1.5) - t0)"
        assert 2.0 + t == "((2.0) + t0)"
        assert 3 ** t == "((3.0) ** t0)"

    @pytest.mark.parametrize("shape", ["linear", "exponential"])
    def test_colored_objective_ignores_phi(self, shape):
        # one compiled objective per coloured shape, whatever phi is named
        objective = _make_objective(shape, "colored", "xz")
        assert all(_make_objective(shape, "colored", phi) is objective
                   for phi in ("z", "x"))

    def test_nan_bits_do_not_depend_on_calls(self):
        # on x86 the first calls of a fresh objective returned a nan of the
        # other sign here until _make_objective specialized it
        params = [-math.inf, 0.0, -math.inf, math.nan, -0.0, 1e-300]
        module = importlib.import_module("ybops.search")
        module._compile_objective.cache_clear()
        objective = _make_objective("linear", "onepar", "x")
        first = struct.pack("<d", objective(params))
        for _ in range(20):
            objective(params)
        assert struct.pack("<d", objective(params)) == first

    @pytest.mark.parametrize("shape,system,phi", SEARCH_MODES)
    def test_search_equals_reference_driven(self, shape, system, phi,
                                            monkeypatch):
        # every SearchResult field equals the one a search on the objective
        # built from funceq's triples gives
        seeds = (3, 7, 8)
        ours = [search(shape, system, seed, 1, phi) for seed in seeds]
        monkeypatch.setattr(importlib.import_module("ybops.search"),
                            "_make_objective", reference_objective)
        assert ours == [search(shape, system, seed, 1, phi) for seed in seeds]
