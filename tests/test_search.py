"""Derivative-free search over the functional systems."""

import pytest

from ybops.errors import UnknownFamilyError
from ybops.search import (DEFAULT_COLORED_GRID, OBJECTIVE_TOL, SearchResult,
                          _make_objective, classify, search)


class TestClassify:
    def test_thm1_shape(self):
        # (p, p', q, q', r, r') with p=p', q=q', r=p, r'=q, after gauge
        params = (2.0, 2.0, 5.0, 5.0, 2.0, 5.0)
        assert classify("linear", "colored", "xz", params, 0.0) == "thm1-family"

    def test_constant_triple_is_thm1(self):
        params = (1.5, 1.5, 1.5, 1.5, 1.5, 1.5)
        assert classify("linear", "colored", "xz", params, 0.0) == "thm1-family"

    def test_zero_is_degenerate(self):
        assert classify("linear", "colored", "xz", (0.0,) * 6, 0.0) == "degenerate"

    def test_flip_multiple_is_degenerate(self):
        params = (0.0, 0.0, 0.0, 0.0, 3.0, 1.0)
        assert classify("linear", "colored", "xz", params, 0.0) == "degenerate"

    def test_above_tolerance_unclassified(self):
        params = (2.0, 2.0, 5.0, 5.0, 2.0, 5.0)
        assert classify("linear", "colored", "xz", params, 1e-3) is None

    def test_prop2_shape(self):
        # alpha = x, beta = gamma = 1 -> (1, 0, 0, -1, 0, -1)
        params = (1.0, 0.0, 0.0, -1.0, 0.0, -1.0)
        assert classify("linear", "onepar", "z", params, 0.0) == "prop2-family"
        assert classify("linear", "onepar", "xz", params, 0.0) == "unclassified"

    def test_remark_x_shape(self):
        params = (0.0, -1.0, 1.0, 0.0, 0.0, -1.0)
        assert classify("linear", "onepar", "x", params, 0.0) == "remark-x-family"


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

    def test_default_grid_distinct(self):
        for pt in DEFAULT_COLORED_GRID:
            assert len(set(pt)) == len(pt)


class TestObjective:
    @pytest.mark.parametrize("shape,system,phi", [
        ("linear", "colored", "xz"), ("exponential", "colored", "xz"),
        ("linear", "onepar", "xz"), ("linear", "onepar", "z"),
        ("linear", "onepar", "x")])
    def test_array_and_list_agree(self, shape, system, phi):
        # Nelder-Mead passes numpy arrays; the value must not depend on it
        np = pytest.importorskip("numpy")
        objective = _make_objective(shape, system, phi)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(-3.0, 3.0, size=6)
            got = objective(x)
            assert type(got) is float and got == objective(x.tolist())
