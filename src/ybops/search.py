"""Numerical search for new coefficient solutions of the functional systems.

The classification of all solutions is open; this harness explores the two
ansatz shapes with derivative-free simplex descent and random restarts, then
matches converged minima against the catalogue modulo gauge scale.
Determinism contract: every restart derives its own RNG stream from
(seed, restart index), so results are independent of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .errors import UnknownFamilyError
from .funceq import (eval_colored_system, eval_onepar_system,
                     exp_colored_triple, linear_colored_triple,
                     linear_onepar_triple)

# Small distinct rationals; avoid accidental degeneracies like equal colours.
DEFAULT_COLORED_GRID = (
    (Fraction(1), Fraction(2), Fraction(3)),
    (Fraction(2), Fraction(5), Fraction(7)),
    (Fraction(-1), Fraction(3), Fraction(4)),
    (Fraction(1, 2), Fraction(2), Fraction(5)),
)
# Exponential ansatz coefficients use the colours as exponents, so the exact
# catalogue checks need an all-integer grid.
DEFAULT_EXP_COLORED_GRID = (
    (1, 2, 3),
    (2, 5, 7),
    (-1, 3, 4),
    (0, 2, 5),
)
DEFAULT_ONEPAR_GRID = (
    (Fraction(1), Fraction(2)),
    (Fraction(2), Fraction(5)),
    (Fraction(-1), Fraction(3)),
    (Fraction(1, 2), Fraction(2)),
)

OBJECTIVE_TOL = 1e-8  # below this a result is classified
PARAM_TOL = 1e-6  # catalogue match distance after gauge normalization
MAX_ITER = 2000


@dataclass(frozen=True)
class SearchResult:
    params: tuple
    objective: float
    classification: Optional[str]  # None when the restart did not converge
    seed: int
    restart: int
    iterations: int


def _make_objective(shape: str, system: str, phi_shape: str):
    grid = DEFAULT_COLORED_GRID if system == "colored" else DEFAULT_ONEPAR_GRID
    fgrid = [tuple(float(c) for c in pt) for pt in grid]
    if system == "colored":
        builder = {"linear": linear_colored_triple,
                   "exponential": _exp_triple_from_logs}.get(shape)
        if builder is None:
            raise UnknownFamilyError(f"unknown ansatz shape {shape!r}")
        evaluate = eval_colored_system
    elif system == "onepar":
        if shape != "linear":
            raise UnknownFamilyError(
                "one-parameter search supports the linear shape only")
        builder = partial(linear_onepar_triple, phi_shape=phi_shape)
        evaluate = eval_onepar_system
    else:
        raise UnknownFamilyError(f"unknown system {system!r}")

    def objective(params):
        try:
            T = builder(params)
            total = 0.0
            for pt in fgrid:
                for r in evaluate(T, *pt):
                    total += r * r
        except ArithmeticError:
            # exponential ansatz overflowed, or underflowed to 0.0 and
            # was raised to a negative power; reject the point
            return math.inf
        return total
    return objective


def _exp_triple_from_logs(params):
    # positive bases via exp keeps the exponential ansatz well defined at
    # non-integer colours
    return exp_colored_triple([math.exp(t) for t in params])


def _normalize(params):
    """Divide out the gauge scale: gamma(1,0)=1, or first usable entry."""
    v = list(params)
    denom = v[4]  # r, i.e. gamma(1,0)
    if abs(denom) < 1e-8:
        denom = next((x for x in v if abs(x) > 1e-8), 1.0)
    return [x / denom for x in v]


def classify(shape: str, system: str, phi_shape: str, params,
             objective: float) -> Optional[str]:
    """Match a converged parameter vector against the catalogue.

    Returns None when the objective is above the classification threshold.
    Triples with alpha = beta = 0 always solve the systems (the operator is a
    scalar multiple of the flip) and are labelled degenerate, as is the zero
    operator.
    """
    if objective >= OBJECTIVE_TOL:
        return None
    v = list(params)
    scale = max(abs(x) for x in v)
    if shape == "exponential":
        b = [math.exp(t) for t in v]
        close = lambda i, j: abs(b[i] - b[j]) < PARAM_TOL * max(1.0, b[i])
        if close(2, 4) and close(3, 5) and close(0, 2):
            return "thm2-family"  # beta == gamma with shared u-base
        if close(0, 4) and close(1, 5) and close(1, 3):
            return "remark2-family"  # alpha == gamma with shared v-base
        return "unclassified"
    # linear shapes: (p, p', q, q', r, r')
    if scale < 1e-7:
        return "degenerate"  # operator identically zero
    if max(abs(x) for x in v[:4]) < PARAM_TOL * max(scale, 1.0):
        return "degenerate"  # alpha = beta = 0: scalar multiple of the flip
    p, pp, q, qp, r, rp = _normalize(v)
    if (abs(p - pp) < PARAM_TOL and abs(q - qp) < PARAM_TOL
            and abs(r - p) < PARAM_TOL and abs(rp - q) < PARAM_TOL):
        # alpha = p(u-v), beta = q(u-v), gamma = pu-qv (thm1 / prop1 shape)
        return "thm1-family" if system == "colored" else (
            "prop1-family" if phi_shape == "xz" else "unclassified")
    if (abs(p - q) < PARAM_TOL and abs(q - r) < PARAM_TOL
            and abs(pp - qp) < PARAM_TOL and abs(qp - rp) < PARAM_TOL):
        # alpha = beta = gamma: gauge-equivalent to the constant operator,
        # i.e. the p=q member of the thm1/prop1 family
        if system == "colored":
            return "thm1-family"
        return "prop1-family" if phi_shape == "xz" else "unclassified"
    if system == "onepar":
        if (abs(pp) < PARAM_TOL and abs(q) < PARAM_TOL and abs(r) < PARAM_TOL
                and abs(qp - rp) < PARAM_TOL and abs(p + qp) < PARAM_TOL):
            # alpha = x, beta = gamma = 1
            return "prop2-family" if phi_shape == "z" else "unclassified"
        if (abs(p) < PARAM_TOL and abs(qp) < PARAM_TOL and abs(r) < PARAM_TOL
                and abs(pp - rp) < PARAM_TOL and abs(q + pp) < PARAM_TOL):
            # alpha = gamma = 1, beta = x
            return "remark-x-family" if phi_shape == "x" else "unclassified"
    return "unclassified"


def search(shape: str = "linear", system: str = "colored", seed: int = 0,
           restarts: int = 1, phi_shape: str = "xz") -> list:
    """Minimize the summed squared residuals from random starting points.

    Residuals are summed over the system's default grid.  Each restart runs
    Nelder-Mead (restarted once from its own minimum to tighten convergence)
    from a uniform start in [-3, 3]^6.  Results come back in restart order.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    objective = _make_objective(shape, system, phi_shape)
    results = []
    options = {"maxiter": MAX_ITER, "xatol": 1e-12, "fatol": 1e-16}
    for i in range(restarts):
        rng = np.random.default_rng((seed, i))
        x0 = rng.uniform(-3.0, 3.0, size=6)
        res = minimize(objective, x0, method="Nelder-Mead", options=options)
        res2 = minimize(objective, res.x, method="Nelder-Mead", options=options)
        if res2.fun <= res.fun:
            res, iters = res2, res.nit + res2.nit
        else:
            iters = res.nit
        params = tuple(float(x) for x in res.x)
        results.append(SearchResult(
            params=params,
            objective=float(res.fun),
            classification=classify(shape, system, phi_shape, params,
                                    float(res.fun)),
            seed=seed, restart=i, iterations=int(iters)))
    return results
