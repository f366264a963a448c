"""Numerical search for new coefficient solutions of the functional systems.

The classification of all solutions is open; this harness explores the two
ansatz shapes with derivative-free simplex descent and random restarts, then
matches converged minima against the catalogue modulo gauge scale.
Determinism contract: every restart derives its own RNG stream from
(seed, restart index), so results are independent of scheduling.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Optional

from .errors import UnknownFamilyError
from .funceq import FAMILIES, _system

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

# phi shape of the one-parameter search -> the table family with that phi
_PHI_SHAPES = {"xz": "prop1", "z": "prop2", "x": "remark_x"}

OBJECTIVE_TOL = 1e-8  # below this a result is classified
PARAM_TOL = 1e-6  # catalogue match distance after gauge normalization
MAX_ITER = 2000
XATOL = 1e-12  # Nelder-Mead stops when the simplex is this small in x
FATOL = 1e-16  # ... and its values are this close

# scipy's non-adaptive Nelder-Mead coefficients and initial-simplex steps
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025


@dataclass(frozen=True)
class SearchResult:
    params: tuple
    objective: float
    classification: Optional[str]  # None when the restart did not converge
    seed: int
    restart: int
    iterations: int


def _make_objective(shape: str, system: str, phi_shape: str):
    """The summed squared residuals over the system's default grid, as a
    function of the six ansatz parameters: each distinct colour argument is
    evaluated once, with :mod:`ybops.funceq`'s expressions, and the
    exponential shape raises each base to each distinct colour once.  A
    power that overflows, or 0.0 to a negative power, gives ``math.inf``."""
    grid = DEFAULT_COLORED_GRID if system == "colored" else DEFAULT_ONEPAR_GRID
    fgrid = [tuple(float(c) for c in pt) for pt in grid]
    if system == "colored":
        if shape not in ("linear", "exponential"):
            raise UnknownFamilyError(f"unknown ansatz shape {shape!r}")
        # the colour pairs of eval_colored_system at each grid point
        calls = [((u, v), (u, w), (v, w)) for u, v, w in fgrid]
    elif system == "onepar":
        if shape != "linear":
            raise UnknownFamilyError(
                "one-parameter search supports the linear shape only")
        if phi_shape not in _PHI_SHAPES:
            raise UnknownFamilyError(f"unknown phi shape {phi_shape!r}")
        phi = FAMILIES[_PHI_SHAPES[phi_shape]].phi
        # the arguments of eval_onepar_system at each grid point
        calls = [((x,), (phi(x, z),), (z,)) for x, z in fgrid]
    else:
        raise UnknownFamilyError(f"unknown system {system!r}")
    # the grids hold no signed zero, so equal keys are equal bits
    args = list(dict.fromkeys(a for call in calls for a in call))
    slots = [tuple(args.index(a) for a in call) for call in calls]

    if system == "onepar":
        xs = [x for x, in args]

        def values(p, pp, q, qp, r, rp):
            return [(p * x - pp, q * x - qp, r * x - rp) for x in xs]
    elif shape == "linear":
        def values(p, pp, q, qp, r, rp):
            return [(p * u - pp * v, q * u - qp * v, r * u - rp * v)
                    for u, v in args]
    else:
        us = list(dict.fromkeys(u for u, _ in args))
        vs = list(dict.fromkeys(v for _, v in args))
        ui = [us.index(u) for u, _ in args]
        vi = [vs.index(v) for _, v in args]

        def values(*logs):
            # positive bases via exp keep the ansatz defined at non-integer
            # colours; alpha = p^u q^v, beta = a^u b^v, gamma = c^u d^v
            p, q, a, b, c, d = map(math.exp, logs)
            left = [(p ** u, a ** u, c ** u) for u in us]
            right = [(q ** v, b ** v, d ** v) for v in vs]
            return [(pu * qv, au * bv, cu * dv) for (pu, au, cu), (qv, bv, dv)
                    in zip([left[i] for i in ui], [right[j] for j in vi])]

    def objective(params):
        # Python floats: a numpy array gives the same bits, more slowly
        try:
            vals = values(*map(float, params))
        except ArithmeticError:
            return math.inf
        total = 0.0
        for i, j, k in slots:
            for r in _system(vals[i], vals[j], vals[k]):
                total += r * r
        return total
    return objective


def _sorted_simplex(sim, fsim):
    """The vertices and values in ascending value order, as scipy sorts
    them with ``np.argsort``: nan last, and ties in numpy's order, which
    is not the stable one on every CPU."""
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    values = [fsim[i] for i in order]
    if not all(a < b for a, b in zip(values, values[1:])):
        # a tie or a nan: only numpy knows its own order
        import numpy as np
        order = np.argsort(fsim).tolist()
        values = [fsim[i] for i in order]
    return [sim[i] for i in order], values


def _nelder_mead(func, x0):
    """Minimize ``func`` by Nelder-Mead from ``x0``: ``(x, fun, nit)``.

    Runs on lists of Python floats, with the float operations, in the same
    order, and the ordering of ties and nan of
    ``scipy.optimize.minimize(func, x0, method="Nelder-Mead",
    options={"maxiter": MAX_ITER, "xatol": XATOL, "fatol": FATOL})``, so
    x, fun and nit equal scipy's bit for bit for any ``func`` that never
    returns -0.0.  The simplex stays ordered by insertion: a new vertex
    whose value differs from every other, none of them nan, has one place,
    the one ``np.argsort`` gives it; a tie, a nan or a shrink goes through
    :func:`_sorted_simplex`.
    """
    n = len(x0)
    x0 = [float(x) for x in x0]
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim.append(y)
    sim, fsim = _sorted_simplex(sim, [func(x) for x in sim])
    # scipy sorts twice, and np.argsort need not leave ties in place
    sim, fsim = _sorted_simplex(sim, fsim)
    # reflection, expansion and outside contraction are c * b - d * w for
    # the centroid b and the worst vertex w; inside contraction is
    # ic * b + _PSI * w
    rc, ec, oc, ic = 1 + _RHO, 1 + _RHO * _CHI, 1 + _PSI * _RHO, 1 - _PSI
    rd, ed, od = _RHO, _RHO * _CHI, _PSI * _RHO
    ordered = all(a < b for a, b in zip(fsim, fsim[1:n]))
    nit = 1
    while nit < MAX_ITER:
        best = sim[0]
        # all(<=) is false on a nan difference, as numpy's max(...) <= is
        if (all(abs(a - b) <= XATOL for x in sim[1:] for a, b in zip(x, best))
                and all(abs(fsim[0] - f) <= FATOL for f in fsim[1:])):
            break
        worst = sim[-1]
        # a left fold, as numpy's reduce over rows; builtin sum is
        # compensated from Python 3.12 on
        xbar = [reduce(add, col) / n for col in zip(*sim[:-1])]
        xr = [rc * b - rd * w for b, w in zip(xbar, worst)]
        fxr = func(xr)
        shrink = False
        if fxr < fsim[0]:
            xe = [ec * b - ed * w for b, w in zip(xbar, worst)]
            fxe = func(xe)
            x, f = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            x, f = xr, fxr
        elif fxr < fsim[-1]:  # contraction outside
            x = [oc * b - od * w for b, w in zip(xbar, worst)]
            f = func(x)
            shrink = not f <= fxr
        else:  # contraction inside
            x = [ic * b + _PSI * w for b, w in zip(xbar, worst)]
            f = func(x)
            shrink = not f < fsim[-1]
        nit += 1
        if shrink:
            for j in range(1, n + 1):
                sim[j] = [a + _SIGMA * (y - a) for a, y in zip(best, sim[j])]
                fsim[j] = func(sim[j])
        else:
            i = bisect_left(fsim, f, 0, n)
            if ordered and f == f and (i == n or fsim[i] != f):
                # n + 1 distinct values, no nan: one order, numpy's too
                del sim[-1], fsim[-1]
                sim.insert(i, x)
                fsim.insert(i, f)
                continue
            sim[-1], fsim[-1] = x, f
        sim, fsim = _sorted_simplex(sim, fsim)
        ordered = all(a < b for a, b in zip(fsim, fsim[1:n]))
    # scipy's fun is np.min(fsim): nan when any vertex is nan
    fun = fsim[0] if all(f == f for f in fsim) else math.nan
    return sim[0], fun, nit


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

    Returns None unless the objective is below the classification
    threshold, so a nan objective is not classified.
    Triples with alpha = beta = 0 always solve the systems (the operator is a
    scalar multiple of the flip) and are labelled degenerate, as is the zero
    operator.
    """
    if not objective < OBJECTIVE_TOL:
        return None
    v = list(params)
    if shape == "exponential":
        b = [math.exp(t) for t in v]
        close = lambda i, j: abs(b[i] - b[j]) < PARAM_TOL * max(1.0, b[i])
        if close(2, 4) and close(3, 5) and close(0, 2):
            return "thm2-family"  # beta == gamma with shared u-base
        if close(0, 4) and close(1, 5) and close(1, 3):
            return "remark2-family"  # alpha == gamma with shared v-base
        return "unclassified"
    # linear shapes: (p, p', q, q', r, r')
    scale = max(abs(x) for x in v)
    if max(abs(x) for x in v[:4]) < PARAM_TOL * max(scale, 1.0):
        # alpha = beta = 0: a scalar multiple of the flip, the zero
        # operator included
        return "degenerate"
    p, pp, q, qp, r, rp = _normalize(v)
    # alpha = p(u-v), beta = q(u-v), gamma = pu-qv (thm1 / prop1 shape), or
    # alpha = beta = gamma: gauge-equivalent to the constant operator, i.e.
    # the p=q member of the thm1/prop1 family
    if ((abs(p - pp) < PARAM_TOL and abs(q - qp) < PARAM_TOL
         and abs(r - p) < PARAM_TOL and abs(rp - q) < PARAM_TOL)
            or (abs(p - q) < PARAM_TOL and abs(q - r) < PARAM_TOL
                and abs(pp - qp) < PARAM_TOL and abs(qp - rp) < PARAM_TOL)):
        return "thm1-family" if system == "colored" else (
            "prop1-family" if phi_shape == "xz" else "unclassified")
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
    # imported here, so that importing ybops does not load it
    import numpy as np

    results = []
    for i in range(restarts):
        rng = np.random.default_rng((seed, i))
        x0 = rng.uniform(-3.0, 3.0, size=6).tolist()
        x, fun, iters = _nelder_mead(objective, x0)
        x2, fun2, nit2 = _nelder_mead(objective, x)
        if fun2 <= fun:
            x, fun, iters = x2, fun2, iters + nit2
        params = tuple(x)
        results.append(SearchResult(
            params=params, objective=fun,
            classification=classify(shape, system, phi_shape, params, fun),
            seed=seed, restart=i, iterations=iters))
    return results
