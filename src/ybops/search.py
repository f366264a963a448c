"""Numerical search for new coefficient solutions of the functional systems.

The classification of all solutions is open; this harness explores the two
ansatz shapes with derivative-free simplex descent and random restarts, then
matches converged minima against the catalogue modulo gauge scale.
Determinism contract: every restart draws its start point from its own
stream, numpy's ``default_rng((seed, restart index))`` computed in Python
(:func:`_start`), so results are independent of scheduling.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional

from .errors import UnknownFamilyError
from .funceq import FAMILIES, _system, leg_colours, linear_colored_triple

# Small distinct rationals; avoid accidental degeneracies like equal colours.
DEFAULT_COLORED_GRID = (
    (Fraction(1), Fraction(2), Fraction(3)),
    (Fraction(2), Fraction(5), Fraction(7)),
    (Fraction(-1), Fraction(3), Fraction(4)),
    (Fraction(1, 2), Fraction(2), Fraction(5)),
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
_RHO, _CHI, _PSI, _SIGMA = 1.0, 2.0, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025


@dataclass(frozen=True)
class SearchResult:
    params: tuple
    objective: float
    classification: Optional[str]  # None when the restart did not converge
    seed: int
    restart: int
    iterations: int


def _binary(op):
    """The method and its reflection that trace ``a op b``."""
    def source(x):
        return x if isinstance(x, _Sym) else f"({float(x)!r})"

    def method(a, b):
        return _Sym(f"({source(a)} {op} {source(b)})")
    return method, lambda a, b: method(b, a)


class _Sym(str):
    """A float expression traced as Python source: each binary operation
    is written ``(a op b)`` and each constant ``(repr(float))``, so the
    compiled source does the traced float operations on the same operands,
    in the same order, and gives the same bits."""

    __add__, __radd__ = _binary("+")
    __sub__, __rsub__ = _binary("-")
    __mul__, __rmul__ = _binary("*")
    __pow__, __rpow__ = _binary("**")


def _make_objective(shape: str, system: str, phi_shape: str):
    """The summed squared residuals over the system's default grid, as a
    function of the six ansatz parameters, compiled once per mode.

    ``phi_shape`` must name a phi for either system; the coloured system
    has no phi, so all three give its one objective per shape."""
    if phi_shape not in _PHI_SHAPES:
        raise UnknownFamilyError(f"unknown phi shape {phi_shape!r}")
    return _compile_objective(shape, system,
                              phi_shape if system == "onepar" else None)


@cache
def _compile_objective(shape: str, system: str, phi_shape):
    """The objective of :func:`_make_objective`, ``phi_shape`` None for the
    coloured system.

    The mode's coefficient expressions and :func:`ybops.funceq._system`
    run once on symbolic names (:class:`_Sym`), and the trace becomes one
    straight-line function: a local per coefficient of each distinct
    colour argument, each base of the exponential shape raised to each
    distinct colour once, then ``total += e * e`` for e1..e5 at each grid
    point in turn.  Every float operation of the evaluation it replaces
    runs on the same operands in the same order, so the values are equal
    bit for bit.  A power that overflows, or 0.0 to a negative power,
    gives ``math.inf``.  It unpacks six Python floats as they are given."""
    grid = DEFAULT_COLORED_GRID if system == "colored" else DEFAULT_ONEPAR_GRID
    fgrid = [tuple(float(c) for c in pt) for pt in grid]
    if system == "colored":
        if shape not in ("linear", "exponential"):
            raise UnknownFamilyError(f"unknown ansatz shape {shape!r}")
        phi = None
    elif system == "onepar":
        if shape != "linear":
            raise UnknownFamilyError(
                "one-parameter search supports the linear shape only")
        phi = FAMILIES[_PHI_SHAPES[phi_shape]].phi
    else:
        raise UnknownFamilyError(f"unknown system {system!r}")
    calls = [leg_colours(phi, *pt) for pt in fgrid]
    # the grids hold no signed zero, so equal keys are equal bits
    args = dict.fromkeys(a for call in calls for a in call)

    lines = []  # the assignments, in the objective's try block

    def let(expr):
        name = _Sym(f"v{len(lines)}")
        lines.append(f"{name} = {expr}")
        return name
    params = [_Sym(f"t{i}") for i in range(6)]
    if system == "onepar":
        p, pp, q, qp, r, rp = params

        def coeffs(x):
            return p * x - pp, q * x - qp, r * x - rp
    elif shape == "linear":
        coeffs = linear_colored_triple(params).coeffs
    else:
        # positive bases via exp keep the ansatz defined at non-integer
        # colours; alpha = p^u q^v, beta = a^u b^v, gamma = c^u d^v
        p, q, a, b, c, d = (let(f"exp({t})") for t in params)
        left = {u: [let(x ** u) for x in (p, a, c)]
                for u in dict.fromkeys(u for u, _ in args)}
        right = {v: [let(x ** v) for x in (q, b, d)]
                 for v in dict.fromkeys(v for _, v in args)}

        def coeffs(u, v):
            return tuple(x * y for x, y in zip(left[u], right[v]))
    values = {a: [let(c) for c in coeffs(*a)] for a in args}
    source = [
        "def objective(params):",
        "    try:",
        f"        {', '.join(params)} = params",
        *(f"        {line}" for line in lines),
        "    except ArithmeticError:",
        "        return inf",
        "    total = 0.0"]
    for call in calls:
        for e in _system(*(values[a] for a in call)):
            source += [f"    e = {e}", "    total += e * e"]
    source.append("    return total")
    namespace = {"exp": math.exp, "inf": math.inf}
    exec(compile("\n".join(source), f"<objective {shape} {system} "
                 f"{phi_shape}>", "exec"), namespace)
    objective = namespace["objective"]
    # from 3.11 on, CPython specializes a function's float operations once
    # it has run a few times (7 calls on 3.11, 1 on 3.12 and 3.13), and on
    # two nan operands a specialized + or * may return the other one: run
    # it until it is specialized, so the bits of a nan value do not depend
    # on how often it has run
    for _ in range(8):
        objective((0.0,) * 6)
    return objective


def _insert(sim, fsim, x, f):
    """Insert vertex x, of value f, after its equals, or last if f is nan."""
    i = len(fsim)
    if f == f:
        # nan values sit only at the tail, and a bisect that meets one
        # goes right: search the values before them
        while i and fsim[i - 1] != fsim[i - 1]:
            i -= 1
        i = bisect_right(fsim, f, 0, i)
    sim.insert(i, x)
    fsim.insert(i, f)


@cache
def _compile_step(n):
    """The per-coordinate float work of :func:`_nelder_mead` on n
    coordinates, compiled once per n into straight-line functions on
    tuples, as :func:`_compile_objective` compiles the objective:
    ``centroid(sim)``, the left fold ``(s0[k] + s1[k] + ...) / n`` over
    the first n vertices, as numpy's reduce over rows (builtin sum is
    compensated from Python 3.12 on); ``line(c, b, d, w)``, the points
    ``c * b[k] - d * w[k]`` of reflection, expansion and outside
    contraction; ``inside(b, w)``, ``ic * b[k] + _PSI * w[k]``;
    ``shrink(a, y)``, ``a[k] + _SIGMA * (y[k] - a[k])``; and
    ``converged(sim, fsim)``, scipy's stopping test.  Each float operation
    has the operands, in the order, of scipy's array expression."""
    r = range(n)

    def each(term):  # the tuple of term(k) for k = 0..n-1
        return "(" + "".join(f"{term(k)}, " for k in r) + ")"
    fs = ", ".join(f"f{j}" for j in range(n + 1))
    ss = ", ".join(f"s{j}" for j in range(n + 1))
    source = [
        "def centroid(sim):",
        f"    {ss} = sim",
        "    return " + each(lambda k: "(" + " + ".join(
            f"s{j}[{k}]" for j in r) + f") / {n}"),
        "def line(c, b, d, w):",
        "    return " + each(lambda k: f"c * b[{k}] - d * w[{k}]"),
        "def inside(b, w):",
        "    return " + each(
            lambda k: f"{1 - _PSI!r} * b[{k}] + {_PSI!r} * w[{k}]"),
        "def shrink(a, y):",
        "    return " + each(
            lambda k: f"a[{k}] + {_SIGMA!r} * (y[{k}] - a[{k}])"),
        # both tests are pure, so the cheaper one goes first; a <= is
        # false on a nan difference, as numpy's max(...) <= is
        "def converged(sim, fsim):",
        f"    {fs} = fsim",
        "    if not (" + " and ".join(
            f"abs(f0 - f{j}) <= {FATOL!r}" for j in range(1, n + 1)) + "):",
        "        return False",
        f"    {ss} = sim",
        "    return (" + " and ".join(
            f"abs(s{j}[{k}] - s0[{k}]) <= {XATOL!r}"
            for j in range(1, n + 1) for k in r) + ")"]
    namespace = {}
    exec(compile("\n".join(source), f"<step {n}>", "exec"), namespace)
    centroid, line, inside, shrink, converged = (namespace[name] for name in (
        "centroid", "line", "inside", "shrink", "converged"))
    # specialized before first use, as the objective is: the bits of a nan
    # coordinate do not depend on how often a helper has run
    zero, sim, fsim = (0.0,) * n, [(0.0,) * n] * (n + 1), [0.0] * (n + 1)
    for _ in range(8):
        centroid(sim), line(1.0, zero, 1.0, zero), inside(zero, zero)
        shrink(zero, zero), converged(sim, fsim)
    return centroid, line, inside, shrink, converged


def _nelder_mead(func, x0):
    """Minimize ``func`` by Nelder-Mead from ``x0``: ``(x, fun, nit)``.

    Runs on tuples of Python floats, with the float operations, in the
    same order, of ``scipy.optimize.minimize(func, x0,
    method="Nelder-Mead", options={"maxiter": MAX_ITER, "xatol": XATOL,
    "fatol": FATOL})``, so x, fun and nit equal scipy's bit for bit when
    its ``np.argsort`` is the stable one, for any ``func`` that never
    returns -0.0.  The per-coordinate step is generated once per dimension
    (:func:`_compile_step`), as the objective is.  The simplex order is
    :func:`_insert`'s, with no re-sort: the start point and scipy's start
    vertices enter in turn, each new vertex in place of the worst, and
    after a shrink the best vertex and then each shrunk one in turn."""
    n = len(x0)
    centroid, line, inside, shrink, converged = _compile_step(n)
    x0 = tuple(map(float, x0))
    sim, fsim = [], []
    _insert(sim, fsim, x0, func(x0))
    for k in range(n):
        y = list(x0)
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        y = tuple(y)
        _insert(sim, fsim, y, func(y))
    # reflection, expansion and outside contraction are c * b - d * w for
    # the centroid b and the worst vertex w
    rc, ec, oc = 1 + _RHO, 1 + _RHO * _CHI, 1 + _PSI * _RHO
    rd, ed, od = _RHO, _RHO * _CHI, _PSI * _RHO
    nit = 1
    while nit < MAX_ITER:
        if converged(sim, fsim):
            break
        worst = sim[-1]
        xbar = centroid(sim)
        xr = line(rc, xbar, rd, worst)
        fxr = func(xr)
        shrink_all = False
        if fxr < fsim[0]:
            xe = line(ec, xbar, ed, worst)
            fxe = func(xe)
            x, f = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            x, f = xr, fxr
        elif fxr < fsim[-1]:  # contraction outside
            x = line(oc, xbar, od, worst)
            f = func(x)
            shrink_all = not f <= fxr
        else:  # contraction inside
            x = inside(xbar, worst)
            f = func(x)
            shrink_all = not f < fsim[-1]
        nit += 1
        if shrink_all:
            best, rest = sim[0], sim[1:]
            sim, fsim = [best], [fsim[0]]
            for y in rest:
                x = shrink(best, y)
                _insert(sim, fsim, x, func(x))
        else:
            del sim[-1], fsim[-1]
            _insert(sim, fsim, x, f)
    # scipy's fun is np.min(fsim): nan when any vertex is, and nan values
    # sit only at the tail
    fun = fsim[0] if fsim[-1] == fsim[-1] else math.nan
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
    small = lambda *xs: all(abs(x) < PARAM_TOL for x in xs)
    if (small(p - pp, q - qp, r - p, rp - q)
            or small(p - q, q - r, pp - qp, qp - rp)):
        return "thm1-family" if system == "colored" else (
            "prop1-family" if phi_shape == "xz" else "unclassified")
    if system == "onepar":
        if small(pp, q, r, qp - rp, p + qp):
            # alpha = x, beta = gamma = 1
            return "prop2-family" if phi_shape == "z" else "unclassified"
        if small(p, qp, r, pp - rp, q + pp):
            # alpha = gamma = 1, beta = x
            return "remark-x-family" if phi_shape == "x" else "unclassified"
    return "unclassified"


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _words(n):
    """A seed int as numpy's SeedSequence reads it: 32-bit words, low
    first, one word for 0."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _start(seed, restart):
    """numpy's ``default_rng((seed, restart)).uniform(-3.0, 3.0, 6)``, bit
    for bit, as a list: ``SeedSequence((seed, restart))`` hashes the seed
    words into four pool words, which seed PCG64 (a 128-bit LCG with the
    XSL-RR output), and each coordinate is -3 + 6 * (53 high bits / 2**53).
    A negative seed raises numpy's ValueError."""
    entropy = _words(seed) + _words(restart)
    const = 0x43B0D7E5

    def hashmix(value, mult=0x931E8875):
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        x = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return x ^ x >> 16
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight words, read as four little-endian
    # 64-bit ones, (state high, state low, increment high, increment low)
    const = 0x8B51F9DD
    words = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    s0, s1, i0, i1 = (words[k] | words[k + 1] << 32 for k in range(0, 8, 2))
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * mult + inc) & _MASK128
    out = []
    for _ in range(6):
        state = (state * mult + inc) & _MASK128
        rot, x = state >> 122, (state >> 64 ^ state) & _MASK64
        x = (x >> rot | x << (64 - rot)) & _MASK64
        out.append(-3.0 + 6.0 * ((x >> 11) * (1.0 / 9007199254740992.0)))
    return out


def search(shape: str = "linear", system: str = "colored", seed: int = 0,
           restarts: int = 1, phi_shape: str = "xz") -> list:
    """Minimize the summed squared residuals from random starting points.

    Residuals are summed over the system's default grid.  Each restart runs
    Nelder-Mead (restarted once from its own minimum to tighten convergence)
    from a uniform start in [-3, 3]^6, the one numpy's
    ``default_rng((seed, restart))`` draws (:func:`_start`), so ``seed``
    must be a non-negative int.  Results come back in restart order.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    objective = _make_objective(shape, system, phi_shape)

    results = []
    for i in range(restarts):
        x0 = _start(seed, i)
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
