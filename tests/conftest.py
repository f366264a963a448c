import functools
import math
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest

from ybops import tensorop
from ybops.algebra import Algebra, cubic_algebra, quadratic_algebra, validate
from ybops.funceq import FAMILIES
from ybops.onepar import OneParFamily
from ybops.search import MAX_ITER


@pytest.fixture
def A0():
    return quadratic_algebra(0)


@pytest.fixture
def A1():
    return quadratic_algebra(1)


@pytest.fixture(params=[0, 1], ids=["sigma0", "sigma1"])
def Aq(request):
    return quadratic_algebra(request.param)


@pytest.fixture(params=[(0, 0), (2, 5), (1, 0)],
                ids=["eps0rho0", "eps2rho5", "eps1rho0"])
def Bc(request):
    eps, rho = request.param
    return cubic_algebra(eps, rho)


def matrix_algebra():
    """The 2x2 matrices, basis E11, E12, E21, E22, built by hand, so it is
    validated when its validity is first read."""
    def prod(i, j):  # E_ab E_cd = [b == c] E_ad, with E_ab at index 2a + b
        (a, b), (c, d) = divmod(i, 2), divmod(j, 2)
        return tuple(Fraction(int(b == c and k == 2 * a + d))
                     for k in range(4))
    A = Algebra(dim=4, unit=(Fraction(1), Fraction(0), Fraction(0),
                             Fraction(1)),
                structconst=tuple(tuple(prod(i, j) for j in range(4))
                                  for i in range(4)))
    assert validate(A).ok
    return A


@pytest.fixture
def M2():
    """The 2x2 matrices: a non-commutative carrier, so an inverse built on A
    instead of its opposite algebra shows."""
    return matrix_algebra()


def bad_unit_algebra():
    """k[X]/(X^2 - 1) with x*1 = 1: exact, but neither unital nor
    associative."""
    c = [[list(row) for row in plane]
         for plane in quadratic_algebra(1).structconst]
    c[1][0] = [Fraction(1), Fraction(0)]
    return Algebra(dim=2, unit=(Fraction(1), Fraction(0)),
                   structconst=tuple(tuple(map(tuple, p)) for p in c))


def both_routes(fam):
    """``fam`` and a view of it that exposes only ``op`` (and ``phi``).

    A table family on an associative and unital carrier
    (``A.valid``) has its exact residual decided by the five-equation
    system; the view's residual always comes from the sparse kernel, so a
    check run on both covers both."""
    view = SimpleNamespace(op=fam.op)
    if isinstance(fam, OneParFamily):
        view.phi = fam.phi
    return fam, view



def cleared(triple):
    """A rational triple times the lcm of its denominators, as ints."""
    den = math.lcm(*(Fraction(x).denominator for x in triple))
    return tuple(int(x * den) for x in triple)


def table_triple(fam, *colours):
    """The coefficients (alpha, beta, gamma) of ``fam.op(*colours)`` read
    off the table, ``FAMILIES[fam.kind].coeffs``, at the family's
    parameters and the colours as exact rationals: the reference of which
    each leg of ``integer_legs`` is a positive multiple."""
    F = FAMILIES[fam.kind]
    return F.coeffs(*(fam.params[name] for name in F.params),
                    *map(Fraction, colours))


def sparse_left_product(*mats):
    """Dense matrix product, right to left, skipping the zero entries of each
    left factor: the dense reference at sizes where mat_mul takes seconds."""
    out = mats[-1]
    for A in reversed(mats[:-1]):
        out = [[sum((x * out[k][j] for k, x in row), Fraction(0))
                for j in range(len(out[0]))]
               for row in ([(k, x) for k, x in enumerate(r) if x] for r in A)]
    return out

def linear_coeffs(p, pp, q, qp, r, rp, u, v):
    """The linear ansatz triple (pu - p'v, qu - q'v, ru - r'v)."""
    return p * u - pp * v, q * u - qp * v, r * u - rp * v


# the five components of the linear coloured system's solution set, as
# (p, p', q, q', r, r') from three parameters; at v = 1 each is also a
# solution of the one-parameter system with phi = x*z
LINEAR_COMPONENTS = (
    lambda a, b, c: (a, a, b, b, a, b),  # thm1
    lambda a, b, c: (a, a, b, b, b, a),  # thm1, gamma = Qu - Pv
    lambda a, b, c: (a, b, c * a, c * b, a, b),  # (au - bv)(1, c, 1)
    lambda a, b, c: (c * a, c * b, a, b, a, b),  # (au - bv)(c, 1, 1)
    lambda a, b, c: (0, 0, 0, 0, a, b),  # alpha = beta = 0
)

# Exponential ansatz coefficients use the colours as exponents, so the exact
# catalogue checks need an all-integer grid.
DEFAULT_EXP_COLORED_GRID = (
    (1, 2, 3),
    (2, 5, 7),
    (-1, 3, 4),
    (0, 2, 5),
)


def rand_fraction(rng, lo=-9, hi=9, den=5, nonzero=False):
    while True:
        f = Fraction(rng.randint(lo, hi), rng.randint(1, den))
        if not (nonzero and f == 0):
            return f


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def kernel_calls(monkeypatch):
    """A spy on the kernel's integer entry point, which every residual
    caller goes through: the list of its calls, one entry per call, the
    number of operators it was given."""
    calls = []
    real = tensorop._qybe_columns

    def counted(*ops):
        calls.append(len(ops))
        return real(*ops)
    monkeypatch.setattr(tensorop, "_qybe_columns", counted)
    return calls


# (shape, system, phi shape) of the five search modes
SEARCH_MODES = (("linear", "colored", "xz"), ("exponential", "colored", "xz"),
                ("linear", "onepar", "xz"), ("linear", "onepar", "z"),
                ("linear", "onepar", "x"))


def scipy_nelder_mead(func, x0):
    """scipy's Nelder-Mead with the search's options, under the stable
    simplex order: ``(x, fun, nit)``.

    The reference the search's own Nelder-Mead must equal bit for bit.
    scipy orders its simplex with ``np.argsort(fsim)``, read from the numpy
    module, whose default tie order is not the stable one on every CPU; it
    runs here with ``np.argsort(fsim, kind="stable")``, the search's order,
    and hands ``func`` each point as a tuple of Python floats, as the
    search's own Nelder-Mead does.
    """
    np = pytest.importorskip("numpy")
    minimize = pytest.importorskip("scipy.optimize").minimize
    stable = functools.partial(np.argsort, kind="stable")
    # errstate: inf - inf next to the synthetic walls
    with mock.patch.object(np, "argsort", stable), np.errstate(all="ignore"):
        res = minimize(lambda x: func(tuple(map(float, x))), x0,
                       method="Nelder-Mead", options={
                           "maxiter": MAX_ITER, "xatol": 1e-12,
                           "fatol": 1e-16})
    return res.x.tolist(), float(res.fun), res.nit
