import random
from fractions import Fraction

import pytest

from ybops.algebra import Algebra, cubic_algebra, quadratic_algebra, validate
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


@pytest.fixture
def M2():
    """The 2x2 matrices, basis E11, E12, E21, E22: a non-commutative carrier,
    so an inverse built on A instead of its opposite algebra shows."""
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


def rand_fraction(rng, lo=-9, hi=9, den=5, nonzero=False):
    while True:
        f = Fraction(rng.randint(lo, hi), rng.randint(1, den))
        if not (nonzero and f == 0):
            return f


@pytest.fixture
def rng():
    return random.Random(20240817)


# (shape, system, phi shape) of the five search modes
SEARCH_MODES = (("linear", "colored", "xz"), ("exponential", "colored", "xz"),
                ("linear", "onepar", "xz"), ("linear", "onepar", "z"),
                ("linear", "onepar", "x"))


def scipy_nelder_mead(func, x0):
    """scipy's Nelder-Mead with the search's options: ``(x, fun, nit)``.

    The reference the search's own Nelder-Mead must equal bit for bit.
    """
    np = pytest.importorskip("numpy")
    minimize = pytest.importorskip("scipy.optimize").minimize
    with np.errstate(all="ignore"):  # inf - inf next to the synthetic walls
        res = minimize(func, x0, method="Nelder-Mead", options={
            "maxiter": MAX_ITER, "xatol": 1e-12, "fatol": 1e-16})
    return res.x.tolist(), float(res.fun), res.nit
