"""Reference for the search objective: the summed squared residuals built
from coefficient triples, one ``CoeffTriple`` per parameter vector and
every grid point through ``eval_colored_system`` or
``eval_onepar_system``, evaluated directly on floats; the library instead
traces ``funceq._system`` once per mode and compiles the trace.  With the
exponential and one-parameter ansatz triples, which only this reference
builds.  Tests only."""

import math

from ybops.errors import UnknownFamilyError
from ybops.funceq import (FAMILIES, CoeffTriple, eval_colored_system,
                          eval_onepar_system, linear_colored_triple)
from ybops.search import (_PHI_SHAPES, DEFAULT_COLORED_GRID,
                          DEFAULT_ONEPAR_GRID)


def exp_colored_triple(params) -> CoeffTriple:
    """alpha = p^u q^v, beta = a^u b^v, gamma = c^u d^v (positive float
    bases, raised with ``**`` as the compiled objective does)."""
    p, q, a, b, c, d = params
    return CoeffTriple(lambda u, v: (p ** u * q ** v, a ** u * b ** v,
                                     c ** u * d ** v))


def linear_onepar_triple(params, phi_shape: str = "xz") -> CoeffTriple:
    """alpha = p*x - p', beta = q*x - q', gamma = r*x - r'."""
    p, pp, q, qp, r, rp = params
    if phi_shape not in _PHI_SHAPES:
        raise UnknownFamilyError(f"unknown phi shape {phi_shape!r}")
    return CoeffTriple(lambda x: (p * x - pp, q * x - qp, r * x - rp),
                       phi=FAMILIES[_PHI_SHAPES[phi_shape]].phi)


def reference_objective(shape: str, system: str, phi_shape: str):
    """The objective of ``search._make_objective(shape, system, phi_shape)``
    for the five search modes; ``math.inf`` where the triple or the system
    raises an ``ArithmeticError``."""
    grid = [tuple(map(float, pt)) for pt in (
        DEFAULT_COLORED_GRID if system == "colored" else DEFAULT_ONEPAR_GRID)]

    def objective(params):
        params = [float(t) for t in params]
        try:
            if system == "colored":
                # the exponential shape's parameters are log-bases
                T = (linear_colored_triple(params) if shape == "linear" else
                     exp_colored_triple([math.exp(t) for t in params]))
                residuals = [eval_colored_system(T, *pt) for pt in grid]
            else:
                T = linear_onepar_triple(params, phi_shape)
                residuals = [eval_onepar_system(T, *pt) for pt in grid]
        except ArithmeticError:
            # ZeroDivisionError: an exponential base that underflowed to
            # 0.0, raised to a negative colour of the grid
            return math.inf
        total = 0.0
        for point in residuals:
            for r in point:
                total += r * r
        return total
    return objective
