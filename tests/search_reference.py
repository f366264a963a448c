"""Reference for the search objective: the summed squared residuals built
from ``funceq``'s coefficient triples, one ``CoeffTriple`` per parameter
vector and every grid point through ``eval_colored_system`` or
``eval_onepar_system``, as the library computed it before it evaluated the
ansatz values itself.  Tests only."""

import math

from ybops.funceq import (eval_colored_system, eval_onepar_system,
                          exp_colored_triple, linear_colored_triple,
                          linear_onepar_triple)
from ybops.search import DEFAULT_COLORED_GRID, DEFAULT_ONEPAR_GRID


def reference_objective(shape: str, system: str, phi_shape: str):
    """The objective of ``search._make_objective(shape, system, phi_shape)``
    for the five search modes; ``math.inf`` where the triple or the system
    raises an ``ArithmeticError``."""
    def objective(params):
        params = [float(t) for t in params]
        try:
            if system == "colored":
                # the exponential shape's parameters are log-bases
                T = (linear_colored_triple(params) if shape == "linear" else
                     exp_colored_triple([math.exp(t) for t in params]))
                residuals = [eval_colored_system(T, *map(float, pt))
                             for pt in DEFAULT_COLORED_GRID]
            else:
                T = linear_onepar_triple(params, phi_shape)
                residuals = [eval_onepar_system(T, *map(float, pt))
                             for pt in DEFAULT_ONEPAR_GRID]
        except ArithmeticError:
            return math.inf
        total = 0.0
        for point in residuals:
            for r in point:
                total += r * r
        return total
    return objective
