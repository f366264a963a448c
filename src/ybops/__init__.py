"""Exact-arithmetic construction and verification of Yang-Baxter operators
derived from finite-dimensional associative algebras; import names from the
submodules, e.g. ``from ybops.colored import thm1_op``."""

from . import (algebra, colored, compare, errors, frt, funceq, onepar,
               scalars, search, tensorop, ybsystem)

__version__ = "0.1.0"
