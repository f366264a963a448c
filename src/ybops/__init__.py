"""Exact-arithmetic construction and verification of Yang-Baxter operators
derived from finite-dimensional associative algebras."""

from .algebra import (Algebra, Coalgebra, ValidationReport, cubic_algebra,
                      dual_coalgebra, multiply, poly_quotient,
                      quadratic_algebra, validate)
from .colored import (ColoredFamily, ansatz_op, coalgebra_colored_op,
                      remark2_op, thm1_inv, thm1_op, thm2_inv, thm2_op)
from .compare import BraidFamily, compare_q1, okado_rhat, twisted_prop1_rhat
from .frt import (NCPoly, RelationSet, SpanReport, claimed_relations,
                  exchange_closure, pq_limit_relations, rtt_residual,
                  span_membership, uv_symmetry_check)
from .funceq import (FAMILIES, CoeffTriple, Family, catalogue,
                     eval_colored_system, eval_onepar_system)
from .onepar import (OneParFamily, prop1_coalgebra_op, prop1_inv, prop1_op,
                     prop2_inv, prop2_op, remark_x_op)
from .search import SearchResult
from .tensorop import (Op2, Op3, braid_residual, colored_qybe_residual,
                       embed_leg, flip_op2, identity_op2, max_abs_entry,
                       onepar_qybe_residual, twist_compose, yb_commutator)
from .ybsystem import WXZSystem, thm3_system, wxz_residuals

__version__ = "0.1.0"
