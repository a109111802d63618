"""Exterior calculus on finite fermion-hole spaces.

Core value: a sparse :class:`Multivector` over bitmask-encoded basis blades,
with the progressive product (wedge), the regressive product (vee), the Hodge
star complement, and the induced scalar product.  Companion modules cover
factor-list extensors and split-sum joins, fermionic ladder operators, the
partial Boolean gate bridge, the multi-qubit bridge, and an expression
language with a CLI front end.
"""

from .errors import (
    DimensionError,
    EvalError,
    ExcalcError,
    ExprSyntaxError,
    GradeError,
    IndexRangeError,
    SchemaError,
)
from .multivector import (
    MAX_DIM,
    PRUNE_TOL,
    Multivector,
    all_blades,
    basis_vector,
    conjugate,
    covector,
    grade_project,
    hodge,
    hodge_inverse,
    mv_equal_approx,
    parity_sector,
    scalar_product,
    step_of,
    vee,
    wedge,
)

__all__ = [
    "MAX_DIM",
    "PRUNE_TOL",
    "Multivector",
    "all_blades",
    "basis_vector",
    "conjugate",
    "covector",
    "grade_project",
    "hodge",
    "hodge_inverse",
    "mv_equal_approx",
    "parity_sector",
    "scalar_product",
    "step_of",
    "vee",
    "wedge",
    "ExcalcError",
    "DimensionError",
    "IndexRangeError",
    "GradeError",
    "EvalError",
    "ExprSyntaxError",
    "SchemaError",
]

__version__ = "0.1.0"
