"""mvop: exact engine for matrix differential operators acting on matrix
orthogonal polynomials, and for verifying Darboux transformations between
weight matrices.

Everything is computed exactly over Q: polynomials as integer numerators over
one denominator, constants as fractions.Fraction. Every verification is a
coefficient-exact identity or a failure with a witness.
"""

__version__ = "0.1.0"

from .exactalg import (  # noqa: F401
    DecompositionError,
    DivisionError,
    DomainError,
    FracMat,
    MatRF,
    NonPolynomialError,
    Poly,
    RatFunc,
    ShapeError,
    SingularError,
    X,
)
from .diffop import (  # noqa: F401
    DiffOp,
    MatPoly,
    Verdict,
    apply,
    compose,
    degree_preserving,
    op_power,
    w_adjoint,
)
from .weights import (  # noqa: F401
    HermiteShifted,
    Jacobi,
    Laguerre,
    OPSequence,
    Weight,
    classical_monic,
    inner_product,
    moment_rows,
    monic_ops,
)
from .dwalgebra import (  # noqa: F401
    DarbouxCertificate,
    IntertwinerBasis,
    commutativity_predicate,
    darboux_verify,
    diag_darboux_match,
    fullness_check,
    intertwiner_search,
    intertwiner_verify,
    module_decompose,
    module_generator,
    relation,
    scalar_darboux_class,
    symmetry_check,
    verify_in_DW,
)
from .catalog import entry, verify_entry  # noqa: F401
from .dsl import parse_spec, print_document  # noqa: F401
