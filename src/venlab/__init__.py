"""venlab: exact polynomial algebra over Q.

Sparse multivariate polynomials with rational coefficients, a Buchberger
Groebner engine with ideal/subalgebra membership, locally nilpotent
derivations (exponential automorphisms, divided Taylor operators, the
Dixmier slice projection), and machine verification of Venereau-type
polynomial coordinate identities.
"""

from .poly import (
    ContextMismatchError,
    ExponentOverflowError,
    GREVLEX,
    InputError,
    MonomialOrder,
    NEG_INFINITY,
    PolyMap,
    Polynomial,
    VarContext,
    jacobian_det,
    jacobian_matrix,
)
from .parse import ParseError, format_polynomial, parse_polynomial
from .groebner import (
    Budget,
    BudgetExceededError,
    GroebnerBasis,
    MembershipResult,
    buchberger,
    ideal_member,
    normal_form,
    subalgebra_member,
)

__all__ = [
    "Budget",
    "BudgetExceededError",
    "ContextMismatchError",
    "ExponentOverflowError",
    "GREVLEX",
    "GroebnerBasis",
    "InputError",
    "MembershipResult",
    "MonomialOrder",
    "NEG_INFINITY",
    "ParseError",
    "PolyMap",
    "Polynomial",
    "VarContext",
    "buchberger",
    "format_polynomial",
    "ideal_member",
    "jacobian_det",
    "jacobian_matrix",
    "normal_form",
    "parse_polynomial",
    "subalgebra_member",
]

__version__ = "0.1.0"
