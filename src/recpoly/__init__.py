"""Recurrent polynomial sequences in several variables.

Exact sparse polynomial arithmetic, four mutually checking engines for
order-k recurrences (iteration, multinomial closed form, Hessenberg
determinant, Fiduccia's X^n mod the characteristic polynomial), numeric
root-based engines, the order-2 Fibonacci/Lucas and Dickson families, and a
machine-checked identity catalog.
"""

from .binet import (
    RootProfile,
    binet_distinct,
    binet_multiple,
    binet_single,
    char_roots,
    compositions,
)
from .closedform import (
    bareiss_det,
    generalized_lucas,
    generalized_lucas_closed_form,
    generalized_lucas_spec,
    hessenberg_det_numeric_oracle,
    hessenberg_det_symbolic,
    multinomial_term,
    weighted_compositions,
)
from .errors import (
    BudgetExceededError,
    RootFindingError,
    StructuralError,
    VariableMismatchError,
)
from .families import (
    IDENTITY_IDS,
    TYPO_IDS,
    IdentityReport,
    Order2Family,
    check_identity,
    classical_family,
    dickson_D,
    dickson_E,
    dickson_family,
    generic_family,
)
from .parse import ParseError, ast_to_poly, parse_expr, parse_poly
from .recurrence import (
    RecurrenceSpec,
    companion_power_term,
    iterate_terms,
)
from .ring import MultiPoly, QuadExtElem, term_budget
from .specfile import SpecFormatError, family_spec, load_spec, spec_from_mapping

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "IDENTITY_IDS",
    "IdentityReport",
    "MultiPoly",
    "Order2Family",
    "ParseError",
    "QuadExtElem",
    "RecurrenceSpec",
    "RootFindingError",
    "RootProfile",
    "SpecFormatError",
    "StructuralError",
    "TYPO_IDS",
    "VariableMismatchError",
    "ast_to_poly",
    "bareiss_det",
    "binet_distinct",
    "binet_multiple",
    "binet_single",
    "char_roots",
    "check_identity",
    "classical_family",
    "companion_power_term",
    "compositions",
    "dickson_D",
    "dickson_E",
    "dickson_family",
    "family_spec",
    "generalized_lucas",
    "generalized_lucas_closed_form",
    "generalized_lucas_spec",
    "generic_family",
    "hessenberg_det_numeric_oracle",
    "hessenberg_det_symbolic",
    "iterate_terms",
    "load_spec",
    "multinomial_term",
    "parse_expr",
    "parse_poly",
    "spec_from_mapping",
    "term_budget",
    "weighted_compositions",
]
