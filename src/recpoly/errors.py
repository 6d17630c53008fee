"""Exception types shared across the package."""


class StructuralError(ValueError):
    """A value violates a structural precondition (shape, fields, domain)."""


class VariableMismatchError(StructuralError):
    """Operands disagree on their variable list, point assignment, or discriminant."""


class BudgetExceededError(RuntimeError):
    """A term-count (or matrix-entry-count) budget or the print length was exceeded."""


class RootFindingError(RuntimeError):
    """The simultaneous root iteration failed to reach the residual tolerance."""
