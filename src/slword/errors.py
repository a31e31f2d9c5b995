"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class FieldMismatchError(ValueError):
    """Operands live over different prime fields."""


class SingularMatrixError(ArithmeticError):
    """A matrix required to be invertible is singular."""


class ParameterError(ValueError):
    """A structural precondition on (n, t, p) or on an input matrix failed."""


class SearchExhaustedError(RuntimeError):
    """A bounded witness search ran out of candidates.

    Usually means the generating set does not generate SL_n, or the
    configured search budget is too small for it.
    """

    def __init__(self, message: str, stuck_index: int | None = None):
        super().__init__(message)
        self.stuck_index = stuck_index


class NotGeneratingError(SearchExhaustedError):
    """A proper invariant subspace was found: the set provably does not generate."""


class InvariantError(RuntimeError):
    """A property the mathematics guarantees did not hold: a bug, not a bad input."""
