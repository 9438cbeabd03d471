"""Exception types shared across the library.

Division by zero raises the builtin ZeroDivisionError; a scalar literal
whose denominator vanishes in its field raises ZeroDenominatorError, which
is both that and a ParseError.
"""


class LieformError(Exception):
    """Base class for all library-specific errors."""


class FieldMismatchError(LieformError):
    """Operands belong to different fields."""


class ParseError(LieformError, ValueError):
    """Text does not match the scalar, field, or file grammar."""


class ZeroDenominatorError(ParseError, ZeroDivisionError):
    """A scalar's denominator is zero in its field, as in "1/3" over GF(3)."""


class DimensionMismatchError(LieformError):
    """Matrix or vector shapes are incompatible."""


class AmbientMismatchError(DimensionMismatchError):
    """Subspaces live in different ambient spaces or fields."""


class JacobiViolationError(LieformError):
    """The Jacobi identity fails on a basis triple (reported 1-based)."""

    def __init__(self, triple):
        self.triple = triple
        super().__init__("Jacobi identity fails on basis triple %s" % (triple,))


class NotSolubleError(LieformError):
    """The algebra's derived series does not reach zero."""


class NotNestedError(LieformError):
    """Expected B <= A for a factor A/B."""


class NotAnIdealError(LieformError):
    """Subspace is not invariant under the algebra's bracket."""


class NotASubalgebraError(LieformError):
    """Subspace is not closed under the bracket."""


class ZeroAlgebraError(LieformError):
    """Operation requires a nonzero algebra."""


class UnsupportedFieldError(LieformError):
    """Operation is not available over this field (typically Q)."""


class NotADerivationError(LieformError):
    """Matrix violates the Leibniz rule."""


class CriteriaDisagreeError(LieformError):
    """The two Definition-2 criteria returned different verdicts.

    Signals an implementation bug; never swallowed.
    """


class NoCriticalDescentError(LieformError):
    """An algebra outside the formation has no critical maximal subalgebra.

    Diagnostic for a theory violation; not assumed impossible.
    """


class BudgetExceededError(LieformError):
    """An exhaustive loop would exceed its budget.

    That is linalg.WORK_BUDGET, or enumeration.STREAM_BUDGET for the stream of a sweep.
    """
