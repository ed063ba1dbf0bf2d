"""Structured exceptions shared across the package."""


class EquiscalarError(Exception):
    """Base class for all structured errors raised by this package."""


class DimensionMismatchError(EquiscalarError):
    def __init__(self, expected, got, what="vector"):
        self.expected = expected
        self.got = got
        super().__init__(f"{what} dimension mismatch: expected {expected}, got {got}")


class ShapeError(EquiscalarError):
    pass


class NonFiniteError(EquiscalarError):
    pass


class ChoiceError(ShapeError, ValueError):
    """A field value that is not one of its choices; a ValueError, as it was."""


class ChoiceTypeError(ShapeError, TypeError):
    """A value whose type is not one of its choices; a TypeError, as it was."""


class NonFiniteValueError(ShapeError, NonFiniteError):
    """NaN or an infinity given to a field that takes a finite number."""


class RoleError(EquiscalarError):
    """Missing or incompatible position/free role tags."""


class IndefiniteMatrixError(EquiscalarError):
    def __init__(self, min_eigenvalue):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"matrix is not positive semidefinite: most negative eigenvalue {min_eigenvalue:.3e}"
        )


class DegenerateInputError(EquiscalarError):
    """Input configuration outside the operation's domain (coincident points,
    linear dependence, persistent lightlike directions, infeasible rank)."""


class ParseError(EquiscalarError):
    def __init__(self, message, offset, expected=()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{detail}")


class PatternError(EquiscalarError):
    """Expression does not match the shape a rewrite rule supports."""
