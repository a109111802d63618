"""Exception types shared across the package."""


class ExcalcError(Exception):
    """Base class for all errors raised by excalc."""


class DimensionError(ExcalcError):
    """Bad space dimension, or operands from spaces of different dimension."""


class IndexRangeError(ExcalcError):
    """Basis index outside 1..d."""


class GradeError(ExcalcError):
    """Operation applied to elements of incompatible or indefinite grade."""


class SchemaError(ExcalcError):
    """Serialized input does not have the documented form."""


class EvalError(ExcalcError):
    """Expression evaluation failed (unbound name, bad operand, ...)."""


class ExprSyntaxError(ExcalcError):
    """Lexing or parsing failed at a known position."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        detail = f"{message} at {line}:{col}"
        if expected:
            detail += " (expected " + " | ".join(expected) + ")"
        super().__init__(detail)
