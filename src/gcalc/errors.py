"""Exception types shared across the package."""


class GcalcError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GcalcError):
    """Malformed expression text. Carries the character offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class UnknownIdentifier(ParseError):
    """Identifier that is neither a chart coordinate nor a known function."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier {name!r}", position)
        self.name = name


class DomainError(GcalcError):
    """Evaluation left the domain of a function (division by zero, log of a
    nonpositive number, fractional power of a negative base, ...)."""


class BladeKeyError(GcalcError):
    """A blade key that is not ascending 1-based indices such as "1,3"."""


class DimMismatch(GcalcError):
    """Operands or points whose dimensions disagree."""


class SingularGram(GcalcError):
    """Gram matrix is numerically singular (degenerate metric)."""


class SingularFrame(GcalcError):
    """Frame rows are linearly dependent at the evaluation point."""


class InvalidContorsion(GcalcError):
    """Contorsion coefficients violate antisymmetry in the last two slots."""


class FrameMismatch(GcalcError):
    """Field and connection refer to different frames."""


class JetBudgetExhausted(GcalcError):
    """A jet of an order other than 0, 1 or 2 was requested.  Each derivative
    operator asks its operand for one order more, so a stack of more than
    two operators on a primitive field raises this when it is evaluated."""


class GradeMismatch(GcalcError):
    """Argument grade differs from the declared slot grade."""


class MixedGrade(GcalcError):
    """A pure-grade argument was required but a mixed-grade value was given."""


class SignatureMismatch(GcalcError):
    """Tensor signatures incompatible for the requested operation."""


class NonScalarOutput(GcalcError):
    """Operation defined only for scalar-output tensors."""


class SlotGradeError(GcalcError):
    """Contraction requested over slots that are not grade 1."""
