"""Exception types shared across the library."""


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class NonUnitConstantTerm(AlgebraError):
    """A series inversion was attempted on a series whose constant term is not 1."""


class TagMismatch(AlgebraError):
    """Exterior elements expressed in different bases were combined without conversion."""


class DegreeZeroError(AlgebraError):
    """A contraction was applied to an exterior element of degree zero."""


class WindowExcludesMinusOne(AlgebraError):
    """A residue was requested from a Laurent expansion not valid at exponent -1."""


class EmptyWindow(AlgebraError):
    """A truncated-series operation has no exponent at which its result is valid."""


class WindowViolation(AlgebraError):
    """A nonzero coefficient survived outside the window guaranteed by the theory.

    Raised by the quotient closed form; on correct input this
    signals an implementation bug, never a data error.
    """


class ExponentOverflow(AlgebraError, ValueError):
    """An exponent or degree outgrew its packed-monomial field: the input is too large."""
