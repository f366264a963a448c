"""Exception types shared across the package."""


class YbopsError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(YbopsError):
    """Operands live on incompatible vector spaces."""


class InvalidStructureError(YbopsError):
    """Structure constants violate the algebra/coalgebra axioms."""


class SingularParameterError(YbopsError):
    """Parameter values violate an invertibility hypothesis."""


class NonIntegerExponentError(YbopsError):
    """The exponential families require integer colours."""


class UnknownFamilyError(YbopsError):
    """Requested operator family kind does not exist."""
