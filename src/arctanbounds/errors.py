"""Exception types shared across the package."""


class ArctanBoundsError(Exception):
    """Base class for all package errors."""


class DomainError(ArctanBoundsError):
    """Argument outside the mathematical domain of an operation."""


class ParamError(ArctanBoundsError):
    """Family parameter (or another configuration value) outside its certified range."""


class SingularityError(ArctanBoundsError):
    """Evaluation would divide by an exactly-vanishing factor."""


class PrecisionError(ArctanBoundsError):
    """A high-precision routine could not meet its error target within budget."""

