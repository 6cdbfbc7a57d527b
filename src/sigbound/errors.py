"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A parameter violates a documented precondition."""


class UnsupportedParameterError(ValueError):
    """A parameter is syntactically fine but outside the supported range."""


class InvalidCellError(InvalidParameterError):
    """An (a, b) pair does not describe a valid enumeration cell."""

