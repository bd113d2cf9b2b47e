"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Array shapes are incompatible with the declared rank or field."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(RuntimeError):
    """A truncated series could not certify the requested tolerance.

    The achieved certified bound is carried in ``achieved_bound``.
    """

    def __init__(self, message, achieved_bound):
        super().__init__(message)
        self.achieved_bound = achieved_bound


class IllConditionedError(ValueError):
    """Inputs are too close to a singular configuration for this formula."""


class UnsupportedRankError(ValueError):
    """The operation is only implemented for a restricted set of ranks."""


class ConfigError(ValueError):
    """A run configuration failed validation before any computation.

    ``path`` and ``line`` locate the offending entry in the config file
    when they are known; flag-level problems leave them as None.
    """

    def __init__(self, message, path=None, line=None):
        super().__init__(message)
        self.path = path
        self.line = line
