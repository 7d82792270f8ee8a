"""Exception types shared across the toolkit."""


class FracregError(Exception):
    """Base class for toolkit errors."""


class UnsupportedOrderError(FracregError):
    """A derivative order falls outside the supported range."""


class ResourceLimitError(FracregError):
    """A run would exceed the configured step budget."""


class DivergedError(FracregError):
    """A simulation state left the finite range.

    Attributes:
        index: first step index at which the guard tripped.
        trajectory: partial trajectory up to (not including) the bad step,
            or None when nothing useful was produced.
    """

    def __init__(self, message, index, trajectory=None):
        super().__init__(message)
        self.index = index
        self.trajectory = trajectory


class SingularStepError(FracregError):
    """The per-step solve cannot be formed: its leading coefficient vanished,
    or a GL weight factor h^-order left the float range."""


class NoSolutionError(FracregError):
    """A design solve failed from every starting point.

    Attributes:
        last_residual: residual norm at the best point seen, or None.
    """

    def __init__(self, message, last_residual=None):
        super().__init__(message)
        self.last_residual = last_residual


class ConfigError(FracregError):
    """A run configuration is missing or malformed.

    Attributes:
        key: dotted path of the offending key, when known.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
