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
        trajectory: partial trajectory up to (not including) the bad step.
    """

    def __init__(self, message, index, trajectory):
        super().__init__(message)
        self.index = index
        self.trajectory = trajectory


class SingularStepError(FracregError):
    """The per-step solve cannot be formed: its leading coefficient vanished,
    or a GL weight factor h^-order left the float range."""


class NoSolutionError(FracregError):
    """A design found no controller placing the requested poles."""


class ConfigError(FracregError):
    """A run configuration is missing or malformed; the message names the key."""
