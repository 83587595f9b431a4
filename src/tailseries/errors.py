"""Exception hierarchy shared by all tailseries modules."""


class TailSeriesError(Exception):
    """Base class for all tailseries errors."""


class DomainError(TailSeriesError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateInputError(DomainError):
    """Input data carries no usable variation (e.g. a constant series)."""


class ConfigurationError(TailSeriesError, ValueError):
    """A model, driver or experiment configuration is invalid."""


class HorizonTooSmallError(ConfigurationError):
    """A truncation horizon is too short for the requested tolerance."""


class NoRootError(TailSeriesError, RuntimeError):
    """A root-finding problem has no root in the admissible range."""


class SimulationError(TailSeriesError, RuntimeError):
    """A recursion produced a non-finite value.

    Carries the (0-based) step index at which the failure occurred.
    """

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.message = message
        self.step = step

    def __reduce__(self):
        # rebuilt from both arguments, so that a process pool re-raises it
        return type(self), (self.message, self.step)
