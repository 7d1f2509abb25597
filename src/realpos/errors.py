"""Exception taxonomy shared by the whole package.

Every raise in the library goes through one of these classes so callers
(and the CLI exit-code mapping) can tell malformed input apart from
violated mathematical preconditions and from numerical breakdown.
"""


class RealposError(Exception):
    """Base class for all errors raised by this package."""


class InputError(RealposError, ValueError):
    """Malformed data: non-square arrays, NaN/Inf entries, bad JSON, bad flags."""


class PreconditionError(RealposError, ValueError):
    """A documented mathematical precondition does not hold for the input.

    The message names the violated condition and the offending residual.
    """


class NumericError(RealposError, ArithmeticError):
    """A computation could not reach its accuracy contract.

    Examples: non-converged iteration, overflow in the exponential,
    rank decision too close to its tolerance to call.
    """


class MethodDisagreementError(NumericError):
    """Independent evaluation routes disagreed beyond tolerance.

    Carries the per-route values so the caller can inspect the conflict.
    """

    def __init__(self, message, values=None):
        super().__init__(message)
        self.values = values if values is not None else {}
