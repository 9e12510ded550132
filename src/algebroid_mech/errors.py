"""Exception types shared across the package.

The CLI maps these onto process exit codes: bad user input (ValueError,
argparse errors, an ``--out`` path that cannot be written) -> 2,
NumericFailure and DomainError -> 3.  A check that runs fine but fails its
tolerance is not an exception; it exits 1, after writing its report.
"""


class AlgebroidError(Exception):
    """Base class for package-specific errors."""


class NumericFailure(AlgebroidError):
    """A computation produced non-finite values.

    ``last_good_time`` is set by the integrator to the last time at which
    the state was still finite.
    """

    def __init__(self, message, last_good_time=None):
        super().__init__(message)
        self.last_good_time = last_good_time


class DomainError(AlgebroidError):
    """An input is outside the mathematical domain of the operation
    (non-positive-definite metric, Lambert W argument below -1/e, ...)."""


class ConstructionError(AlgebroidError):
    """A builder's preconditions failed at the validation samples
    (projector not a projector, P(X0) != 0, degenerate metric, ...)."""
