"""Exception types shared across the package."""


class ProcMaxEntError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ProcMaxEntError, ValueError):
    """Operator dimensions are inconsistent or unsupported."""


class InvariantError(ProcMaxEntError, ValueError):
    """A value violates its structural invariant (hermiticity, positivity, ...)."""


class NotAChannelError(InvariantError):
    """A candidate Choi matrix fails complete positivity or trace preservation."""


class DependentConstraintsError(ProcMaxEntError, ValueError):
    """The constraint operators are linearly dependent."""

    def __init__(self, message, dependent_labels=()):
        super().__init__(message)
        self.dependent_labels = tuple(dependent_labels)


class InfeasibleError(ProcMaxEntError, RuntimeError):
    """No state satisfies the requested constraint targets."""

    def __init__(self, message, label=None):
        super().__init__(message)
        self.label = label


class ConvergenceError(ProcMaxEntError, RuntimeError):
    """The dual solver failed to reach tolerance within the iteration budget."""

    def __init__(self, message, last_solution=None):
        super().__init__(message)
        self.last_solution = last_solution


class BoundaryCaseError(ProcMaxEntError, ValueError):
    """A closed-form oracle was called outside its interior domain, or
    boundary_resolve found that the estimate has full rank."""


class OracleFailureError(ProcMaxEntError, RuntimeError):
    """A transcendental oracle found no root with residual below 1e-12."""
