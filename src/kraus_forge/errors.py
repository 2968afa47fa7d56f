"""Exception types shared across the package."""


class KrausForgeError(Exception):
    """Base class for all kraus-forge errors."""


class NonHermitianInput(KrausForgeError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class ConvergenceFailure(KrausForgeError):
    """The iterative eigensolver did not settle within its sweep budget."""


class OverflowDetected(KrausForgeError):
    """A result left the range of doubles.

    Raised by the matrix exponential's scaling or squaring, and by
    hermitian_eig for an eigenvalue beyond the largest double.
    """


class NegativeTime(KrausForgeError):
    """Propagation was requested for a negative time."""


class NotTracePreserving(KrausForgeError):
    """A propagator matrix does not preserve the trace."""


class NotCompletelyPositive(KrausForgeError):
    """A Choi matrix has an eigenvalue below the complete-positivity tolerance."""


class InvalidState(KrausForgeError):
    """An operator is not a valid density operator."""


class IncompleteKrausSet(KrausForgeError):
    """Kraus operators fail the completeness relation beyond tolerance."""


class NonRealGeneratorMatrix(KrausForgeError):
    """A generator matrix carries imaginary residue beyond tolerance."""


class QuadratureFailure(KrausForgeError):
    """Principal-value quadrature missed the requested accuracy."""
