"""Exception types shared across the package."""


class KrausForgeError(Exception):
    """Base class for all kraus-forge errors."""


class NonHermitianInput(KrausForgeError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class ConvergenceFailure(KrausForgeError):
    """The iterative eigensolver did not settle within its sweep budget."""


class OverflowDetected(KrausForgeError):
    """The matrix-exponential scaling stage left the representable range."""


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


class SingularTime(KrausForgeError):
    """Closed-form expressions are singular at (or too close to) zero time."""


class QuadratureFailure(KrausForgeError):
    """Principal-value quadrature missed the requested accuracy."""
