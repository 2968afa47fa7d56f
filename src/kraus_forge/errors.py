"""Exception types and the immutable-record base shared across the package."""


class FrozenRecord:
    """Base of the package's immutable records.

    A subclass names its fields in ``__slots__``; its ``__init__`` checks and
    normalises them and passes them, in slot order, to this ``__init__``,
    which stores them. Fields are shown by ``repr`` and compared and hashed
    as a tuple, in slot order, and assigning to or deleting one raises
    AttributeError.
    """

    __slots__ = ()

    def __init__(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since assignment is refused
        return type(self), self._fields()


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
