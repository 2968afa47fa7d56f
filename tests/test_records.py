import copy
import pickle

import numpy as np
import pytest

from kraus_forge.bloch import AffineBlochMap
from kraus_forge.gad import BathSpectrum, GadRates, GadScaled, ReferenceGadParams
from kraus_forge.kraus import KrausSet
from kraus_forge.lindblad import LindbladGenerator
from kraus_forge.linalg import SIGMA_I, SIGMA_MINUS, SIGMA_Z
from kraus_forge.pd import PdParams

# each record: its fields, arguments with the values they are stored as, a
# call leaving a field at its default with that default, and a call that
# fails its validation with the message; None where the record has no default
RECORDS = [
    (GadRates, ("x", "y", "z"), (0, 2, 1), (0.0, 2.0, 1.0), None,
     ((0, 1, 2), "rates must satisfy y > z >= 0, got y=1.0, z=2.0")),
    (GadScaled, ("theta", "omega", "tau"), (1, -1, 0.5), (1.0, -1.0, 0.5), None,
     ((1, 0, 1), "omega must lie in [-2, 0), got 0.0")),
    (ReferenceGadParams, ("lambda_t", "p"), (1, 0.25), (1.0, 0.25), None,
     ((1.5, 0.5), "lambda_t must lie in [0, 1], got 1.5")),
    (BathSpectrum, ("alpha", "omega0", "omega_c", "temperature"), (0.02, 10, 15, 100),
     (0.02, 10.0, 15.0, 100.0), None, ((0.02, 10, 0, 1), "omega0 and omega_c must be > 0")),
    (PdParams, ("r",), (2,), (2.0,), None,
     ((-1,), "dephasing rate must be finite and >= 0, got -1.0")),
    (KrausSet, ("operators", "weights"), ([[[1, 0], [0, 1]]], [2]),
     ((SIGMA_I,), (2.0,)), (((SIGMA_Z,),), (2.0,)),
     (((np.zeros(3),),), "Kraus operators must be 2x2, got (3,)")),
    (LindbladGenerator, ("hamiltonian", "jumps"), ([[1, 0], [0, -1]], [(1, SIGMA_MINUS)]),
     (SIGMA_Z, ((1.0, SIGMA_MINUS),)), ((SIGMA_Z,), ()),
     ((SIGMA_Z, [(-1, SIGMA_Z)]), "jump rates must be finite and >= 0, got -1.0")),
    (AffineBlochMap, ("linear", "shift"), (np.eye(3, dtype=int), [0, 0, 1]),
     (np.eye(3), np.array([0.0, 0.0, 1.0])), None,
     ((np.eye(2), [0, 0, 1]), "expected a 3x3 linear part and a 3-vector shift")),
]


def _same(first, second):
    # a stored value equals the expected one in type, dtype and bits
    if isinstance(second, tuple):
        return type(first) is tuple and len(first) == len(second) and all(
            map(_same, first, second)
        )
    if isinstance(second, np.ndarray):
        return isinstance(first, np.ndarray) and first.dtype == second.dtype and (
            np.array_equal(first, second)
        )
    return type(first) is type(second) and first == second


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record[0].__name__)
def test_record_contract(record):
    cls, names, args, stored, default, (bad_args, message) = record
    positional = cls(*args)
    keyword = cls(**dict(zip(names, args)))
    for made in (positional, keyword):
        assert all(_same(getattr(made, name), value) for name, value in zip(names, stored))
    if default is not None:
        default_args, value = default
        assert _same(getattr(cls(*default_args), names[-1]), value)
    with pytest.raises(ValueError) as info:
        cls(*bad_args)
    assert str(info.value) == message
    for name in (names[0], "other"):
        with pytest.raises(AttributeError):
            setattr(positional, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(positional, name)
    fields = ", ".join(f"{name}={getattr(positional, name)!r}" for name in names)
    assert repr(positional) == f"{cls.__name__}({fields})"
    # copy and pickle rebuild the record through its constructor
    for rebuilt in (copy.copy(positional), pickle.loads(pickle.dumps(positional))):
        assert repr(rebuilt) == repr(positional)
    if not any(isinstance(value, (tuple, np.ndarray)) for value in stored):
        # the scalar records compare and hash as the tuple of their fields
        assert positional == keyword and hash(positional) == hash(keyword) == hash(stored)
        assert positional != cls(*stored[:-1], stored[-1] / 2)
        assert positional != stored
