"""Each input guard of the library raises its own exception type and message."""

import math

import numpy as np
import pytest

from kraus_forge.errors import InvalidState, NegativeTime, NonHermitianInput
from kraus_forge.gad import (
    GadRates,
    GadScaled,
    ReferenceGadParams,
    gad_kraus_asymptotic,
    textbook_ad_kraus,
)
from kraus_forge.kraus import (
    KrausSet,
    apply_channel,
    choi_from_propagator,
    identity_kraus_set,
    kraus_from_choi,
    kraus_stack,
)
from kraus_forge.linalg import SIGMA_I, hermitian_eig, matrix_exp
from kraus_forge.lindblad import LindbladGenerator
from kraus_forge.pd import PdParams, pd_bloch, pd_standard_kraus

# (callable, arguments, exception type, message); the type is held exactly,
# so a subclass or a base class in its place fails
GUARDS = [
    (GadRates, (0.0, math.nan, 1.0), ValueError, "rates must be finite"),
    (GadScaled, (0.0, -1.0, math.inf), ValueError, "scaled parameters must be finite"),
    (ReferenceGadParams, (0.5, 1.5), ValueError, "p must lie in [0, 1], got 1.5"),
    (gad_kraus_asymptotic, (0.5,), ValueError, "omega must lie in [-2, 0), got 0.5"),
    (textbook_ad_kraus, (1.5,), ValueError, "lambda_t must lie in [0, 1], got 1.5"),
    (KrausSet, ((),), ValueError, "a Kraus set needs at least one operator"),
    (KrausSet, ((SIGMA_I,), (1.0, 1.0)), ValueError,
     "weights and operators must have equal length"),
    (kraus_stack, (np.eye(3),), ValueError, "propagators must be 4x4, got (3, 3)"),
    (choi_from_propagator, (np.eye(2),), ValueError, "propagator must be 4x4, got (2, 2)"),
    (kraus_from_choi, (np.eye(3),), ValueError, "Choi matrix must be 4x4, got (3, 3)"),
    (apply_channel, (identity_kraus_set(), np.eye(3)), InvalidState,
     "density operator must be 2x2, got (3, 3)"),
    (hermitian_eig, (np.zeros(3),), NonHermitianInput,
     "expected a square matrix or a stack of them, got shape (3,)"),
    (matrix_exp, (np.zeros((2, 3)),), ValueError,
     "expected a square matrix or a stack of them, got shape (2, 3)"),
    (LindbladGenerator, (np.eye(3),), ValueError, "hamiltonian must be 2x2, got shape (3, 3)"),
    (pd_standard_kraus, (1.5,), ValueError, "weight must lie in [0, 1], got 1.5"),
    (pd_bloch, (PdParams(1.0), -1.0, 0.0, 0.0), NegativeTime, "time must be >= 0, got -1.0"),
]


@pytest.mark.parametrize(
    "function, args, error, message",
    GUARDS,
    ids=[f"{guard[0].__name__}-{index}" for index, guard in enumerate(GUARDS)],
)
def test_guard_raises_its_type_and_message(function, args, error, message):
    with pytest.raises(Exception) as info:
        function(*args)
    assert type(info.value) is error
    assert str(info.value) == message
