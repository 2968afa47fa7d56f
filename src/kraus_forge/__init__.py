"""Kraus operators for single-qubit damping channels, derived from their
master equations via the generator -> propagator -> Choi -> eigendecomposition
pipeline, with closed-form references and Bloch-sphere diagnostics."""

from .bloch import (
    AffineBlochMap,
    bloch_map,
    sample_ellipsoid,
    spherical_grid,
    volume_rate,
)
from .errors import (
    ConvergenceFailure,
    IncompleteKrausSet,
    InvalidState,
    KrausForgeError,
    NegativeTime,
    NonHermitianInput,
    NonRealGeneratorMatrix,
    NotCompletelyPositive,
    NotTracePreserving,
    OverflowDetected,
    QuadratureFailure,
)
from .gad import (
    BathSpectrum,
    GadRates,
    GadScaled,
    ReferenceGadParams,
    ShiftEstimate,
    compose_z_rotation,
    gad_F_closed,
    gad_L_scaled,
    gad_choi_eigenvalues,
    gad_generator,
    gad_kraus_asymptotic,
    gad_kraus_closed,
    hamiltonian_shift,
    lamb_stark_shift,
    rates_from_physics,
    reference_gad_kraus,
    rescale,
    spectral_density,
    textbook_ad_kraus,
    thermal_occupation,
)
from .kraus import (
    KrausSet,
    apply_channel,
    choi_distance,
    choi_from_propagator,
    identity_kraus_set,
    kraus_from_choi,
    kraus_set_to_dict,
    kraus_to_choi,
    propagate,
)
from .lindblad import LindbladGenerator, build_L
from .linalg import (
    SIGMA_I,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    hermitian_basis,
    hermitian_eig,
    matrix_exp,
)
from .pd import (
    PdParams,
    pd_bloch,
    pd_generator,
    pd_kraus,
    pd_rate_from_physics,
    pd_standard_kraus,
)

__version__ = "0.1.0"
