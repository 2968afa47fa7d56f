import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kraus_forge.errors import (
    IncompleteKrausSet,
    InvalidState,
    NegativeTime,
    NotCompletelyPositive,
    NotTracePreserving,
)
from kraus_forge.kraus import (
    KrausSet,
    _operator_choi,
    apply_channel,
    choi_distance,
    choi_distances,
    choi_from_propagator,
    completeness_residuals,
    identity_kraus_set,
    kraus_from_choi,
    kraus_set_to_dict,
    kraus_stack,
    kraus_to_choi,
    operator_stack,
    propagate,
)
from kraus_forge.linalg import SIGMA_I, SIGMA_X, SIGMA_Z, hermitian_basis, hermitian_eig
from references import gad_L, kraus_set_from_dict, pd_L


def dephasing_propagator(rt):
    decay = np.exp(-2 * rt)
    return np.diag([1.0, decay, decay, 1.0])


def random_density(rng):
    v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = v @ v.conj().T
    return rho / np.trace(rho).real


def test_propagate_zero_time_is_identity():
    gen = np.array([[0, 0, 0, 0], [0, -1, -2, 0], [0, 2, -1, 0], [-1, 0, 0, -2]], float)
    assert np.abs(propagate(gen, 0.0) - np.eye(4)).max() == 0.0


def test_propagate_rejects_negative_time():
    with pytest.raises(NegativeTime):
        propagate(np.zeros((4, 4)), -0.1)


def test_propagate_dephasing_generator():
    r, t = 1.0, 0.7
    prop = propagate(np.diag([0.0, -2 * r, -2 * r, 0.0]), t)
    assert np.abs(prop - dephasing_propagator(r * t)).max() < 1e-12


def test_choi_identity_channel():
    choi = choi_from_propagator(np.eye(4))
    assert np.abs(choi - np.diag([2.0, 0, 0, 0])).max() < 1e-14


def test_choi_dephasing_diagonal():
    rt = 0.45
    choi = choi_from_propagator(dephasing_propagator(rt))
    decay = np.exp(-2 * rt)
    assert np.abs(choi - np.diag([1 + decay, 0.0, 0.0, 1 - decay])).max() < 1e-14


def test_choi_zero_temperature_damping_spectrum():
    # at omega=-2 the spectrum collapses to {1 + e^(-2 tau), 1 - e^(-2 tau), 0, 0}
    from kraus_forge.gad import GadScaled, gad_F_closed

    tau = 0.9
    choi = choi_from_propagator(gad_F_closed(GadScaled(0.0, -2.0, tau)))
    decay = np.exp(-2 * tau)
    expected = np.array([1 + decay, 1 - decay, 0.0, 0.0])
    assert np.abs(hermitian_eig(choi)[0] - expected).max() < 1e-12


def test_choi_trace_is_two_and_reconstructs_channel():
    from kraus_forge.gad import GadScaled, gad_F_closed

    basis = hermitian_basis()
    rng = np.random.default_rng(31)
    for theta, omega, tau in [(0.0, -2.0, 0.3), (1.0, -1.0, 1.0), (5.0, -0.1, 2.0)]:
        prop = gad_F_closed(GadScaled(theta, omega, tau))
        choi = choi_from_propagator(prop)
        assert abs(np.trace(choi).real - 2.0) < 1e-10
        for _ in range(5):
            rho = random_density(rng)
            coeffs = np.einsum("kab,ba->k", basis, rho)
            via_prop = np.tensordot(prop @ coeffs, basis, axes=(0, 0))
            via_choi = np.einsum("nm,nab,bc,mdc->ad", choi, basis, rho, basis.conj())
            assert np.abs(via_prop - via_choi).max() < 1e-10


def test_choi_rejects_trace_breaking_propagator():
    bad = np.eye(4)
    bad[0, 1] = 1e-3
    with pytest.raises(NotTracePreserving):
        choi_from_propagator(bad)


def test_choi_rejects_transpose_map():
    # transposition flips the sigma_y component and is not completely positive
    with pytest.raises(NotCompletelyPositive):
        choi_from_propagator(np.diag([1.0, 1.0, -1.0, 1.0]))


def test_kraus_from_identity_choi():
    kset = kraus_from_choi(np.diag([2.0, 0.0, 0.0, 0.0]).astype(complex))
    assert len(kset) == 1
    assert np.abs(kset.operators[0] - SIGMA_I).max() < 1e-14
    assert kset.weights == (2.0,)


def test_kraus_from_dephasing_choi_matches_closed_pair():
    rt = 0.6
    decay = np.exp(-2 * rt)
    kset = kraus_from_choi(choi_from_propagator(dephasing_propagator(rt)))
    assert len(kset) == 2
    # descending weights: the identity-like operator first, then the
    # sigma_z-like one; the phase convention reproduces the closed forms
    assert np.abs(kset.operators[0] - np.sqrt((1 + decay) / 2) * SIGMA_I).max() < 1e-12
    assert np.abs(kset.operators[1] - np.sqrt((1 - decay) / 2) * SIGMA_Z).max() < 1e-12


def test_kraus_from_choi_zero_temperature_two_operators():
    from kraus_forge.gad import GadScaled, gad_F_closed, gad_kraus_closed

    tau = np.log(2.0)
    scaled = GadScaled(0.0, -2.0, tau)
    kset = kraus_from_choi(choi_from_propagator(gad_F_closed(scaled)))
    assert len(kset) == 2
    assert kset.completeness_residual() < 1e-10
    assert choi_distance(kset, gad_kraus_closed(scaled)) < 1e-10


def test_kraus_cutoff_drops_numerical_zeros():
    choi = np.diag([2.0 - 2e-13, 1e-13, 1e-13, -1e-13]).astype(complex)
    kset = kraus_from_choi(choi)
    assert len(kset) == 1


def test_kraus_from_choi_rejects_negative_weight():
    with pytest.raises(NotCompletelyPositive):
        kraus_from_choi(np.diag([2.0, 0.5, 0.0, -0.5]).astype(complex))


@pytest.mark.parametrize(
    "choi",
    [np.full((4, 4), np.nan, dtype=complex), np.diag([np.inf, 0, 0, 0]).astype(complex)],
)
def test_kraus_from_choi_rejects_non_finite_matrix(choi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            kraus_from_choi(choi)


def test_apply_channel_identity():
    rng = np.random.default_rng(37)
    rho = random_density(rng)
    out = apply_channel(identity_kraus_set(), rho)
    assert np.abs(out - rho).max() < 1e-15


def test_apply_channel_zero_temperature_damping():
    # damping pair at e^(-tau) = 1/2 applied to the upper level: a quarter
    # of the population survives, the rest lands in the lower level
    from kraus_forge.gad import GadScaled, gad_kraus_closed

    kset = gad_kraus_closed(GadScaled(0.0, -2.0, np.log(2.0)))
    out = apply_channel(kset, np.diag([1.0, 0.0]).astype(complex))
    assert np.abs(out - np.diag([0.25, 0.75])).max() < 1e-12


def test_apply_channel_dephasing_longtime_limit():
    from kraus_forge.pd import PdParams, pd_kraus

    kset = pd_kraus(PdParams(1.0), 50.0)
    rho = 0.5 * (SIGMA_I + SIGMA_X)
    out = apply_channel(kset, rho)
    assert np.abs(out - 0.5 * SIGMA_I).max() < 1e-12


def test_apply_channel_preserves_density_properties():
    from kraus_forge.gad import GadScaled, gad_kraus_closed

    kset = gad_kraus_closed(GadScaled(1.0, -1.0, 0.8))
    rng = np.random.default_rng(41)
    for _ in range(100):
        out = apply_channel(kset, random_density(rng))
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-10


def test_apply_channel_rejects_invalid_states():
    kset = identity_kraus_set()
    with pytest.raises(InvalidState):
        apply_channel(kset, np.diag([2.0, 0.0]))  # trace 2
    with pytest.raises(InvalidState):
        apply_channel(kset, np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidState):
        apply_channel(kset, np.diag([1.5, -0.5]))  # negative eigenvalue


def test_choi_distance_identity_and_symmetry():
    from kraus_forge.gad import GadScaled, gad_kraus_closed

    first = gad_kraus_closed(GadScaled(1.0, -1.0, 1.0))
    second = gad_kraus_closed(GadScaled(1.0, -1.0, 2.0))
    assert choi_distance(first, first) == 0.0
    assert choi_distance(first, second) == choi_distance(second, first)
    assert choi_distance(first, second) > 0.1


def test_choi_distance_closed_vs_textbook_pair():
    from kraus_forge.gad import GadScaled, gad_kraus_closed, textbook_ad_kraus

    for tau in (0.2, np.log(2.0), 1.5):
        closed = gad_kraus_closed(GadScaled(0.0, -2.0, tau))
        textbook = textbook_ad_kraus(-np.expm1(-2.0 * tau))
        assert choi_distance(closed, textbook) < 1e-10


def test_choi_distance_pipeline_vs_reference_bridge():
    from kraus_forge.gad import (
        GadScaled,
        ReferenceGadParams,
        gad_F_closed,
        reference_gad_kraus,
    )

    for omega in (-2.0, -1.0, -0.1):
        for tau in (0.1, 1.0, 3.0):
            scaled = GadScaled(0.0, omega, tau)
            pipeline = kraus_from_choi(choi_from_propagator(gad_F_closed(scaled)))
            reference = reference_gad_kraus(ReferenceGadParams.from_scaled(scaled))
            assert choi_distance(pipeline, reference) < 1e-10


def test_choi_distance_rejects_incomplete_set():
    truncated = KrausSet((0.5 * SIGMA_I,))
    with pytest.raises(IncompleteKrausSet):
        choi_distance(truncated, identity_kraus_set())


def test_round_trip_generator_to_kraus_action():
    # the full chain reproduces the propagator's action on the basis
    from kraus_forge.gad import GadRates
    from kraus_forge.pd import PdParams

    basis = hermitian_basis()
    generators = [
        gad_L(GadRates(0.7, 2.0, 0.4)),
        gad_L(GadRates(0.0, 1.0, 0.0)),
        pd_L(PdParams(0.9)),
    ]
    for gen in generators:
        for t in (0.0, 0.3, 1.7, 10.0):
            prop = propagate(gen, t)
            kset = kraus_from_choi(choi_from_propagator(prop))
            for l in range(4):
                via_kraus = sum(
                    e @ basis[l] @ e.conj().T for e in kset.operators
                )
                via_prop = np.tensordot(prop[:, l], basis, axes=(0, 0))
                assert np.abs(via_kraus - via_prop).max() < 1e-9


def test_dephasing_choi_gap_monotone():
    gaps = []
    for rt in (0.1, 0.5, 1.0, 2.0, 5.0):
        values = hermitian_eig(choi_from_propagator(dephasing_propagator(rt)))[0]
        gaps.append(values[0] - values[1])
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))


def test_kraus_set_count_limit():
    with pytest.raises(ValueError):
        KrausSet(tuple(0.4 * SIGMA_I for _ in range(5)))


def test_serialization_round_trip():
    from kraus_forge.gad import GadScaled, gad_kraus_closed

    kset = gad_kraus_closed(GadScaled(1.0, -1.0, 1.0))
    doc = kraus_set_to_dict(kset)
    rebuilt = kraus_set_from_dict(doc)
    assert rebuilt.completeness_residual() <= doc["diagnostics"]["completeness_residual"] + 1e-15
    assert choi_distance(kset, rebuilt) < 1e-14
    for original, copy in zip(kset.operators, rebuilt.operators):
        assert np.abs(original - copy).max() == 0.0
    assert doc["diagnostics"]["choi_eigenvalues"][0] >= doc["diagnostics"]["choi_eigenvalues"][-1]


@pytest.mark.parametrize("rates", [(0.7, 2.5, 0.4), (0.3, 2.0, 0.0)])
def test_kraus_stack_equals_single_point_calls(rates):
    # the stacked chain gives every point exactly what the one-point calls
    # give, including the points where the cutoff drops operators
    from kraus_forge.gad import GadRates

    gen = gad_L(GadRates(*rates))
    times = np.linspace(0.0, 2.0, 25)
    propagators = propagate(gen, times)
    stack = kraus_stack(propagators)
    for k, t in enumerate(times):
        prop = propagate(gen, t)
        assert np.array_equal(propagators[k], prop)
        choi = choi_from_propagator(prop)
        assert np.array_equal(stack.choi[k], choi)
        kset = kraus_from_choi(choi)
        assert stack.values[k].tolist() == hermitian_eig(choi)[0].tolist()
        assert stack.kraus_set(k).weights == kset.weights
        for stacked_op, op in zip(stack.kraus_set(k).operators, kset.operators, strict=True):
            assert np.array_equal(stacked_op, op)
        stacked_doc = kraus_set_to_dict(stack.kraus_set(k))
        assert json.dumps(stacked_doc) == json.dumps(kraus_set_to_dict(kset))


def test_propagate_rejects_any_negative_time():
    with pytest.raises(NegativeTime):
        propagate(np.zeros((4, 4)), [0.0, 1.0, -0.5])


# one operator: a decade exponent for its scale and its 8 real numbers
_OPERATOR = st.tuples(
    st.floats(-8.0, 3.0), st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)
)
_MEMBERS = st.lists(st.lists(_OPERATOR, min_size=1, max_size=4), min_size=1, max_size=5)


def _padded(sets):
    # zero-padded to four operators per member
    stack = np.zeros((len(sets), 4, 2, 2), dtype=complex)
    for member, ops in zip(stack, sets):
        member[: len(ops)] = ops
    return stack


def _completed(ops):
    # the orthonormal columns of a QR factorization, cut into 2x2 blocks,
    # form a complete set for any input, rank-deficient or not
    q = np.linalg.qr(np.concatenate(ops))[0]
    return list(q.reshape(len(ops), 2, 2))


def _reference_residual(ops):
    return float(np.abs(sum(op.conj().T @ op for op in ops) - SIGMA_I).max())


def _reference_choi(ops):
    coeffs = np.einsum("jab,iba->ji", hermitian_basis(), np.stack(ops))
    return coeffs @ coeffs.conj().T


@settings(max_examples=200, deadline=None)
@given(_MEMBERS)
def test_stacked_kernels_equal_the_per_set_formulas(members):
    # the stacked kernels give every member exactly what the per-set formulas
    # sum(E^dag E), the einsum Choi fold and np.linalg.norm give it
    sets = [
        [10.0 ** exponent * (np.array(v[:4]) + 1j * np.array(v[4:])).reshape(2, 2)
         for exponent, v in member]
        for member in members
    ]
    stack = _padded(sets)
    width = max(map(len, sets))
    assert np.array_equal(operator_stack([KrausSet(tuple(ops)) for ops in sets]), stack[:, :width])
    assert completeness_residuals(stack).tolist() == [_reference_residual(ops) for ops in sets]
    assert np.array_equal(_operator_choi(stack), np.array([_reference_choi(ops) for ops in sets]))
    first = [_completed(ops) for ops in sets]
    second = first[::-1]
    assert choi_distances(_padded(first), _padded(second)).tolist() == [
        float(np.linalg.norm(_reference_choi(a) - _reference_choi(b)))
        for a, b in zip(first, second)
    ]


def test_choi_distances_name_the_incomplete_stack():
    from kraus_forge.gad import textbook_ad_kraus

    complete = operator_stack([identity_kraus_set(), textbook_ad_kraus(0.3)])
    incomplete = complete.copy()
    incomplete[1] *= 0.5
    with pytest.raises(IncompleteKrausSet, match="^first "):
        choi_distances(incomplete, complete)
    with pytest.raises(IncompleteKrausSet, match="^second "):
        choi_distances(complete, incomplete)
