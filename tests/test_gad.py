import cmath
import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kraus_forge import gad as gad_mod
from kraus_forge.errors import QuadratureFailure
from kraus_forge.gad import (
    BathSpectrum,
    GadRates,
    GadScaled,
    ReferenceGadParams,
    compose_z_rotation,
    gad_F_closed,
    gad_L,
    gad_choi_eigenvalues,
    gad_generator,
    gad_kraus_asymptotic,
    gad_kraus_closed,
    lamb_stark_shift,
    rates_from_physics,
    reference_gad_kraus,
    rescale,
    spectral_density,
    textbook_ad_kraus,
    thermal_occupation,
)
from kraus_forge.kraus import (
    apply_channel,
    choi_distance,
    choi_from_propagator,
    kraus_stack,
    kraus_to_choi,
    propagate,
)
from kraus_forge.lindblad import build_L
from kraus_forge.linalg import SIGMA_I, SIGMA_X, SIGMA_Z, hermitian_eig
from kraus_forge.pd import pd_rate_from_physics
from references import gad_bloch_rates, gad_bloch_scaled

scaled_params = st.builds(
    GadScaled,
    theta=st.floats(min_value=-8.0, max_value=8.0),
    omega=st.floats(min_value=-2.0, max_value=-0.01),
    tau=st.floats(min_value=1e-4, max_value=25.0),
)


def channel_action(kset, operator):
    return sum(e @ operator @ e.conj().T for e in kset.operators)


# ---------------------------------------------------------------- rescaling

def test_rescale_direct_substitution():
    scaled = rescale(GadRates(1.0, 3.0, 1.0), 0.5)
    assert (scaled.theta, scaled.omega, scaled.tau) == (1.0, -1.0, 1.0)


def test_rescale_zero_temperature_regime():
    scaled = rescale(GadRates(0.0, 0.8, 0.0), 1.3)
    assert scaled.theta == 0.0
    assert scaled.omega == -2.0


def test_rescale_zero_time():
    assert rescale(GadRates(0.2, 1.0, 0.5), 0.0).tau == 0.0


def test_rates_validation():
    with pytest.raises(ValueError):
        GadRates(0.0, 1.0, 1.0)  # y must exceed z
    with pytest.raises(ValueError):
        GadRates(0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        GadScaled(0.0, 0.0, 1.0)  # omega = 0 excluded
    with pytest.raises(ValueError):
        GadScaled(0.0, -1.0, -0.5)  # backward evolution rejected


# ---------------------------------------------------------------- matrices

def test_gad_L_zero_temperature_entries():
    expected = np.array(
        [[0, 0, 0, 0], [0, -0.5, 0, 0], [0, 0, -0.5, 0], [-1, 0, 0, -1]], float
    )
    assert np.abs(gad_L(GadRates(0.0, 1.0, 0.0)) - expected).max() == 0.0


def test_gad_L_rotation_entry():
    assert gad_L(GadRates(1.0, 3.0, 1.0))[1, 2] == -2.0


def test_gad_L_matches_lindblad_route():
    for rates in (GadRates(1.0, 3.0, 1.0), GadRates(-0.4, 0.9, 0.2)):
        assert np.abs(gad_L(rates) - build_L(gad_generator(rates))).max() < 1e-14


def test_gad_F_closed_at_zero_time():
    assert np.abs(gad_F_closed(GadScaled(2.0, -1.0, 0.0)) - np.eye(4)).max() == 0.0


def test_gad_F_closed_zero_temperature_block():
    tau = 0.8
    prop = gad_F_closed(GadScaled(0.0, -2.0, tau))
    decay = math.exp(-tau)
    assert abs(prop[1, 1] - decay) < 1e-15
    assert abs(prop[2, 2] - decay) < 1e-15
    assert abs(prop[3, 3] - decay**2) < 1e-15
    # -2 sinh(tau) e^(-tau) telescopes to e^(-2 tau) - 1
    assert abs(prop[3, 0] - (decay**2 - 1.0)) < 1e-15


def test_gad_F_closed_matches_rates_route():
    rates = GadRates(1.0, 3.0, 1.0)
    t = 0.5
    closed = gad_F_closed(rescale(rates, t))
    assert np.abs(propagate(gad_L(rates), t) - closed).max() < 1e-10


# ---------------------------------------------------------------- spectrum

def test_choi_eigenvalues_zero_temperature_point():
    values = gad_choi_eigenvalues(GadScaled(0.0, -2.0, math.log(2.0)))
    assert np.abs(values - np.array([0.75, 0.0, 0.0, 1.25])).max() < 1e-14


def test_choi_eigenvalues_longtime_limits():
    omega = -1.2
    values = gad_choi_eigenvalues(GadScaled(0.0, omega, 40.0))
    expected = np.array(
        [(2 - omega) / 4, (2 + omega) / 4, (2 + omega) / 4, (2 - omega) / 4]
    )
    assert np.abs(values - expected).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(scaled=scaled_params)
def test_choi_eigenvalues_sum_to_two_and_nonnegative(scaled):
    values = gad_choi_eigenvalues(scaled)
    assert abs(values.sum() - 2.0) < 1e-12
    assert values.min() >= 0.0


def test_choi_eigenvalues_match_pipeline():
    for omega in (-2.0, -1.0, -0.1):
        for tau in (0.1, 1.0, 5.0):
            scaled = GadScaled(0.7, omega, tau)
            closed = np.sort(gad_choi_eigenvalues(scaled))[::-1]
            pipeline = hermitian_eig(
                choi_from_propagator(gad_F_closed(scaled))
            )[0]
            assert np.abs(closed - pipeline).max() < 1e-10


def test_choi_eigenvalues_theta_independent():
    for theta in (1.0, 5.0):
        base = gad_choi_eigenvalues(GadScaled(0.0, -1.0, 1.3))
        other = gad_choi_eigenvalues(GadScaled(theta, -1.0, 1.3))
        assert np.abs(base - other).max() == 0.0


def test_radical_rewrite_identity():
    # omega^2 + e^(2 tau)(16 + (e^(2 tau) - 2) omega^2) equals
    # 16 e^(2 tau) + omega^2 (e^(2 tau) - 1)^2; the right side is the
    # cancellation-free form used in the implementation
    for omega in (-2.0, -1.3, -0.05):
        for tau in (0.05, 1.0, 4.0):
            grow = math.exp(2 * tau)
            raw = omega**2 + grow * (16.0 + (grow - 2.0) * omega**2)
            stable = 16.0 * grow + omega**2 * (grow - 1.0) ** 2
            assert abs(raw - stable) <= 1e-12 * abs(stable)


def test_choi_eigenvector_equatorial_pair():
    # the two equatorial eigenvectors are (0, 1, -+i, 0)/sqrt(2) after the
    # phase convention, independent of tau
    scaled = GadScaled(0.6, -1.0, 0.7)
    choi = choi_from_propagator(gad_F_closed(scaled))
    values, vectors = hermitian_eig(choi)
    closed = gad_choi_eigenvalues(scaled)
    for idx in (0, 1):
        target = np.where(np.abs(values - closed[idx]) < 1e-12)[0]
        assert target.size == 1
        vec = vectors[:, target[0]]
        assert abs(vec[0]) < 1e-12 and abs(vec[3]) < 1e-12
        assert abs(abs(vec[1]) - 1 / math.sqrt(2)) < 1e-12
        ratio = vec[2] / vec[1]
        assert abs(ratio - (-1j if idx == 0 else 1j)) < 1e-10


# ---------------------------------------------------------------- kraus sets

def test_closed_kraus_zero_temperature_reduction():
    tau = math.log(2.0)
    kset = gad_kraus_closed(GadScaled(0.0, -2.0, tau))
    lower, upper, diag_minus, diag_plus = kset.operators
    expected_amp = math.sqrt(1.0 - math.exp(-2 * tau))
    assert np.abs(lower - np.array([[0, 0], [1j * expected_amp, 0]])).max() < 1e-14
    assert np.abs(upper).max() == 0.0
    assert np.abs(diag_minus).max() == 0.0
    assert np.abs(diag_plus - np.diag([-0.5, -1.0])).max() < 1e-14


@settings(max_examples=40, deadline=None)
@given(scaled=scaled_params)
def test_closed_kraus_completeness(scaled):
    assert gad_kraus_closed(scaled).completeness_residual() < 1e-9


def test_closed_kraus_weights_are_choi_eigenvalues():
    scaled = GadScaled(1.0, -1.0, 1.0)
    kset = gad_kraus_closed(scaled)
    assert np.abs(np.array(kset.weights) - gad_choi_eigenvalues(scaled)).max() < 1e-14
    for op, weight in zip(kset.operators, kset.weights):
        assert abs(np.trace(op.conj().T @ op).real - weight) < 1e-12


def _whole_domain_bounds(scaled):
    # complete, the channel of the closed-form propagator, and weighted by
    # the closed-form Choi eigenvalues, all within roundoff
    kset = gad_kraus_closed(scaled)
    assert all(np.isfinite(op).all() for op in kset.operators)
    assert kset.completeness_residual() <= 1e-14
    exact = choi_from_propagator(gad_F_closed(scaled))
    assert np.linalg.norm(kraus_to_choi(kset) - exact) <= 1e-14
    if scaled.tau > 0.0:
        assert kset.weights == tuple(gad_choi_eigenvalues(scaled).tolist())


def test_closed_kraus_identity_branch_below_singular_time():
    kset = gad_kraus_closed(GadScaled(1.0, -1.0, 0.0))
    assert len(kset) == 1
    assert np.abs(kset.operators[0] - SIGMA_I).max() == 0.0
    # either side of the old 1e-8 cut-off, the one evaluation holds
    for tau in (0.99e-8, 1.01e-8):
        assert len(gad_kraus_closed(GadScaled(1.0, -1.0, tau))) == 4
        _whole_domain_bounds(GadScaled(1.0, -1.0, tau))


@settings(max_examples=300, deadline=None)
@given(
    theta=st.floats(min_value=-1e3, max_value=1e3),
    omega=st.one_of(
        st.sampled_from((-2.0, -1e-200, -1e-310, -5e-324)),
        st.floats(min_value=-2.0, max_value=0.0, exclude_max=True),
    ),
    tau=st.one_of(st.just(0.0), st.floats(min_value=5e-324, max_value=1e300)),
)
# where the literal evaluation failed: an identity set 8 digits off below
# tau = 1e-8, and an eps / omega^2 loss as omega -> 0, incomplete from
# omega = -1e-16 and NaN at -1e-200
@example(theta=900.0, omega=-2.0, tau=5e-9)
@example(theta=0.0, omega=-1e-4, tau=1.0)
@example(theta=0.0, omega=-1e-8, tau=1.0)
@example(theta=0.0, omega=-1e-12, tau=1.0)
@example(theta=0.0, omega=-1e-16, tau=1.0)
@example(theta=0.0, omega=-1e-200, tau=1.0)
# a subnormal A, subnormal entries at long times, and A = 0 in floats with
# 4k + root cancelling (cos(theta tau) = -1 where e^(-tau) is subnormal)
@example(theta=1.0, omega=-1.0, tau=5e-324)
@example(theta=0.0, omega=-5e-324, tau=1e4)
@example(theta=math.pi / 736.8, omega=-5e-324, tau=736.8)
def test_closed_kraus_whole_domain(theta, omega, tau):
    _whole_domain_bounds(GadScaled(theta, omega, tau))


def _paper_kraus(scaled):
    # the paper's operators written with its raw forms of a, c+-, d and e+-
    # (only c+- and the radical rearranged so that tau = 300 stays in range);
    # b+- = 4 e^(-2 tau) mu+- is taken from the Choi eigenvalues, whose
    # cancellation at omega = -2 is not what this compares
    theta, omega, tau = scaled.theta, scaled.omega, scaled.tau
    grow = math.exp(2 * tau)
    lam = -math.expm1(-2 * tau)
    root = math.hypot(4 * math.sqrt(grow), omega * (grow - 1))
    a = -2j * math.sin(theta * tau) + omega * math.sinh(tau)
    mu = gad_choi_eigenvalues(scaled)
    b_minus, b_plus = 4 * math.exp(-2 * tau) * mu[2], 4 * math.exp(-2 * tau) * mu[3]
    c_minus, c_plus = (
        (math.exp(-tau) * root + sign * 4 * math.cos(theta * tau)) ** 2 for sign in (-1, 1)
    )
    d = 4 * math.exp(tau) * cmath.exp(-1j * theta * tau)
    e_plus, e_minus = (1 - grow) * omega + root, (1 - grow) * omega - root

    def prefactor(b, c):
        return math.sqrt(abs(a) ** 2 * b / (4 * abs(a) ** 2 + c)) / (2 * math.sqrt(2) * a)

    return np.array([
        [[0, 0], [0.5j * math.sqrt(lam * (2 - omega)), 0]],
        [[0, -0.5j * math.sqrt(lam * (2 + omega))], [0, 0]],
        prefactor(b_minus, c_minus) * np.diag([d - e_plus, d.conjugate() + e_minus]),
        prefactor(b_plus, c_plus) * np.diag([d - e_minus, d.conjugate() + e_plus]),
    ])


@settings(max_examples=300, deadline=None)
@given(
    theta=st.floats(min_value=-1e3, max_value=1e3),
    omega=st.floats(min_value=-2.0, max_value=-1e-3),
    tau=st.floats(min_value=1e-3, max_value=300.0),
)
@example(theta=0.9, omega=-0.7, tau=1.4)
def test_closed_kraus_is_the_paper_formula(theta, omega, tau):
    # the same operators, phases included, not merely the same channel
    scaled = GadScaled(theta, omega, tau)
    closed = np.array(gad_kraus_closed(scaled).operators)
    assert np.abs(closed - _paper_kraus(scaled)).max() <= 1e-12
    # the paper's b+- in their raw form are 4 e^(-2 tau) times the Choi eigenvalues
    grow, shrink = math.exp(2 * tau), math.exp(-2 * tau)
    root = math.hypot(4 * math.sqrt(grow), omega * (grow - 1))
    mu = gad_choi_eigenvalues(scaled)
    for b, weight in ((2 + 2 * grow + root, mu[3]), (2 + 2 * grow - root, mu[2])):
        assert abs(shrink * (shrink * b) - 4 * shrink * weight) <= 1e-12


def test_asymptotic_kraus_zero_temperature():
    kset = gad_kraus_asymptotic(-2.0)
    lower, upper, drop, raise_ = kset.operators
    assert np.abs(lower - np.array([[0, 0], [1j, 0]])).max() < 1e-15
    assert np.abs(upper).max() == 0.0
    assert np.abs(drop - np.diag([0.0, -1.0])).max() < 1e-15
    assert np.abs(raise_).max() == 0.0


def test_asymptotic_kraus_completeness_and_fixed_point():
    for omega in (-2.0, -1.0, -0.1):
        kset = gad_kraus_asymptotic(omega)
        assert kset.completeness_residual() < 1e-12
        for rho in (
            np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex),
            0.5 * (SIGMA_I + SIGMA_X),
        ):
            out = apply_channel(kset, rho)
            z_component = np.trace(SIGMA_Z @ out).real
            assert abs(z_component - omega / 2) < 1e-12
            assert np.abs(out - np.diag(np.diag(out))).max() < 1e-12


def test_closed_kraus_converges_to_asymptotic():
    for omega in (-2.0, -1.0, -0.1):
        closed = gad_kraus_closed(GadScaled(1.0, omega, 20.0))
        assert choi_distance(closed, gad_kraus_asymptotic(omega)) < 1e-7


@pytest.mark.parametrize("tau", [300.0, 301.0, 1e4, 1e300])
@pytest.mark.parametrize("omega", [-2.0, -1.0, -0.1])
def test_closed_kraus_long_time_is_the_limit_set(omega, tau):
    # long past tau = 300 the closed form is the long-time limit set, in the
    # canonical order, with the Choi eigenvalues as weights
    scaled = GadScaled(1.0, omega, tau)
    kset = gad_kraus_closed(scaled)
    pipeline = kraus_stack(gad_F_closed(scaled)[None]).kraus_set(0)
    assert choi_distance(kset, pipeline) <= 1e-12
    assert kset.weights == tuple(gad_choi_eigenvalues(scaled).tolist())
    for op, weight in zip(kset.operators, kset.weights):
        assert abs(np.trace(op.conj().T @ op).real - weight) < 1e-12


def test_reference_kraus_identity_at_zero_weight():
    kset = reference_gad_kraus(ReferenceGadParams(0.0, 0.3))
    ops = kset.operators
    assert np.abs(ops[0] - math.sqrt(0.3) * SIGMA_I).max() < 1e-15
    assert np.abs(ops[1]).max() == 0.0
    assert np.abs(ops[2] - math.sqrt(0.7) * SIGMA_I).max() < 1e-15
    assert np.abs(ops[3]).max() == 0.0
    rho = 0.5 * (SIGMA_I + SIGMA_X)
    assert np.abs(apply_channel(kset, rho) - rho).max() < 1e-15


def test_reference_kraus_reduces_to_textbook_pair():
    lam = 0.4
    full = reference_gad_kraus(ReferenceGadParams(lam, 1.0))
    pair = textbook_ad_kraus(lam)
    assert choi_distance(full, pair) < 1e-15
    assert np.abs(full.operators[0] - pair.operators[0]).max() == 0.0
    assert np.abs(full.operators[1] - pair.operators[1]).max() == 0.0


def test_reference_bridge_matches_closed_kraus():
    # p = (2 - omega)/4 with lambda = 1 - e^(-2 tau) gives the same channel
    for omega in (-2.0, -1.0, -0.3):
        for tau in (0.2, 1.0, 4.0):
            scaled = GadScaled(0.0, omega, tau)
            reference = reference_gad_kraus(ReferenceGadParams.from_scaled(scaled))
            assert choi_distance(reference, gad_kraus_closed(scaled)) < 1e-9


def test_reference_params_from_scaled_values():
    # omega = -2/(2 n + 1) = -1 is n = 1/2: p = (n + 1)/(2 n + 1) = 3/4
    params = ReferenceGadParams.from_scaled(GadScaled(0.0, -1.0, 0.5))
    assert params.p == pytest.approx(0.75)
    assert params.lambda_t == pytest.approx(1 - math.exp(-1.0))
    # zero temperature emits only; omega -> 0 is an infinitely hot bath
    assert ReferenceGadParams.from_scaled(GadScaled(0.0, -2.0, 1.0)).p == 1.0
    assert ReferenceGadParams.from_scaled(GadScaled(0.0, -5e-324, 1.0)).p == 0.5
    assert ReferenceGadParams.from_scaled(GadScaled(0.0, -1.0, 0.0)).lambda_t == 0.0


def test_rotated_reference_matches_rotating_channel():
    scaled = GadScaled(1.0, -1.0, 1.0)
    reference = compose_z_rotation(
        reference_gad_kraus(ReferenceGadParams.from_scaled(scaled)),
        scaled.theta * scaled.tau,
    )
    assert choi_distance(reference, gad_kraus_closed(scaled)) < 1e-9


# ---------------------------------------------------------------- actions

def test_channel_action_identities():
    for theta, omega, tau in [(0.0, -2.0, 0.7), (1.0, -1.0, 1.0), (5.0, -0.1, 2.0)]:
        scaled = GadScaled(theta, omega, tau)
        kset = gad_kraus_closed(scaled)
        decay = math.exp(-tau)
        shrink = math.exp(-2 * tau)
        cos_a, sin_a = math.cos(theta * tau), math.sin(theta * tau)
        sx, sy = SIGMA_X, np.array([[0, -1j], [1j, 0]])
        checks = [
            (SIGMA_I, SIGMA_I + 0.5 * omega * (1 - shrink) * SIGMA_Z),
            (sx, decay * (cos_a * sx + sin_a * sy)),
            (sy, decay * (cos_a * sy - sin_a * sx)),
            (SIGMA_Z, shrink * SIGMA_Z),
        ]
        for operator, expected in checks:
            assert np.abs(channel_action(kset, operator) - expected).max() < 1e-9


def test_bloch_solution_closure():
    scaled = GadScaled(1.0, -1.0, 0.9)
    kset = gad_kraus_closed(scaled)
    sy = np.array([[0, -1j], [1j, 0]])
    for u in np.linspace(0, 2 * math.pi, 7, endpoint=False):
        for v in np.linspace(0, math.pi, 7):
            direction = np.array(
                [math.sin(v) * math.cos(u), math.sin(v) * math.sin(u), math.cos(v)]
            )
            rho = 0.5 * (
                SIGMA_I + direction[0] * SIGMA_X + direction[1] * sy + direction[2] * SIGMA_Z
            )
            out = apply_channel(kset, rho)
            bloch = np.array(
                [
                    np.trace(SIGMA_X @ out).real,
                    np.trace(sy @ out).real,
                    np.trace(SIGMA_Z @ out).real,
                ]
            )
            assert np.abs(bloch - gad_bloch_scaled(scaled, u, v)).max() < 1e-9


def test_bloch_solutions_rates_vs_scaled():
    rates = GadRates(0.8, 2.5, 0.6)
    t = 0.75
    scaled = rescale(rates, t)
    for u in (0.0, 1.1, 4.0):
        for v in (0.0, 0.7, 2.2, math.pi):
            assert np.abs(
                gad_bloch_rates(rates, t, u, v) - gad_bloch_scaled(scaled, u, v)
            ).max() < 1e-10


# ---------------------------------------------------------------- physics

def test_spectral_density_ohmic_value():
    bath = BathSpectrum(0.02, 10.0, 15.0, 0.0)
    assert spectral_density(bath, 10.0) == pytest.approx(0.2 * math.exp(-2.0 / 3.0))
    assert spectral_density(bath, 0.0) == 0.0


def test_thermal_occupation_values():
    assert thermal_occupation(10.0, 0.0) == 0.0
    assert thermal_occupation(10.0, 100.0) == pytest.approx(9.50833194477505)
    assert thermal_occupation(1e4, 1.0) == 0.0  # exponent overflow guard


def test_thermal_occupation_quiet_at_tiny_temperature():
    # omega / T overflows to inf, which the 700 cut sends to 0 without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert thermal_occupation(10.0, 1e-308) == 0.0
        assert thermal_occupation(np.array([0.5, 10.0]), 5e-324).tolist() == [0.0, 0.0]


def test_rates_from_physics_zero_temperature():
    bath = BathSpectrum(0.02, 10.0, 15.0, 0.0)
    rates = rates_from_physics(bath)
    assert rates.z == 0.0
    assert rates.y == pytest.approx(0.645178979752011, abs=1e-12)
    assert rates.x == 0.0


def test_rates_from_physics_thermal_balance():
    bath = BathSpectrum(0.02, 10.0, 15.0, 100.0)
    rates = rates_from_physics(bath)
    scaled = rescale(rates, 1.0)
    assert scaled.omega == pytest.approx(-0.09991674991575995, abs=1e-12)
    # the difference y - z is temperature independent
    cold = rates_from_physics(BathSpectrum(0.02, 10.0, 15.0, 0.0))
    assert rates.y - rates.z == pytest.approx(cold.y, rel=1e-12)


def test_lamb_stark_vanishes_without_coupling():
    shifts = lamb_stark_shift(BathSpectrum(0.0, 10.0, 15.0, 100.0))
    assert shifts == (0.0, 0.0, 0.0, 0.0)


def test_lamb_stark_thermal_part_vanishes_at_zero_temperature():
    shifts = lamb_stark_shift(BathSpectrum(0.02, 10.0, 15.0, 0.0))
    assert shifts.delta_prime == 0.0
    assert shifts.delta != 0.0


def test_lamb_stark_against_adaptive_oracle():
    # frozen oracle values from scipy's Cauchy-weight quadrature over the
    # same [0, 50 * cutoff] window
    shifts = lamb_stark_shift(BathSpectrum(0.02, 10.0, 15.0, 100.0))
    assert shifts.delta == pytest.approx(-0.20057282751074212, abs=1e-6)
    assert shifts.delta_prime == pytest.approx(1.0891478116425708, abs=1e-6)
    assert shifts.delta_error < 1e-6
    assert shifts.delta_prime_error < 1e-6


def test_lamb_stark_self_convergence():
    # recompute with scipy directly to confirm the reported error estimate
    # is not understated
    bath = BathSpectrum(0.013, 7.0, 11.0, 40.0)
    shifts = lamb_stark_shift(bath)

    def vacuum(w):
        return spectral_density(bath, w)

    reference, _ = scipy.integrate.quad(
        vacuum, 0.0, 50.0 * bath.omega_c, weight="cauchy", wvar=bath.omega0, limit=400
    )
    assert shifts.delta == pytest.approx(-reference, abs=1e-8)


def test_gauss_legendre_table_is_leggauss_40_bit_for_bit():
    # the literal rule stands in for numpy.polynomial, which the package no longer imports
    nodes, weights = np.polynomial.legendre.leggauss(40)
    assert gad_mod._GL_NODES.tobytes() == nodes.tobytes()
    assert gad_mod._GL_WEIGHTS.tobytes() == weights.tobytes()


def _gauss_panels_per_panel(f, edges):
    # the quadrature as one integrand call per panel: the bitwise reference
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        total += half * float(np.dot(gad_mod._GL_WEIGHTS, f(mid + half * gad_mod._GL_NODES)))
    return total


@st.composite
def baths(draw):
    # the benchmark draws alpha in [0.005, 0.05], omega0 in [5, 20], cutoff in
    # [5, 30] and temperature in [0, 500]; these reach past every end
    omega0 = draw(st.floats(min_value=0.05, max_value=40.0))
    temperature = draw(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=2000.0),
            # omega0 / T beyond 700, where the occupation is cut to 0
            st.floats(min_value=700.0, max_value=1e6).map(lambda ratio: omega0 / ratio),
        )
    )
    return BathSpectrum(
        alpha=draw(st.floats(min_value=0.0, max_value=0.5)),
        omega0=omega0,
        omega_c=draw(st.floats(min_value=1.0, max_value=60.0)),
        temperature=temperature,
    )


def _shift_or_failure(bath):
    try:
        return tuple(value.hex() for value in lamb_stark_shift(bath))
    except QuadratureFailure as exc:
        return str(exc)


@settings(deadline=None)
@given(bath=baths())
def test_lamb_stark_panels_in_one_call_keep_every_bit(bath):
    with mock.patch.object(gad_mod, "_gauss_panels", _gauss_panels_per_panel):
        reference = _shift_or_failure(bath)
    assert _shift_or_failure(bath) == reference


@given(bath=baths())
def test_pd_rate_is_the_exact_ohmic_limit(bath):
    # 2 pi lim_{w -> 0} J(w) n(w) = 2 pi alpha T, in the benchmark oracle's order
    assert pd_rate_from_physics(bath).r == 2.0 * math.pi * bath.alpha * bath.temperature


def test_lamb_stark_rejects_pole_outside_window():
    with pytest.raises(ValueError):
        lamb_stark_shift(BathSpectrum(0.02, 1000.0, 15.0, 0.0))


def test_quadrature_failure_when_tolerance_unreachable():
    with pytest.raises(QuadratureFailure):
        lamb_stark_shift(BathSpectrum(0.02, 10.0, 15.0, 100.0), rel_tol=1e-18)
