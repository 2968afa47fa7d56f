import math

import numpy as np
import pytest

from kraus_forge.errors import NegativeTime
from kraus_forge.gad import BathSpectrum
from kraus_forge.kraus import (
    apply_channel,
    choi_distance,
    choi_from_propagator,
    kraus_from_choi,
    propagate,
)
from kraus_forge.lindblad import build_L
from kraus_forge.linalg import SIGMA_I, SIGMA_X, SIGMA_Z
from kraus_forge.pd import (
    PdParams,
    pd_L,
    pd_bloch,
    pd_generator,
    pd_kraus,
    pd_rate_from_physics,
    pd_standard_kraus,
)


def channel_action(kset, operator):
    return sum(e @ operator @ e.conj().T for e in kset.operators)


def random_density(rng):
    v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = v @ v.conj().T
    return rho / np.trace(rho).real


def test_pd_L_values():
    assert np.abs(pd_L(PdParams(0.0))).max() == 0.0
    assert np.abs(pd_L(PdParams(1.0)) - np.diag([0.0, -2.0, -2.0, 0.0])).max() == 0.0


def test_pd_L_matches_lindblad_route():
    for r in (0.3, 1.0, 4.2):
        assert np.abs(pd_L(PdParams(r)) - build_L(pd_generator(PdParams(r)))).max() < 1e-14


def test_pd_kraus_at_zero_time():
    kset = pd_kraus(PdParams(1.0), 0.0)
    assert np.abs(kset.operators[0]).max() == 0.0
    assert np.abs(kset.operators[1] - SIGMA_I).max() == 0.0
    assert kset.completeness_residual() < 1e-15


def test_pd_kraus_longtime_limit():
    kset = pd_kraus(PdParams(1.0), 400.0)
    assert np.abs(kset.operators[0] - SIGMA_Z / math.sqrt(2)).max() < 1e-15
    assert np.abs(kset.operators[1] - SIGMA_I / math.sqrt(2)).max() < 1e-15


def test_pd_kraus_closed_form_values():
    r, t = 0.8, 0.9
    decay = math.exp(-2 * r * t)
    kset = pd_kraus(PdParams(r), t)
    assert np.abs(kset.operators[0] - math.sqrt((1 - decay) / 2) * SIGMA_Z).max() < 1e-15
    assert np.abs(kset.operators[1] - math.sqrt((1 + decay) / 2) * SIGMA_I).max() < 1e-15
    assert kset.completeness_residual() < 1e-12
    assert kset.weights == pytest.approx((1 - decay, 1 + decay))


def test_pd_kraus_rejects_negative_time():
    with pytest.raises(NegativeTime):
        pd_kraus(PdParams(1.0), -1.0)


def test_pd_kraus_matches_standard_form():
    for rt in (0.1, 1.0, 5.0):
        closed = pd_kraus(PdParams(1.0), rt)
        standard = pd_standard_kraus(-math.expm1(-2 * rt))
        assert choi_distance(closed, standard) < 1e-12


def test_pd_pipeline_agreement():
    params = PdParams(1.0)
    gen = pd_L(params)
    for t in (0.1, 1.0, 5.0):
        pipeline = kraus_from_choi(choi_from_propagator(propagate(gen, t)))
        assert choi_distance(pipeline, pd_kraus(params, t)) < 1e-10


def test_pd_unitality_and_pointer_operators():
    kset = pd_kraus(PdParams(1.3), 0.7)
    assert np.abs(channel_action(kset, SIGMA_I) - SIGMA_I).max() < 1e-12
    assert np.abs(channel_action(kset, SIGMA_Z) - SIGMA_Z).max() < 1e-12


def test_pd_offdiagonal_decay_and_populations():
    r, t = 0.9, 1.1
    decay = math.exp(-2 * r * t)
    kset = pd_kraus(PdParams(r), t)
    rng = np.random.default_rng(53)
    for _ in range(30):
        rho = random_density(rng)
        out = apply_channel(kset, rho)
        assert abs(out[0, 1] - decay * rho[0, 1]) < 1e-12
        assert abs(out[0, 0] - rho[0, 0]) < 1e-12
        assert abs(out[1, 1] - rho[1, 1]) < 1e-12


def test_pd_bloch_solution():
    params = PdParams(1.0)
    assert np.abs(
        pd_bloch(params, 0.0, 0.3, 1.2)
        - np.array(
            [
                math.sin(1.2) * math.cos(0.3),
                math.sin(1.2) * math.sin(0.3),
                math.cos(1.2),
            ]
        )
    ).max() < 1e-15
    # pointer state on the axis never moves
    assert np.abs(pd_bloch(params, 7.0, 0.9, 0.0) - np.array([0, 0, 1.0])).max() < 1e-15
    # equatorial states lose all coherence eventually
    assert np.abs(pd_bloch(params, 300.0, 0.4, math.pi / 2)).max() < 1e-15


def test_pd_bloch_matches_channel():
    params = PdParams(0.6)
    t = 0.8
    kset = pd_kraus(params, t)
    sy = np.array([[0, -1j], [1j, 0]])
    for u in np.linspace(0, 2 * math.pi, 5, endpoint=False):
        for v in np.linspace(0, math.pi, 5):
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
            assert np.abs(bloch - pd_bloch(params, t, u, v)).max() < 1e-12


def test_pd_rate_zero_temperature():
    assert pd_rate_from_physics(BathSpectrum(0.02, 10.0, 15.0, 0.0)).r == 0.0


def test_pd_rate_ohmic_values():
    # the low-frequency product tends to 2 pi alpha T for the ohmic family
    rate = pd_rate_from_physics(BathSpectrum(0.02, 10.0, 15.0, 100.0))
    assert rate.r == pytest.approx(4 * math.pi, rel=1e-8)
    rate = pd_rate_from_physics(BathSpectrum(0.02, 10.0, 15.0, 300.0))
    assert rate.r == pytest.approx(12 * math.pi, rel=1e-8)


def test_pd_params_validation():
    with pytest.raises(ValueError):
        PdParams(-0.5)
