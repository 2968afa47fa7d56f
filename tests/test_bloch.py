import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kraus_forge.bloch import (
    AffineBlochMap,
    bloch_map,
    bloch_volume,
    ellipsoid_semiaxes,
    sample_ellipsoid,
    spherical_grid,
    volume_rate,
)
from kraus_forge.errors import IncompleteKrausSet
from kraus_forge.gad import (
    BathSpectrum,
    GadRates,
    GadScaled,
    gad_F_closed,
    gad_kraus_closed,
    rates_from_physics,
    rescale,
)
from kraus_forge.kraus import KrausSet, apply_channel, identity_kraus_set
from kraus_forge.linalg import SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z
from kraus_forge.pd import PdParams, pd_kraus


def random_density(rng):
    v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = v @ v.conj().T
    return rho / np.trace(rho).real


def test_identity_channel_map():
    bmap = bloch_map(identity_kraus_set())
    assert np.abs(bmap.linear - np.eye(3)).max() < 1e-15
    assert np.abs(bmap.shift).max() < 1e-15


def test_dephasing_map():
    r, t = 0.7, 1.1
    decay = math.exp(-2 * r * t)
    bmap = bloch_map(pd_kraus(PdParams(r), t))
    assert np.abs(bmap.linear - np.diag([decay, decay, 1.0])).max() < 1e-12
    assert np.abs(bmap.shift).max() < 1e-12


def test_zero_temperature_damping_map():
    tau = 0.9
    bmap = bloch_map(gad_kraus_closed(GadScaled(0.0, -2.0, tau)))
    decay = math.exp(-tau)
    assert np.abs(bmap.linear - np.diag([decay, decay, decay**2])).max() < 1e-12
    assert np.abs(bmap.shift - np.array([0.0, 0.0, decay**2 - 1.0])).max() < 1e-12


def test_damping_map_with_rotation():
    scaled = GadScaled(1.2, -0.8, 0.6)
    bmap = bloch_map(gad_kraus_closed(scaled))
    decay = math.exp(-scaled.tau)
    angle = scaled.theta * scaled.tau
    expected = np.array(
        [
            [decay * math.cos(angle), -decay * math.sin(angle), 0.0],
            [decay * math.sin(angle), decay * math.cos(angle), 0.0],
            [0.0, 0.0, decay**2],
        ]
    )
    assert np.abs(bmap.linear - expected).max() < 1e-12
    shift_z = 0.5 * scaled.omega * (1 - decay**2)
    assert np.abs(bmap.shift - np.array([0.0, 0.0, shift_z])).max() < 1e-12


def test_map_consistent_with_channel_on_random_states():
    scaled = GadScaled(0.9, -1.1, 0.8)
    kset = gad_kraus_closed(scaled)
    bmap = bloch_map(kset)
    sy = np.array([[0, -1j], [1j, 0]])
    rng = np.random.default_rng(61)
    for _ in range(25):
        rho = random_density(rng)
        direction = np.array(
            [
                np.trace(SIGMA_X @ rho).real,
                np.trace(sy @ rho).real,
                np.trace(SIGMA_Z @ rho).real,
            ]
        )
        out = apply_channel(kset, rho)
        out_direction = np.array(
            [
                np.trace(SIGMA_X @ out).real,
                np.trace(sy @ out).real,
                np.trace(SIGMA_Z @ out).real,
            ]
        )
        assert np.abs(bmap(direction) - out_direction).max() < 1e-10


def test_map_keeps_image_inside_ball():
    bmap = bloch_map(gad_kraus_closed(GadScaled(2.0, -0.5, 0.4)))
    for point in sample_ellipsoid(bmap, (16, 9)):
        assert np.linalg.norm(point) <= 1.0 + 1e-9


def test_map_rejects_incomplete_set():
    with pytest.raises(IncompleteKrausSet):
        bloch_map(KrausSet((0.7 * SIGMA_I,)))


def _reference_bloch_map(kset):
    # M_ij = tr(s_i phi(s_j)) / 2 and b_i = tr(s_i phi(I)) / 2, from the four
    # channel images phi(I), phi(s_x), phi(s_y), phi(s_z)
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    identity_image, *images = (
        sum(e @ op @ e.conj().T for e in kset.operators) for op in (SIGMA_I, *paulis)
    )
    linear = np.array(
        [[0.5 * np.trace(si @ image).real for image in images] for si in paulis]
    )
    shift = np.array([0.5 * np.trace(si @ identity_image).real for si in paulis])
    return linear, shift


# one to four operators: the 2x2 blocks of a random isometry, as 8 real
# numbers per operator before orthonormalisation
_ISOMETRY = st.lists(
    st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8), min_size=1, max_size=4
)


@settings(max_examples=300, deadline=None)
@given(_ISOMETRY)
def test_map_equals_channel_image_formula(blocks):
    raw = np.concatenate(
        [(np.array(v[:4]) + 1j * np.array(v[4:])).reshape(2, 2) for v in blocks]
    )
    # orthonormal columns cut into 2x2 blocks form a complete set
    q = np.linalg.qr(raw)[0]
    kset = KrausSet(tuple(q.reshape(len(blocks), 2, 2)))
    bmap = bloch_map(kset)
    linear, shift = _reference_bloch_map(kset)
    assert np.abs(bmap.linear - linear).max() <= 1e-15
    assert np.abs(bmap.shift - shift).max() <= 1e-15


@settings(max_examples=200, deadline=None)
@given(
    st.builds(
        GadScaled,
        theta=st.floats(min_value=-8.0, max_value=8.0),
        omega=st.floats(min_value=-2.0, max_value=-0.01),
        tau=st.floats(min_value=1e-4, max_value=25.0),
    )
)
def test_map_of_closed_set_is_the_closed_propagator_block(scaled):
    # the block figure reads off the closed-form propagator
    kset = gad_kraus_closed(scaled)
    bmap = bloch_map(kset)
    f = gad_F_closed(scaled)
    linear, shift = _reference_bloch_map(kset)
    assert np.abs(bmap.linear - linear).max() <= 1e-15
    assert np.abs(bmap.shift - shift).max() <= 1e-15
    assert np.abs(bmap.linear - f[1:, 1:]).max() <= 1e-14
    assert np.abs(bmap.shift - f[1:, 0]).max() <= 1e-14


def test_spherical_grid_layout():
    grid = spherical_grid(4, 3)
    assert grid.shape == (12, 2)
    # row-major: u varies in the outer loop, v in the inner one
    assert np.allclose(grid[:3, 0], 0.0)
    assert np.allclose(grid[:3, 1], [0.0, math.pi / 2, math.pi])
    assert np.allclose(grid[3:6, 0], math.pi / 2)
    # the seam u = 2 pi is excluded, both poles are included
    assert grid[:, 0].max() < 2 * math.pi
    with pytest.raises(ValueError):
        spherical_grid(1, 5)


def test_sample_ellipsoid_identity_is_unit_sphere():
    points = sample_ellipsoid(AffineBlochMap(np.eye(3), np.zeros(3)), (8, 5))
    assert points.shape == (40, 3)
    assert np.abs(np.linalg.norm(points, axis=1) - 1.0).max() < 1e-12


def test_hot_bath_shrinks_every_semiaxis():
    t = 0.05
    bath = dict(alpha=0.02, omega0=10.0, omega_c=15.0)
    cooler = rates_from_physics(BathSpectrum(temperature=100.0, **bath))
    hotter = rates_from_physics(BathSpectrum(temperature=300.0, **bath))
    axes_cool = ellipsoid_semiaxes(bloch_map(gad_kraus_closed(rescale(cooler, t))))
    axes_hot = ellipsoid_semiaxes(bloch_map(gad_kraus_closed(rescale(hotter, t))))
    assert np.all(axes_hot < axes_cool)


def test_dephasing_keeps_full_axis_extent():
    for t in (0.1, 1.0, 10.0):
        bmap = bloch_map(pd_kraus(PdParams(1.0), t))
        zs = sample_ellipsoid(bmap, (8, 9))[:, 2]
        assert zs.max() == pytest.approx(1.0, abs=1e-12)
        assert zs.min() == pytest.approx(-1.0, abs=1e-12)


def test_volume_values():
    assert bloch_volume(GadScaled(0.0, -1.0, 0.0)) == pytest.approx(4 * math.pi / 3)
    assert bloch_volume(GadScaled(0.0, -1.0, 1.0)) == pytest.approx(
        4 * math.pi / 3 * math.exp(-4.0)
    )


def test_volume_equals_determinant_route():
    for theta in (0.0, 1.0, 5.0):
        for tau in (0.2, 1.0, 3.0):
            scaled = GadScaled(theta, -0.7, tau)
            bmap = bloch_map(gad_kraus_closed(scaled))
            det_volume = 4 * math.pi / 3 * abs(np.linalg.det(bmap.linear))
            assert abs(det_volume - bloch_volume(scaled)) < 1e-10


def test_volume_rate_values():
    rates = GadRates(0.0, 2.0, 0.5)
    assert volume_rate(rates, 0.0) == pytest.approx(-2 * 2.5)
    assert volume_rate(rates, 50.0) == pytest.approx(0.0, abs=1e-80)
    with pytest.raises(ValueError):
        volume_rate(rates, -0.1)


def test_volume_rate_steeper_for_hotter_bath():
    bath = dict(alpha=0.02, omega0=10.0, omega_c=15.0)
    cooler = rates_from_physics(BathSpectrum(temperature=100.0, **bath))
    hotter = rates_from_physics(BathSpectrum(temperature=300.0, **bath))
    assert volume_rate(hotter, 0.0) < volume_rate(cooler, 0.0)


def test_volume_rate_matches_finite_difference():
    rates = GadRates(0.3, 1.8, 0.4)
    total = rates.y + rates.z
    step = 1e-5
    for t in (0.0, 0.1, 0.5):
        forward = math.exp(-2 * total * (t + step))
        backward = math.exp(-2 * total * (t - step))
        estimate = (forward - backward) / (2 * step)
        assert abs(volume_rate(rates, t) - estimate) < 1e-6


def test_fixed_point_reached_at_long_times():
    scaled = GadScaled(1.0, -1.0, 30.0)
    points = sample_ellipsoid(bloch_map(gad_kraus_closed(scaled)), (12, 12))
    target = np.array([0.0, 0.0, scaled.omega / 2])
    assert np.abs(points - target).max() < 1e-9
