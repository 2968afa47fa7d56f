"""Acceptance suite: every criterion runs standalone at its stated tolerance
and reports one PASS/FAIL line (run with ``pytest -s`` to see them all)."""

import math
import time

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kraus_forge.bloch import bloch_map, sample_ellipsoid, volume_rate
from kraus_forge.checks import OMEGAS, TAUS, THETAS, gad_checks, pd_checks
from kraus_forge.gad import (
    BathSpectrum,
    GadScaled,
    gad_F_closed,
    gad_L_scaled,
    gad_kraus_asymptotic,
    gad_kraus_closed,
    rates_from_physics,
    rescale,
)
from kraus_forge.kraus import choi_distance, choi_from_propagator, kraus_from_choi, propagate
from kraus_forge.linalg import SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z, hermitian_eig
from kraus_forge.pd import PdParams, pd_bloch, pd_kraus
from references import gad_bloch_rates, gad_bloch_scaled

FIGURE_BATH = dict(alpha=0.02, omega0=10.0, omega_c=15.0)


def _report(number, description, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description} ({detail})")
    assert passed, f"criterion {number}: {description} ({detail})"


def _grid():
    for theta in THETAS:
        for omega in OMEGAS:
            for tau in TAUS:
                yield GadScaled(theta, omega, tau)


def channel_action(kset, operator):
    return sum(e @ operator @ e.conj().T for e in kset.operators)


def _shared(checks, *names):
    # whether the named checks of kraus_forge.checks pass, and their residuals
    found = {name: (residual, tolerance) for name, residual, tolerance in checks}
    passed = all(found[name][0] <= found[name][1] for name in names)
    return passed, ", ".join(f"{name}={found[name][0]:.3e}" for name in names)


def test_criterion_1_closed_vs_numeric_propagator():
    start = time.perf_counter()
    passed, detail = _shared(gad_checks(), "gad_closed_vs_numeric_propagator")
    elapsed = time.perf_counter() - start
    _report(
        1,
        "closed-form propagator equals numeric exponential to 1e-10",
        passed and elapsed < 1.0,
        f"{detail}, runtime={elapsed:.2f}s",
    )


def test_criterion_2_choi_spectrum():
    passed, detail = _shared(gad_checks(), "gad_choi_spectrum", "gad_choi_eigenvalue_sum")
    worst_sum = 0.0
    for scaled in _grid():
        pipeline = hermitian_eig(choi_from_propagator(gad_F_closed(scaled)))[0]
        worst_sum = max(worst_sum, abs(float(pipeline.sum()) - 2.0))
    worst_theta = 0.0
    for omega in OMEGAS:
        for tau in TAUS:
            still = hermitian_eig(
                choi_from_propagator(gad_F_closed(GadScaled(0.0, omega, tau)))
            )[0]
            spun = hermitian_eig(
                choi_from_propagator(gad_F_closed(GadScaled(5.0, omega, tau)))
            )[0]
            worst_theta = max(worst_theta, float(np.abs(still - spun).max()))
    _report(
        2,
        "Choi spectrum matches the closed forms, sums to 2, ignores theta",
        passed and worst_sum < 1e-12 and worst_theta < 1e-12,
        f"{detail}, pipeline_sum={worst_sum:.3e}, theta={worst_theta:.3e}",
    )


def test_criterion_3_completeness():
    passed, detail = _shared(gad_checks() + pd_checks(TAUS), "gad_completeness", "pd_completeness")
    _report(3, "all Kraus families satisfy sum(E^dag E) = I", passed, detail)


def test_criterion_4_equivalence_claims():
    passed, detail = _shared(
        gad_checks() + pd_checks(TAUS),
        "gad_textbook_equivalence",
        "gad_reference_vs_pipeline_choi",
        "pd_pipeline_vs_standard_choi",
    )
    _report(4, "closed/textbook, pipeline/reference, and pd/standard channels coincide", passed, detail)


def test_criterion_5_channel_actions_and_bloch_solutions():
    worst_action = 0.0
    for scaled in [GadScaled(t, o, 1.0) for t in THETAS for o in OMEGAS]:
        kset = gad_kraus_closed(scaled)
        decay = math.exp(-scaled.tau)
        shrink = math.exp(-2 * scaled.tau)
        cos_a = math.cos(scaled.theta * scaled.tau)
        sin_a = math.sin(scaled.theta * scaled.tau)
        targets = [
            (SIGMA_I, SIGMA_I + 0.5 * scaled.omega * (1 - shrink) * SIGMA_Z),
            (SIGMA_X, decay * (cos_a * SIGMA_X + sin_a * SIGMA_Y)),
            (SIGMA_Y, decay * (cos_a * SIGMA_Y - sin_a * SIGMA_X)),
            (SIGMA_Z, shrink * SIGMA_Z),
        ]
        for operator, expected in targets:
            worst_action = max(
                worst_action,
                float(np.abs(channel_action(kset, operator) - expected).max()),
            )
    pd_params = PdParams(0.8)
    pd_set = pd_kraus(pd_params, 1.0)
    pd_decay = math.exp(-2 * pd_params.r)
    for operator, expected in [
        (SIGMA_I, SIGMA_I),
        (SIGMA_X, pd_decay * SIGMA_X),
        (SIGMA_Y, pd_decay * SIGMA_Y),
        (SIGMA_Z, SIGMA_Z),
    ]:
        worst_action = max(
            worst_action,
            float(np.abs(channel_action(pd_set, operator) - expected).max()),
        )

    worst_bloch = 0.0
    grid_u = np.linspace(0.0, 2 * math.pi, 12, endpoint=False)
    grid_v = np.linspace(0.0, math.pi, 12)
    scaled = GadScaled(1.0, -1.0, 0.8)
    from kraus_forge.gad import GadRates

    rates = GadRates(0.5, 2.0, 0.75)
    t = 0.6
    kset = gad_kraus_closed(scaled)
    kset_rates = gad_kraus_closed(rescale(rates, t))
    for u in grid_u:
        for v in grid_v:
            rho = _state(u, v)
            out = channel_action(kset, rho)
            worst_bloch = max(
                worst_bloch,
                float(np.abs(_bloch_of(out) - gad_bloch_scaled(scaled, u, v)).max()),
            )
            out = channel_action(kset_rates, rho)
            worst_bloch = max(
                worst_bloch,
                float(np.abs(_bloch_of(out) - gad_bloch_rates(rates, t, u, v)).max()),
            )
            out = channel_action(pd_set, rho)
            worst_bloch = max(
                worst_bloch,
                float(np.abs(_bloch_of(out) - pd_bloch(pd_params, 1.0, u, v)).max()),
            )
    _report(
        5,
        "channel-action identities and Bloch solutions hold to 1e-9",
        worst_action < 1e-9 and worst_bloch < 1e-9,
        f"action={worst_action:.3e}, bloch={worst_bloch:.3e}",
    )


def _state(u, v):
    direction = [
        math.sin(v) * math.cos(u),
        math.sin(v) * math.sin(u),
        math.cos(v),
    ]
    return 0.5 * (
        SIGMA_I
        + direction[0] * SIGMA_X
        + direction[1] * SIGMA_Y
        + direction[2] * SIGMA_Z
    )


def _bloch_of(rho):
    return np.array(
        [
            np.trace(SIGMA_X @ rho).real,
            np.trace(SIGMA_Y @ rho).real,
            np.trace(SIGMA_Z @ rho).real,
        ]
    )


def test_criterion_6_volume_laws():
    worst_det = 0.0
    for scaled in _grid():
        bmap = bloch_map(gad_kraus_closed(scaled))
        det_route = (4 * math.pi / 3) * abs(np.linalg.det(bmap.linear))
        volume = (4 * math.pi / 3) * math.exp(-4.0 * scaled.tau)
        worst_det = max(worst_det, abs(det_route - volume))
    from kraus_forge.gad import GadRates

    rates = GadRates(0.2, 1.5, 0.5)
    total = rates.y + rates.z
    worst_rate = 0.0
    worst_fd = 0.0
    step = 1e-5
    for t in (0.0, 0.1, 0.5, 1.0):
        formula = -2.0 * total * math.exp(-2.0 * total * t)
        worst_rate = max(worst_rate, abs(volume_rate(rates, t) - formula))
        finite_difference = (
            math.exp(-2 * total * (t + step)) - math.exp(-2 * total * (t - step))
        ) / (2 * step)
        worst_fd = max(worst_fd, abs(volume_rate(rates, t) - finite_difference))
    _report(
        6,
        "volume law (4pi/3)e^(-4 tau) and its decay rate hold",
        worst_det < 1e-10 and worst_rate < 1e-9 and worst_fd < 1e-6,
        f"determinant={worst_det:.3e}, rate={worst_rate:.3e}, fd={worst_fd:.3e}",
    )


def test_criterion_7_asymptotics():
    passed, detail = _shared(gad_checks(), "gad_asymptotic_limit")
    worst_distance = 0.0
    worst_point = 0.0
    for omega in OMEGAS:
        scaled = GadScaled(1.0, omega, 20.0)
        pipeline = kraus_from_choi(choi_from_propagator(gad_F_closed(scaled)))
        worst_distance = max(
            worst_distance, choi_distance(pipeline, gad_kraus_asymptotic(omega))
        )
        points = sample_ellipsoid(bloch_map(pipeline), (12, 12))
        target = np.array([0.0, 0.0, omega / 2])
        worst_point = max(worst_point, float(np.abs(points - target).max()))
    _report(
        7,
        "tau=20 pipeline matches the asymptotic set and its fixed point",
        passed and worst_distance < 1e-7 and worst_point < 1e-8,
        f"{detail}, theta=1 distance={worst_distance:.3e}, point={worst_point:.3e}",
    )


def test_criterion_8_figure_reproduction():
    start = time.perf_counter()
    t_snapshot = 0.05
    maps = {}
    for temperature in (100.0, 300.0):
        rates = rates_from_physics(BathSpectrum(temperature=temperature, **FIGURE_BATH))
        maps[temperature] = bloch_map(gad_kraus_closed(rescale(rates, t_snapshot)))
    axes_cool = np.linalg.svd(maps[100.0].linear, compute_uv=False)
    axes_hot = np.linalg.svd(maps[300.0].linear, compute_uv=False)
    shrinking = bool(np.all(axes_hot < axes_cool))

    # low-temperature match between the thermal channel and its
    # zero-temperature limit at t = 2.5
    warm = rates_from_physics(BathSpectrum(temperature=1.0, **FIGURE_BATH))
    cold = rates_from_physics(BathSpectrum(temperature=0.0, **FIGURE_BATH))
    grid = (12, 12)
    warm_points = sample_ellipsoid(bloch_map(gad_kraus_closed(rescale(warm, 2.5))), grid)
    cold_points = sample_ellipsoid(bloch_map(gad_kraus_closed(rescale(cold, 2.5))), grid)
    coincide = float(np.abs(warm_points - cold_points).max())

    steeper = volume_rate(
        rates_from_physics(BathSpectrum(temperature=300.0, **FIGURE_BATH)), 0.0
    ) < volume_rate(
        rates_from_physics(BathSpectrum(temperature=100.0, **FIGURE_BATH)), 0.0
    )
    elapsed = time.perf_counter() - start
    _report(
        8,
        "figure-shaped checks: hotter shrinks faster, cold limit coincides",
        shrinking and coincide < 1e-3 and steeper and elapsed < 5.0,
        f"coincide={coincide:.3e}, runtime={elapsed:.2f}s",
    )


# one failure is reported, so criterion 9 gets one exception to print
@settings(max_examples=300, deadline=None, report_multiple_bugs=False)
@given(theta=st.floats(-1e3, 1e3), tau=st.floats(0.0, 1e300, exclude_min=True))
@example(theta=-998.45, tau=0.3)
@example(theta=0.0, tau=18.3)
@example(theta=1e3, tau=5e-324)
def _two_closed_operators_at_zero_temperature(theta, tau):
    # every tau > 0, subnormal ones included: operators 2 and 3 are exactly 0
    kset = gad_kraus_closed(GadScaled(theta, -2.0, tau))
    norms = [float(np.abs(op).max()) for op in kset.operators]
    assert norms[1] == norms[2] == 0.0 < min(norms[0], norms[3]), (theta, tau, norms)


def test_criterion_9_degenerate_inputs():
    identity_closed = gad_kraus_closed(GadScaled(1.0, -1.0, 0.0))
    identity_ok = (
        len(identity_closed) == 1
        and np.abs(identity_closed.operators[0] - SIGMA_I).max() == 0.0
    )
    pipeline_zero = kraus_from_choi(
        choi_from_propagator(propagate(gad_L_scaled(GadScaled(1.0, -1.0, 0.0)), 0.0))
    )
    identity_ok = identity_ok and len(pipeline_zero) == 1

    # the pipeline's weight cutoff drops the damping operator where lambda <= 1e-12,
    # so it is held on the grid only
    pipeline_ok = all(
        len(kraus_from_choi(choi_from_propagator(gad_F_closed(GadScaled(0.0, -2.0, tau))))) == 2
        for tau in TAUS
    )
    try:
        _two_closed_operators_at_zero_temperature()
        closed = "held"
    except Exception as exc:  # any error still ends in the one FAIL line
        closed = f"fails: {type(exc).__name__}: {exc}"
    _report(
        9,
        "tau=0 gives the identity set; omega=-2 leaves exactly two operators",
        identity_ok and pipeline_ok and closed == "held",
        f"identity={identity_ok}, zero_temperature_pipeline={pipeline_ok}, "
        f"zero_temperature_closed={closed}",
    )
