"""Closed forms for the generalized amplitude damping channel.

Covers the physical-rate, scaled, and thermal-reference parameterizations,
the generator and propagator matrices, the Choi spectrum, the four
closed-form Kraus operators with their shared subexpressions, the
long-time limit set, and the bath-spectrum plumbing (rates, dephasing-free
frequency shifts via principal-value quadrature).

Scaled variables: theta is the coherent-rotation strength, omega in [-2, 0)
the thermal-balance parameter (omega = -2 is the zero-temperature limit),
tau the dimensionless time. The channel's Bloch fixed point sits at
z = omega / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import OverflowDetected, QuadratureFailure, SingularTime
from .kraus import KrausSet, identity_kraus_set
from .lindblad import LindbladGenerator
from .linalg import SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z

_SINGULAR_TAU = 1e-8
# above this the closed-form subexpressions overflow; the long-time limit holds
_LIMIT_TAU = 300.0


@dataclass(frozen=True)
class GadRates:
    """Physical rates: Hamiltonian shift x, emission y, absorption z (1/time).

    Requires y > z >= 0; emission always dominates absorption for a thermal
    bath, and the scaled omega = -2(y - z)/(y + z) then lands in [-2, 0).
    """

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        x, y, z = float(self.x), float(self.y), float(self.z)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError("rates must be finite")
        if not y > z >= 0.0:
            raise ValueError(f"rates must satisfy y > z >= 0, got y={y}, z={z}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class GadScaled:
    """Dimensionless channel parameters (theta, omega, tau).

    Forward evolution only: tau < 0 would correspond to a non-completely-
    positive map and is rejected.
    """

    theta: float
    omega: float
    tau: float

    def __post_init__(self) -> None:
        theta, omega, tau = float(self.theta), float(self.omega), float(self.tau)
        if not (math.isfinite(theta) and math.isfinite(omega) and math.isfinite(tau)):
            raise ValueError("scaled parameters must be finite")
        if not -2.0 <= omega < 0.0:
            raise ValueError(f"omega must lie in [-2, 0), got {omega}")
        if tau < 0.0:
            raise ValueError(f"tau must be >= 0, got {tau}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "tau", tau)


@dataclass(frozen=True)
class GadIntermediates:
    """Shared subexpressions of the two dissipative closed-form Kraus operators.

    ``a`` and ``d`` are complex; the paired entries are the +/- variants of
    the same radical expression. Squares are clamped at zero so roundoff
    cannot push them negative.
    """

    a: complex
    b_plus: float
    b_minus: float
    c_plus: float
    c_minus: float
    d: complex
    e_plus: float
    e_minus: float


@dataclass(frozen=True)
class ReferenceGadParams:
    """Parameters of the thermal reference Kraus set.

    ``lambda_t`` is the accumulated damping weight in [0, 1] and ``p`` the
    emission branch weight in [0, 1]; ``n_th``/``gamma0`` are optional
    thermal-occupation metadata recorded when constructed from physics.
    """

    lambda_t: float
    p: float
    n_th: float | None = None
    gamma0: float | None = None

    def __post_init__(self) -> None:
        lam, p = float(self.lambda_t), float(self.p)
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda_t must lie in [0, 1], got {lam}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        object.__setattr__(self, "lambda_t", lam)
        object.__setattr__(self, "p", p)

    @classmethod
    def from_thermal(cls, n_th: float, gamma0: float, t: float) -> "ReferenceGadParams":
        """From thermal occupation, bare decay rate, and elapsed time."""
        if n_th < 0.0:
            raise ValueError(f"n_th must be >= 0, got {n_th}")
        if gamma0 < 0.0 or t < 0.0:
            raise ValueError("gamma0 and t must be >= 0")
        lam = -math.expm1(-gamma0 * (2.0 * n_th + 1.0) * t)
        p = (n_th + 1.0) / (2.0 * n_th + 1.0)
        return cls(lam, p, n_th=float(n_th), gamma0=float(gamma0))

    @classmethod
    def from_scaled(cls, scaled: GadScaled) -> "ReferenceGadParams":
        """Bridge from scaled parameters: p = (2 - omega)/4, lambda = 1 - e^(-2 tau)."""
        lam = -math.expm1(-2.0 * scaled.tau)
        p = (2.0 - scaled.omega) / 4.0
        n_th = -(2.0 + scaled.omega) / (2.0 * scaled.omega)
        return cls(lam, p, n_th=n_th)


@dataclass(frozen=True)
class BathSpectrum:
    """Bosonic bath description: coupling, qubit splitting, cutoff, temperature.

    The spectral density is ohmic with an exponential cutoff,
    J(w) = alpha w e^(-w/wc). Temperature uses the same natural units as the
    frequencies.
    """

    alpha: float
    omega0: float
    omega_c: float
    temperature: float

    def __post_init__(self) -> None:
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.omega0 <= 0.0 or self.omega_c <= 0.0:
            raise ValueError("omega0 and omega_c must be > 0")
        if self.temperature < 0.0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")


def spectral_density(bath: BathSpectrum, omega):
    """Ohmic J(omega) = alpha omega e^(-omega/omega_c) of the bath."""
    w = np.asarray(omega, dtype=float)
    return bath.alpha * w * np.exp(-w / bath.omega_c)


def thermal_occupation(omega, temperature: float):
    """Mean boson number 1/(e^(omega/T) - 1); zero at zero temperature."""
    w = np.asarray(omega, dtype=float)
    if temperature <= 0.0:
        return np.zeros_like(w) if w.ndim else 0.0
    # a tiny temperature overflows the ratio to inf, which the cut sends to 0
    with np.errstate(over="ignore", divide="ignore"):
        ratio = w / temperature
        occ = 1.0 / np.expm1(np.minimum(ratio, 700.0))
    occ = np.where(ratio > 700.0, 0.0, occ)
    return occ if w.ndim else float(occ)


def rescale(rates: GadRates, t: float) -> GadScaled:
    """Map physical rates and a time to the scaled (theta, omega, tau)."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    total = rates.y + rates.z
    return GadScaled(
        theta=4.0 * rates.x / total,
        omega=-2.0 * (rates.y - rates.z) / total,
        tau=0.5 * total * t,
    )


def gad_generator(rates: GadRates) -> LindbladGenerator:
    """Generator with shift Hamiltonian x sigma_z, emission y, absorption z."""
    return LindbladGenerator(
        hamiltonian=rates.x * SIGMA_Z,
        jumps=((rates.y, SIGMA_MINUS), (rates.z, SIGMA_PLUS)),
    )


def gad_L(rates: GadRates) -> np.ndarray:
    """Generator matrix in the Hermitian basis, written out directly."""
    x, y, z = rates.x, rates.y, rates.z
    half = -0.5 * (y + z)
    return np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, half, -2.0 * x, 0.0],
            [0.0, 2.0 * x, half, 0.0],
            [z - y, 0.0, 0.0, -(y + z)],
        ]
    )


def gad_L_scaled(scaled: GadScaled) -> np.ndarray:
    """Rescaled generator matrix; its exponential at tau is the propagator."""
    return np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, -scaled.theta, 0.0],
            [0.0, scaled.theta, -1.0, 0.0],
            [scaled.omega, 0.0, 0.0, -2.0],
        ]
    )


def gad_F_closed(scaled: GadScaled) -> np.ndarray:
    """Closed-form propagator: damped rotation block plus relaxation column."""
    theta, omega, tau = scaled.theta, scaled.omega, scaled.tau
    decay = math.exp(-tau)
    c = decay * math.cos(theta * tau)
    s = decay * math.sin(theta * tau)
    # 0.5 * omega * (1 - e^(-2 tau)), stable for both tiny and large tau
    relax = -0.5 * omega * math.expm1(-2.0 * tau)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, c, -s, 0.0],
            [0.0, s, c, 0.0],
            [relax, 0.0, 0.0, math.exp(-2.0 * tau)],
        ]
    )


def gad_choi_eigenvalues(scaled: GadScaled) -> np.ndarray:
    """The four Choi eigenvalues as functions of (omega, tau) alone.

    Evaluated with the radical rewritten as 16 e^(-2 tau) +
    omega^2 (1 - e^(-2 tau))^2, which stays bounded for large tau and avoids
    the cancellation the raw form suffers at omega = -2. All values are
    nonnegative and sum to 2.
    """
    omega, tau = scaled.omega, scaled.tau
    e2 = math.exp(-2.0 * tau)
    lam = -math.expm1(-2.0 * tau)
    root = math.sqrt(16.0 * e2 + omega * omega * lam * lam)
    return np.array(
        [
            0.25 * lam * (2.0 - omega),
            0.25 * lam * (2.0 + omega),
            max(0.25 * (2.0 * e2 + 2.0 - root), 0.0),
            0.25 * (2.0 * e2 + 2.0 + root),
        ]
    )


def gad_intermediates(scaled: GadScaled) -> GadIntermediates:
    """Subexpressions shared by the dissipative closed-form Kraus pair.

    Singular at tau = 0 (the complex factor ``a`` vanishes); tau below 1e-8
    raises SingularTime. The growing factors overflow doubles near tau = 350,
    so tau above 300 raises OverflowDetected; ``gad_kraus_closed`` returns
    the long-time limit set there.
    """
    theta, omega, tau = scaled.theta, scaled.omega, scaled.tau
    if tau < _SINGULAR_TAU:
        raise SingularTime(f"closed-form subexpressions singular for tau={tau}")
    if tau > _LIMIT_TAU:
        raise OverflowDetected(
            f"closed-form subexpressions overflow for tau={tau}; "
            "use the asymptotic set"
        )
    angle = theta * tau
    sinh_tau = math.sinh(tau)
    a = complex(omega * sinh_tau, -2.0 * math.sin(angle))
    e2 = math.exp(-2.0 * tau)
    eigs = gad_choi_eigenvalues(scaled)
    b_minus = max(4.0 * e2 * eigs[2], 0.0)
    b_plus = 4.0 * e2 * eigs[3]
    # e^(-tau) times the radical, in its bounded form
    scaled_root = 2.0 * math.sqrt(4.0 + omega * omega * sinh_tau * sinh_tau)
    cos4 = 4.0 * math.cos(angle)
    c_minus = (scaled_root - cos4) ** 2
    c_plus = (scaled_root + cos4) ** 2
    d = 4.0 * math.exp(tau) * complex(math.cos(angle), -math.sin(angle))
    root = scaled_root * math.exp(tau)
    drift = -omega * math.expm1(2.0 * tau)  # (1 - e^(2 tau)) * omega
    return GadIntermediates(
        a=a,
        b_plus=b_plus,
        b_minus=b_minus,
        c_plus=c_plus,
        c_minus=c_minus,
        d=d,
        e_plus=drift + root,
        e_minus=drift - root,
    )


def gad_kraus_closed(scaled: GadScaled) -> KrausSet:
    """The four closed-form Kraus operators, in their canonical order.

    Zero operators are kept in place (at omega = -2 the second and third
    vanish identically), so the set always has four entries with weights
    equal to the Choi eigenvalues. Below tau = 1e-8 the formulas are
    singular and the identity set is returned instead. Above tau = 300,
    where e^(-tau) lies far below double precision and the formulas
    overflow, the long-time limit set is returned in the same order.
    """
    if scaled.tau < _SINGULAR_TAU:
        return identity_kraus_set()
    if scaled.tau > _LIMIT_TAU:
        # the limit set lists its two diagonal operators the other way round
        lower, upper, second, first = gad_kraus_asymptotic(scaled.omega).operators
        return KrausSet((lower, upper, first, second), tuple(gad_choi_eigenvalues(scaled).tolist()))
    omega = scaled.omega
    lam = -math.expm1(-2.0 * scaled.tau)
    sub = gad_intermediates(scaled)
    eigs = gad_choi_eigenvalues(scaled)

    lower = np.zeros((2, 2), dtype=complex)
    lower[1, 0] = 0.5j * math.sqrt(lam * (2.0 - omega))
    upper = np.zeros((2, 2), dtype=complex)
    upper[0, 1] = -0.5j * math.sqrt(lam * (2.0 + omega))

    mag_a2 = abs(sub.a) ** 2
    scale = 1.0 / (2.0 * math.sqrt(2.0) * sub.a)
    pref_minus = math.sqrt(mag_a2 * sub.b_minus / (4.0 * mag_a2 + sub.c_minus)) * scale
    pref_plus = math.sqrt(mag_a2 * sub.b_plus / (4.0 * mag_a2 + sub.c_plus)) * scale
    diag_minus = pref_minus * np.array(
        [[sub.d - sub.e_plus, 0.0], [0.0, np.conj(sub.d) + sub.e_minus]]
    )
    diag_plus = pref_plus * np.array(
        [[sub.d - sub.e_minus, 0.0], [0.0, np.conj(sub.d) + sub.e_plus]]
    )
    return KrausSet(
        (lower, upper, diag_minus, diag_plus),
        tuple(float(v) for v in eigs),
    )


def gad_kraus_asymptotic(omega: float) -> KrausSet:
    """Long-time limit Kraus set; maps every state to Bloch z = omega / 2."""
    omega = float(omega)
    if not -2.0 <= omega < 0.0:
        raise ValueError(f"omega must lie in [-2, 0), got {omega}")
    up = 0.5 * math.sqrt(2.0 - omega)
    down = 0.5 * math.sqrt(2.0 + omega)
    return KrausSet(
        (
            np.array([[0.0, 0.0], [1j * up, 0.0]]),
            np.array([[0.0, -1j * down], [0.0, 0.0]]),
            np.array([[0.0, 0.0], [0.0, -up]], dtype=complex),
            np.array([[down, 0.0], [0.0, 0.0]], dtype=complex),
        )
    )


def reference_gad_kraus(params: ReferenceGadParams) -> KrausSet:
    """Thermal reference set: damped emission pair (weight p) plus absorption pair."""
    lam, p = params.lambda_t, params.p
    keep = math.sqrt(1.0 - lam)
    flip = math.sqrt(lam)
    sp = math.sqrt(p)
    sq = math.sqrt(1.0 - p)
    return KrausSet(
        (
            sp * np.array([[keep, 0.0], [0.0, 1.0]], dtype=complex),
            sp * np.array([[0.0, 0.0], [flip, 0.0]], dtype=complex),
            sq * np.array([[1.0, 0.0], [0.0, keep]], dtype=complex),
            sq * np.array([[0.0, flip], [0.0, 0.0]], dtype=complex),
        )
    )


def textbook_ad_kraus(lambda_t: float) -> KrausSet:
    """Two-operator amplitude damping pair with accumulated weight lambda_t.

    Written in this package's level labeling (index 1 is the stable lower
    level); equals the thermal reference set at p = 1.
    """
    lam = float(lambda_t)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda_t must lie in [0, 1], got {lam}")
    return KrausSet(
        (
            np.array([[math.sqrt(1.0 - lam), 0.0], [0.0, 1.0]], dtype=complex),
            np.array([[0.0, 0.0], [math.sqrt(lam), 0.0]], dtype=complex),
        )
    )


def compose_z_rotation(kset: KrausSet, angle: float) -> KrausSet:
    """Follow a channel with a rotation about z by ``angle``.

    Used to compare the real-valued reference set against channels whose
    coherent part rotates the equatorial plane.
    """
    half = 0.5 * float(angle)
    rotation = np.array(
        [[complex(math.cos(half), -math.sin(half)), 0.0],
         [0.0, complex(math.cos(half), math.sin(half))]]
    )
    return KrausSet(tuple(rotation @ op for op in kset.operators), kset.weights)


def gad_bloch_scaled(scaled: GadScaled, u: float, v: float) -> np.ndarray:
    """Bloch vector after the channel, from the initial direction (u, v).

    The equator rotates by theta*tau while shrinking by e^(-tau); the axis
    relaxes toward the fixed point z = omega/2 at twice the rate.
    """
    theta, omega, tau = scaled.theta, scaled.omega, scaled.tau
    decay = math.exp(-tau)
    e2 = math.exp(-2.0 * tau)
    phase = u + theta * tau
    sin_v = math.sin(v)
    return np.array(
        [
            decay * sin_v * math.cos(phase),
            decay * sin_v * math.sin(phase),
            -0.5 * omega * math.expm1(-2.0 * tau) + e2 * math.cos(v),
        ]
    )


def gad_bloch_rates(rates: GadRates, t: float, u: float, v: float) -> np.ndarray:
    """Same Bloch solution written in physical-rate variables.

    Kept independent of the scaled form so the two can cross-check each
    other: the rotation angle is 2 x t, the equatorial decay e^(-(y+z)t/2),
    and the axis relaxes toward (z - y)/(y + z).
    """
    x, y, z = rates.x, rates.y, rates.z
    total = y + z
    decay = math.exp(-0.5 * total * t)
    full = math.exp(-total * t)
    phase = u + 2.0 * x * t
    sin_v = math.sin(v)
    axis = ((z - y) * (1.0 - full) + full * total * math.cos(v)) / total
    return np.array(
        [decay * sin_v * math.cos(phase), decay * sin_v * math.sin(phase), axis]
    )


def rates_from_physics(bath: BathSpectrum, x: float = 0.0) -> GadRates:
    """Emission/absorption rates from the bath spectrum at the qubit frequency.

    y = 2 pi J(omega0) (n + 1) and z = 2 pi J(omega0) n with n the thermal
    occupation at omega0. The Hamiltonian shift ``x`` defaults to zero; pass
    ``hamiltonian_shift(bath)`` to include the dispersive contribution.
    """
    coupling = 2.0 * math.pi * float(spectral_density(bath, bath.omega0))
    occupation = float(thermal_occupation(bath.omega0, bath.temperature))
    return GadRates(x=float(x), y=coupling * (occupation + 1.0), z=coupling * occupation)


class ShiftEstimate(NamedTuple):
    """Principal-value frequency shifts with their quadrature error estimates."""

    delta: float
    delta_prime: float
    delta_error: float
    delta_prime_error: float


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


def _gauss_panels(f: Callable[[np.ndarray], np.ndarray], edges: list[float]) -> float:
    """Gauss-Legendre sum of ``f`` over the panels between consecutive ``edges``.

    ``f`` is called once, on the nodes of every panel as rows; the panel sums
    are then added in panel order, so each bit is that of one call per panel.
    """
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    values = f(mid[:, None] + half[:, None] * _GL_NODES)
    total = 0.0
    for width, row in zip(half.tolist(), values):
        total += width * float(np.dot(_GL_WEIGHTS, row))
    return total


def _geometric_edges(near: float, far: float, first_width: float) -> list[float]:
    """Panel edges from ``near`` to ``far``, widths doubling away from ``near``."""
    edges = [near]
    sign = 1.0 if far > near else -1.0
    width = first_width
    pos = near
    while abs(far - pos) > 1.5 * width:
        pos += sign * width
        edges.append(pos)
        width *= 2.0
    edges.append(far)
    return edges


def _pv_cauchy(f: Callable[[np.ndarray], np.ndarray], pole: float, hi: float, excision: float) -> float:
    """P.V. integral of f(w)/(pole - w) over [0, hi] with a symmetric excision.

    The window [pole - eps, pole + eps] is folded onto (0, eps], where the
    even part of f around the pole cancels analytically and the remaining
    integrand (f(pole - u) - f(pole + u))/u is smooth.
    """

    def weighted(w: np.ndarray) -> np.ndarray:
        return f(w) / (pole - w)

    def folded(u: np.ndarray) -> np.ndarray:
        return (f(pole - u) - f(pole + u)) / u

    left = _gauss_panels(weighted, _geometric_edges(pole - excision, 0.0, excision)[::-1])
    right = _gauss_panels(weighted, _geometric_edges(pole + excision, hi, excision))
    window = _gauss_panels(folded, [0.0, 0.5 * excision, excision])
    return left + right + window


def lamb_stark_shift(bath: BathSpectrum, *, rel_tol: float = 1e-6) -> ShiftEstimate:
    """Vacuum and thermal principal-value frequency shifts of the qubit.

    Both integrands carry a simple pole at omega0, handled by symmetric
    excision; the upper limit stands in for infinity at 50 cutoff widths,
    where the spectral density is e^(-50) down. Each integral is evaluated
    twice with the excision halved, the difference is reported as the error
    estimate, and QuadratureFailure is raised if it exceeds ``rel_tol``
    relative to the value.
    """
    pole = bath.omega0
    hi = 50.0 * bath.omega_c
    if not 0.0 < pole < hi:
        raise ValueError(f"omega0 must lie strictly inside (0, {hi}), got {pole}")

    def vacuum(w: np.ndarray) -> np.ndarray:
        return spectral_density(bath, w)

    def thermal(w: np.ndarray) -> np.ndarray:
        return spectral_density(bath, w) * thermal_occupation(w, bath.temperature)

    excision = min(pole, hi - pole) / 4.0
    results = []
    for integrand in (vacuum, thermal):
        coarse = _pv_cauchy(integrand, pole, hi, excision)
        fine = _pv_cauchy(integrand, pole, hi, 0.5 * excision)
        error = abs(fine - coarse)
        if error > rel_tol * max(abs(fine), 1e-12):
            raise QuadratureFailure(
                f"principal-value error estimate {error:.3e} exceeds "
                f"{rel_tol:.1e} relative"
            )
        results.append((fine, error))
    (delta, delta_err), (delta_prime, delta_prime_err) = results
    return ShiftEstimate(delta, delta_prime, delta_err, delta_prime_err)


def hamiltonian_shift(bath: BathSpectrum) -> float:
    """The coherent shift entering the generator: delta/2 + delta_prime."""
    shifts = lamb_stark_shift(bath)
    return 0.5 * shifts.delta + shifts.delta_prime
