"""Closed forms for the generalized amplitude damping channel.

Covers the physical-rate, scaled, and thermal-reference parameterizations,
the generator and propagator matrices, the Choi spectrum, the paper's four
closed-form Kraus operators (one expression for every tau > 0), the
long-time limit set, and the bath-spectrum plumbing (rates, dephasing-free
frequency shifts via principal-value quadrature).

Scaled variables: theta is the coherent-rotation strength, omega in [-2, 0)
the thermal-balance parameter (omega = -2 is the zero-temperature limit),
tau the dimensionless time. The channel's Bloch fixed point sits at
z = omega / 2.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import FrozenRecord, QuadratureFailure
from .kraus import KrausSet, identity_kraus_set
from .lindblad import LindbladGenerator
from .linalg import SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z


class GadRates(FrozenRecord):
    """Physical rates: Hamiltonian shift x, emission y, absorption z (1/time).

    Requires y > z >= 0; emission always dominates absorption for a thermal
    bath, and the scaled omega = -2(y - z)/(y + z) then lands in [-2, 0).
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        x, y, z = float(x), float(y), float(z)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError("rates must be finite")
        if not y > z >= 0.0:
            raise ValueError(f"rates must satisfy y > z >= 0, got y={y}, z={z}")
        super().__init__(x, y, z)


class GadScaled(FrozenRecord):
    """Dimensionless channel parameters (theta, omega, tau).

    Forward evolution only: tau < 0 would correspond to a non-completely-
    positive map and is rejected.
    """

    __slots__ = ("theta", "omega", "tau")

    def __init__(self, theta: float, omega: float, tau: float) -> None:
        theta, omega, tau = float(theta), float(omega), float(tau)
        if not (math.isfinite(theta) and math.isfinite(omega) and math.isfinite(tau)):
            raise ValueError("scaled parameters must be finite")
        if not -2.0 <= omega < 0.0:
            raise ValueError(f"omega must lie in [-2, 0), got {omega}")
        if tau < 0.0:
            raise ValueError(f"tau must be >= 0, got {tau}")
        super().__init__(theta, omega, tau)


class ReferenceGadParams(FrozenRecord):
    """Parameters of the thermal reference Kraus set.

    ``lambda_t`` is the accumulated damping weight in [0, 1] and ``p`` the
    emission branch weight in [0, 1].
    """

    __slots__ = ("lambda_t", "p")

    def __init__(self, lambda_t: float, p: float) -> None:
        lam, p = float(lambda_t), float(p)
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda_t must lie in [0, 1], got {lam}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        super().__init__(lam, p)

    @classmethod
    def from_scaled(cls, scaled: GadScaled) -> "ReferenceGadParams":
        """Bridge from scaled parameters: p = (2 - omega)/4, lambda = 1 - e^(-2 tau)."""
        return cls(-math.expm1(-2.0 * scaled.tau), (2.0 - scaled.omega) / 4.0)


class BathSpectrum(FrozenRecord):
    """Bosonic bath description: coupling, qubit splitting, cutoff, temperature.

    The spectral density is ohmic with an exponential cutoff,
    J(w) = alpha w e^(-w/wc). Temperature uses the same natural units as the
    frequencies. All four are finite and stored as floats.
    """

    __slots__ = ("alpha", "omega0", "omega_c", "temperature")

    def __init__(
        self, alpha: float, omega0: float, omega_c: float, temperature: float
    ) -> None:
        fields = tuple(map(float, (alpha, omega0, omega_c, temperature)))
        if not all(map(math.isfinite, fields)):
            raise ValueError("bath parameters must be finite")
        alpha, omega0, omega_c, temperature = fields
        if alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        if omega0 <= 0.0 or omega_c <= 0.0:
            raise ValueError("omega0 and omega_c must be > 0")
        if temperature < 0.0:
            raise ValueError(f"temperature must be >= 0, got {temperature}")
        super().__init__(*fields)


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


def gad_L_scaled(scaled: GadScaled) -> np.ndarray:
    """Rescaled generator matrix; its exponential at tau is the propagator.

    Written out, not built by ``build_L``: the scaled route has no rates,
    and GAD at x = theta/2, y = 1 - omega/2, z = 1 + omega/2 loses omega,
    since y and z both round to 1 for |omega| below about 1.1e-16.
    """
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
    omega^2 (1 - e^(-2 tau))^2, which stays bounded for large tau. The
    smaller root mu- = (2 e^(-2 tau) + 2 - root) / 4 is taken as
    mu- mu+ / mu+ = (4 - omega^2) lambda^2 / (4 (2 e^(-2 tau) + 2 + root)),
    which does not cancel and is exactly 0 at omega = -2. All values are
    nonnegative and sum to 2.
    """
    omega, tau = scaled.omega, scaled.tau
    e2 = math.exp(-2.0 * tau)
    lam = -math.expm1(-2.0 * tau)
    root = math.sqrt(16.0 * e2 + omega * omega * lam * lam)
    four_mu_plus = 2.0 * e2 + 2.0 + root
    return np.array(
        [
            0.25 * lam * (2.0 - omega),
            0.25 * lam * (2.0 + omega),
            (2.0 - omega) * (2.0 + omega) * lam * lam / (4.0 * four_mu_plus),
            0.25 * four_mu_plus,
        ]
    )


def gad_kraus_closed(scaled: GadScaled) -> KrausSet:
    """The paper's four closed-form Kraus operators, in their canonical order.

    Zero operators are kept in place (at omega = -2 the second and third
    vanish identically), so the set always has four entries with weights
    equal to the Choi eigenvalues mu; tau = 0 gives the identity set.

    The paper's a = omega sinh(tau) - 2i sin(theta tau) vanishes at tau = 0
    and its d, e+-, c+- and radical R grow like e^tau or e^(2 tau), so e^tau
    is factored out. With k + is = e^(-tau) e^(i theta tau) and lambda =
    1 - e^(-2 tau), A = e^(-tau) a = omega lambda / 2 - 2is, root =
    e^(-2 tau) R = hypot(4 e^(-tau), omega lambda) and P = 4k + root give
    d - e- = e^(2 tau) (P + 2A) and conj(d) + e+ = e^(2 tau) (P - 2A); by
    (4k + root)(4k - root) = -4|A|^2, d - e+ and conj(d) + e- are
    e^(2 tau) (2A/P) (conj(P - 2A), -conj(P + 2A)). As 4|a|^2 + c+- =
    2 e^(2 tau) root (root +- 4k) and b+- = 4 e^(-2 tau) mu+-, the prefactor
    sqrt(|a|^2 b+- / (4|a|^2 + c+-)) / (2 sqrt(2) a) scales each pair to
    weight mu+- and gives the plus operator the phase conj(a)/|a|. The pair
    is divided by P where k >= 0 and by |A| where k < 0 (4k + root cancels
    there), so it stays of order one for every tau > 0.
    """
    if scaled.tau == 0.0:
        return identity_kraus_set()
    omega, tau = scaled.omega, scaled.tau
    angle = scaled.theta * tau
    decay = math.exp(-tau)
    lam = -math.expm1(-2.0 * tau)
    k = decay * math.cos(angle)
    A = complex(0.5 * omega * lam, -2.0 * decay * math.sin(angle))
    root = math.hypot(4.0 * decay, omega * lam)
    # conj(A)/|A| = conj(a)/|a|; cmath.phase keeps it of unit modulus where A is subnormal
    phase = cmath.rect(1.0, -cmath.phase(A))
    if k >= 0.0:
        p, two_A = 1.0, 2.0 * A / (4.0 * k + root)
    else:
        p, two_A = 4.0 * abs(A) / (root - 4.0 * k), 2.0 * phase.conjugate()
    first, second = p + two_A, p - two_A
    scale = 1.0 / math.hypot(abs(first), abs(second))
    eigs = gad_choi_eigenvalues(scaled)
    lower = np.array([[0.0, 0.0], [0.5j * math.sqrt(lam * (2.0 - omega)), 0.0]])
    upper = np.array([[0.0, -0.5j * math.sqrt(lam * (2.0 + omega))], [0.0, 0.0]])
    diag_minus = math.sqrt(eigs[2]) * scale * np.diag([second.conjugate(), -first.conjugate()])
    diag_plus = math.sqrt(eigs[3]) * scale * phase * np.diag([first, second])
    return KrausSet((lower, upper, diag_minus, diag_plus), tuple(eigs.tolist()))


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


# the 40-node Gauss-Legendre rule on [-1, 1], as numpy's leggauss(40) gives
# it bit for bit; both are symmetric, so the positive half is written out
_GL_HALF_NODES = (
    0.038772417506050816, 0.11608407067525521, 0.1926975807013711, 0.2681521850072537,
    0.3419940908257585, 0.413779204371605, 0.4830758016861787, 0.5494671250951282,
    0.6125538896679802, 0.6719566846141796, 0.7273182551899271, 0.7783056514265194,
    0.8246122308333117, 0.8659595032122595, 0.9020988069688742, 0.9328128082786765,
    0.9579168192137917, 0.9772599499837743, 0.990726238699457, 0.9982377097105591,
)
_GL_HALF_WEIGHTS = (
    0.07750594797842451, 0.07703981816424763, 0.07611036190062598, 0.07472316905796794,
    0.07288658239580377, 0.07061164739128656, 0.06791204581523368, 0.06480401345660076,
    0.061306242492928834, 0.05743976909939129, 0.0532278469839367, 0.04869580763507193,
    0.04387090818567321, 0.03878216797447219, 0.03346019528254789, 0.027937006980023434,
    0.022245849194166653, 0.016421058381906828, 0.010498284531153814,
    0.004521277098536349,
)
_GL_NODES = np.array([-node for node in reversed(_GL_HALF_NODES)] + list(_GL_HALF_NODES))
_GL_WEIGHTS = np.array(list(reversed(_GL_HALF_WEIGHTS)) + list(_GL_HALF_WEIGHTS))


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
    relative to the value, or if the value or the estimate is not finite,
    as for a bath whose spectral density overflows.
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
        # an overflowing integrand gives inf or nan here, which is raised below
        with np.errstate(over="ignore", invalid="ignore"):
            coarse = _pv_cauchy(integrand, pole, hi, excision)
            fine = _pv_cauchy(integrand, pole, hi, 0.5 * excision)
        error = abs(fine - coarse)
        if not (math.isfinite(fine) and math.isfinite(error)):
            raise QuadratureFailure(
                f"principal-value integral {fine:.3e} with error estimate {error:.3e} is not finite"
            )
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
