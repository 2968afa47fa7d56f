"""Reference formulas that only the tests compare against.

The package holds the library and the CLI; a formula that only tests
compare against lives here. These are the Bloch solutions of GAD in both
parameterizations, which the package reads off the propagator's blocks
instead; the generator matrices of GAD and PD written out by hand, and the
generator applied to each basis element, which ``build_L`` is held to; and
the reader of the ``kraus_set_to_dict`` document, which the package only
writes.
"""

import math

import numpy as np

from kraus_forge.gad import GadRates, GadScaled
from kraus_forge.kraus import KrausSet
from kraus_forge.lindblad import LindbladGenerator
from kraus_forge.linalg import hermitian_basis
from kraus_forge.pd import PdParams


def apply_generator(gen: LindbladGenerator, operator: np.ndarray) -> np.ndarray:
    """Action of the generator on a 2x2 operator."""
    a = np.asarray(operator, dtype=complex)
    h = gen.hamiltonian
    out = -1j * (h @ a - a @ h)
    for rate, jump in gen.jumps:
        jdj = jump.conj().T @ jump
        out = out + rate * (
            jump @ a @ jump.conj().T - 0.5 * (jdj @ a + a @ jdj)
        )
    return out


def per_basis_L(gen: LindbladGenerator) -> np.ndarray:
    """L_kl = tr(G_k gen(G_l)), complex, from the generator's image of each G_l."""
    g = hermitian_basis()
    images = np.stack([apply_generator(gen, g[l]) for l in range(4)])
    return np.einsum("kab,lba->kl", g, images)


def gad_L(rates: GadRates) -> np.ndarray:
    """GAD generator matrix in the Hermitian basis, written out directly."""
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


def pd_L(params: PdParams) -> np.ndarray:
    """PD generator matrix diag(0, -2r, -2r, 0)."""
    return np.diag([0.0, -2.0 * params.r, -2.0 * params.r, 0.0])


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


def kraus_set_from_dict(doc: dict) -> KrausSet:
    """Rebuild a KrausSet from its JSON document."""
    operators = tuple(
        np.array([[complex(re, im) for re, im in row] for row in op])
        for op in doc["operators"]
    )
    weights = tuple(float(w) for w in doc["weights"]) if "weights" in doc else None
    return KrausSet(operators, weights)
