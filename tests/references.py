"""Reference formulas that only the tests compare against.

The package holds the library and the CLI; a formula that only tests
compare against lives here. These are the Bloch solutions of GAD in both
parameterizations, which the package reads off the propagator's blocks
instead, and the reader of the ``kraus_set_to_dict`` document, which the
package only writes.
"""

import math

import numpy as np

from kraus_forge.gad import GadRates, GadScaled
from kraus_forge.kraus import KrausSet


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
