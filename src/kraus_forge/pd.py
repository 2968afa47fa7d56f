"""Phase damping channel: pure dephasing at rate r, no energy exchange.

The generator is a single sigma_z jump; populations are untouched while
off-diagonal coherences decay as e^(-2 r t), making the sigma_z eigenbasis
the pointer basis of the process.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FrozenRecord, NegativeTime
from .gad import BathSpectrum
from .kraus import KrausSet
from .lindblad import LindbladGenerator
from .linalg import SIGMA_I, SIGMA_Z


class PdParams(FrozenRecord):
    """Dephasing rate (1/time), nonnegative."""

    __slots__ = ("r",)

    def __init__(self, r: float) -> None:
        r = float(r)
        if not math.isfinite(r) or r < 0.0:
            raise ValueError(f"dephasing rate must be finite and >= 0, got {r}")
        object.__setattr__(self, "r", r)


def pd_generator(params: PdParams) -> LindbladGenerator:
    """Generator with a single sigma_z jump at rate r.

    Because sigma_z squares to the identity, the anticommutator term of the
    standard dissipator collapses and the action is r (sz rho sz - rho).
    """
    return LindbladGenerator(
        hamiltonian=np.zeros((2, 2), dtype=complex),
        jumps=((params.r, SIGMA_Z),),
    )


def pd_L(params: PdParams) -> np.ndarray:
    """Generator matrix diag(0, -2r, -2r, 0)."""
    return np.diag([0.0, -2.0 * params.r, -2.0 * params.r, 0.0])


def pd_kraus(params: PdParams, t: float) -> KrausSet:
    """Closed-form pair: a sigma_z operator and an identity operator.

    Weights are the Choi eigenvalues 1 -/+ e^(-2 r t); at t = 0 the sigma_z
    member is the zero operator and the set is the identity channel.
    """
    if t < 0.0:
        raise NegativeTime(f"time must be >= 0, got {t}")
    decay = math.exp(-2.0 * params.r * t)
    flip_weight = -math.expm1(-2.0 * params.r * t)  # 1 - e^(-2 r t)
    return KrausSet(
        (
            math.sqrt(0.5 * flip_weight) * SIGMA_Z,
            math.sqrt(0.5 * (1.0 + decay)) * SIGMA_I,
        ),
        (flip_weight, 1.0 + decay),
    )


def pd_standard_kraus(weight: float) -> KrausSet:
    """Conventional dephasing pair with accumulated weight p in [0, 1].

    Same channel as ``pd_kraus`` under p = 1 - e^(-2 r t), with the identity
    member listed first.
    """
    p = float(weight)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {p}")
    return KrausSet(
        (
            math.sqrt(1.0 - 0.5 * p) * SIGMA_I,
            math.sqrt(0.5 * p) * SIGMA_Z,
        )
    )


def pd_rate_from_physics(bath: BathSpectrum) -> PdParams:
    """Dephasing rate 2 pi lim_{w -> 0} J(w) n(w), which is 2 pi alpha T.

    The ohmic J(w) = alpha w e^(-w/wc) and n(w) -> T/w make the limit exact.
    """
    # + 0.0 writes the -0.0 of a signed-zero alpha or T as 0.0
    return PdParams(2.0 * math.pi * bath.alpha * bath.temperature + 0.0)


def pd_bloch(params: PdParams, t: float, u: float, v: float) -> np.ndarray:
    """Bloch vector after dephasing for time t, from initial direction (u, v).

    The equatorial components shrink by e^(-2 r t); the axis is invariant.
    """
    if t < 0.0:
        raise NegativeTime(f"time must be >= 0, got {t}")
    decay = math.exp(-2.0 * params.r * t)
    sin_v = math.sin(v)
    return np.array(
        [decay * sin_v * math.cos(u), decay * sin_v * math.sin(u), math.cos(v)]
    )
