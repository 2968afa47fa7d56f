"""Affine Bloch-sphere action of a channel: ellipsoid images and volume decay.

A qubit channel acts on Bloch vectors as n -> M n + b, read off its
propagator. The image of the unit sphere is an ellipsoid, sampled on a
(u, v) grid; for GAD its volume shrinks at a closed-form relative rate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FrozenRecord, IncompleteKrausSet
from .gad import GadRates
from .kraus import KrausSet, _operator_propagators, completeness_residuals, operator_stack


class AffineBlochMap(FrozenRecord):
    """Linear part M (3x3) and shift b (3,) acting on Bloch vectors."""

    __slots__ = ("linear", "shift")

    def __init__(self, linear: np.ndarray, shift: np.ndarray) -> None:
        linear = np.array(linear, dtype=float)
        shift = np.array(shift, dtype=float)
        if linear.shape != (3, 3) or shift.shape != (3,):
            raise ValueError("expected a 3x3 linear part and a 3-vector shift")
        linear.flags.writeable = False
        shift.flags.writeable = False
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "shift", shift)


def bloch_map(kset: KrausSet) -> AffineBlochMap:
    """Extract the affine Bloch action of a Kraus set.

    M and b are the blocks F[1:, 1:] and F[1:, 0] of the set's propagator F
    in the Hermitian basis, the blocks ``figure`` reads off the closed form.
    Requires the set to be complete within 1e-8.
    """
    operators = operator_stack([kset])
    residual = completeness_residuals(operators)[0]
    if residual > 1e-8:
        raise IncompleteKrausSet(
            f"completeness residual {residual:.3e} exceeds 1e-8"
        )
    f = _operator_propagators(operators)[0]
    return AffineBlochMap(f[1:, 1:].real, f[1:, 0].real)


def spherical_grid(n_u: int, n_v: int) -> np.ndarray:
    """Uniform (u, v) grid: u in [0, 2 pi) without the seam, v in [0, pi].

    Returns shape (n_u * n_v, 2) in row-major order (u outer, v inner);
    each pole shows up once per u column.
    """
    if n_u < 2 or n_v < 2:
        raise ValueError(f"grid counts must be >= 2, got ({n_u}, {n_v})")
    u = np.linspace(0.0, 2.0 * np.pi, n_u, endpoint=False)
    v = np.linspace(0.0, np.pi, n_v)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    return np.stack([uu.ravel(), vv.ravel()], axis=1)


def grid_directions(uv: np.ndarray) -> np.ndarray:
    """Unit vectors at the (u, v) angles of ``spherical_grid``, (N, 3)."""
    sin_v = np.sin(uv[:, 1])
    return np.stack(
        [sin_v * np.cos(uv[:, 0]), sin_v * np.sin(uv[:, 0]), np.cos(uv[:, 1])],
        axis=1,
    )


def sample_ellipsoid(bmap: AffineBlochMap, grid: tuple[int, int]) -> np.ndarray:
    """Image points of the unit-sphere grid under the affine map, (N, 3)."""
    return grid_directions(spherical_grid(*grid)) @ bmap.linear.T + bmap.shift


def volume_rate(rates: GadRates, t: float) -> float:
    """Relative volume change rate -2(y+z) e^(-2(y+z)t); most negative at t=0."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    total = rates.y + rates.z
    return -2.0 * total * math.exp(-2.0 * total * t)
