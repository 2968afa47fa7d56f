"""Affine Bloch-sphere action of a channel: ellipsoid images and volume decay.

A qubit channel acts on Bloch vectors as n -> M n + b. The image of the
unit sphere is an ellipsoid whose semi-axes are the singular values of M;
for the damping channels here the volume shrinks exponentially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompleteKrausSet
from .gad import GadRates, GadScaled
from .kraus import KrausSet
from .linalg import SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z

_PAULI_VECTOR = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


@dataclass(frozen=True)
class AffineBlochMap:
    """Linear part M (3x3) and shift b (3,) acting on Bloch vectors."""

    linear: np.ndarray
    shift: np.ndarray

    def __post_init__(self) -> None:
        linear = np.array(self.linear, dtype=float)
        shift = np.array(self.shift, dtype=float)
        if linear.shape != (3, 3) or shift.shape != (3,):
            raise ValueError("expected a 3x3 linear part and a 3-vector shift")
        linear.flags.writeable = False
        shift.flags.writeable = False
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "shift", shift)

    def __call__(self, direction: np.ndarray) -> np.ndarray:
        return self.linear @ np.asarray(direction, dtype=float) + self.shift


def bloch_map(kset: KrausSet) -> AffineBlochMap:
    """Extract the affine Bloch action of a Kraus set.

    M_ij = tr(s_i phi(s_j)) / 2 and b_i = tr(s_i phi(I)) / 2. Requires the
    set to be complete within 1e-8.
    """
    residual = kset.completeness_residual()
    if residual > 1e-8:
        raise IncompleteKrausSet(
            f"completeness residual {residual:.3e} exceeds 1e-8"
        )

    def channel(op: np.ndarray) -> np.ndarray:
        return sum(e @ op @ e.conj().T for e in kset.operators)

    # the four images phi(I), phi(s_x), phi(s_y), phi(s_z), each computed once
    identity_image, *images = (channel(op) for op in (SIGMA_I, *_PAULI_VECTOR))
    linear = np.empty((3, 3))
    shift = np.empty(3)
    for i in range(3):
        shift[i] = 0.5 * np.trace(_PAULI_VECTOR[i] @ identity_image).real
        for j in range(3):
            linear[i, j] = 0.5 * np.trace(_PAULI_VECTOR[i] @ images[j]).real
    return AffineBlochMap(linear, shift)


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


def ellipsoid_semiaxes(bmap: AffineBlochMap) -> np.ndarray:
    """Semi-axes of the image ellipsoid: singular values of M, descending."""
    return np.linalg.svd(bmap.linear, compute_uv=False)


def bloch_volume(scaled: GadScaled) -> float:
    """Bloch-ball image volume (4 pi / 3) e^(-4 tau) for the damping channel."""
    return (4.0 * math.pi / 3.0) * math.exp(-4.0 * scaled.tau)


def volume_rate(rates: GadRates, t: float) -> float:
    """Relative volume change rate -2(y+z) e^(-2(y+z)t); most negative at t=0."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    total = rates.y + rates.z
    return -2.0 * total * math.exp(-2.0 * total * t)
