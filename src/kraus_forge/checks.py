"""The verification checks that ``verify`` reports and the acceptance tests hold.

Each function returns ``(name, residual, tolerance)`` triples; a check
passes when its residual is at most its tolerance. The defaults are the
grid that ``verify`` runs on.
"""

from __future__ import annotations

import math

import numpy as np

from . import bloch as bloch_mod
from . import gad as gad_mod
from . import pd as pd_mod
from .kraus import choi_distances, completeness_residuals, kraus_stack, operator_stack, propagate
from .lindblad import build_L
from .linalg import matrix_exp

THETAS = (0.0, 1.0, 5.0)
OMEGAS = (-2.0, -1.0, -0.1)
TAUS = (0.1, 0.5, 1.0, 2.0, 5.0)
PD_TIMES = (0.1, 1.0, 5.0)


def gad_checks(thetas=THETAS, omegas=OMEGAS, taus=TAUS) -> list[tuple[str, float, float]]:
    """The eight GAD checks over the grid thetas x omegas x taus."""
    grid = [
        gad_mod.GadScaled(theta, omega, tau)
        for theta in thetas
        for omega in omegas
        for tau in taus
    ]
    closed_f = np.array([gad_mod.gad_F_closed(scaled) for scaled in grid])
    numeric_f = matrix_exp(
        np.array([gad_mod.gad_L_scaled(scaled) for scaled in grid]),
        [scaled.tau for scaled in grid],
    )
    pipeline = kraus_stack(closed_f)
    closed_vals = np.array([np.sort(gad_mod.gad_choi_eigenvalues(scaled))[::-1] for scaled in grid])
    closed = operator_stack([gad_mod.gad_kraus_closed(scaled) for scaled in grid])
    reference = operator_stack([
        gad_mod.compose_z_rotation(
            gad_mod.reference_gad_kraus(gad_mod.ReferenceGadParams.from_scaled(scaled)),
            scaled.theta * scaled.tau,
        )
        for scaled in grid
    ])
    limits = kraus_stack(np.array([gad_mod.gad_F_closed(gad_mod.GadScaled(0.0, w, 20.0)) for w in omegas]))
    asymptotic = operator_stack([gad_mod.gad_kraus_asymptotic(w) for w in omegas])
    textbook = operator_stack([gad_mod.textbook_ad_kraus(-math.expm1(-2.0 * tau)) for tau in taus])
    damping = operator_stack([gad_mod.gad_kraus_closed(gad_mod.GadScaled(0.0, -2.0, tau)) for tau in taus])
    sets = (pipeline.operators, closed, reference)
    return [
        ("gad_closed_vs_numeric_propagator", np.abs(closed_f - numeric_f).max(), 1e-10),
        ("gad_choi_spectrum", np.abs(pipeline.values - closed_vals).max(), 1e-10),
        ("gad_choi_eigenvalue_sum", np.abs(closed_vals.sum(axis=1) - 2.0).max(), 1e-12),
        ("gad_completeness", max(completeness_residuals(ops).max() for ops in sets), 1e-9),
        ("gad_closed_vs_pipeline_choi", choi_distances(closed, pipeline.operators).max(), 1e-9),
        ("gad_reference_vs_pipeline_choi", choi_distances(reference, pipeline.operators).max(), 1e-9),
        ("gad_asymptotic_limit", choi_distances(limits.operators, asymptotic).max(), 1e-7),
        ("gad_textbook_equivalence", choi_distances(textbook, damping).max(), 1e-10),
    ]


def pd_checks(times=PD_TIMES) -> list[tuple[str, float, float]]:
    """The four PD checks at unit rate over ``times``."""
    params = pd_mod.PdParams(1.0)
    pipeline = kraus_stack(propagate(build_L(pd_mod.pd_generator(params)), times)).operators
    closed_sets = [pd_mod.pd_kraus(params, t) for t in times]
    closed = operator_stack(closed_sets)
    standard = operator_stack([pd_mod.pd_standard_kraus(-math.expm1(-2.0 * params.r * t)) for t in times])
    uv = bloch_mod.spherical_grid(6, 6).tolist()
    bloch_residual = max(
        np.abs(
            bloch_mod.sample_ellipsoid(bloch_mod.bloch_map(kset), (6, 6))
            - [pd_mod.pd_bloch(params, t, u, v) for u, v in uv]
        ).max()
        for t, kset in zip(times, closed_sets)
    )
    sets = (pipeline, closed, standard)
    return [
        ("pd_pipeline_vs_closed_choi", choi_distances(pipeline, closed).max(), 1e-12),
        ("pd_pipeline_vs_standard_choi", choi_distances(pipeline, standard).max(), 1e-12),
        ("pd_completeness", max(completeness_residuals(ops).max() for ops in sets), 1e-12),
        ("pd_bloch_solution", bloch_residual, 1e-9),
    ]
