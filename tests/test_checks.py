"""The shared verification checks, drawn over the paper's whole domain.

``verify`` and the acceptance criteria run them on one fixed grid; here
Hypothesis draws the grids: theta in [-1e3, 1e3], omega in [-2, 0) and
tau or t from 0 up, subnormals included.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kraus_forge.checks import gad_checks, pd_checks


def _axis(values):
    return st.lists(values, min_size=1, max_size=3)


_THETAS = _axis(st.floats(-1e3, 1e3))
_OMEGAS = _axis(st.floats(-2.0, 0.0, exclude_max=True))

# Above tau = 12, lambda = 1 - e^(-2 tau) rounds to within 2^-53 of 1, so
# the lambda-parameterised references textbook_ad_kraus and
# reference_gad_kraus take e^(-tau) as sqrt(1 - lambda) with an absolute
# error up to about 1e-8. gad_textbook_equivalence exceeds its tolerance
# from about tau = 14.8 and gad_reference_vs_pipeline_choi from about 17, by
# up to about 100x and 10x on [16, 40]. The closed form and the pipeline
# still agree with each other there.
_LAMBDA_REFERENCE_CHECKS = {"gad_textbook_equivalence", "gad_reference_vs_pipeline_choi"}

# Where the dephasing weight 1 - e^(-2t) lies within the eigensolver's
# roundoff of the 1e-12 weight cutoff (t within about 1e-4 relative of
# 5e-13), the pipeline may drop it, and the dropped weight, about 1e-12, is
# then the distance to the closed set: the two pd Choi checks reach their
# tolerance of 1e-12 and can exceed it by roundoff. That band is left out
# of the draws, and test_pd_checks_hold_at_the_weight_cutoff holds its
# failure in view.
_PD_CUTOFF_BAND = (4.999e-13, 5.001e-13)


def _failed(checks, skip=frozenset()):
    # `not <=` also catches a NaN residual
    return [
        (name, residual, tolerance)
        for name, residual, tolerance in checks
        if name not in skip and not residual <= tolerance
    ]


@settings(max_examples=150, deadline=None)
@given(thetas=_THETAS, omegas=_OMEGAS, taus=_axis(st.floats(0.0, 12.0)))
@example(thetas=[1e3], omegas=[-2.0, -5e-324], taus=[0.0, 5e-324, 12.0])
@example(thetas=[-998.45], omegas=[-2.0], taus=[0.3])
def test_gad_checks_hold_up_to_tau_12(thetas, omegas, taus):
    assert _failed(gad_checks(thetas, omegas, taus)) == []


@settings(max_examples=150, deadline=None)
@given(thetas=_THETAS, omegas=_OMEGAS, taus=_axis(st.floats(12.0, 700.0)))
@example(thetas=[-1e3, 1e3], omegas=[-2.0, -5e-324], taus=[19.04, 700.0])
def test_gad_checks_beyond_tau_12_except_the_lambda_references(thetas, omegas, taus):
    checks = gad_checks(thetas, omegas, taus)
    assert len(checks) == 8 and _LAMBDA_REFERENCE_CHECKS <= {name for name, _, _ in checks}
    assert _failed(checks, skip=_LAMBDA_REFERENCE_CHECKS) == []


@settings(max_examples=150, deadline=None)
@given(
    times=_axis(
        st.floats(0.0, 1e3).filter(lambda t: not _PD_CUTOFF_BAND[0] <= t <= _PD_CUTOFF_BAND[1])
    )
)
@example(times=[0.0, 5e-324, 1e-300, 1e3])
def test_pd_checks_hold_from_t_0_to_1e3(times):
    assert _failed(pd_checks(times)) == []


@pytest.mark.xfail(
    strict=True,
    reason="CHANGES.md FOUND: the pd Choi checks have no margin where the "
    "dephasing weight meets the 1e-12 weight cutoff",
)
def test_pd_checks_hold_at_the_weight_cutoff():
    # 1 - e^(-2t) = 1e-12 here: the pipeline drops that weight, and the
    # distance to the closed set is 1.0000009e-12 against the tolerance 1e-12
    assert _failed(pd_checks([5e-13])) == []
