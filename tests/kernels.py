"""Run a script in a fresh interpreter under another OpenBLAS kernel or numpy dispatch.

numpy and OpenBLAS read ``OPENBLAS_CORETYPE`` and the ``NPY_*_CPU_FEATURES``
variables once, at import, so a test that compares kernels runs each one in
a subprocess of its own.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import kraus_forge

_VARIABLES = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")


def cpu_features():
    """numpy's dispatchable CPU features and which of them this CPU has."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return __cpu_dispatch__, __cpu_features__


def skip_unless_kernel_runs(kernel):
    """Skip the calling test where OPENBLAS_CORETYPE=``kernel`` cannot run."""
    machine = platform.machine()
    if machine.lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OPENBLAS_CORETYPE names x86-64 kernels; this host is {machine}")
    features = cpu_features()[1]
    if kernel == "Haswell" and not (features.get("AVX2") and features.get("FMA3")):
        pytest.skip("the Haswell kernel needs AVX2 and FMA3, which this CPU lacks")


def run_fresh(script, *args, **variables):
    """Standard output of ``script`` run with ``args``, the package importable.

    The kernel and dispatch variables of this process are dropped, and
    ``variables`` are set in their place.
    """
    env = {k: v for k, v in os.environ.items() if k not in _VARIABLES}
    src = str(Path(kraus_forge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.update(variables)
    run = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return run.stdout
