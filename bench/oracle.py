"""Output checks that share no code with kraus_forge.

Every channel is rebuilt from its master equation: the generator matrix is
L_kl = tr(G_k D(G_l)) for the Lindblad map D in the basis G = (I, sx, sy,
sz)/sqrt(2), exponentiated with scipy.linalg.expm and folded into the
standard Choi matrix J = sum_ab |a><b| (x) phi(|a><b|). Emitted Kraus
operators are folded into J = sum_k vec(E_k) vec(E_k)^dag. The two are
unitarily related to the package's own Choi matrices, so Frobenius
distances carry over unchanged.

Tolerances are those pinned in tests/, never looser.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy import integrate, linalg

# tests/test_acceptance.py: criterion 4 (channels coincide at the Choi
# level), criterion 3 (completeness), criterion 2 (Choi spectrum)
CHOI_TOL = 1e-9
COMPLETENESS_TOL = 1e-9
SPECTRUM_TOL = 1e-10
# tests/test_gad.py: rates from physics, shift against Cauchy quadrature;
# the absolute floor is test_rates_from_physics_zero_temperature's, and
# admits the package's tested cut of n to 0 once omega0 / T exceeds 700
RATE_REL_TOL = 1e-12
RATE_ABS_TOL = 1e-12
SHIFT_ABS_TOL = 1e-6
# tests/test_pd.py: dephasing rate against its ohmic limit 2 pi alpha T
PD_RATE_REL_TOL = 1e-8
# CSV floats carry 12 significant digits: relative rounding up to 5e-12,
# plus a floor for entries that are roundoff around zero
CSV_REL_TOL = 5e-12
CSV_ABS_TOL = 1e-13

_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
_G = _PAULI / math.sqrt(2.0)
_LOWER = np.array([[0, 0], [1, 0]], dtype=complex)  # upper level (index 0) -> lower
_RAISE = _LOWER.T.copy()
# expansion coefficients tr(G_k |a><b|) = G_k[b, a]
_UNIT_COEFFS = np.transpose(_G, (0, 2, 1))

VERIFY_CHECKS = frozenset({
    "gad_closed_vs_numeric_propagator", "gad_choi_spectrum", "gad_choi_eigenvalue_sum",
    "gad_completeness", "gad_closed_vs_pipeline_choi", "gad_reference_vs_pipeline_choi",
    "gad_asymptotic_limit", "gad_textbook_equivalence", "pd_pipeline_vs_closed_choi",
    "pd_pipeline_vs_standard_choi", "pd_completeness", "pd_bloch_solution",
})


def lindblad_matrix(hamiltonian: np.ndarray, jumps) -> np.ndarray:
    """Generator matrix of -i[H, .] + sum_k g_k (A . A^dag - {A^dag A, .}/2)."""

    def generator(rho):
        out = -1j * (hamiltonian @ rho - rho @ hamiltonian)
        for rate, jump in jumps:
            hop = jump.conj().T @ jump
            out = out + rate * (jump @ rho @ jump.conj().T - 0.5 * (hop @ rho + rho @ hop))
        return out

    return np.array(
        [[np.trace(gk @ generator(gl)).real for gl in _G] for gk in _G]
    )


def gad_matrix(x: float, y: float, z: float) -> np.ndarray:
    """Shift x sz, emission at rate y, absorption at rate z."""
    return lindblad_matrix(x * _PAULI[3], ((y, _LOWER), (z, _RAISE)))


def pd_matrix(rate: float) -> np.ndarray:
    """Single sz jump at the dephasing rate."""
    return lindblad_matrix(np.zeros((2, 2), dtype=complex), ((rate, _PAULI[3]),))


def propagators(generator: np.ndarray, times) -> np.ndarray:
    return np.array([linalg.expm(generator * t) for t in times])


def choi_of_propagators(props: np.ndarray) -> np.ndarray:
    """Standard Choi matrices, (N, 4, 4), of the channels the propagators encode."""
    # images[n, a, b] = phi(|a><b|) for propagator n, as 2x2 operators
    images = np.einsum("rij,nrk,kab->nabij", _G, props, _UNIT_COEFFS)
    return images.transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)


def choi_of_kraus(operators: np.ndarray) -> np.ndarray:
    """Standard Choi matrices from (N, K, 2, 2) Kraus operators."""
    vecs = np.swapaxes(operators, -1, -2).reshape(operators.shape[0], -1, 4)
    return np.einsum("nki,nkj->nij", vecs, vecs.conj())


def bath_rates(bath: dict) -> tuple[float, float]:
    """(y, z) = 2 pi J(omega0) (n + 1, n) for the ohmic bath."""
    omega0, temperature = bath["omega0"], bath["temperature"]
    coupling = 2.0 * math.pi * bath["alpha"] * omega0 * math.exp(-omega0 / bath["cutoff"])
    # n = 1 / (e^r - 1), written so that e^r cannot overflow at low temperature
    ratio = math.inf if temperature <= 0.0 else omega0 / temperature
    occupation = math.exp(-ratio) / -math.expm1(-ratio)
    return coupling * (occupation + 1.0), coupling * occupation


def bath_shift(bath: dict) -> float:
    """delta/2 + delta' by scipy's Cauchy-weight quadrature over [0, 50 cutoff]."""
    alpha, cutoff, temperature = bath["alpha"], bath["cutoff"], bath["temperature"]

    def density(w):
        return alpha * w * math.exp(-w / cutoff)

    def thermal(w):
        if temperature <= 0.0:
            return 0.0
        if w == 0.0:
            return alpha * temperature  # limit of J(w) n(w)
        ratio = w / temperature
        return 0.0 if ratio > 700.0 else density(w) / math.expm1(ratio)

    def pv(f):
        value, _ = integrate.quad(f, 0.0, 50.0 * cutoff, weight="cauchy",
                                  wvar=bath["omega0"], limit=400)
        return -value  # quad weighs by 1/(w - omega0); the shifts use 1/(omega0 - w)

    return 0.5 * pv(density) + pv(thermal)


def _close(value: float, reference: float, rel: float, floor: float = 0.0) -> bool:
    return abs(value - reference) <= rel * abs(reference) + floor


def check_derive(op: dict, doc: dict) -> str | None:
    """Check a derive document against the op's ground-truth inputs."""
    kind = op["kind"]
    points = doc["points"]
    if kind == "gad_rates":
        generator = gad_matrix(**op["rates"])
    elif kind == "gad_scaled":
        # unit total rate: y + z = 2, so tau is the time itself
        s = op["scaled"]
        generator = gad_matrix(0.5 * s["theta"], 1.0 - 0.5 * s["omega"], 1.0 + 0.5 * s["omega"])
    elif kind == "gad_physical":
        y, z = bath_rates(op["bath"])
        rates = points[0]["rates"]
        if not all(_close(rates[key], value, RATE_REL_TOL, RATE_ABS_TOL)
                   for key, value in (("y", y), ("z", z))):
            return f"rates {rates} differ from y={y!r}, z={z!r}"
        shift = bath_shift(op["bath"])
        if abs(rates["x"] - shift) > SHIFT_ABS_TOL:
            return f"shift {rates['x']!r} differs from quadrature {shift!r}"
        generator = gad_matrix(rates["x"], rates["y"], rates["z"])
    elif kind == "pd_physical":
        reference = 2.0 * math.pi * op["bath"]["alpha"] * op["bath"]["temperature"]
        rate = points[0]["rate"]
        if not _close(rate, reference, PD_RATE_REL_TOL):
            return f"dephasing rate {rate!r} differs from 2 pi alpha T = {reference!r}"
        generator = pd_matrix(rate)
    elif kind == "pd_rates":
        generator = pd_matrix(op["rate"])
    else:
        raise ValueError(f"no derive oracle for {kind!r}")

    start, end, steps = op["times"]
    times = np.linspace(start, end, steps) if steps > 1 else np.array([start])
    if len(points) != len(times):
        return f"{len(points)} points, expected {len(times)}"
    emitted_times = np.array([p["t"] for p in points])
    if np.abs(emitted_times - times).max() > 1e-12 * max(abs(end), 1.0):
        return "time grid differs"

    count = max(len(p["kraus"]["operators"]) for p in points)
    operators = np.zeros((len(points), count, 2, 2), dtype=complex)
    for n, point in enumerate(points):
        raw = np.array(point["kraus"]["operators"], dtype=float)
        operators[n, : len(raw)] = raw[..., 0] + 1j * raw[..., 1]
    if not np.all(np.isfinite(operators)):
        return "non-finite Kraus operator entries"
    completeness = np.einsum("nkji,nkjl->nil", operators.conj(), operators) - np.eye(2)
    worst = float(np.abs(completeness).max())
    if worst > COMPLETENESS_TOL:
        return f"completeness residual {worst:.3e}"

    reference = choi_of_propagators(propagators(generator, times))
    distance = np.linalg.norm(choi_of_kraus(operators) - reference, axis=(1, 2))
    worst_at = int(np.argmax(distance))
    if distance[worst_at] > CHOI_TOL:
        return f"Choi distance {distance[worst_at]:.3e} at t={times[worst_at]!r}"

    spectra = np.linalg.eigvalsh(reference)[:, ::-1]
    emitted_spectra = np.array([p["choi_eigenvalues"] for p in points], dtype=float)
    worst = float(np.abs(emitted_spectra - spectra).max())
    if worst > SPECTRUM_TOL:
        return f"Choi eigenvalues off by {worst:.3e}"
    return None


def check_verify(report_path: str) -> str | None:
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    names = {check["name"] for check in report["checks"]}
    if names != VERIFY_CHECKS:
        return f"report lists checks {sorted(names)}"
    failing = [check["name"] for check in report["checks"] if not check["passed"]]
    if failing or report["all_passed"] is not True:
        return f"verify reports failures: {failing}"
    return None


def _grid_directions(n_u: int, n_v: int) -> tuple[np.ndarray, np.ndarray]:
    u = np.repeat(np.linspace(0.0, 2.0 * np.pi, n_u, endpoint=False), n_v)
    v = np.tile(np.linspace(0.0, np.pi, n_v), n_u)
    directions = np.stack([np.sin(v) * np.cos(u), np.sin(v) * np.sin(u), np.cos(v)], axis=1)
    return np.stack([u, v], axis=1), directions


def _csv_mismatch(values: np.ndarray, reference: np.ndarray) -> float:
    """Largest excess of |values - reference| over 12-digit rounding."""
    slack = CSV_REL_TOL * np.abs(reference) + CSV_ABS_TOL
    return float((np.abs(values - reference) - slack).max())


def check_frames(op: dict, bath: dict, grid: tuple[int, int]) -> str | None:
    directory = op["directory"]
    expected = {
        f"bloch3d_T{temperature:g}_t{t:g}.csv": (temperature, t)
        for temperature in op["temperatures"] for t in op["times"]
    }
    present = set(os.listdir(directory))
    if present != set(expected):
        return f"{len(present & set(expected))} of {len(expected)} files, {len(present - set(expected))} extra"
    uv, directions = _grid_directions(*grid)
    for temperature in op["temperatures"]:
        y, z = bath_rates({**bath, "temperature": temperature})
        generator = gad_matrix(0.0, y, z)
        for t in op["times"]:
            name = f"bloch3d_T{temperature:g}_t{t:g}.csv"
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                lines = handle.read().splitlines()
            if lines[0] != "u,v,x,y,z" or len(lines) != len(uv) + 1:
                return f"{name}: bad header or {len(lines) - 1} rows"
            rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
            # b = F[1:, 0] and M = F[1:, 1:] act on Bloch vectors
            f = linalg.expm(generator * t)
            reference = directions @ f[1:, 1:].T + f[1:, 0]
            excess = max(_csv_mismatch(rows[:, :2], uv), _csv_mismatch(rows[:, 2:], reference))
            if excess > 0.0:
                return f"{name}: row values off by {excess:.3e} beyond 12-digit rounding"
    return None
