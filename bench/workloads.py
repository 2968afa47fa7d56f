"""Seeded operation streams for the four benchmark workloads.

Each workload is an endless stream of operations. An operation carries the
argv handed to ``kraus_forge.cli.main``, the number of items it completes,
and the ground-truth inputs the oracle checks its output against. The same
seed always yields the same stream; the program sees only the argv.
"""

from __future__ import annotations

import math
import random

SWEEP_STEPS = 1000
FIGURE_GRID = (24, 12)
FIGURE_TEMPERATURES = 4
FIGURE_TIMES = 50
# figure's default bath, which the oracle needs to rebuild the rates
FIGURE_BATH = {"alpha": 0.02, "omega0": 10.0, "cutoff": 15.0}
# scaled GAD points: |theta| and tau log-uniform over decades, theta of
# either sign. From |theta| of about 2e4 (and |theta| tau of about 1e4) on,
# the program's operators miss the oracle's tolerances or it exits 3 with
# NotTracePreserving (ROADMAP item 1), so the timed stream keeps
# |theta| <= 1e3, where every call succeeds; the full domain reaches the
# theta = 1e8 of that defect's report and measures how many calls fail
SCALED_THETA = (1e-3, 1e3)
SCALED_THETA_FULL = (1e-3, 1e8)
SCALED_TAU = (1e-3, 10.0)


def _flag(name: str, value: float) -> str:
    # "--omega=-6.5e-06", not "--omega -6.5e-06": argparse takes a separate
    # negative number in exponent notation for an option and exits 2
    return f"--{name}={float(value)!r}"


def _bath(rng: random.Random) -> dict:
    return {
        "alpha": rng.uniform(0.005, 0.05),
        "omega0": rng.uniform(5.0, 20.0),
        "cutoff": rng.uniform(5.0, 30.0),
        "temperature": rng.uniform(0.0, 500.0),
    }


def _bath_argv(bath: dict) -> list[str]:
    return [_flag(key, bath[key]) for key in ("alpha", "omega0", "cutoff", "temperature")]


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def _distinct(rng: random.Random, count: int, draw) -> list[float]:
    # file names carry values through "%g", so values must stay distinct there
    seen: dict[str, float] = {}
    while len(seen) < count:
        value = draw()
        seen.setdefault(f"{value:g}", value)
    return sorted(seen.values())


def sweep(rng: random.Random):
    """GAD rate sweeps of SWEEP_STEPS time points, y > z >= 0."""
    while True:
        z = rng.uniform(0.0, 2.0)
        rates = {"x": rng.uniform(-2.0, 2.0), "y": z + rng.uniform(0.2, 3.0), "z": z}
        t_end = rng.uniform(0.5, 3.0)
        yield {
            "kind": "gad_rates",
            "argv": ["derive", "--channel", "gad", "--rates",
                     *(_flag(key, value) for key, value in rates.items()),
                     "--t-start", "0", _flag("t-end", t_end), "--steps", str(SWEEP_STEPS)],
            "items": SWEEP_STEPS,
            "rates": rates,
            "times": (0.0, t_end, SWEEP_STEPS),
        }


def points(rng: random.Random, theta_range: tuple[float, float] = SCALED_THETA):
    """Single-point derive calls over four parameterizations, in equal shares.

    Nothing in the repository gives how often users call each route, so the
    equal shares and the ranges below are assumptions.
    """
    while True:
        kind = rng.choice(("gad_physical", "gad_scaled", "pd_physical", "pd_rates"))
        if kind == "gad_physical":
            bath = _bath(rng)
            t = rng.uniform(0.0, 1.0)
            yield {"kind": kind, "items": 1, "bath": bath, "times": (t, t, 1),
                   "argv": ["derive", "--channel", "gad", "--physical", *_bath_argv(bath),
                            "--shift", _flag("t", t)]}
        elif kind == "gad_scaled":
            scaled = {"theta": rng.choice((-1.0, 1.0)) * _log_uniform(rng, *theta_range),
                      "omega": -2.0 + 2.0 * rng.random(),
                      "tau": _log_uniform(rng, *SCALED_TAU)}
            yield {"kind": kind, "items": 1, "scaled": scaled,
                   "times": (scaled["tau"], scaled["tau"], 1),
                   "argv": ["derive", "--channel", "gad", "--scaled",
                            *(_flag(key, value) for key, value in scaled.items())]}
        elif kind == "pd_physical":
            bath = _bath(rng)
            t = rng.uniform(0.0, 1.0)
            yield {"kind": kind, "items": 1, "bath": bath, "times": (t, t, 1),
                   "argv": ["derive", "--channel", "pd", "--physical", *_bath_argv(bath),
                            _flag("t", t)]}
        else:
            rate = rng.uniform(0.0, 5.0)
            t = rng.uniform(0.0, 2.0)
            yield {"kind": kind, "items": 1, "rate": rate, "times": (t, t, 1),
                   "argv": ["derive", "--channel", "pd", "--rates", _flag("rate", rate),
                            _flag("t", t)]}


def verify(rng: random.Random, report: str):
    """The full verification suite; its input is fixed, so the seed is unused."""
    while True:
        yield {"kind": "verify", "items": 1, "report": report,
               "argv": ["verify", "--channel", "all", "--output", report]}


def frames(rng: random.Random, directory: str):
    """bloch3d figure data: 4 temperatures x 50 times, one CSV row per grid point."""
    n_u, n_v = FIGURE_GRID
    while True:
        temperatures = _distinct(rng, FIGURE_TEMPERATURES, lambda: round(rng.uniform(1.0, 500.0), 1))
        times = _distinct(rng, FIGURE_TIMES, lambda: round(rng.uniform(0.0005, 0.2), 4))
        yield {
            "kind": "bloch3d",
            "items": len(temperatures) * len(times) * n_u * n_v,
            "directory": directory,
            "temperatures": temperatures,
            "times": times,
            "argv": ["figure", "--figure", "bloch3d",
                     "--temperatures", ",".join(repr(v) for v in temperatures),
                     "--times", ",".join(repr(v) for v in times),
                     "--grid", f"{n_u}x{n_v}", "--output", directory],
        }


NAMES = ("sweep", "points", "verify", "frames")


def stream(name: str, seed: str, scratch: str, full_domain: bool = False):
    """The operation stream of workload ``name`` for the seed string ``seed``.

    ``scratch`` is a directory the run owns; workloads that make the CLI
    write files point it there. ``full_domain`` widens ``points`` to the
    scaled GAD points where the program is known to fail.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep":
        return sweep(rng)
    if name == "points":
        return points(rng, SCALED_THETA_FULL if full_domain else SCALED_THETA)
    if name == "verify":
        return verify(rng, f"{scratch}/verify_report.json")
    if name == "frames":
        return frames(rng, f"{scratch}/frames")
    raise ValueError(f"unknown workload {name!r}")
