"""Command-line surface: derive Kraus sets, verify invariants, emit figure data.

Exit codes are part of the interface: 0 success, 1 failed verification
check, 2 configuration error, 3 pipeline error, 4 unwritable output. The
environment variable KRAUS_FORGE_TOL overrides every tolerance of verify;
the other subcommands ignore it. Identical configurations produce
byte-identical output files.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import shutil
import sys
from operator import itemgetter
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from . import bloch as bloch_mod
from . import gad as gad_mod
from . import pd as pd_mod
from .errors import KrausForgeError
from .kraus import WEIGHT_CUTOFF, KrausStack, kraus_diagnostics, kraus_stack, propagate

if TYPE_CHECKING:
    import argparse


class ConfigError(Exception):
    """Bad flags or config file; maps to exit code 2."""


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

_GAD_PHYSICAL_KEYS = ("alpha", "omega0", "cutoff", "temperature")
_PARAM_NUMBERS = ("theta", "omega", "tau", *_GAD_PHYSICAL_KEYS, "x", "y", "z", "rate")


class RunConfig:
    """Merged view of config-file values and command-line flags."""

    def __init__(self, output: str | None = None) -> None:
        self.channel = "gad"
        self.parameterization: dict = {}
        self.times: list[float] = []
        self.output = output
        self.weight_cutoff = WEIGHT_CUTOFF
        # verify-specific
        self.tolerances: dict[str, float] = {}
        self.tol_override: float | None = None
        # figure-specific
        self.figure: str | None = None
        self.temperatures: list[float] = []
        self.grid = (24, 12)


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


def _section(cfg_file: dict, key: str) -> dict:
    # a config-file object such as "parameterization"; an absent one is empty
    section = cfg_file.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{key}' must be an object, got {section!r}")
    return section


def _not_bool(value, what: str):
    # float() reads a JSON true or false as 1 or 0; neither is a number here
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {json.dumps(value)}")
    return value


def _finite(value, what: str) -> float:
    try:
        number = float(_not_bool(value, what))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite, got {number}")
    return number


def _nonnegative(value, what: str) -> float:
    number = _finite(value, what)
    if number < 0.0:
        raise ConfigError(f"{what} must be >= 0, got {number}")
    return number


def _finite_list(value, what: str) -> list[float]:
    # a comma-separated flag or a config-file list
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
    elif not isinstance(value, list):
        raise ConfigError(f"{what} list must be comma-separated or a list, got {value!r}")
    if not value:
        raise ConfigError(f"{what} list is empty")
    return [_finite(part, what) for part in value]


def _grid(value) -> tuple[int, int]:
    # "24x12" from the flag or [24, 12] from a config file, read the same way
    text = "x".join(str(part) for part in value) if isinstance(value, list) else str(value)
    try:
        n_u, n_v = (int(part) for part in text.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid {value!r}, expected like 24x12") from exc
    return n_u, n_v


def _resolve_times(cfg_file: dict, args: SimpleNamespace, param: dict) -> list[float]:
    if getattr(args, "t", None) is not None:
        return [_finite(args.t, "t")]
    # for the scaled parameterization the time variable is tau itself
    if param.get("kind") == "scaled" and param.get("tau") is not None:
        return [_finite(param["tau"], "tau")]
    grid = _section(cfg_file, "time_grid")
    start = args.t_start if args.t_start is not None else grid.get("start")
    end = args.t_end if args.t_end is not None else grid.get("end")
    steps = args.steps if args.steps is not None else grid.get("steps")
    if start is None or end is None or steps is None:
        raise ConfigError(
            "no time specified: use --t, --tau (scaled), or --t-start/--t-end/--steps"
        )
    start, end = _finite(start, "t_start"), _finite(end, "t_end")
    try:
        # through str, so that 2.5 and true are rejected rather than truncated
        steps = int(str(steps))
    except ValueError as exc:
        raise ConfigError(f"steps must be an integer, got {steps!r}") from exc
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if start > end:
        raise ConfigError(f"t_start {start} exceeds t_end {end}")
    if steps == 1:
        return [start]
    return list(np.linspace(start, end, steps))


def _resolve_parameterization(cfg_file: dict, args: SimpleNamespace, channel: str) -> dict:
    param = dict(_section(cfg_file, "parameterization"))
    kinds = [
        kind
        for kind, flag in (("scaled", args.scaled), ("physical", args.physical), ("rates", args.rates))
        if flag
    ]
    if len(kinds) > 1:
        raise ConfigError("give at most one of --scaled / --physical / --rates")
    if kinds:
        param["kind"] = kinds[0]

    for key in _PARAM_NUMBERS:
        value = getattr(args, key)
        if value is not None:
            param[key] = value
        _not_bool(param.get(key), key)
    if args.shift:
        param["shift"] = True
    # "shift" is the one boolean key; a null counts as absent, as for the numbers
    shift = param.get("shift")
    if shift is not None and not isinstance(shift, bool):
        raise ConfigError(f"shift must be true or false, got {json.dumps(shift)}")

    if "kind" not in param:
        # infer from which flags are present
        if channel == "pd" and param.get("rate") is not None:
            param["kind"] = "rates"
        elif all(param.get(k) is not None for k in _GAD_PHYSICAL_KEYS):
            param["kind"] = "physical"
        elif channel == "gad" and param.get("y") is not None:
            param["kind"] = "rates"
        else:
            raise ConfigError("no parameterization given (use --scaled, --physical, or --rates)")

    kind = param["kind"]
    if kind not in ("scaled", "physical", "rates"):
        raise ConfigError(f"parameterization kind must be scaled, physical or rates, got {kind!r}")
    if channel == "gad" and kind == "scaled":
        if param.get("theta") is None or param.get("omega") is None:
            raise ConfigError("scaled parameterization needs --theta and --omega")
    elif kind == "physical":
        missing = [k for k in _GAD_PHYSICAL_KEYS if param.get(k) is None]
        if missing:
            raise ConfigError(f"physical parameterization needs --{', --'.join(missing)}")
    elif channel == "gad" and kind == "rates":
        if param.get("y") is None or param.get("z") is None:
            raise ConfigError("rates parameterization needs --y and --z (and optionally --x)")
    elif channel == "pd" and kind == "rates":
        if param.get("rate") is None:
            raise ConfigError("pd rates parameterization needs --rate")
    elif channel == "pd" and kind == "scaled":
        raise ConfigError("the scaled parameterization applies to the gad channel only")
    return param


def _config_from_args(args: SimpleNamespace) -> RunConfig:
    """Read the config file and the flags of one subcommand; other keys are ignored."""
    for flag in ("config", "output"):
        # argparse 3.11 and 3.12 read "--opt=--" as [], 3.13 as "--"; a file
        # of that name is still reachable as ./--
        if getattr(args, flag) in ([], "--"):
            raise ConfigError(f"--{flag} needs a path")
    cfg_file = _load_config_file(args.config) if args.config else {}
    cfg = RunConfig(output=args.output or cfg_file.get("output"))
    if not isinstance(cfg.output, (str, type(None))):
        raise ConfigError(f"output must be a path, got {cfg.output!r}")
    if args.command == "derive":
        channel = args.channel or cfg_file.get("channel")
        if channel not in ("gad", "pd"):
            raise ConfigError(f"channel must be 'gad' or 'pd', got {channel!r}")
        cfg.channel = channel
        cutoff = args.weight_cutoff
        if cutoff is None:
            cutoff = cfg_file.get("weight_cutoff", WEIGHT_CUTOFF)
        cfg.weight_cutoff = _nonnegative(cutoff, "weight cutoff")
        cfg.parameterization = _resolve_parameterization(cfg_file, args, channel)
        cfg.times = _resolve_times(cfg_file, args, cfg.parameterization)
    elif args.command == "verify":
        cfg.channel = args.channel
        tolerances = _section(cfg_file, "tolerances")
        cfg.tolerances = {str(k): _nonnegative(v, f"tolerance {k}") for k, v in tolerances.items()}
        env_tol = os.environ.get("KRAUS_FORGE_TOL")
        # the environment variable takes precedence over the flag
        for what, value in (("--tol", args.tol), ("KRAUS_FORGE_TOL", env_tol)):
            if value is not None:
                cfg.tol_override = _nonnegative(value, what)
    else:
        fig_file = _section(cfg_file, "figure")
        cfg.figure = args.figure or fig_file.get("kind")
        if cfg.figure not in ("bloch3d", "volume_rate"):
            raise ConfigError("figure kind must be 'bloch3d' or 'volume_rate'")
        temps = args.temperatures or fig_file.get("temperatures")
        if temps is None:
            raise ConfigError("figure needs --temperatures")
        cfg.temperatures = _finite_list(temps, "temperature")
        if cfg.figure == "bloch3d":
            times = args.times or fig_file.get("times")
            if times is None:
                raise ConfigError("bloch3d needs --times")
            cfg.times = _finite_list(times, "time")
        else:
            cfg.times = _resolve_times(cfg_file, args, {})
        grid = args.grid or fig_file.get("grid")
        if grid is not None:
            cfg.grid = _grid(grid)
        bath = dict(_section(cfg_file, "bath"))
        for key, default in (("alpha", 0.02), ("omega0", 10.0), ("cutoff", 15.0)):
            value = getattr(args, key)
            bath[key] = _finite(value if value is not None else bath.get(key, default), key)
        cfg.parameterization = bath
        if cfg.output is None:
            raise ConfigError("figure needs --output DIRECTORY")
    return cfg


# ----------------------------------------------------------------------
# derive
# ----------------------------------------------------------------------

def _bath_from_param(param: dict) -> gad_mod.BathSpectrum:
    return gad_mod.BathSpectrum(
        alpha=param["alpha"],
        omega0=param["omega0"],
        omega_c=param["cutoff"],
        temperature=param["temperature"],
    )


def _gad_rates_from_param(param: dict) -> gad_mod.GadRates:
    if param["kind"] == "physical":
        bath = _bath_from_param(param)
        x = param.get("x")
        if x is None:
            x = gad_mod.hamiltonian_shift(bath) if param.get("shift") else 0.0
        return gad_mod.rates_from_physics(bath, x=x)
    x = param.get("x")
    return gad_mod.GadRates(x=0.0 if x is None else x, y=param["y"], z=param["z"])


def _json_list(items: list[str], depth: int) -> str:
    # rendered items laid out as json.dumps(indent=2) lays out a list at depth
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _json_object(entries: list[tuple[str, str]], depth: int) -> str:
    # the same for an object whose keys need no escaping
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join(f'"{key}": {value}' for key, value in entries)
    return "{" + inner + body + "\n" + "  " * depth + "}"


def _point_template(kept: int, route: list[tuple[str, str]]) -> str:
    """``%`` template of one derive point with ``kept`` operators.

    Its ``%s`` slots follow ``_point_columns``; ``route`` holds the point's
    trailing keys, already rendered.
    """
    pair = _json_list(["%s", "%s"], 7)
    row = _json_list([pair, pair], 6)
    operator = _json_list([row, row], 5)
    diagnostics = _json_object(
        [("completeness_residual", "%s"), ("choi_eigenvalues", _json_list(["%s"] * 4, 5))], 4
    )
    kraus = _json_object(
        [
            ("operators", _json_list([operator] * kept, 4)),
            ("weights", _json_list(["%s"] * kept, 4)),
            ("diagnostics", diagnostics),
        ],
        3,
    )
    return _json_object(
        [
            ("t", "%s"),
            ("kraus", kraus),
            ("choi_eigenvalues", _json_list(["%s"] * 4, 3)),
            ("completeness_residual", "%s"),
            *route,
        ],
        2,
    )


# columns of the point table: t, the 32 operator [re, im] values, the Choi
# eigenvalues, the completeness residual, the rebuilt Choi spectrum, tau
_OPS, _VALUES, _RESIDUAL, _REBUILT, _TAU = 1, 33, 37, 38, 42


def _point_columns(kept: int, with_tau: bool) -> list[int]:
    return [
        0,
        *range(_OPS, _OPS + 8 * kept),
        *range(_VALUES, _VALUES + kept),
        _RESIDUAL,
        *range(_REBUILT, _REBUILT + 4),
        *range(_VALUES, _VALUES + 4),
        _RESIDUAL,
        *([_TAU] if with_tau else []),
    ]


def _render_points(
    stack: KrausStack, times: np.ndarray, taus: np.ndarray | None, route: list[tuple[str, str]]
) -> list[str]:
    """Each member of ``stack`` as the text json.dumps(indent=2) gives its point.

    ``taus`` fills the ``tau`` slot that a ``scaled`` entry of ``route``
    leaves; without one it is None. A non-finite value raises
    KrausForgeError, so it is never written.
    """
    residuals, rebuilt = kraus_diagnostics(stack.operators)
    count = len(times)
    table = np.column_stack(
        [
            times,
            np.stack([stack.operators.real, stack.operators.imag], axis=-1).reshape(count, 32),
            stack.values,
            residuals,
            rebuilt,
            times if taus is None else taus,
        ]
    )
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise KrausForgeError(f"derive point at t={times[bad]} has a non-finite value")
    # one template per kept count, built when a point first needs it
    shapes: dict[int, tuple[str, itemgetter]] = {}
    points = []
    for row, kept in zip(table.tolist(), stack.kept.tolist()):
        shape = shapes.get(kept)
        if shape is None:
            columns = _point_columns(kept, taus is not None)
            shape = shapes[kept] = (_point_template(kept, route), itemgetter(*columns))
        template, columns = shape
        points.append(template % tuple(map(float.__repr__, columns(row))))
    return points


def _derive_text(cfg: RunConfig) -> str:
    param = cfg.parameterization
    times = np.asarray(cfg.times, dtype=float)
    scaled = rates = pd_params = taus = None
    # a parameter outside the channel's domain is a configuration error
    try:
        if cfg.channel == "pd":
            if param["kind"] == "physical":
                pd_params = pd_mod.pd_rate_from_physics(_bath_from_param(param))
            else:
                pd_params = pd_mod.PdParams(param["rate"])
            generator = pd_mod.pd_L(pd_params)
        elif param["kind"] == "scaled":
            # tau is the evolution time here; the pipeline checks it like any time
            scaled = gad_mod.GadScaled(param["theta"], param["omega"], 0.0)
            taus = times
            generator = gad_mod.gad_L_scaled(scaled)
        else:
            rates = _gad_rates_from_param(param)
            # tau is linear in t, so the unit-time rescale gives its factor
            scaled = gad_mod.rescale(rates, 1.0)
            taus = scaled.tau * times
            generator = gad_mod.gad_L(rates)
    except (TypeError, ValueError) as exc:
        # TypeError: a config-file value of the wrong JSON type, such as a list
        raise ConfigError(str(exc)) from exc
    # the route's keys close every point; their constants are rendered once
    route = []
    if scaled is not None:
        route.append(("scaled", _json_object(
            [("theta", repr(scaled.theta)), ("omega", repr(scaled.omega)), ("tau", "%s")], 3
        )))
    if rates is not None:
        route.append(("rates", _json_object([(k, repr(getattr(rates, k))) for k in "xyz"], 3)))
    if pd_params is not None:
        route.append(("rate", repr(pd_params.r)))
    # the header echoes the parameterization as given, config-file values too
    try:
        header = json.dumps(
            {"channel": cfg.channel, "parameterization": param}, indent=2, allow_nan=False
        )
    except ValueError as exc:
        raise ConfigError(f"parameterization holds a non-finite number: {exc}") from exc
    # every time point goes through each stage of the pipeline at once
    stack = kraus_stack(propagate(generator, times), cfg.weight_cutoff)
    if stack.kept.min() == 0:
        t = times[int(np.argmin(stack.kept))]
        raise ConfigError(f"weight cutoff {cfg.weight_cutoff} drops every Kraus operator at t={t}")
    points = _render_points(stack, times, taus, route)
    # the header without its closing brace, then the points as a list at depth 1
    return header[:-2] + ',\n  "points": [\n    ' + ",\n    ".join(points) + "\n  ]\n}\n"


def cmd_derive(cfg: RunConfig) -> int:
    text = _derive_text(cfg)
    if cfg.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(cfg.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _check(name: str, residual: float, tolerance: float) -> dict:
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "passed": bool(residual <= tolerance),
    }


def cmd_verify(cfg: RunConfig) -> int:
    # imported here, so that derive and figure do not load the checks
    from . import checks as checks_mod

    raw: list[tuple[str, float, float]] = []
    if cfg.channel in ("gad", "all"):
        raw.extend(checks_mod.gad_checks())
    if cfg.channel in ("pd", "all"):
        raw.extend(checks_mod.pd_checks())
    checks = []
    for name, residual, default_tol in raw:
        tol = cfg.tolerances.get(name, default_tol)
        if cfg.tol_override is not None:
            tol = cfg.tol_override
        checks.append(_check(name, residual, tol))
    for check in checks:
        status = "PASS" if check["passed"] else "FAIL"
        print(
            f"[{status}] {check['name']}: residual={check['residual']:.3e} "
            f"tolerance={check['tolerance']:.1e}"
        )
    if cfg.output not in (None, "-"):
        report = {"checks": checks, "all_passed": all(c["passed"] for c in checks)}
        with open(cfg.output, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(report, indent=2) + "\n")
    return 0 if all(c["passed"] for c in checks) else 1


# ----------------------------------------------------------------------
# figure
# ----------------------------------------------------------------------

def cmd_figure(cfg: RunConfig) -> int:
    # every domain object is built, and so checked, before anything is written
    try:
        baths = [
            (temperature, gad_mod.rates_from_physics(
                _bath_from_param({**cfg.parameterization, "temperature": temperature})
            ))
            for temperature in cfg.temperatures
        ]
        if cfg.figure == "bloch3d":
            uv = bloch_mod.spherical_grid(*cfg.grid)
            names = [
                f"bloch3d_T{temperature:g}_t{t:g}.csv"
                for temperature, _ in baths
                for t in cfg.times
            ]
            # the closed-form propagator of every frame, (files, 4, 4)
            propagators = np.stack([
                gad_mod.gad_F_closed(gad_mod.rescale(rates, t))
                for _, rates in baths
                for t in cfg.times
            ])
        else:
            names = [f"volume_rate_T{temperature:g}.csv" for temperature, _ in baths]
            # one scalar per row: the rows are the checked inputs themselves
            tables = [
                np.array([[t, bloch_mod.volume_rate(rates, t)] for t in cfg.times])
                for _, rates in baths
            ]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # %g keeps six significant digits, so distinct values can share a name
    if len(set(names)) < len(names):
        name = next(name for name in names if names.count(name) > 1)
        raise ConfigError(f"two frames would write the same file {name}")
    # each file is one %-template filled with its table, row by row
    if cfg.figure == "bloch3d":
        header = "u,v,x,y,z\r\n"
        # the u, v columns are the same in every file, so they are formatted once
        template = "".join(
            "%.12g,%.12g,%%.12g,%%.12g,%%.12g\r\n" % (u, v) for u, v in uv.tolist()
        )
        # the Bloch map n -> M n + b is M = F[1:, 1:], b = F[1:, 0]; it is
        # applied one file at a time, so one frame's points are held at once
        directions = bloch_mod.grid_directions(uv)
        tables = (directions @ f[1:, 1:].T + f[1:, 0] for f in propagators)
    else:
        header = "t,kappa\r\n"
        template = "%.12g,%.12g\r\n" * len(cfg.times)
    os.makedirs(cfg.output, exist_ok=True)
    for name, table in zip(names, tables):
        path = os.path.join(cfg.output, name)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(header + template % tuple(table.ravel().tolist()))
        print(path)
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

# a negative number such as -6.5e-06; argparse's own pattern has no exponent
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


_COMMON_OPTIONS = (
    ("--config", {"help": "JSON config file; flags override its values"}),
    ("--output", {"help": "output path ('-' for stdout)"}),
)

# each subcommand's help line and options, as (flag, add_argument keywords);
# the argparse tree and the reader both take them from here
_SUBCOMMANDS = {
    "derive": ("run the generator -> propagator -> Choi -> Kraus pipeline", (
        *_COMMON_OPTIONS,
        ("--channel", {"choices": ("gad", "pd")}),
        ("--scaled", {"action": "store_true", "help": "use (theta, omega, tau)"}),
        ("--physical", {"action": "store_true", "help": "use (alpha, omega0, cutoff, temperature)"}),
        ("--rates", {"action": "store_true", "help": "use raw rates (x, y, z) or --rate"}),
        ("--theta", {"type": float}),
        ("--omega", {"type": float}),
        ("--tau", {"type": float}),
        ("--alpha", {"type": float}),
        ("--omega0", {"type": float}),
        ("--cutoff", {"type": float, "help": "bath cutoff frequency"}),
        ("--temperature", {"type": float}),
        ("--shift", {"action": "store_true", "help": "include the dispersive frequency shift in x"}),
        ("--x", {"type": float}),
        ("--y", {"type": float}),
        ("--z", {"type": float}),
        ("--rate", {"type": float, "help": "pd dephasing rate"}),
        ("--t", {"type": float, "help": "single evaluation time"}),
        ("--t-start", {"type": float}),
        ("--t-end", {"type": float}),
        ("--steps", {"type": int}),
        ("--weight-cutoff", {"type": float}),
    )),
    "verify": ("run the invariant and equivalence suites", (
        *_COMMON_OPTIONS,
        ("--channel", {"choices": ("gad", "pd", "all"), "default": "all"}),
        ("--tol", {"type": float, "help": "override every verification tolerance"}),
    )),
    "figure": ("emit CSV data reproducing the reference figures", (
        *_COMMON_OPTIONS,
        ("--figure", {"choices": ("bloch3d", "volume_rate")}),
        ("--temperatures", {"help": "comma-separated temperatures"}),
        ("--times", {"help": "comma-separated times (bloch3d)"}),
        ("--grid", {"help": "ellipsoid sampling grid, e.g. 24x12"}),
        ("--alpha", {"type": float}),
        ("--omega0", {"type": float}),
        ("--cutoff", {"type": float}),
        ("--t-start", {"type": float}),
        ("--t-end", {"type": float}),
        ("--steps", {"type": int}),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's whole argparse tree, for help, errors and argv the reader declines."""
    # imported here: a well-formed argv is read without argparse
    import argparse

    class _Parser(argparse.ArgumentParser):
        """ArgumentParser that reads ``-6.5e-06`` as a negative number.

        argparse's own pattern has no exponent, so ``--omega -6.5e-06`` would
        take ``-6.5e-06`` for an option. No option of this CLI looks like a
        number, so the wider pattern is unambiguous. Subparsers inherit the class.
        """

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = _NEGATIVE_NUMBER

    # the terminal is measured once here, not by each add_argument's formatter
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = _Parser(
        prog="kraus-forge",
        description="Derive, verify, and visualize qubit noise-channel Kraus operators.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _SUBCOMMANDS.items():
        command = sub.add_parser(name, help=help_text, formatter_class=formatter)
        for flag, kwargs in options:
            command.add_argument(flag, **kwargs)
    return parser


def _reader_table(options: tuple) -> tuple[dict, dict]:
    """A subcommand's flags, each with its attribute and keywords, and their defaults."""
    # the attribute argparse names after a long flag
    flags = {flag: (flag[2:].replace("-", "_"), kwargs) for flag, kwargs in options}
    defaults = {
        dest: kwargs.get("default", False if "action" in kwargs else None)
        for dest, kwargs in flags.values()
    }
    return flags, defaults


_READER = {command: _reader_table(options) for command, (_, options) in _SUBCOMMANDS.items()}


def _read_options(command: str, words: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives ``command``'s ``words``, read from the table.

    Only exact long flags are read, as ``--opt value`` or ``--opt=value``;
    a spaced value that starts with ``-`` must be ``-`` or a negative
    number. Anything else, a value of ``--``, and a value that fails its
    type or choices give None, and argparse reads the words instead.
    """
    flags, defaults = _READER[command]
    values = {"command": command, **defaults}
    words = iter(words)
    for word in words:
        flag, equals, value = word.partition("=")
        entry = flags.get(flag)
        if entry is None:
            return None
        dest, kwargs = entry
        # the table's only action is store_true
        if "action" in kwargs:
            if equals:
                return None
            value = True
        else:
            if not equals:
                value = next(words, None)
                # argparse takes any other word that starts with "-" for an option
                if value is None or (
                    value.startswith("-") and value != "-" and not _NEGATIVE_NUMBER.match(value)
                ):
                    return None
            # argparse versions read "--opt=--" differently
            if value == "--":
                return None
            try:
                value = kwargs.get("type", str)(value)
            except ValueError:
                return None
            if "choices" in kwargs and value not in kwargs["choices"]:
                return None
        values[dest] = value
    return SimpleNamespace(**values)


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The namespace the whole tree gives ``argv``, read without it when well formed.

    The argparse tree is built only where the reader declines ``argv``, so
    help, errors and unusual forms read exactly as argparse reads them.
    """
    if argv and argv[0] in _SUBCOMMANDS:
        args = _read_options(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "derive":
            return cmd_derive(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_figure(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KrausForgeError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # a time grid or sampling grid too large to hold
        print(f"pipeline error: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
