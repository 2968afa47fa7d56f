import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kraus_forge import cli
from kraus_forge import gad as gad_mod
from kraus_forge import pd as pd_mod
from kraus_forge.bloch import spherical_grid
from kraus_forge.cli import main
from kraus_forge.errors import KrausForgeError
from kraus_forge.kraus import choi_distance, kraus_set_to_dict, kraus_stack, propagate
from kraus_forge.linalg import SIGMA_I, SIGMA_Z
from references import kraus_set_from_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_derive_pd_single_point(capsys, tmp_path):
    out_file = tmp_path / "pd.json"
    code, _, _ = run_cli(
        capsys, "derive", "--channel", "pd", "--rate", "1", "--t", "0.5",
        "--output", str(out_file),
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["channel"] == "pd"
    point = doc["points"][0]
    kset = kraus_set_from_dict(point["kraus"])
    assert len(kset) == 2
    decay = math.exp(-1.0)
    expected = [
        math.sqrt((1 + decay) / 2) * SIGMA_I,
        math.sqrt((1 - decay) / 2) * SIGMA_Z,
    ]
    for op, ref in zip(kset.operators, expected):
        assert np.abs(op - ref).max() < 1e-12
    assert point["completeness_residual"] < 1e-10


def test_derive_gad_scaled_zero_temperature(capsys):
    code, out, _ = run_cli(
        capsys, "derive", "--channel", "gad", "--scaled",
        "--theta", "0", "--omega", "-2", "--tau", "0.693",
    )
    assert code == 0
    doc = json.loads(out)
    point = doc["points"][0]
    assert point["t"] == 0.693
    ops = point["kraus"]["operators"]
    assert len(ops) == 2
    decay = math.exp(-0.693)
    magnitudes = sorted(
        max(abs(complex(re, im)) for row in op for re, im in row) for op in ops
    )
    assert magnitudes[0] == pytest.approx(math.sqrt(1 - decay**2), abs=1e-12)
    assert magnitudes[1] == pytest.approx(1.0, abs=1e-12)


def test_derive_physical_matches_scaled_route(capsys):
    # zero-temperature bath: same channel as theta=0, omega=-2 at the
    # rescaled time
    code, out, _ = run_cli(
        capsys, "derive", "--channel", "gad", "--physical",
        "--alpha", "0.02", "--omega0", "10", "--cutoff", "15",
        "--temperature", "0", "--t", "1",
    )
    assert code == 0
    doc = json.loads(out)
    point = doc["points"][0]
    tau = point["scaled"]["tau"]
    assert point["scaled"]["theta"] == 0.0
    assert point["scaled"]["omega"] == -2.0
    physical_set = kraus_set_from_dict(point["kraus"])

    code, out, _ = run_cli(
        capsys, "derive", "--channel", "gad", "--scaled",
        "--theta", "0", "--omega", "-2", "--tau", f"{tau!r}",
    )
    assert code == 0
    scaled_set = kraus_set_from_dict(json.loads(out)["points"][0]["kraus"])
    assert choi_distance(physical_set, scaled_set) < 1e-9


def test_derive_tiny_temperature_is_quiet(capsys):
    # omega0 / T overflows to inf; the occupation is cut to 0 without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "derive", "--channel", "gad", "--physical", "--alpha=0.02",
            "--omega0=10", "--cutoff=15", "--temperature=1e-308", "--t=0.3",
        )
    assert (code, err) == (0, "")
    assert json.loads(out)["points"][0]["scaled"]["omega"] == -2.0


def test_derive_time_grid(capsys):
    code, out, _ = run_cli(
        capsys, "derive", "--channel", "pd", "--rate", "0.5",
        "--t-start", "0", "--t-end", "1", "--steps", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert [p["t"] for p in doc["points"]] == [0.0, 0.5, 1.0]


def test_derive_config_file_with_flag_override(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "channel": "pd",
                "parameterization": {"kind": "rates", "rate": 1.0},
                "time_grid": {"start": 0.5, "end": 0.5, "steps": 1},
            }
        )
    )
    code, out, _ = run_cli(capsys, "derive", "--config", str(config))
    assert code == 0
    assert json.loads(out)["points"][0]["t"] == 0.5
    # flags win over the file
    code, out, _ = run_cli(capsys, "derive", "--config", str(config), "--t", "2.0")
    assert code == 0
    assert json.loads(out)["points"][0]["t"] == 2.0


def test_derive_gad_rates_route(capsys):
    code, out, _ = run_cli(
        capsys, "derive", "--channel", "gad", "--rates",
        "--x", "1", "--y", "3", "--z", "1", "--t", "0.5",
    )
    assert code == 0
    point = json.loads(out)["points"][0]
    assert point["scaled"] == {"theta": 1.0, "omega": -1.0, "tau": 1.0}
    assert point["rates"] == {"x": 1.0, "y": 3.0, "z": 1.0}
    assert point["completeness_residual"] < 1e-10


def test_derive_scaled_tau_sweep(capsys):
    code, out, _ = run_cli(
        capsys, "derive", "--channel", "gad", "--scaled", "--theta", "0",
        "--omega", "-1", "--t-start", "0.5", "--t-end", "1.5", "--steps", "3",
    )
    assert code == 0
    taus = [p["scaled"]["tau"] for p in json.loads(out)["points"]]
    assert taus == [0.5, 1.0, 1.5]


def test_derive_missing_parameterization_is_config_error(capsys):
    code, _, err = run_cli(capsys, "derive", "--channel", "gad", "--t", "1")
    assert code == 2
    assert "parameterization" in err


def test_derive_conflicting_parameterizations(capsys):
    code, _, err = run_cli(
        capsys, "derive", "--channel", "gad", "--scaled", "--physical",
        "--theta", "0", "--omega", "-1", "--tau", "1",
    )
    assert code == 2


def test_derive_bad_time_grid(capsys):
    code, _, _ = run_cli(
        capsys, "derive", "--channel", "pd", "--rate", "1",
        "--t-start", "2", "--t-end", "1", "--steps", "3",
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys, "derive", "--channel", "pd", "--rate", "1",
        "--t-start", "0", "--t-end", "1", "--steps", "0",
    )
    assert code == 2


def test_derive_bad_config_file(capsys, tmp_path):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    code, _, err = run_cli(capsys, "derive", "--config", str(config))
    assert code == 2
    config.write_text(
        json.dumps(
            {
                "channel": "pd",
                "parameterization": {"kind": "rates", "rate": 1.0},
                "time_grid": {"start": 0.0, "end": 1.0, "steps": "many"},
            }
        )
    )
    code, _, err = run_cli(capsys, "derive", "--config", str(config))
    assert code == 2


@pytest.mark.parametrize("flag", ["--output", "--config"])
def test_double_dash_path_is_config_error(capsys, tmp_path, monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys, "derive", "--channel", "pd", "--rate", "1", "--t", "0.5", f"{flag}=--"
    )
    assert code == 2
    assert out == ""
    assert err == f"config error: {flag} needs a path\n"
    assert os.listdir(tmp_path) == []
    # argparse reads "--opt=--" as [] or as "--", by Python version
    for value in ([], "--"):
        args = cli._parse_args(["derive", "--channel", "pd", "--rate", "1", "--t", "0.5"])
        setattr(args, flag[2:], value)
        with pytest.raises(cli.ConfigError, match="needs a path"):
            cli._config_from_args(args)
    # a file named -- is reachable as ./--
    code, out, _ = run_cli(
        capsys, "derive", "--channel", "pd", "--rate", "1", "--t", "0.5", "--output=./--"
    )
    assert code == 0 and out == ""
    assert os.listdir(tmp_path) == ["--"]


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("[")]
    assert len(lines) >= 10
    assert all(line.startswith("[PASS]") for line in lines)


def test_verify_report_and_env_override(capsys, tmp_path, monkeypatch):
    report = tmp_path / "report.json"
    monkeypatch.setenv("KRAUS_FORGE_TOL", "1e-30")
    code, out, _ = run_cli(capsys, "verify", "--channel", "pd", "--output", str(report))
    assert code == 1  # nothing passes at an impossible tolerance
    doc = json.loads(report.read_text())
    assert doc["all_passed"] is False
    assert all(c["tolerance"] == 1e-30 for c in doc["checks"])
    monkeypatch.delenv("KRAUS_FORGE_TOL")
    code, _, _ = run_cli(capsys, "verify", "--channel", "pd")
    assert code == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("source", ["flag", "environment", "config"])
def test_verify_tolerance_must_be_finite_and_nonnegative(capsys, tmp_path, monkeypatch, source, value):
    # exit 1 is kept for a failed check, and no report may carry NaN
    report = tmp_path / "report.json"
    argv = ["verify", "--channel", "pd", "--output", str(report)]
    if source == "flag":
        argv.append(f"--tol={value}")
    elif source == "environment":
        monkeypatch.setenv("KRAUS_FORGE_TOL", value)
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"tolerances": {"pd_completeness": float(value)}}))
        argv += ["--config", str(config)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")
    assert not report.exists()


def test_figure_bloch3d_outputs(capsys, tmp_path):
    out_dir = tmp_path / "figs"
    code, out, _ = run_cli(
        capsys, "figure", "--figure", "bloch3d",
        "--temperatures", "100,300", "--times", "0,0.05",
        "--grid", "8x6", "--output", str(out_dir),
    )
    assert code == 0
    names = sorted(os.listdir(out_dir))
    assert names == [
        "bloch3d_T100_t0.05.csv",
        "bloch3d_T100_t0.csv",
        "bloch3d_T300_t0.05.csv",
        "bloch3d_T300_t0.csv",
    ]
    header, *rows = (out_dir / "bloch3d_T300_t0.05.csv").read_text().splitlines()
    assert header == "u,v,x,y,z"
    assert len(rows) == 8 * 6
    # the hotter ellipsoid fits strictly inside the cooler one
    def extent(name):
        data = np.loadtxt(out_dir / name, delimiter=",", skiprows=1)
        return np.abs(data[:, 2:]).max()

    assert extent("bloch3d_T300_t0.05.csv") < extent("bloch3d_T100_t0.05.csv")


def test_figure_volume_rate_outputs(capsys, tmp_path):
    out_dir = tmp_path / "rates"
    code, _, _ = run_cli(
        capsys, "figure", "--figure", "volume_rate",
        "--temperatures", "100,300", "--t-start", "0", "--t-end", "0.2",
        "--steps", "5", "--output", str(out_dir),
    )
    assert code == 0
    cool = np.loadtxt(out_dir / "volume_rate_T100.csv", delimiter=",", skiprows=1)
    hot = np.loadtxt(out_dir / "volume_rate_T300.csv", delimiter=",", skiprows=1)
    assert np.all(cool[:, 1] < 0) and np.all(hot[:, 1] < 0)
    assert hot[0, 1] < cool[0, 1]


def test_figure_deterministic_output(capsys, tmp_path):
    args = (
        "figure", "--figure", "bloch3d", "--temperatures", "100",
        "--times", "0.05", "--grid", "6x5",
    )
    first_dir, second_dir = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, *args, "--output", str(first_dir))[0] == 0
    assert run_cli(capsys, *args, "--output", str(second_dir))[0] == 0
    first = (first_dir / "bloch3d_T100_t0.05.csv").read_bytes()
    second = (second_dir / "bloch3d_T100_t0.05.csv").read_bytes()
    assert first == second


def test_derive_deterministic_output(capsys, tmp_path):
    args = ("derive", "--channel", "gad", "--scaled", "--theta", "1",
            "--omega", "-1", "--tau", "1")
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, *args, "--output", str(first))[0] == 0
    assert run_cli(capsys, *args, "--output", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_figure_unwritable_output(capsys, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code, _, err = run_cli(
        capsys, "figure", "--figure", "volume_rate", "--temperatures", "100",
        "--t-start", "0", "--t-end", "1", "--steps", "2",
        "--output", str(blocker),
    )
    assert code == 4


def _reject_non_finite(token):
    raise ValueError(f"non-finite number {token} in the JSON output")


@pytest.mark.parametrize(
    "argv",
    [
        ("derive", "--channel", "pd", "--rate", "1", "--t", "5e-324"),
        ("derive", "--channel", "gad", "--scaled", "--theta", "1",
         "--omega=-1", "--tau", "5e-324"),
    ],
)
def test_derive_subnormal_time(capsys, argv):
    # the propagator at a subnormal time is the identity channel to roundoff
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_non_finite)
    assert doc["points"][0]["t"] == 5e-324


_SWEEP_ZERO_TEMPERATURE = (
    "derive", "--channel", "gad", "--rates", "--x=0.3", "--y=2", "--z=0",
    "--t-start", "0", "--t-end", "2", "--steps", "50",
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        # parameters outside the channel's domain are configuration errors
        (("derive", "--channel", "gad", "--scaled", "--theta", "50", "--omega=-3",
          "--tau", "40"), 2),
        (("derive", "--channel", "gad", "--rates", "--x", "0", "--y=1", "--z=2",
          "--t", "1"), 2),
        (("derive", "--channel", "pd", "--rate=-1", "--t", "1"), 2),
        (("derive", "--channel", "pd", "--physical", "--alpha=-1", "--omega0", "10",
          "--cutoff", "15", "--temperature", "1", "--t", "1"), 2),
        # non-finite times and unusable weight cutoffs are configuration errors
        (("derive", "--channel", "pd", "--rate", "1", "--t", "nan"), 2),
        (("derive", "--channel", "pd", "--rate", "1", "--t-start", "0",
          "--t-end", "inf", "--steps", "3"), 2),
        ((*_SWEEP_ZERO_TEMPERATURE, "--weight-cutoff=-1"), 2),
        ((*_SWEEP_ZERO_TEMPERATURE, "--weight-cutoff", "nan"), 2),
        ((*_SWEEP_ZERO_TEMPERATURE, "--weight-cutoff", "5"), 2),
        # backward evolution is rejected inside the pipeline on every route
        (("derive", "--channel", "gad", "--rates", "--x", "0", "--y=2", "--z=1",
          "--t=-1"), 3),
        (("derive", "--channel", "gad", "--scaled", "--theta", "1", "--omega=-1",
          "--tau=-1"), 3),
        (("derive", "--channel", "gad", "--rates", "--x", "0", "--y=2", "--z=1",
          "--t-start=-1", "--t-end", "1", "--steps", "3"), 3),
    ],
)
def test_derive_rejects_bad_input_with_documented_exit_code(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert code == expected
    assert out == ""
    assert "Traceback" not in err


def test_pipeline_error_exit_code(capsys):
    # backward evolution is rejected inside the pipeline
    code, _, err = run_cli(
        capsys, "derive", "--channel", "pd", "--rate", "1", "--t", "-1",
    )
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("derive", "--channel", "gad", "--rates", "--y", "1", "--z", "0",
         "--t-start", "0", "--t-end", "1", "--steps", "1000000000000000"),
        ("figure", "--figure", "bloch3d", "--temperatures", "1", "--times", "0.1",
         "--grid", "1000000000000000x2"),
    ],
)
def test_oversized_grid_is_a_pipeline_error(capsys, tmp_path, argv):
    # each first allocation is 8 PB, which fails at once on any 64-bit host
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv, "--output", str(out_dir))
    assert code == 3
    assert out == ""
    assert err.startswith("pipeline error: out of memory: ")
    assert "Traceback" not in err
    assert not out_dir.exists()


# SHA-256 of documents written before derive ran its time points as one
# stacked pipeline; any change of a single byte in these outputs fails here
GOLDEN_DERIVE = {
    "gad_rates_sweep_1000": (
        ("derive", "--channel", "gad", "--rates", "--x=0.7", "--y=2.5", "--z=0.4",
         "--t-start", "0", "--t-end", "2", "--steps", "1000"),
        "e575facad146f887ba722cc1e3a80f539af5189e95f1e4af36b34bcba88fe6d4",
    ),
    # omega = -2: the weight cutoff drops two or three operators per point
    "gad_zero_temperature_sweep": (
        ("derive", "--channel", "gad", "--rates", "--x=0.3", "--y=2", "--z=0",
         "--t-start", "0", "--t-end", "2", "--steps", "50"),
        "d6f246ee3476ddf53ad5e7e9be2b11bc5382c01e93f87d9fbb22c653110dc63b",
    ),
    "gad_scaled_tau_sweep": (
        ("derive", "--channel", "gad", "--scaled", "--theta=1.5", "--omega=-0.6",
         "--t-start", "0", "--t-end", "3", "--steps", "40"),
        "1f66ea955b9f8c894c79b4e75fd3ce5d7e0ee9b0856c451997ab3088e1a22a69",
    ),
    "pd_physical_sweep": (
        ("derive", "--channel", "pd", "--physical", "--alpha=0.02", "--omega0=10",
         "--cutoff=15", "--temperature=100", "--t-start", "0", "--t-end", "1",
         "--steps", "30"),
        "f079bb3fca3ccc290759c0d9eef4445f759994c1dd18bb2de12bd274638c9ffa",
    ),
    "gad_physical_shift_point": (
        ("derive", "--channel", "gad", "--physical", "--alpha=0.02", "--omega0=10",
         "--cutoff=15", "--temperature=100", "--shift", "--t=0.3"),
        "5807b2400cafbcb99815929294d9fed75833af5e0c7d840e08789bb284bb2fd1",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_DERIVE))
def test_derive_golden_bytes(capsys, case):
    argv, digest = GOLDEN_DERIVE[case]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_report_golden_bytes(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "--channel", "all", "--output", str(report))
    assert code == 0
    assert (
        hashlib.sha256(report.read_bytes()).hexdigest()
        == "cd0994c453496f92842ca80995dba64c17606b16fbc78861addfe03e582db13d"
    )


def _directory_digest(directory) -> str:
    # one digest over every file name and its bytes, in name order
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode() + b"\0" + (directory / name).read_bytes())
    return digest.hexdigest()


# SHA-256 of figure directories; any change of a single byte in these outputs
# fails here. volume_rate was written before figure shared derive's
# configuration path, bloch3d since its frames read the Bloch map from the
# closed-form propagator (1034 of its 17,280 values moved, by at most 9.0e-17)
GOLDEN_FIGURE = {
    "bloch3d": (
        ("figure", "--figure", "bloch3d", "--temperatures", "0,100,300",
         "--times", "0,0.05,0.3,2", "--grid", "24x12"),
        "a12bc54e419088c6c51e73101ffd79e359adda683de68c5a7c84c88c67b47778",
    ),
    "volume_rate": (
        ("figure", "--figure", "volume_rate", "--temperatures", "0,100,300",
         "--t-start", "0", "--t-end", "0.2", "--steps", "200",
         "--alpha=0.05", "--omega0=8", "--cutoff=20"),
        "e05c4873b14cfe95eb1bdb0884a66e765bbc4eb03a1569c095ae023c56987d5c",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_FIGURE))
def test_figure_golden_bytes(capsys, tmp_path, case):
    argv, digest = GOLDEN_FIGURE[case]
    out_dir = tmp_path / "figs"
    code, _, _ = run_cli(capsys, *argv, "--output", str(out_dir))
    assert code == 0
    assert _directory_digest(out_dir) == digest


def _default_bath_rates(temperature: float) -> gad_mod.GadRates:
    # figure's bath when no value is overridden
    return gad_mod.rates_from_physics(
        gad_mod.BathSpectrum(alpha=0.02, omega0=10.0, omega_c=15.0, temperature=temperature)
    )


def test_figure_bloch3d_long_time_frame_is_the_fixed_point(capsys, tmp_path):
    # t = 50 is tau = 322.9 here, where the closed-form Kraus subexpressions overflow
    out_dir = tmp_path / "figs"
    code, _, err = run_cli(
        capsys, "figure", "--figure", "bloch3d", "--temperatures", "100",
        "--times", "0.1,50", "--grid", "2x2", "--output", str(out_dir),
    )
    assert (code, err) == (0, "")
    assert sorted(os.listdir(out_dir)) == ["bloch3d_T100_t0.1.csv", "bloch3d_T100_t50.csv"]
    omega = gad_mod.rescale(_default_bath_rates(100.0), 50.0).omega
    rows = np.loadtxt(out_dir / "bloch3d_T100_t50.csv", delimiter=",", skiprows=1)
    # every state has relaxed to the fixed point, within 12-digit rounding
    np.testing.assert_allclose(
        rows[:, 2:], np.tile([0.0, 0.0, omega / 2], (4, 1)), rtol=5e-12, atol=1e-13
    )


def test_figure_bloch3d_small_time_frame_matches_expm(capsys, tmp_path):
    # t = 1e-9 is tau = 6.5e-9 here, below where the closed-form Kraus set is singular
    out_dir = tmp_path / "figs"
    code, _, _ = run_cli(
        capsys, "figure", "--figure", "bloch3d", "--temperatures", "100",
        "--times", "1e-9", "--grid", "6x5", "--output", str(out_dir),
    )
    assert code == 0
    rows = np.loadtxt(out_dir / "bloch3d_T100_t1e-09.csv", delimiter=",", skiprows=1)
    uv = spherical_grid(6, 5)
    u, v = uv[:, 0], uv[:, 1]
    directions = np.stack([np.sin(v) * np.cos(u), np.sin(v) * np.sin(u), np.cos(v)], axis=1)
    f = scipy.linalg.expm(gad_mod.gad_L(_default_bath_rates(100.0)) * 1e-9)
    reference = np.hstack([uv, directions @ f[1:, 1:].T + f[1:, 0]])
    np.testing.assert_allclose(rows, reference, rtol=5e-12, atol=1e-13)


_BLOCH3D = ("figure", "--figure", "bloch3d", "--temperatures", "100", "--times", "0.1")


@pytest.mark.parametrize(
    "argv",
    [
        (*_BLOCH3D, "--grid", "1x1"),
        (*_BLOCH3D, "--temperatures=-5"),
        (*_BLOCH3D, "--alpha=-1"),
        (*_BLOCH3D, "--times=-0.1"),
        (*_BLOCH3D, "--times", "nan"),
        (*_BLOCH3D, "--temperatures", "inf"),
        ("figure", "--figure", "volume_rate", "--temperatures", "100",
         "--t-start=-1", "--t-end", "1", "--steps", "3"),
        # a negative number in exponent notation is a value, not an option
        (*_BLOCH3D, "--alpha", "-1e-3"),
        # an empty list, which would write an empty directory
        (*_BLOCH3D, "--times", ","),
        # values equal to six significant digits would write one file twice
        (*_BLOCH3D, "--times", "0.1,0.1000001"),
        (*_BLOCH3D, "--temperatures", "100,100"),
        ("figure", "--figure", "volume_rate", "--temperatures", "100,100.0000001",
         "--t-start", "0", "--t-end", "1", "--steps", "3"),
        ("figure", "--figure", "volume_rate", "--temperatures", "100,100",
         "--t-start", "0", "--t-end", "1", "--steps", "3"),
    ],
)
def test_figure_rejects_bad_input_before_writing(capsys, tmp_path, argv):
    out_dir = tmp_path / "figs"
    code, out, err = run_cli(capsys, *argv, "--output", str(out_dir))
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("grid", [[24.5, 12], [24]])
def test_figure_config_grid_needs_two_integers(capsys, tmp_path, grid):
    config = tmp_path / "figure.json"
    config.write_text(json.dumps({"figure": {"kind": "bloch3d", "temperatures": [100],
                                             "times": [0.1], "grid": grid}}))
    out_dir = tmp_path / "figs"
    code, _, err = run_cli(capsys, "figure", "--config", str(config), "--output", str(out_dir))
    assert code == 2
    assert "grid" in err
    assert not out_dir.exists()


def test_derive_ignores_verify_settings(capsys, tmp_path, monkeypatch):
    argv = ("derive", "--channel", "pd", "--rate", "1", "--t", "0.5")
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("KRAUS_FORGE_TOL", "abc")
    assert run_cli(capsys, *argv) == (0, expected, "")
    # keys another subcommand reads are ignored like any unknown key
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"tolerances": "unused", "format": "csv"}))
    assert run_cli(capsys, *argv, "--config", str(config)) == (0, expected, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("derive", "--channel", "pd", "--rate", "1", "--t", "0.5", "--tol", "5"),
        ("derive", "--channel", "pd", "--rate", "1", "--t", "0.5", "--format", "json"),
        ("figure", "--figure", "volume_rate", "--temperatures", "100", "--t-start", "0",
         "--t-end", "1", "--steps", "2", "--output", "unused", "--tol", "5"),
    ],
)
def test_options_a_subcommand_ignores_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# SHA-256 of the help texts at 80 columns; the top-level listing and each
# subcommand's options must read the same however the parser is built
GOLDEN_HELP = {
    "top": ((), "9ac89f97164c15d2d77a363b1966c0ffafb7166a9aebcd20f8ae03e5b0166b5a"),
    "derive": (("derive",), "09c8cd493c78534e8719da802d06b9e1cb388e412576d29048ec9b579e269be9"),
    "verify": (("verify",), "71daa1e400e6f3f7e3d90c3d2c54efed752042d84e3c64845158899b86db5074"),
    "figure": (("figure",), "447032499d48fc48b24acbdb056f2bb8416326e7b9af2e2d860a33d05a91d309"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_HELP))
def test_help_golden_bytes(capsys, monkeypatch, case):
    argv, digest = GOLDEN_HELP[case]
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    assert exit_info.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# argv lists the subcommand's own parser must read as the whole tree reads
# them: help at each position, top-level words, unknown and abbreviated
# options, stray words, "--", bad types and choices, negative numbers in
# exponent notation, repeated options
PARSE_CASES = [
    ("--help",),
    ("-h",),
    ("derive", "--help"),
    ("verify", "-h"),
    ("figure", "--help"),
    ("derive", "--channel", "pd", "--help"),
    ("--help", "derive"),
    ("derive", "--he"),
    (),
    ("bogus",),
    ("Derive", "--channel", "pd"),
    ("der",),
    ("--channel", "pd", "derive"),
    ("derive", "--bogus", "1"),
    ("derive", "--tol", "5"),
    ("verify", "--channel", "pd", "--tol"),
    ("derive", "--chan", "pd", "--rate", "1", "--t", "0.5"),
    ("derive", "--t-s", "0", "--t-e", "1", "--st", "3"),
    ("derive", "--om", "1"),
    ("figure", "--temp", "1,2"),
    ("derive", "--channel", "pd", "extra"),
    ("verify", "derive"),
    ("derive", "derive"),
    ("derive", "--"),
    ("derive", "--channel", "pd", "--", "--rate", "1"),
    ("--", "derive"),
    ("derive", "-"),
    ("derive", "-x"),
    ("derive", "--steps", "2.5"),
    ("derive", "--theta", "abc"),
    ("derive", "--channel", "xyz"),
    ("verify", "--channel", "gad,pd"),
    ("derive", "--omega", "-6.5e-06"),
    ("derive", "--omega=-6.5e-06"),
    ("derive", "--omega", "-1E+2", "--theta", "-.5"),
    ("derive", "--x", "-1e-3", "--y", "-5"),
    ("derive", "--channel", "gad", "--channel", "pd"),
    ("verify", "--tol", "1", "--tol", "2"),
    ("verify",),
    ("figure", "--figure", "bloch3d", "--temperatures", "100", "--times", "0.1",
     "--output", "out"),
    ("derive", "--config", "run.json", "--output", "-"),
    ("derive", "--channel", "pd", "--rate", "1", "--t", "0.5"),
    # Python 3.11 reads this as config == [], newer versions differently
    ("derive", "--config=--"),
]


def _parse_outcome(capsys, parse, argv):
    try:
        result = ("parsed", vars(parse(list(argv))))
    except SystemExit as exc:
        result = ("exit", exc.code)
    return (*result, *capsys.readouterr())


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_dispatch_reads_argv_as_the_whole_tree(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _parse_outcome(capsys, cli.build_parser().parse_args, argv)
    if expected[0] == "parsed":
        assert _parse_outcome(capsys, cli._parse_args, argv) == expected
    else:
        # help and errors end main as the whole tree ends it
        assert _parse_outcome(capsys, main, argv) == expected


def _outcome(parse, argv):
    """A parse's namespace, NaN read as equal, or its exit code and output."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = vars(parse(list(argv)))
    except SystemExit as exc:
        return "exit", exc.code, stdout.getvalue(), stderr.getvalue()
    return "parsed", {key: "nan" if value != value else value for key, value in args.items()}


# option values: numbers in the forms the reader must read as argparse does,
# texts for the untyped options, and values it must leave to argparse
_NUMBERS = ("0", "7", "-3", "1_0", "2.5", "-.5", "-6.5e-06", "-1E+2", "1e3", "nan", "inf")
_INTEGERS = _NUMBERS[:4]
_TEXTS = ("1,2", "24x12", "-", "", " 5", "a=b")
_ODD_VALUES = ("--", "-x", "-h", "--rate", "-1 ", "-inf", "xyz", "gad", "all")
# words outside the well-formed set: help, "--", strays, a subcommand, a short flag
_ODD_WORDS = ("-h", "--help", "--", "-", "stray", "derive", "-x", "--bogus", "--rate=")


def _option_words(flag, kwargs):
    """One option of the table as well-formed argv words, in either form."""
    if "action" in kwargs:
        return st.just([flag])
    if "choices" in kwargs:
        pool = kwargs["choices"]
    else:
        pool = {float: _NUMBERS, int: _INTEGERS}.get(kwargs.get("type"), _NUMBERS + _TEXTS)
    value = st.sampled_from(pool)
    return value.map(lambda text: [flag, text]) | value.map(lambda text: [f"{flag}={text}"])


def _odd_words(options):
    """Words the reader must leave to argparse, or read exactly as argparse does."""
    valued = [flag for flag, kwargs in options if "action" not in kwargs]
    chosen = [flag for flag, kwargs in options if "choices" in kwargs]
    switches = [flag for flag, kwargs in options if "action" in kwargs] or ["--scaled"]
    # numbers are left out of the spaced form, which reads them well formed
    value = st.sampled_from(_NUMBERS + _TEXTS + _ODD_VALUES)
    odd_value = st.sampled_from(_TEXTS + _ODD_VALUES)

    def spaced(flags, values):
        return st.tuples(st.sampled_from(flags), values).map(list)

    def joined(flags, values):
        return st.tuples(st.sampled_from(flags), values).map(lambda pair: ["=".join(pair)])

    return st.one_of(
        spaced(valued, odd_value),
        joined(valued, value),
        spaced(chosen, value),
        joined(chosen, value),
        joined(switches, value),
        # a valued flag without its value
        st.sampled_from(valued).map(lambda flag: [flag]),
        # abbreviations, the whole flag among them
        st.sampled_from([flag for flag, _ in options]).flatmap(
            lambda flag: st.integers(3, len(flag)).map(lambda end: [flag[:end]])
        ),
        st.sampled_from(_ODD_WORDS).map(lambda word: [word]),
    )


@st.composite
def _subcommand_argv(draw, odd_groups=0):
    """A subcommand's well-formed options, repeats among them, with odd words put in."""
    command = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    options = cli._SUBCOMMANDS[command][1]
    option = st.sampled_from(options).flatmap(lambda entry: _option_words(*entry))
    groups = draw(st.lists(option, max_size=5))
    for _ in range(odd_groups):
        groups.insert(draw(st.integers(0, len(groups))), draw(_odd_words(options)))
    return [command, *(word for group in groups for word in group)]


@settings(max_examples=300, deadline=None)
@given(argv=_subcommand_argv(odd_groups=1))
@example(argv=["derive", "--config=--"])
@example(argv=["figure", "--temperatures", "-1", "--times=-", "--grid", ""])
def test_reader_reads_argv_as_the_whole_tree(argv):
    assert _outcome(cli._parse_args, argv) == _outcome(cli.build_parser().parse_args, argv)


@settings(max_examples=200, deadline=None)
@given(argv=_subcommand_argv())
@example(argv=["derive", "--omega", "-6.5e-06", "--theta=nan", "--steps", "1_0"])
def test_reader_takes_well_formed_argv(argv):
    assert cli._read_options(argv[0], argv[1:]) is not None
    assert _outcome(cli._parse_args, argv) == _outcome(cli.build_parser().parse_args, argv)


_WELL_FORMED_CALLS = [
    ("derive", "--channel", "gad", "--scaled", "--theta", "1", "--omega=-6.5e-06",
     "--tau", "0.5"),
    ("verify", "--channel", "pd", "--tol", "1e-9"),
    ("figure", "--figure", "volume_rate", "--temperatures", "100", "--t-start", "0",
     "--t-end", "1", "--steps", "3"),
]


@pytest.mark.parametrize("argv", _WELL_FORMED_CALLS, ids=itemgetter(0))
def test_well_formed_call_builds_no_parser(capsys, monkeypatch, tmp_path, argv):
    if argv[0] == "figure":
        argv = (*argv, "--output", str(tmp_path))

    def outcome():
        result = run_cli(capsys, *argv)
        files = {path.name: path.read_bytes() for path in sorted(tmp_path.iterdir())}
        for path in tmp_path.iterdir():
            path.unlink()
        return result, files

    expected = outcome()
    assert expected[0][0] == 0

    def build_parser():
        raise AssertionError("a well-formed call built the argparse tree")

    monkeypatch.setattr(cli, "build_parser", build_parser)
    assert outcome() == expected


def test_negative_exponent_number_is_an_option_value(capsys):
    argv = ("derive", "--channel", "gad", "--scaled", "--theta", "1", "--tau", "1")
    code, spaced, _ = run_cli(capsys, *argv, "--omega", "-6.5e-06")
    assert code == 0
    assert run_cli(capsys, *argv, "--omega=-6.5e-06") == (0, spaced, "")


# a physical GAD bath, as config keys and as the flags of the same names
_BATH = {"alpha": 0.02, "omega0": 10, "cutoff": 15, "temperature": 100}


@pytest.mark.parametrize(
    "argv, config",
    [
        (("verify", "--channel", "pd"), {"tolerances": {"pd_completeness": "abc"}}),
        (("figure", "--figure", "volume_rate", "--temperatures", "100",
          "--t-start", "0", "--t-end", "1", "--steps", "3"), {"bath": {"alpha": "x"}}),
        # the derive header echoes the parameterization, which must not write NaN
        (("derive", "--channel", "pd", "--t", "1"),
         {"parameterization": {"kind": "rates", "rate": 1, "note": float("nan")}}),
        # values and sections of the wrong JSON type
        (("derive", "--channel", "pd", "--t", "1"),
         {"parameterization": {"kind": "rates", "rate": [1]}}),
        (("derive", "--channel", "pd", "--t", "1"), {"parameterization": [1, 2]}),
        (("derive", "--channel", "gad", "--t", "1"), {"parameterization": {"kind": "bogus"}}),
        # a step count is not truncated to an integer
        (("derive", "--channel", "pd", "--rate", "1"),
         {"time_grid": {"start": 0, "end": 1, "steps": 2.5}}),
        # a JSON boolean is not a number, though float() reads it as one
        (("verify", "--channel", "gad"), {"tolerances": {"gad_choi_spectrum": True}}),
        (("derive", "--channel", "pd", "--rate", "1", "--t", "1"), {"weight_cutoff": False}),
        (("figure", "--figure", "volume_rate", "--temperatures", "100",
          "--t-start", "0", "--t-end", "1", "--steps", "3"), {"bath": {"alpha": True}}),
        (("derive", "--channel", "pd", "--t", "1"),
         {"parameterization": {"kind": "rates", "rate": True}}),
        # "shift" is a JSON boolean, not read by truthiness
        *((("derive", "--channel", "gad", "--t", "1"),
           {"parameterization": {"kind": "physical", "shift": value, **_BATH}})
          for value in ("false", 0, 1, [])),
    ],
)
def test_config_file_values_are_config_errors(capsys, tmp_path, argv, config):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out_path = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv, "--config", str(path), "--output", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not out_path.exists()


def test_config_file_shift_true_is_the_shift_flag(capsys, tmp_path):
    # "shift" is the one parameterization key that is a boolean
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"parameterization": {"kind": "physical", "shift": True, **_BATH}}))
    argv = ("derive", "--channel", "gad", "--t", "0.3")
    code, out, _ = run_cli(capsys, *argv, "--config", str(config))
    flags = [f"--{key}={value}" for key, value in _BATH.items()]
    code_flags, out_flags, _ = run_cli(capsys, *argv, "--physical", "--shift", *flags)
    assert code == code_flags == 0
    assert json.loads(out)["points"] == json.loads(out_flags)["points"]


def test_config_file_shift_error_names_the_value(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"parameterization": {"kind": "physical", "shift": "false", **_BATH}}))
    code, out, err = run_cli(capsys, "derive", "--channel", "gad", "--t", "0.3", "--config", str(config))
    assert (code, out) == (2, "")
    assert err == 'config error: shift must be true or false, got "false"\n'


@pytest.mark.parametrize("shift", [False, None])
def test_config_file_shift_false_or_null_is_no_shift(capsys, tmp_path, shift):
    argv = ("derive", "--channel", "gad", "--t", "0.3")
    points = []
    for param in ({"kind": "physical", **_BATH}, {"kind": "physical", "shift": shift, **_BATH}):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"parameterization": param}))
        code, out, _ = run_cli(capsys, *argv, "--config", str(config))
        assert code == 0
        points.append(json.loads(out)["points"])
    assert points[0] == points[1]
    assert points[0][0]["rates"]["x"] == 0.0


def test_non_finite_point_exits_3_without_writing(capsys, tmp_path, monkeypatch):
    def poisoned_stack(propagators, cutoff):
        stack = kraus_stack(propagators, cutoff)
        values = stack.values.copy()
        values[1, 0] = np.inf
        return stack._replace(values=values)

    monkeypatch.setattr(cli, "kraus_stack", poisoned_stack)
    out_path = tmp_path / "pd.json"
    code, out, err = run_cli(
        capsys, "derive", "--channel", "pd", "--rate", "1", "--t-start", "0",
        "--t-end", "1", "--steps", "3", "--output", str(out_path),
    )
    assert code == 3
    assert err.startswith("pipeline error:") and "t=0.5" in err
    assert out == ""
    assert not out_path.exists()


def test_render_points_raises_on_non_finite_member():
    times = np.array([0.1, 0.5])
    stack = kraus_stack(propagate(pd_mod.pd_L(pd_mod.PdParams(1.0)), times))
    operators = stack.operators.copy()
    operators[0, 1, 0, 0] = np.nan
    with pytest.raises(KrausForgeError):
        cli._render_points(stack._replace(operators=operators), times, None, [("rate", "1.0")])


def _number(low, high):
    # a config file may hold integers, which the header echoes as integers
    return st.one_of(st.integers(math.ceil(low), math.floor(high)), st.floats(low, high))


@st.composite
def _derive_cases(draw):
    route = draw(st.sampled_from(("pd", "gad_scaled", "gad_rates")))
    if route == "pd":
        channel, kind, values = "pd", "rates", {"rate": draw(_number(0, 5))}
    elif route == "gad_scaled":
        # omega = -2 is zero temperature, where the cutoff drops operators
        omega = draw(st.one_of(st.just(-2), st.floats(-2, -1e-3)))
        channel, kind, values = "gad", "scaled", {"theta": draw(_number(-50, 50)), "omega": omega}
    else:
        z = draw(st.one_of(st.just(0), _number(0, 3)))  # z = 0: omega = -2
        values = {"x": draw(_number(-5, 5)), "y": z + draw(_number(0.1, 3)), "z": z}
        channel, kind = "gad", "rates"
    start = draw(st.floats(0, 1))
    return channel, kind, values, start, start + draw(st.floats(0, 3)), draw(st.integers(1, 60))


def _reference_document(channel, param, times):
    # the document as derive built it before it rendered points from the
    # arrays: a dict tree with kraus_set_to_dict of each point's Kraus set,
    # encoded by json.dumps
    taus = times
    if channel == "pd":
        params = pd_mod.PdParams(param["rate"])
        generator, route = pd_mod.pd_L(params), {"rate": params.r}
    elif param["kind"] == "scaled":
        scaled = gad_mod.GadScaled(param["theta"], param["omega"], 0.0)
        generator, route = gad_mod.gad_L_scaled(scaled), {}
    else:
        rates = gad_mod.GadRates(param["x"], param["y"], param["z"])
        scaled = gad_mod.rescale(rates, 1.0)
        generator, taus = gad_mod.gad_L(rates), scaled.tau * times
        route = {"rates": {"x": rates.x, "y": rates.y, "z": rates.z}}
    stack = kraus_stack(propagate(generator, times))
    points = []
    rows = zip(times.tolist(), taus.tolist(), stack.values.tolist())
    for k, (t, tau, values) in enumerate(rows):
        kraus_doc = kraus_set_to_dict(stack.kraus_set(k))
        point = {
            "t": t,
            "kraus": kraus_doc,
            "choi_eigenvalues": values,
            "completeness_residual": kraus_doc["diagnostics"]["completeness_residual"],
        }
        if channel == "gad":
            point["scaled"] = {"theta": scaled.theta, "omega": scaled.omega, "tau": tau}
        point.update(route)
        points.append(point)
    return {"channel": channel, "parameterization": param, "points": points}


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_derive_cases(), via_config=st.booleans())
# x = -0.0 is given, so it is echoed as -0.0 in the rates and theta too
@example(case=("gad", "rates", {"x": -0.0, "y": 1, "z": 0}, 0.0, 0.0, 1), via_config=False)
def test_derive_text_equals_json_dumps_of_the_dict_documents(capsys, tmp_path, case, via_config):
    channel, kind, values, start, end, steps = case
    argv = ["derive", "--channel", channel, "--t-start", repr(start), f"--t-end={end!r}",
            "--steps", str(steps)]
    if via_config:
        param = {"kind": kind, **values}
        config = tmp_path / "derive.json"
        config.write_text(json.dumps({"parameterization": param}))
        argv += ["--config", str(config)]
    else:
        param = {"kind": kind, **{key: float(value) for key, value in values.items()}}
        argv += [f"--{kind}", *(f"--{key}={value!r}" for key, value in values.items())]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    times = np.linspace(start, end, steps) if steps > 1 else np.array([start])
    expected = json.dumps(_reference_document(channel, param, times), indent=2) + "\n"
    assert out == expected


_IMPORT_SCRIPT = """
import json, sys
before = set(sys.modules)
import kraus_forge.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names))))
"""


def _fresh_python(*args) -> subprocess.CompletedProcess:
    # a new interpreter that imports the package under test
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_runtime_imports_numpy_and_nothing_else_outside_the_stdlib():
    # the package promises a numpy-only runtime; the test extras stay out
    run = _fresh_python("-c", _IMPORT_SCRIPT)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == ["kraus_forge", "numpy"]


_COLD_START_SCRIPT = """
import contextlib, io, json, sys
import numpy
before = set(sys.modules)
import kraus_forge.cli
imported = set(sys.modules) - before
with contextlib.redirect_stdout(io.StringIO()):
    code = kraus_forge.cli.main(sys.argv[1:])
called = set(sys.modules) - before - imported
print(json.dumps([code, sorted(imported), sorted(called)]))
"""


def test_cli_import_and_a_derive_call_load_no_dataclasses_polynomial_or_argparse():
    # modules the CLI import and a well-formed call need not load after numpy
    argv = ["derive", "--channel", "gad", "--physical", "--alpha", "0.02", "--omega0", "10",
            "--cutoff", "15", "--temperature", "100", "--shift", "--t", "0.3"]
    run = _fresh_python("-c", _COLD_START_SCRIPT, *argv)
    assert run.returncode == 0, run.stderr
    code, imported, called = json.loads(run.stdout)
    assert code == 0
    unused = ("dataclasses", "numpy.polynomial", "argparse")
    for loaded in (imported, called):
        assert [name for name in loaded if name.startswith(unused)] == []


def test_readme_library_block_runs():
    # the README's one python block, "Library in one minute", with warnings as errors
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    run = _fresh_python("-W", "error", "-c", blocks[0])
    assert run.returncode == 0, run.stderr
