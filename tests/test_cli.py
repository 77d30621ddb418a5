"""Config validation, report determinism, exit-status contract of the CLI."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from dirachydro.cli import load_schema, main, run, validate_config
from dirachydro.dynamics import DynState, integrate
from dirachydro.fields import ELECTRON, Particle, provider_from_config
from dirachydro.io import TRAJECTORY_COLUMNS, load_grid_fields
from dirachydro.kinematics import gamma_of_beta

DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

RESIDUAL_FIELD_NAMES = (
    "continuity_first_order",
    "hamilton_jacobi_first_order",
    "continuity_bilinear",
    "qhj_bilinear",
    "qhj_imag_bilinear",
    "continuity_expanded",
    "qhj_expanded",
)


def _write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _verify_config(**overrides):
    config = {"command": "verify", "seed": 1, "verify": {"samples": 50}}
    config["verify"].update(overrides)
    return config


def _simulate_config(**evolution):
    payload = {
        "command": "simulate",
        "seed": 0,
        "fields": {"kind": "uniform", "B0": [0.0, 0.0, 1.0]},
        "initial_state": {"beta": [0.0, 0.0, 0.0], "spin": [1.0, 0.0, 0.0]},
        "evolution": {"ds": 0.01, "n_steps": 700, "fit_frequency": True,
                      "fit_axis": [0.0, 0.0, 1.0]},
    }
    payload["evolution"].update(evolution)
    return payload


def _plane_wave_simulate_config(kind="particle"):
    payload = _simulate_config(ds=0.05, n_steps=200, fit_frequency=False)
    payload["fields"] = {"kind": "plane-wave", "wave_vector": [1.0, 0.0, 0.0, 1.0],
                         "polarization": [1.0, 0.0, 0.0], "amplitude": 0.8}
    payload["initial_state"]["beta"] = [0.0, 0.3, 0.0]
    payload["particle"] = {"kind": kind}
    return payload


def _residuals_config():
    return {
        "command": "residuals",
        "seed": 0,
        "grid": {"active_axes": [0, 1], "shape": [17, 17], "spacing": [0.02, 0.02]},
        "configuration": {"type": "plane-wave", "kind": "particle"},
    }


def test_schema_loads_and_demo_configs_validate():
    schema = load_schema()
    assert schema["type"] == "object"
    demo_files = sorted(DEMO_CONFIGS.glob("*.json"))
    assert len(demo_files) == 4
    for path in demo_files:
        assert validate_config(json.loads(path.read_text())) == []


def test_validate_config_messages_are_located_and_sorted():
    assert validate_config({}) != []
    top = validate_config({})[0]
    assert top.startswith("config key (top level):")

    messages = validate_config({"command": "bogus", "verify": {"samples": 3}})
    assert len(messages) == 2
    # sorted by config path: command before verify/samples
    assert messages[0].startswith("config key command:")
    assert messages[1].startswith("config key verify/samples:")

    unknown = validate_config({"command": "verify", "mystery": 1})
    assert any("(top level)" in msg for msg in unknown)


def test_run_report_is_deterministic(tmp_path):
    config = _verify_config()
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert run(config, out_dir=first, quiet=True) == 0
    assert run(config, out_dir=second, quiet=True) == 0

    report = json.loads((first / "report.json").read_text())
    assert set(report) == {"command", "seed", "results", "max_abs_residuals", "timing"}
    assert report["timing"] == {"recorded_in": "metadata.json"}
    assert report["command"] == "verify" and report["seed"] == 1
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
    # wall-clock state is quarantined in its own file
    assert (first / "metadata.json").exists()


def test_seed_flag_overrides_config(tmp_path, capsys):
    path = _write_config(tmp_path, _verify_config())
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "--seed", "7", "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 7
    assert all(suite["seed"] == 7 for suite in report["results"])


def test_simulate_writes_trajectory_and_fit(tmp_path, capsys):
    path = _write_config(tmp_path, _simulate_config())
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "fitted precession frequency" in printed and "report:" in printed

    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == ",".join(TRAJECTORY_COLUMNS)
    fit_lines = (out / "fit.csv").read_bytes().decode().split("\r\n")
    assert fit_lines[0] == "frequency,axis_x,axis_y,axis_z,rms_residual,total_angle"
    assert len(fit_lines) == 3 and fit_lines[2] == ""  # two rows, each ended by CRLF

    report = json.loads((out / "report.json").read_text())
    # resting electron in unit B precesses at exactly the Larmor rate
    assert report["results"]["fit"]["frequency"] == pytest.approx(1.0, abs=1e-6)
    assert report["max_abs_residuals"]["mass_shell_drift"] < 1e-9


def test_spin_norm_drift_measures_the_exact_propagator(tmp_path):
    """Constant-field rows are returned unrescaled: the drift is the propagator's roundoff."""
    out = tmp_path / "out"
    assert main(["--config", str(DEMO_CONFIGS / "rest_in_B.json"), "--out", str(out),
                 "--quiet"]) == 0
    drift = json.loads((out / "report.json").read_text())["max_abs_residuals"]["spin_norm_drift"]
    # a renormalised row would read at most 1 ulp, np.finfo(float).eps
    assert np.finfo(float).eps < drift < 1e-12


def test_spin_norm_drift_measures_rk4(tmp_path):
    """Sampled-field rows are not rescaled either: the drift is RK4's spin error."""
    path = _write_config(tmp_path, _plane_wave_simulate_config())
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "--quiet"]) == 0
    drift = json.loads((out / "report.json").read_text())["max_abs_residuals"]["spin_norm_drift"]
    # a renormalised row would read at most 1 ulp, np.finfo(float).eps = 2.2e-16
    assert 2.3e-16 < drift < 1e-6


def test_antiparticle_orbit_is_the_opposite_charge_orbit(tmp_path):
    """simulate moves an antiparticle as the particle with its charge negated, bit for bit."""
    config = _plane_wave_simulate_config(kind="antiparticle")
    out = tmp_path / "out"
    assert run(config, out_dir=str(out), fmt="json", quiet=True) == 0
    data = json.loads((out / "trajectory.json").read_text())["data"]
    written = np.column_stack([data[name] for name in TRAJECTORY_COLUMNS])

    beta = np.array(config["initial_state"]["beta"])
    gamma = gamma_of_beta(beta)
    state = DynState(x=np.zeros(4), u=np.concatenate([[gamma], gamma * beta]),
                     s_rest=np.array(config["initial_state"]["spin"]))
    provider = provider_from_config(config["fields"])
    evolution = config["evolution"]

    def orbit(particle):
        traj = integrate(state, provider, ds=evolution["ds"], n_steps=evolution["n_steps"],
                         particle=particle)
        return np.column_stack([traj.s, traj.x, traj.u, traj.s_rest])

    np.testing.assert_array_equal(written, orbit(Particle(charge=-ELECTRON.charge)))
    assert not np.array_equal(written, orbit(ELECTRON))


def test_format_flag_switches_trajectory_artifact(tmp_path):
    path = _write_config(tmp_path, _simulate_config(n_steps=50, fit_frequency=False))
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "--format", "json", "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["artifact"] == "trajectory.json"
    payload = json.loads((out / "trajectory.json").read_text())
    assert payload["format"] == "dirachydro-trajectory-v1"
    assert len(payload["data"]["s"]) == 51


def test_residuals_artifacts_both_formats(tmp_path):
    path = _write_config(tmp_path, _residuals_config())
    csv_out = tmp_path / "csv_out"
    assert main(["--config", path, "--out", str(csv_out), "--quiet"]) == 0
    report = json.loads((csv_out / "report.json").read_text())
    assert report["results"]["artifact"] == "residual_fields.csv"
    assert set(report["max_abs_residuals"]) == set(RESIDUAL_FIELD_NAMES)
    # the configured state is an exact solution, so every grid is at roundoff
    assert max(report["max_abs_residuals"].values()) < 1e-10
    header = (csv_out / "residual_fields.csv").read_text().splitlines()[0]
    assert header.split(",")[:2] == ["t", "x"]
    assert set(header.split(",")[2:]) == set(RESIDUAL_FIELD_NAMES)

    json_out = tmp_path / "json_out"
    assert main(["--config", path, "--out", str(json_out), "--format", "json",
                 "--quiet"]) == 0
    spec, grids = load_grid_fields(json_out / "residual_fields.json")
    assert spec.shape == (17, 17)
    assert set(grids) == set(RESIDUAL_FIELD_NAMES)


def test_fisher_report_contents(tmp_path):
    config = {
        "command": "fisher",
        "seed": 3,
        "fields": {"kind": "uniform", "E0": [0.0, 0.02, 0.0], "B0": [0.0, 0.0, 0.05]},
        "grid": {"active_axes": [0, 1], "shape": [17, 17], "spacing": [0.025, 0.025]},
        "configuration": {"type": "perturbed-plane-wave", "amplitude": 0.001},
        "fisher": {"depth": 2},
    }
    path = _write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "--quiet"]) == 0
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["configuration_type"] == "perturbed-plane-wave"
    assert results["depth"] == 2
    assert np.isfinite(results["fisher_information"])
    functional = results["functional"]
    assert set(functional) == {"fisher_term", "lagrangian_term", "total",
                               "volume_element"}
    assert functional["total"] == pytest.approx(
        functional["fisher_term"] + functional["lagrangian_term"]
    )


def test_exit_status_contract(tmp_path, capsys):
    out = str(tmp_path / "out")

    assert main(["--config", str(tmp_path / "absent.json"), "--out", out]) == 2
    assert "cannot read config" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text('{"command": "verify",\n  "seed": }')
    assert main(["--config", str(broken), "--out", out]) == 2
    assert "config parse error at line 2" in capsys.readouterr().err

    invalid = _write_config(tmp_path, _verify_config(samples=3), name="invalid.json")
    assert main(["--config", invalid, "--out", out]) == 2
    assert "config key verify/samples" in capsys.readouterr().err

    # schema-valid, but the module refuses the velocity direction
    refused_payload = _residuals_config()
    refused_payload["configuration"]["phi"] = 0.3
    refused = _write_config(tmp_path, refused_payload, name="refused.json")
    assert main(["--config", refused, "--out", out]) == 2
    assert "config rejected" in capsys.readouterr().err

    runaway = _write_config(
        tmp_path,
        {
            "command": "simulate",
            "fields": {"kind": "uniform", "E0": [1e6, 0.0, 0.0]},
            "initial_state": {"spin": [0.0, 0.0, 1.0]},
            "evolution": {"ds": 10.0, "n_steps": 50},
        },
        name="runaway.json",
    )
    assert main(["--config", runaway, "--out", out, "--quiet"]) == 3
    assert "failing step index" in capsys.readouterr().err

    still = _write_config(
        tmp_path,
        {
            "command": "simulate",
            "fields": {"kind": "uniform", "B0": [0.0, 0.0, 0.0]},
            "initial_state": {"spin": [0.0, 0.0, 1.0]},
            "evolution": {"ds": 0.01, "n_steps": 100, "fit_frequency": True},
        },
        name="still.json",
    )
    assert main(["--config", still, "--out", out, "--quiet"]) == 3
    assert "numerical failure" in capsys.readouterr().err

    failing = _write_config(
        tmp_path, _verify_config(tolerance_scale=1e-30), name="failing.json"
    )
    assert main(["--config", failing, "--out", out, "--quiet"]) == 1


def test_non_finite_residual_exits_as_numerical_failure(tmp_path, capsys):
    # rho0 sits below the density floor everywhere, so every qhj point is
    # masked as vacuum without a division warning
    payload = json.loads((DEMO_CONFIGS / "plane_wave_residuals.json").read_text())
    payload["configuration"]["rho_value"] = 1e-305
    path = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", path, "--out", str(out), "--quiet"]) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert "numerical failure" in err and "qhj_bilinear" in err
    assert "config rejected" not in err
    assert not any(out.iterdir())


def test_fisher_non_finite_residual_exits_as_numerical_failure(tmp_path, capsys):
    # the vacuum-masked qhj is NaN; it used to surface as a JSON encoding
    # error reported as "config rejected" (exit 2)
    payload = json.loads((DEMO_CONFIGS / "plane_wave_residuals.json").read_text())
    payload["command"] = "fisher"
    payload["configuration"]["rho_value"] = 1e-305
    path = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", path, "--out", str(out), "--quiet"]) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert "numerical failure" in err and "qhj_expanded" in err
    assert "config rejected" not in err and "Warning" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("rho_value", [1e-150, 1e-200, 1e-250, 1e-299])
def test_tiny_density_above_the_floor_stays_finite(tmp_path, rho_value):
    # rho0**2 is subnormal or zero below about 1e-154; the bilinear evaluator
    # divides the gradient by rho0 instead of squaring rho0
    payload = _residuals_config()
    payload["configuration"]["rho_value"] = rho_value
    path = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", path, "--out", str(out), "--quiet"]) == 0
    assert caught == []
    max_abs = json.loads((out / "report.json").read_text())["max_abs_residuals"]
    assert max_abs["qhj_bilinear"] < 1e-6


def test_overflowing_rapidity_is_rejected_by_name(tmp_path, capsys):
    payload = _residuals_config()
    payload["configuration"]["chi"] = 800
    path = _write_config(tmp_path, payload)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "config rejected" in err and "chi" in err
    assert "Warning" not in err
    assert caught == []
