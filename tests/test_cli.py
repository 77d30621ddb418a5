"""Config validation, report determinism, exit-status contract of the CLI."""

import contextlib
import copy
import dataclasses
import filecmp
import importlib.util
import io
import json
import mmap
import os
import subprocess
import sys
import tempfile
import types
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from conftest import child_env, draw_transverse_unit, draw_unit
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirachydro import _parts, cli
from dirachydro.cli import load_schema, main, run, validate_config
from dirachydro.dynamics import DynState, integrate
from dirachydro.errors import ContractError, NonFiniteResultError
from dirachydro.fields import ELECTRON, Particle, provider_from_config
from dirachydro.io import TRAJECTORY_COLUMNS, load_grid_fields
from dirachydro.kinematics import gamma_of_beta
from dirachydro.schema import schema_errors

DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
BENCH_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

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


def _oracle_errors(schema, instance):
    """(path, message) of every violation as jsonschema reports it, sorted."""
    validator = jsonschema.Draft202012Validator(schema)
    return sorted((tuple(e.absolute_path), e.message) for e in validator.iter_errors(instance))


def _oracle_messages(config):
    """What validate_config printed when it ran jsonschema: sorted by path only."""
    validator = jsonschema.Draft202012Validator(load_schema())
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path))
    return [f"config key {'/'.join(map(str, e.absolute_path)) or '(top level)'}: {e.message}"
            for e in errors]


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _bench_round_configs(seed=0):
    workloads = _bench_workloads()
    return [job["config"] for workload in workloads.WORKLOADS
            for job in workloads.round_jobs(workload, seed, 0)]


BASE_CONFIGS = ([json.loads(path.read_text()) for path in sorted(DEMO_CONFIGS.glob("*.json"))]
                + _bench_round_configs())


def _schema_keys(schema):
    """Every property name the schema defines, at any depth."""
    keys = set()
    for path, node in _nodes(schema):
        if path and path[-1] == "properties":
            keys.update(node)
    return sorted(keys)


def _nodes(value, path=()):
    """(path, value) of a JSON value and of everything inside it."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _nodes(item, path + (key,))


def _slots(config):
    """(container, key) of every value inside the config."""
    return [(node, key) for _, node in _nodes(config) if isinstance(node, (dict, list))
            for key in (node if isinstance(node, dict) else range(len(node)))]


def _fresh(values):
    # a mutation edits what it inserts, so no example may share a sampled object
    return st.sampled_from(values).map(copy.deepcopy)


# the traps of draft 2020-12 and the edges of every bound the schema sets
_LEAVES = st.one_of(
    _fresh([None, True, False, 0, 1, -1, 1.0, -0.0, 0.5, 3, 4, 5, 9, 10, 2**70,
            5e-324, 1e308, -1e308, "", "x", "bogus", [], {}]),
    st.integers(-20, 20), st.floats(allow_nan=False), st.text(max_size=3),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=8,
)
# values the schema gives meaning to, so an added key reaches deep keywords:
# uniqueItems and enum items (verify/suites), patternProperties (coefficients)
_SHAPED = _fresh([
    ["clifford", "kinematics"], ["clifford", "clifford"], ["lagrangian", "Clifford"], [1, True],
    {"0": [{"c": 1.0, "powers": [0, 1, 2, 3]}]}, {"0": [{"c": True, "powers": [0, 1, 4]}]},
    {"4": []}, {"0\n": [{"c": 1}]}, {"12": [], "3": [{"powers": [1.0, 0, 0, 0]}]},
    [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0], [0, 1, 2, 3, 4], [5, 5], [0.02, 0], [],
])
_STRINGS = st.one_of(
    st.sampled_from(["verify", "simulate", "residuals", "fisher", "uniform", "crossed",
                     "plane-wave", "custom-polynomial", "perturbed-plane-wave", "manufactured",
                     "particle", "antiparticle", "csv", "json", "npy", "Particle", "", "out"]),
    st.text(max_size=3),
)
_KEY_NAMES = st.sampled_from(_schema_keys(load_schema()) + ["mystery", "0", "3", "4", ""])


def _drop_key(draw, config):
    keyed = [(node, key) for node, key in _slots(config) if isinstance(node, dict)]
    if keyed:
        node, key = draw(st.sampled_from(keyed))
        del node[key]
    return config


def _add_key(draw, config):
    objects = [node for _, node in _nodes(config) if isinstance(node, dict)]
    if objects:
        node = draw(st.sampled_from(objects))
        name = draw(_KEY_NAMES)
        node[name] = draw(st.one_of(_VALUES, _SHAPED))
    return config


def _change_type(draw, config):
    slots = _slots(config)
    if not slots:
        return draw(_VALUES)
    node, key = draw(st.sampled_from(slots))
    node[key] = draw(st.one_of(_LEAVES, _SHAPED))
    return config


def _out_of_range(draw, config):
    numbers = [(node, key) for node, key in _slots(config)
               if isinstance(node[key], (int, float)) and not isinstance(node[key], bool)]
    if numbers:
        node, key = draw(st.sampled_from(numbers))
        node[key] = draw(st.one_of(
            st.sampled_from([-1, 0, -0.0, 1, 1.0, 3, 4, 4.0, 5, 9, 10, 1.5, 1e-300, 2**70]),
            st.integers(-10, 12), st.floats(allow_nan=False)))
    return config


def _outside_enum(draw, config):
    strings = [(node, key) for node, key in _slots(config) if isinstance(node[key], str)]
    if strings:
        node, key = draw(st.sampled_from(strings))
        node[key] = draw(_STRINGS)
    return config


def _resize_array(draw, config):
    arrays = [node for _, node in _nodes(config) if isinstance(node, list)]
    if arrays:
        array = draw(st.sampled_from(arrays))
        if array and draw(st.booleans()):
            del array[draw(st.integers(0, len(array) - 1))]
        else:
            array.append(draw(_fresh(array) if array else _LEAVES))
    return config


def _break_if_then(draw, config):
    # another command selects another "then": its required sections go missing
    if isinstance(config, dict):
        config["command"] = draw(st.sampled_from(["verify", "simulate", "residuals", "fisher"]))
    return config


_MUTATIONS = (_drop_key, _add_key, _change_type, _out_of_range, _outside_enum, _resize_array,
              _break_if_then)


@settings(max_examples=200)
@given(st.data())
def test_checker_agrees_with_jsonschema_on_mutated_configs(data):
    """On mutated demo and benchmark configs both validators report the same violations."""
    config = copy.deepcopy(data.draw(st.sampled_from(BASE_CONFIGS)))
    for mutation in data.draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=3)):
        config = mutation(data.draw, config)
    # same validity, same sorted paths with duplicates, same text in the same order
    assert validate_config(config) == _oracle_messages(config)


@pytest.mark.parametrize("schema, instance, valid", [
    # a bool is neither an integer nor a number
    ({"type": "integer"}, True, False),
    ({"type": "number"}, False, False),
    ({"type": "number", "minimum": 0}, True, False),
    # a number with a zero fractional part is an integer
    ({"type": "integer"}, 1.0, True),
    ({"type": "integer", "minimum": 1}, 1.0, True),
    ({"type": "integer"}, 1.5, False),
    # enum, const and uniqueItems do not take true for 1 or false for 0
    ({"enum": [1, 2]}, True, False),
    ({"enum": [True]}, 1, False),
    ({"enum": [0]}, False, False),
    ({"enum": [1]}, 1.0, True),
    ({"const": 1}, True, False),
    ({"const": False}, 0, False),
    ({"const": [1]}, [True], False),
    ({"uniqueItems": True}, [1, True], True),
    ({"uniqueItems": True}, [0, False], True),
    ({"uniqueItems": True}, [[1], [True]], True),
    ({"uniqueItems": True}, [1, 1.0], False),
    ({"uniqueItems": True}, [{"a": 1}, {"a": 1.0}], False),
    # an "if" that does not match applies no "then"
    ({"if": {"properties": {"a": {"const": 1}}}, "then": {"required": ["b"]}}, {"a": 2}, True),
    ({"if": {"properties": {"a": {"const": 1}}}, "then": {"required": ["b"]}}, {"a": 1}, False),
    # a missing property does not fail "properties", so the "if" matches
    ({"if": {"properties": {"a": {"const": 1}}}, "then": {"required": ["b"]}}, {}, False),
    # the same traps in the config schema
    (load_schema(), {"command": "verify", "seed": True}, False),
    (load_schema(), {"command": "verify", "seed": 1.0}, True),
    (load_schema(), {"command": "verify", "particle": {"mass": True}}, False),
    (load_schema(), {"command": "verify", "verify": {"samples": 10.0}}, True),
    (load_schema(), {"command": "verify", "verify": {"suites": ["clifford", "clifford"]}}, False),
    (load_schema(), {"command": "verify", "fields": {"kind": "custom-polynomial",
                                                     "coefficients": {"0": [], "4": []}}}, False),
])
def test_draft_2020_12_traps(schema, instance, valid):
    expected = _oracle_errors(schema, instance)
    assert (expected == []) == valid
    assert sorted(schema_errors(schema, instance)) == expected


@pytest.mark.parametrize("path, keyword, value", [
    (("properties", "grid", "properties", "shape"), "oneOf", [{"type": "array"}]),
    (("properties", "output", "properties", "directory"), "pattern", "^out"),
    (("$defs", "vec3", "items"), "exclusiveMaximum", 10),
    (("allOf", 0), "else", {"required": ["seed"]}),
    ((), "$id", "https://example.org/config"),
    (("properties", "fields", "properties", "E0"), "$ref", "#/$defs/vec5"),
    (("properties", "fields", "properties", "E0"), "$ref", "other.json#/$defs/vec3"),
    (("properties", "particle"), "additionalProperties", {"type": "number"}),
])
def test_checker_refuses_keywords_it_does_not_implement(path, keyword, value):
    schema = load_schema()
    node = schema
    for key in path:
        node = node[key]
    node[keyword] = value
    with pytest.raises(ValueError, match="unsupported"):
        schema_errors(schema, {"command": "verify"})


def test_cli_import_and_validation_load_no_jsonschema():
    code = ("import json, sys; from dirachydro import cli; "
            "problems = cli.validate_config(json.loads(open(sys.argv[1]).read())); "
            "print(json.dumps([problems, 'jsonschema' in sys.modules]))")
    child = subprocess.run([sys.executable, "-c", code, str(DEMO_CONFIGS / "rest_in_B.json")],
                           capture_output=True, text=True, env=child_env(), check=True)
    assert json.loads(child.stdout) == [[], False]


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


@pytest.mark.parametrize("payload", [_verify_config(), _residuals_config()],
                         ids=["verify", "residuals"])
def test_negative_seed_flag_is_refused_by_the_schema(tmp_path, capsys, payload):
    path = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "--seed", "-1", "--quiet"]) == 2
    assert "config key seed" in capsys.readouterr().err
    assert not out.exists()


def test_float_seed_runs_as_its_integer(tmp_path):
    """Draft 2020-12 counts 3.0 as an integer, so the schema lets it through."""
    payload = json.loads((DEMO_CONFIGS / "fisher_perturbed_wave.json").read_text())
    for seed in (3, 3.0):
        payload["seed"] = seed
        path = _write_config(tmp_path, payload, name=f"seed-{seed}.json")
        assert main(["--config", path, "--out", str(tmp_path / str(seed)), "--quiet"]) == 0
    report = tmp_path / "3.0" / "report.json"
    assert report.read_bytes() == (tmp_path / "3" / "report.json").read_bytes()
    assert json.loads(report.read_text())["seed"] == 3


@pytest.mark.parametrize("axis", [[0.0, 0.0, 0.0], [float("inf"), 0.0, 0.0]],
                         ids=["zero", "infinite"])
def test_bad_fit_axis_is_refused_before_anything_is_written(tmp_path, capsys, axis):
    path = _write_config(tmp_path, _simulate_config(fit_axis=axis))
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "--quiet"]) == 2
    assert "config rejected: axis must be finite and nonzero" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_a_constant_gauge_key_is_refused_by_the_schema(tmp_path, capsys):
    """A gauge shift is a GaugeShiftedProvider; the fields block has no key for one."""
    payload = _simulate_config()
    payload["fields"]["gauge"] = [0.5, 0.0, 0.0, 0.0]
    path = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "config key fields: Additional properties are not allowed ('gauge' was unexpected)" in err
    assert not out.exists()


@pytest.mark.parametrize("payload, message", [
    ({**_simulate_config(), "initial_state": {"spin": [0.0, 0.0, 0.0]}},
     "initial spin must be a nonzero vector"),
    ({**_residuals_config(), "configuration": {"type": "plane-wave", "amplitude": 0.1}},
     "amplitude does not apply to a plane-wave configuration"),
], ids=["zero-spin", "plane-wave-amplitude"])
def test_schema_valid_inputs_a_module_refuses(tmp_path, capsys, payload, message):
    path = _write_config(tmp_path, payload)
    assert main(["--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert f"config rejected: {message}" in capsys.readouterr().err


def test_rk4_blow_up_exits_3_before_anything_is_written(tmp_path, capsys):
    payload = _simulate_config(n_steps=2000, fit_frequency=False)
    payload["fields"] = {"kind": "custom-polynomial",
                         "coefficients": {"0": [{"c": 50.0, "powers": [0, 2, 0, 0]}]}}
    payload["initial_state"] = {"x": [0.0, 0.1, 0.0, 0.0], "spin": [0.0, 0.0, 1.0]}
    path = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "--quiet"]) == 3
    assert "dirachydro: failing step index 23" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_s_max_runs_as_its_step_count(tmp_path):
    """{ds: 0.01, s_max: 7} writes the bytes of {ds: 0.01, n_steps: 700}."""
    by_steps = _simulate_config()
    by_s_max = _simulate_config()
    del by_s_max["evolution"]["n_steps"]
    by_s_max["evolution"]["s_max"] = 7.0
    for name, payload in (("steps", by_steps), ("s_max", by_s_max)):
        path = _write_config(tmp_path, payload, name=f"{name}.json")
        assert main(["--config", path, "--out", str(tmp_path / name), "--quiet"]) == 0
    for artifact in ("report.json", "trajectory.csv"):
        assert ((tmp_path / "s_max" / artifact).read_bytes()
                == (tmp_path / "steps" / artifact).read_bytes())


def test_an_array_too_large_to_allocate_is_a_refused_config(tmp_path, capsys):
    """10^13 steps pass the schema; their trajectory table is refused at allocation."""
    path = _write_config(tmp_path, _simulate_config(n_steps=10_000_000_000_000))
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dirachydro: config rejected: Unable to allocate")
    assert "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("blocked", ["out-under-a-file", "artifact-is-a-directory"])
def test_an_output_that_cannot_be_written_exits_2(tmp_path, capsys, blocked):
    """An output directory that cannot be made, or an artifact that cannot be
    opened, is reported by its cause with status 2, not as a traceback."""
    path = _write_config(tmp_path, _simulate_config())
    if blocked == "out-under-a-file":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
    else:
        out = tmp_path / "out"
        (out / "trajectory.csv").mkdir(parents=True)
    assert main(["--config", path, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dirachydro: cannot write output: [Errno")
    assert "Traceback" not in err


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
    payload = _simulate_config(ds=0.05, n_steps=200, fit_frequency=False)
    # a potential with a non-uniform B and an E: no exact path, RK4 runs
    payload["fields"] = {"kind": "custom-polynomial", "coefficients": {
        "0": [{"c": 0.3, "powers": [0, 1, 0, 0]}],
        "1": [{"c": 0.4, "powers": [0, 0, 0, 2]}],
    }}
    payload["initial_state"]["beta"] = [0.0, 0.3, 0.0]
    path = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "--quiet"]) == 0
    drift = json.loads((out / "report.json").read_text())["max_abs_residuals"]["spin_norm_drift"]
    # a renormalised row would read at most 1 ulp, np.finfo(float).eps = 2.2e-16
    assert 2.3e-16 < drift < 1e-6


def test_overflowing_plane_wave_exits_as_numerical_failure(tmp_path, capsys):
    payload = _plane_wave_simulate_config()
    payload["fields"]["amplitude"] = 1e8
    path = _write_config(tmp_path, payload)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert "failing step index" in err and "Warning" not in err


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


# spacing so coarse that the trapezoid weights overflow: the lagrangian
# term and the total come out infinite while both sup-norms stay finite
FISHER_OVERFLOW = {
    "command": "fisher", "seed": 1, "fields": {"kind": "uniform", "B0": [0, 0, 1]},
    "grid": {"active_axes": [0, 1], "shape": [9, 9], "spacing": [1e152, 1e152]},
    "configuration": {"type": "perturbed-plane-wave", "kind": "particle",
                      "theta_u": 1.5707963267948966, "phi": 0},
}


def _huge_field_config(command):
    """A field so strong that the rest-frame field overflows."""
    return {
        "command": command, "seed": 1, "fields": {"kind": "uniform", "B0": [0, 0, 1.7e308]},
        "grid": {"active_axes": [0, 1], "shape": [9, 9], "spacing": [0.1, 0.1]},
        "configuration": {"type": "plane-wave"},
    }


@pytest.mark.parametrize("payload, quantity", [
    (FISHER_OVERFLOW, "results/functional/total"),
    (_huge_field_config("residuals"), "max_abs_residuals/qhj_expanded"),
    (_huge_field_config("fisher"), "max_abs_residuals/qhj_expanded"),
], ids=["fisher-spacing", "residuals-field", "fisher-field"])
def test_overflow_exits_as_numerical_failure(tmp_path, capsys, payload, quantity):
    # the infinite fisher functional used to surface as a JSON encoding
    # error reported as "config rejected" (exit 2); all three leaked warnings
    path = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", path, "--out", str(out), "--quiet"]) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert "numerical failure" in err and quantity in err
    assert "config rejected" not in err and "Warning" not in err
    assert not any(out.iterdir())


def test_spacing_whose_square_overflows_names_the_residual(tmp_path):
    # h**2 of a Python float raised OverflowError, reported as
    # "(34, 'Numerical result out of range')" with no quantity named
    payload = _residuals_config()
    payload["grid"]["spacing"] = [1e300, 0.1]
    path = _write_config(tmp_path, payload)
    child = subprocess.run(
        [sys.executable, "-m", "dirachydro.cli", "--config", path,
         "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True, text=True, env=child_env(),
    )
    assert child.returncode == 3
    assert "numerical failure" in child.stderr and "qhj_bilinear" in child.stderr
    assert "Traceback" not in child.stderr


@pytest.mark.parametrize("demo, key, quantity", [
    ("plane_wave_residuals", "mass", "max_abs_residuals/qhj_bilinear"),
    ("fisher_perturbed_wave", "hbar", "results/functional/fisher_term"),
], ids=["residuals-mass", "fisher-hbar"])
def test_particle_constant_whose_square_overflows_names_the_quantity(tmp_path, capsys, demo,
                                                                     key, quantity):
    # m**2 and hbar**2 of a Python float raised OverflowError, reported as
    # "(34, 'Numerical result out of range')" with no quantity named
    payload = json.loads((DEMO_CONFIGS / f"{demo}.json").read_text())
    payload.setdefault("particle", {})[key] = 1e200
    path = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", path, "--out", str(out), "--quiet"]) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert "numerical failure" in err and quantity in err
    assert "out of range" not in err and "Warning" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("block, key", [("fields", "amplitude"), ("particle", "mass")])
def test_integer_beyond_float64_exits_as_numerical_failure(tmp_path, capsys, block, key):
    # the particle converts its constants in cli, the plane wave its own amplitude
    payload = _huge_field_config("residuals")
    payload["fields"] = {"kind": "plane-wave"}
    payload.setdefault(block, {})[key] = 10**400
    path = _write_config(tmp_path, payload)
    assert main(["--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert "numerical failure" in capsys.readouterr().err


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


@settings(max_examples=30)
@given(st.data())
def test_extreme_plane_wave_simulate_exits_0_or_3_without_warnings(data):
    """Schema-valid plane-wave runs with extreme values never exit 2 and leak no warning."""
    draw = data.draw
    n = draw_unit(draw)
    pol = draw_transverse_unit(draw, n)
    omega = draw(st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(0.01, 10.0)))
    speed = draw(st.floats(0.0, 0.9))
    payload = {
        "command": "simulate",
        "particle": {"kind": draw(st.sampled_from(["particle", "antiparticle"]))},
        "fields": {
            "kind": "plane-wave",
            "wave_vector": [omega, *(omega * n).tolist()],
            "polarization": pol.tolist(),
            "amplitude": draw(st.one_of(st.sampled_from([0.0, 1e8, -1e8]),
                                        st.floats(-1e8, 1e8))),
        },
        "initial_state": {"x": list(draw(st.tuples(*[st.floats(-1e3, 1e3)] * 4))),
                          "beta": (speed * draw_unit(draw)).tolist(),
                          "spin": draw_unit(draw).tolist()},
        "evolution": {"ds": draw(st.floats(1e-3, 1e3)), "n_steps": draw(st.integers(1, 50)),
                      "fit_frequency": draw(st.booleans())},
        "output": {"format": draw(st.sampled_from(["csv", "json"]))},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(Path(tmp), payload)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = main(["--config", path, "--out", str(Path(tmp) / "out"), "--quiet"])
    assert status in (0, 3)
    assert caught == []


# schema-valid numbers: mostly moderate, the limits of float64 one draw in three
_LIMITS = [5e-324, 1e-300, 1e154, 1.7e308]
_ANY = st.one_of(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
                 st.sampled_from(_LIMITS + [-v for v in _LIMITS]))
_POSITIVE = st.one_of(st.floats(0.01, 10.0), st.floats(0.01, 10.0), st.sampled_from(_LIMITS))
_HALF_PI = 1.5707963267948966


@st.composite
def _grid_command_configs(draw):
    """Small schema-valid residuals and fisher configs with extreme values."""
    family = draw(st.sampled_from(["plane-wave", "perturbed-plane-wave", "manufactured"]))
    optional = {
        "kind": st.sampled_from(["particle", "antiparticle"]),
        "chi": _POSITIVE,
        # a plane wave's velocity must lie along x, the grid's one spatial axis
        "theta_u": st.sampled_from([_HALF_PI, _HALF_PI, 1.0]),
        "phi": st.sampled_from([0.0, 0.0, 0.3]),
        "theta": st.one_of(st.floats(0.0, np.pi), st.sampled_from([0.0, np.pi])),
        "eta0": _ANY,
        "rho_value": _POSITIVE,
    }
    if family != "plane-wave":
        optional["amplitude"] = st.one_of(st.just(0.0), _POSITIVE)
    configuration = {"type": family}
    for key, values in optional.items():
        if draw(st.booleans()):
            configuration[key] = draw(values)
    if draw(st.booleans()):
        fields = {"kind": "uniform", "E0": [draw(_ANY) for _ in range(3)],
                  "B0": [draw(_ANY) for _ in range(3)]}
    else:  # E0 . B0 = 0
        fields = {"kind": "crossed", "E0": [draw(_ANY), 0.0, 0.0],
                  "B0": [0.0, 0.0, draw(_ANY)]}
    return {
        "command": draw(st.sampled_from(["residuals", "fisher"])),
        "seed": draw(st.integers(0, 2**32)),
        "fields": fields,
        "grid": {"active_axes": [0, 1],
                 "shape": [draw(st.integers(5, 9)) for _ in range(2)],
                 "spacing": [draw(_POSITIVE) for _ in range(2)],
                 "origin": draw(st.sampled_from([[0.0] * 4, [draw(_ANY) for _ in range(4)]]))},
        "configuration": configuration,
        "particle": {"mass": draw(_POSITIVE), "charge": draw(_ANY), "hbar": draw(_POSITIVE)},
        "fisher": {"depth": draw(st.integers(0, 3))},
        "output": {"format": draw(st.sampled_from(["csv", "json"]))},
    }


@settings(max_examples=50)
@given(_grid_command_configs())
@example(FISHER_OVERFLOW)
# spacing whose square overflows: Python's float power raised OverflowError
@example({"command": "residuals",
          "grid": {"active_axes": [0, 1], "shape": [5, 5], "spacing": [1e300, 0.1]},
          "configuration": {"type": "plane-wave"}})
@example(_huge_field_config("residuals"))
@example(_huge_field_config("fisher"))
def test_extreme_grid_commands_exit_by_cause_without_warnings(payload):
    """Exit 2 only for a value a module refused, never for the JSON encoder; no warning leaks."""
    assert validate_config(payload) == []
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(Path(tmp), payload)
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            status = main(["--config", path, "--out", str(Path(tmp) / "out"), "--quiet"])
    err = stderr.getvalue()
    assert caught == []
    assert "JSON" not in err and "Warning" not in err
    # main maps only a module's ContractError to 2; anything else would escape it
    assert status in (0, 2, 3)
    assert (status == 2) == ("config rejected" in err)


# --- residual grids in slabs ------------------------------------------------

# a slab split forks and pins its runs with the CPU-affinity calls
_slabs = pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity"),
                            reason="needs os.fork and os.sched_setaffinity")

_SLAB_FIELDS = {
    "uniform": {"kind": "uniform", "E0": [0.01, -0.03, 0.02], "B0": [0.2, -0.5, 0.7]},
    "plane-wave": {"kind": "plane-wave", "wave_vector": [1.5, 0.0, 0.0, 1.5],
                   "polarization": [1.0, 0.0, 0.0], "amplitude": 0.05},
    "custom-polynomial": {"kind": "custom-polynomial", "coefficients": {
        "0": [{"c": 0.3, "powers": [0, 1, 0, 0]}],
        "2": [{"c": 0.2, "powers": [1, 0, 0, 2]}, {"c": -0.1, "powers": [0, 1, 1, 0]}]}},
}


def _slab_state(axes, rows, config_type, field, kind="particle", seed=0):
    """(fields, provider, particle) of a residuals config whose first axis has ``rows`` rows."""
    config = {
        "command": "residuals", "seed": seed,
        "grid": {"active_axes": list(axes), "shape": [rows] + [5] * (len(axes) - 1),
                 "spacing": [0.05 + 0.01 * k for k in range(len(axes))],
                 "origin": [0.3, -0.7, 0.1, 1.9]},
        "configuration": {"type": config_type, "kind": kind},
        "fields": _SLAB_FIELDS[field],
    }
    if config_type != "plane-wave":
        config["configuration"]["amplitude"] = 1e-3
    if config_type != "manufactured" and 1 not in axes:
        # a plane wave moves along x unless at rest
        config["configuration"]["chi"] = 0.0
    assert validate_config(config) == []
    particle, provider, fields = cli._grid_state(config, seed)
    return fields, provider, particle


def _with_vacuum(fields, row, seed):
    """The field set with rho = 0 at one point of the given row."""
    rho = fields.rho.copy()
    rng = np.random.default_rng(seed)
    rho[(row,) + tuple(int(rng.integers(0, n)) for n in fields.spec.shape[1:])] = 0.0
    return dataclasses.replace(fields, rho=rho)


def _whole_and_slabbed(fields, provider, particle, cores, slab_points, slabs):
    """The grids of one evaluation of the whole grid, and those of ``slabs`` slabs
    with the core count and slab size set."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        whole = cli._evaluated_grids(fields, provider, particle)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_parts, "usable_cores", lambda: cores)
            patch.setattr(cli, "_SLAB_POINTS", slab_points)
            assert cli._slab_count(fields.spec.shape, cores) == slabs
            slabbed = cli._residual_grids(fields, provider, particle)
    return whole, slabbed


def _assert_bitwise(whole, slabbed):
    """Equal as int64 views: the values, the NaN masks and the signs of zeros."""
    assert list(slabbed) == list(whole) == list(RESIDUAL_FIELD_NAMES)
    for name, grid in whole.items():
        np.testing.assert_array_equal(np.asarray(slabbed[name]).view(np.int64),
                                      np.asarray(grid).view(np.int64), err_msg=name)


@_slabs
@settings(max_examples=40)
@given(axes=st.sampled_from([(0,), (1,), (0, 1), (1, 3), (0, 1, 3), (0, 1, 2), (0, 1, 2, 3)]),
       slabs=st.integers(2, 4), data=st.data(),
       config_type=st.sampled_from(["plane-wave", "perturbed-plane-wave", "manufactured"]),
       field=st.sampled_from(sorted(_SLAB_FIELDS)),
       kind=st.sampled_from(["particle", "antiparticle"]), seed=st.integers(0, 2**16))
def test_slabbed_residual_grids_are_bitwise_the_whole_grid(axes, slabs, data, config_type,
                                                           field, kind, seed):
    """2 to 4 slabs, as many cores or fewer (several slabs to a core), on 1-D to
    4-D grids, with a vacuum point within 4 rows of a cut or none."""
    rows = data.draw(st.integers(max(5, 3 * slabs), 40), label="rows")
    fields, provider, particle = _slab_state(axes, rows, config_type, field, kind, seed)
    cores = data.draw(st.integers(1, slabs), label="cores")
    row_points = int(np.prod(fields.spec.shape[1:]))
    # fewer cores than slabs: slabs of ceil(rows / slabs) rows, halo included, by size
    slab_points = 1 << 40 if cores == slabs else (-(-rows // slabs) + 6) * row_points
    # rows from the cut to the vacuum point, or no vacuum point
    offset = data.draw(st.sampled_from([None, -4, -3, -2, -1, 0, 1, 2, 3]), label="offset")
    if offset is not None:
        cut = rows * data.draw(st.integers(1, slabs - 1), label="cut") // slabs
        fields = _with_vacuum(fields, min(rows - 1, max(0, cut + offset)), seed)
    _assert_bitwise(*_whole_and_slabbed(fields, provider, particle, cores, slab_points, slabs))


@_slabs
@pytest.mark.parametrize("offset", range(-4, 4))
def test_a_vacuum_point_near_a_cut_is_masked_as_on_the_whole_grid(offset):
    """The vacuum mask reaches 3 rows from a vacuum point, so a slab must read 3 rows
    past its own: a vacuum point 3 rows before the cut masks the slab's first row."""
    fields, provider, particle = _slab_state((0, 1), 24, "perturbed-plane-wave", "uniform")
    fields = _with_vacuum(fields, 12 + offset, 1)
    _assert_bitwise(*_whole_and_slabbed(fields, provider, particle, 2, 1 << 40, 2))


@_slabs
@pytest.mark.parametrize("job", range(4), ids=["2d0", "2d1", "4d", "2d2"])
def test_benchmark_residual_grids_are_bitwise_the_whole_grid(job):
    """The four jobs of a grid-residuals round at full size, in three slabs."""
    config = _bench_workloads().round_jobs("grid-residuals", 101, 0)[job]["config"]
    particle, provider, fields = cli._grid_state(config, config["seed"])
    _assert_bitwise(*_whole_and_slabbed(fields, provider, particle, 3, cli._SLAB_POINTS, 3))


def _artifacts(out):
    """Every artifact but metadata.json, by name."""
    return sorted(path.name for path in Path(out).iterdir() if path.name != "metadata.json")


@_slabs
@pytest.mark.parametrize("job", [0, 2], ids=["257^2", "17^4"])
def test_residual_artifacts_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, job):
    """A run held to one CPU and a run split between several write the same bytes."""
    config = _bench_workloads().round_jobs("grid-residuals", 101, 0)[job]["config"]
    path = _write_config(tmp_path, config)
    cpu = min(os.sched_getaffinity(0))
    child = subprocess.run(
        [sys.executable, "-m", "dirachydro.cli", "--config", path,
         "--out", str(tmp_path / "one"), "--quiet"],
        capture_output=True, text=True, env=child_env(),
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    assert child.returncode == 0, child.stderr
    # split even where this host has one CPU
    monkeypatch.setattr(_parts, "usable_cores", lambda: max(2, len(os.sched_getaffinity(0))))
    assert main(["--config", path, "--out", str(tmp_path / "split"), "--quiet"]) == 0
    names = _artifacts(tmp_path / "one")
    assert names == _artifacts(tmp_path / "split") and len(names) == 2
    for name in names:
        assert filecmp.cmp(tmp_path / "one" / name, tmp_path / "split" / name, shallow=False)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@_slabs
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("error, status, message", [
    (ContractError, 2, "config rejected"),
    (NonFiniteResultError, 3, "numerical failure"),
], ids=["refused", "non-finite"])
@pytest.mark.parametrize("where", ["every-slab", "child-slabs"])
def test_a_failed_slab_exits_by_its_cause_and_leaves_nothing_behind(tmp_path, monkeypatch,
                                                                    capsys, error, status,
                                                                    message, where):
    """A slab that fails in a child is evaluated again here, so its error reaches
    main with its own type; no child, open file or CPU pin is left, and the map
    of the grids is closed."""
    evaluate = cli.second_order_residuals_bilinear

    def failing(fields, provider, particle):
        if where == "every-slab" or fields.spec.start > 0:
            raise error(f"slab from row {fields.spec.start}")
        return evaluate(fields, provider, particle)

    maps = []

    def recorded(*args):
        maps.append(mmap.mmap(*args))
        return maps[-1]

    monkeypatch.setattr(cli, "second_order_residuals_bilinear", failing)
    monkeypatch.setattr(_parts, "usable_cores", lambda: 3)
    monkeypatch.setattr(cli, "mmap", types.SimpleNamespace(mmap=recorded))
    path = _write_config(tmp_path, _residuals_config())
    fds, cpus = _open_fds(), os.sched_getaffinity(0)
    assert main(["--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == status
    err = capsys.readouterr().err
    assert err.startswith(f"dirachydro: {message}: slab from row ")
    assert "cannot write output" not in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds
    assert os.sched_getaffinity(0) == cpus
    assert len(maps) == 1 and maps[0].closed


@_slabs
def test_a_map_too_large_to_make_is_an_allocation_refusal(tmp_path, monkeypatch, capsys):
    """The map of the grids is refused as an array too large to allocate is
    (status 2, "config rejected"), not as an output that cannot be written."""
    def refuse(*args):
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(_parts, "usable_cores", lambda: 2)
    monkeypatch.setattr(cli, "mmap", types.SimpleNamespace(mmap=refuse))
    path = _write_config(tmp_path, _residuals_config())
    assert main(["--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dirachydro: config rejected: cannot map the residual grids")
    assert "Traceback" not in err


@_slabs
def test_a_slab_whose_child_fails_is_evaluated_again_here(tmp_path, monkeypatch):
    """A child that fails where this process would not leaves the bytes as they were."""
    path = _write_config(tmp_path, _residuals_config())
    assert main(["--config", path, "--out", str(tmp_path / "one"), "--quiet"]) == 0
    evaluate, maker = cli.first_order_residuals, os.getpid()

    def failing_in_a_child(fields, provider, particle):
        if os.getpid() != maker:
            raise MemoryError("no memory for this slab")
        return evaluate(fields, provider, particle)

    monkeypatch.setattr(cli, "first_order_residuals", failing_in_a_child)
    monkeypatch.setattr(_parts, "usable_cores", lambda: 3)
    assert main(["--config", path, "--out", str(tmp_path / "split"), "--quiet"]) == 0
    for name in ("report.json", "residual_fields.csv"):
        assert filecmp.cmp(tmp_path / "one" / name, tmp_path / "split" / name, shallow=False)


@pytest.mark.parametrize("cores, shape, slab_points", [
    (1, [17, 17], None), (1, [40, 9], 60), (4, [5, 9], None), (1, [257, 257], None),
], ids=["one-cpu", "one-cpu-many-slabs", "short-first-axis", "one-cpu-257^2-csv"])
def test_one_cpu_or_a_short_first_axis_never_forks(tmp_path, monkeypatch, cores, shape,
                                                   slab_points):
    """Slabs on one CPU run here one after another; a first axis of fewer than
    two slabs' rows is one slab. Either way the bytes are those of a split run.
    One core count holds for the slabs and the writer: a 257^2 table, long
    enough to be written in parts, is written here alone too."""
    payload = _residuals_config()
    payload["grid"].update(shape=shape, spacing=[0.02, 0.03])
    path = _write_config(tmp_path, payload)
    assert main(["--config", path, "--out", str(tmp_path / "split"), "--quiet"]) == 0

    def no_fork():
        raise AssertionError("the residual grids forked")

    monkeypatch.setattr(_parts, "usable_cores", lambda: cores)
    if slab_points is not None:
        monkeypatch.setattr(cli, "_SLAB_POINTS", slab_points)
        assert cli._slab_count(tuple(shape), cores) > 1
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    assert main(["--config", path, "--out", str(tmp_path / "one"), "--quiet"]) == 0
    for name in ("report.json", "residual_fields.csv"):
        assert filecmp.cmp(tmp_path / "one" / name, tmp_path / "split" / name, shallow=False)


@_slabs
def test_a_fork_that_fails_runs_its_slabs_and_parts_here(tmp_path, monkeypatch):
    """With no process to be had (``os.fork`` raises EAGAIN, as at a process limit),
    a 257^2 CSV job on two cores evaluates every slab and writes every part here,
    with the bytes of a one-CPU run."""
    config = _bench_workloads().round_jobs("grid-residuals", 101, 0)[0]["config"]
    assert config["grid"]["shape"] == [257, 257]
    assert config.get("output", {}).get("format", "csv") == "csv"
    path = _write_config(tmp_path, config)
    monkeypatch.setattr(_parts, "usable_cores", lambda: 1)
    assert main(["--config", path, "--out", str(tmp_path / "one"), "--quiet"]) == 0
    forks = []

    def no_process():
        forks.append(os.getpid())
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(_parts, "usable_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", no_process)
    cpus = os.sched_getaffinity(0)
    assert main(["--config", path, "--out", str(tmp_path / "split"), "--quiet"]) == 0
    assert os.sched_getaffinity(0) == cpus
    # one fork tried for the slabs and one for the table
    assert len(forks) == 2
    names = _artifacts(tmp_path / "one")
    assert names == _artifacts(tmp_path / "split") and len(names) == 2
    for name in names:
        assert filecmp.cmp(tmp_path / "one" / name, tmp_path / "split" / name, shallow=False)
