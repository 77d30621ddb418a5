"""The demos run to completion: exit 0, nothing on stderr, no committed file touched.

The committed calibration record quotes the coefficients frozen in hydro.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env

from dirachydro import hydro

DEMOS = Path(__file__).resolve().parent.parent / "demos"
RECORD = DEMOS / "calibration_report.json"


def _entries(report):
    """The report's six coefficient entries, keyed as hydro.TERM_COEFFS."""
    return dict(report["shape_coefficients"],
                quantum_potential=report["quantum_potential_multiple"],
                magnetic=report["magnetic_coupling"])


def _run_demo(script, cwd, *args):
    """Run a demo as a subprocess in cwd; returns its stdout."""
    record = RECORD.read_bytes()
    child = subprocess.run([sys.executable, str(DEMOS / script), *args],
                           capture_output=True, text=True, env=child_env(), cwd=cwd)
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    assert RECORD.read_bytes() == record
    return child.stdout


@pytest.mark.parametrize("script", ["spin_orbit_tour.py", "variational_closure.py"])
def test_demo_runs_cleanly(script, tmp_path):
    assert _run_demo(script, tmp_path)


def test_calibration_resolves_the_frozen_coefficients(tmp_path):
    """A small calibration run lands within 2e-3 of every frozen coefficient."""
    out = tmp_path / "calibration_report.json"
    _run_demo("calibrate_expanded_coefficients.py", tmp_path,
              "--points", "49", "--seeds", "3", "--out", str(out))
    entries = _entries(json.loads(out.read_text(encoding="utf-8")))
    frozen = hydro.TERM_COEFFS
    assert entries.keys() == frozen.keys()
    for name, entry in entries.items():
        assert entry["frozen_in_module"] == frozen[name], name
        assert abs(entry["resolved"] - frozen[name]) < 2e-3, name


def test_committed_record_quotes_the_frozen_coefficients():
    """Every entry of the committed report quotes its TERM_COEFFS value."""
    entries = _entries(json.loads(RECORD.read_text(encoding="utf-8")))
    quoted = {name: entry["frozen_in_module"] for name, entry in entries.items()}
    assert quoted == hydro.TERM_COEFFS
