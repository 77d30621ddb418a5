"""The demos run to completion: exit 0, nothing on stderr, no committed file touched."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dirachydro import hydro

DEMOS = Path(__file__).resolve().parent.parent / "demos"
RECORD = DEMOS / "calibration_report.json"


def _run_demo(script, cwd, *args):
    """Run a demo as a subprocess in cwd; returns its stdout."""
    package_root = str(Path(hydro.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, inherited])))
    record = RECORD.read_bytes()
    child = subprocess.run([sys.executable, str(DEMOS / script), *args],
                           capture_output=True, text=True, env=env, cwd=cwd)
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
    report = json.loads(out.read_text(encoding="utf-8"))
    entries = dict(report["shape_coefficients"],
                   quantum_potential=report["quantum_potential_multiple"],
                   magnetic=report["magnetic_coupling"])
    frozen = {
        "theta_gradient": hydro.THETA_TERM_COEFF,
        "kappa_gradient": hydro.KAPPA_TERM_COEFF,
        "chi_gradient": hydro.CHI_TERM_COEFF,
        "phi_gradient": hydro.PHI_TERM_COEFF,
        "quantum_potential": hydro.QP_TERM_COEFF,
        "magnetic": hydro.BPRIME_TERM_COEFF,
    }
    assert entries.keys() == frozen.keys()
    for name, entry in entries.items():
        assert entry["frozen_in_module"] == frozen[name], name
        assert abs(entry["resolved"] - frozen[name]) < 2e-3, name
