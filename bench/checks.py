"""Physics checks on job artifacts, at the acceptance-gate tolerances.

Each check reads the files a job wrote and returns a list of problems; an
empty list means the job produced a verified answer. The checks parse the
artifacts themselves rather than trusting the job's own report, so a
corrupted or truncated file fails them.

    python bench/checks.py JOB.json OUT_DIR     # prints the problems as JSON

The benchmark runs the checks in their own process so that its driver stays
small: a child's peak RSS from wait4 includes the size of the process it
was started from.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

FREE_WAVE_TOL = 1e-10      # criterion 8: free plane wave is annihilated
ORACLE_TOL = 1e-6          # criterion 9: expanded vs bilinear qhj
ORACLE_DEPTH = 3
FREQUENCY_REL_TOL = 1e-6   # criterion 5: precession at |qB/m|
MASS_SHELL_TOL = 1e-9      # criterion 7
LIGHT_FRONT_TOL = 1e-9     # k.u is conserved in a plane wave
CLOSURE_TOL = 1e-4         # criterion 11
ANTISYMMETRY_TOL = 1e-12   # criterion 11

# Variational statement of the paper: dA/dS = -2 continuity and
# dA/drho0 = qhj for the particle functional. The antiparticle functional
# is the negated particle functional on the same fields, so its derivatives
# carry the opposite sign.
CONTINUITY_FACTOR = -2.0
QHJ_FACTOR = 1.0

RESIDUAL_FIELDS = (
    "continuity_first_order", "hamilton_jacobi_first_order",
    "continuity_bilinear", "qhj_bilinear", "qhj_imag_bilinear",
    "continuity_expanded", "qhj_expanded",
)


def _interior(shape, depth):
    return tuple(slice(depth, n - depth) for n in shape)


def _read_csv_table(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    if table.shape[1] != len(header):
        raise ValueError(f"{path.name}: {table.shape[1]} columns under a {len(header)}-name header")
    return {name: table[:, k] for k, name in enumerate(header)}


def load_residual_grids(out_dir, shape):
    """The residual fields of a ``residuals`` job, reshaped to the grid."""
    out_dir = Path(out_dir)
    csv_path = out_dir / "residual_fields.csv"
    if csv_path.exists():
        columns = _read_csv_table(csv_path)
        flat = {name: columns[name] for name in RESIDUAL_FIELDS if name in columns}
    else:
        payload = json.loads((out_dir / "residual_fields.json").read_text(encoding="utf-8"))
        if list(payload["grid"]["shape"]) != list(shape):
            raise ValueError(f"grid container shape {payload['grid']['shape']} != {list(shape)}")
        flat = {
            name: np.array([math.nan if v is None else v for v in values], dtype=np.float64)
            for name, values in payload["fields"].items()
        }
    missing = [name for name in RESIDUAL_FIELDS if name not in flat]
    if missing:
        raise ValueError(f"artifact lacks fields {missing}")
    size = math.prod(shape)
    grids = {}
    for name in RESIDUAL_FIELDS:
        if flat[name].size != size:
            raise ValueError(f"field {name} has {flat[name].size} samples, grid has {size}")
        grids[name] = flat[name].reshape(shape)
    return grids


def check_free_plane_wave(job, out_dir):
    shape = job["config"]["grid"]["shape"]
    grids = load_residual_grids(out_dir, shape)
    inside = _interior(shape, 1)
    worst = max(float(np.max(np.abs(grid[inside]))) for grid in grids.values())
    if not worst <= FREE_WAVE_TOL:  # also catches nan
        return [f"free plane wave residual {worst:.3e} > {FREE_WAVE_TOL:g}"]
    return []


def check_seeded_residuals(job, out_dir):
    shape = job["config"]["grid"]["shape"]
    grids = load_residual_grids(out_dir, shape)
    inside = _interior(shape, ORACLE_DEPTH)
    problems = [
        f"{name} is not finite on the trusted interior"
        for name, grid in grids.items() if not np.all(np.isfinite(grid[inside]))
    ]
    gap = float(np.max(np.abs(grids["qhj_expanded"][inside] - grids["qhj_bilinear"][inside])))
    if not gap <= ORACLE_TOL:
        problems.append(f"expanded vs bilinear qhj {gap:.3e} > {ORACLE_TOL:g}")
    return problems


def _trajectory(job, out_dir):
    columns = _read_csv_table(Path(out_dir) / "trajectory.csv")
    rows = columns["s"].size
    expected = job["config"]["evolution"]["n_steps"] + 1
    problems = [] if rows == expected else [f"trajectory has {rows} rows, expected {expected}"]
    u = np.column_stack([columns[f"u{k}"] for k in range(4)])
    return u, problems


def check_uniform_orbit(job, out_dir):
    config = job["config"]
    u, problems = _trajectory(job, out_dir)
    shell = float(np.max(np.abs(u[:, 0] ** 2 - np.sum(u[:, 1:] ** 2, axis=1) - 1.0)))
    if not shell < MASS_SHELL_TOL:
        problems.append(f"mass-shell drift {shell:.3e} >= {MASS_SHELL_TOL:g}")
    fit = _read_csv_table(Path(out_dir) / "fit.csv")
    particle = config.get("particle", {})
    expected = (abs(particle.get("charge", -1.0)) * math.sqrt(sum(b * b for b in config["fields"]["B0"]))
                / particle.get("mass", 1.0))
    relative = abs(abs(float(fit["frequency"][0])) - expected) / expected
    if not relative <= FREQUENCY_REL_TOL:
        problems.append(f"precession frequency off |qB/m| by {relative:.3e} relative")
    return problems


def check_plane_wave_orbit(job, out_dir):
    u, problems = _trajectory(job, out_dir)
    k = np.asarray(job["config"]["fields"]["wave_vector"], dtype=np.float64)
    k_dot_u = k[0] * u[:, 0] - u[:, 1:] @ k[1:]
    drift = float(np.max(np.abs(k_dot_u - k_dot_u[0])))
    if not drift <= LIGHT_FRONT_TOL:
        problems.append(f"k.u drift {drift:.3e} > {LIGHT_FRONT_TOL:g}")
    return problems


def check_variational(job, out_dir):
    config = job["config"]
    shape = tuple(config["grid"]["shape"])
    inside = _interior(shape, config["fisher"]["depth"])
    sign = 1.0 if config["configuration"]["kind"] == "particle" else -1.0
    with np.load(Path(out_dir) / "closure.npz", allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    problems = []
    for derivative, residual, factor in (("dA_dS", "continuity", CONTINUITY_FACTOR),
                                         ("dA_drho0", "qhj", QHJ_FACTOR)):
        if arrays[derivative].shape != shape or arrays[residual].shape != shape:
            problems.append(f"{derivative} or {residual} is not a {shape} grid")
            continue
        gap = float(np.max(np.abs(arrays[derivative] - sign * factor * arrays[residual])[inside]))
        if not gap < CLOSURE_TOL:
            problems.append(f"{derivative} closure {gap:.3e} >= {CLOSURE_TOL:g}")
    antisymmetry = abs(float(arrays["action_particle"]) + float(arrays["action_antiparticle"]))
    if not antisymmetry <= ANTISYMMETRY_TOL:
        problems.append(f"action antisymmetry {antisymmetry:.1e} > {ANTISYMMETRY_TOL:g}")
    return problems


CHECKS = {
    "free-plane-wave": check_free_plane_wave,
    "seeded-residuals": check_seeded_residuals,
    "uniform-orbit": check_uniform_orbit,
    "plane-wave-orbit": check_plane_wave_orbit,
    "variational": check_variational,
}


def check_job(job, out_dir):
    """Problems found in a finished job's artifacts; empty when it passes."""
    try:
        return CHECKS[job["check"]](job, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable artifact: {type(exc).__name__}: {exc}"]


if __name__ == "__main__":
    job_path, out_path = sys.argv[1:3]
    print(json.dumps(check_job(json.loads(Path(job_path).read_text(encoding="utf-8")), out_path)))
