"""Batch command line front end.

One JSON config file, validated against the bundled schema
(config_schema.json), describes a full run; the ``command`` key inside it
selects the operation.  Flags only override cross-cutting knobs (seed,
output directory, bulk-data format), so a config plus a seed is a complete
reproducible description: rerunning writes byte-identical artifacts, with
wall-clock times quarantined in metadata.json.

Commands
    verify     seeded randomized identity suites, pass/fail report
    simulate   proper-time trajectory integration, optional frequency fit
    residuals  first- and second-order residual grids for a configured state
    fisher     information and action functionals of a configured state

Exit status: 0 success, 1 a verification suite failed, 2 the config was
rejected (unreadable, malformed, schema violation, or a value a module
refused), 3 a numerical failure (instability, fit, step size, or a
non-finite residual).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import importlib.resources
import json
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np

from .dynamics import DynState, fit_precession_frequency, integrate
from .errors import (ContractError, FitError, InstabilityError, NonFiniteResultError,
                     StepSizeError)
from .fields import ELECTRON, Particle, ZERO_FIELD, provider_from_config
from .fisher import action_functional, fisher_information
from .grids import GridSpec
from .hydro import (
    first_order_residuals,
    second_order_residuals_bilinear,
    second_order_residuals_expanded,
)
from .io import (
    save_fit_csv,
    save_grid_fields,
    save_slice_csv,
    save_trajectory_csv,
    save_trajectory_json,
    write_json_report,
)
from .kinematics import gamma_of_beta
from .manufactured import (
    DEFAULT_BASE_PARAMS,
    perturbed_plane_wave_fields,
    plane_wave_fields,
    seeded_manufactured_fields,
)
from .spinors import species_sign
from .verification import run_all

__all__ = ["load_schema", "validate_config", "run", "main"]


def load_schema():
    """The bundled run-config JSON schema as a dict."""
    resource = importlib.resources.files("dirachydro").joinpath("config_schema.json")
    return json.loads(resource.read_text(encoding="utf-8"))


def validate_config(config):
    """All schema violations as human-readable strings, empty when valid."""
    validator = jsonschema.Draft202012Validator(load_schema())
    messages = []
    for error in sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path)):
        where = "/".join(str(part) for part in error.absolute_path) or "(top level)"
        messages.append(f"config key {where}: {error.message}")
    return messages


def _particle_from(config):
    block = config.get("particle", {})
    particle = Particle(
        mass=float(block.get("mass", ELECTRON.mass)),
        charge=float(block.get("charge", ELECTRON.charge)),
        hbar=float(block.get("hbar", ELECTRON.hbar)),
    )
    return particle, block.get("kind", "particle")


def _provider_from(config):
    if "fields" in config:
        return provider_from_config(config["fields"])
    return ZERO_FIELD


def _grid_from(config):
    block = config["grid"]
    return GridSpec(
        active_axes=tuple(block["active_axes"]),
        shape=tuple(block["shape"]),
        spacing=tuple(block["spacing"]),
        origin=tuple(block.get("origin", (0.0, 0.0, 0.0, 0.0))),
    )


_ANGLE_KEYS = ("chi", "theta_u", "phi", "theta", "eta0")


def _configured_fields(spec, config, seed, default_kind, particle):
    block = dict(config["configuration"])
    ctype = block.pop("type")
    kind = block.pop("kind", default_kind)
    if ctype == "plane-wave":
        if "amplitude" in block:
            raise ContractError("amplitude does not apply to a plane-wave configuration")
        return plane_wave_fields(spec, kind=kind, particle=particle, **block)
    if ctype == "perturbed-plane-wave":
        amplitude = block.pop("amplitude", 1e-3)
        return perturbed_plane_wave_fields(
            spec, seed, amplitude=amplitude, kind=kind, particle=particle, **block
        )
    base = dict(DEFAULT_BASE_PARAMS)
    base.update({key: block[key] for key in _ANGLE_KEYS if key in block})
    return seeded_manufactured_fields(
        spec,
        seed,
        amplitude=block.get("amplitude", 5e-5),
        base=base,
        rho_base=block.get("rho_value", 1.0),
        kind=kind,
        particle=particle,
    )


def _cmd_verify(config, seed, out_dir, fmt):
    block = config.get("verify", {})
    suites = run_all(
        seed,
        samples=block.get("samples", 2000),
        tolerance_scale=block.get("tolerance_scale", 1.0),
        suites=block.get("suites"),
    )
    results = [suite.as_dict() for suite in suites]
    max_abs = {suite.name: suite.max_abs_residual for suite in suites}
    lines = [
        f"verify[{suite.name}]: {'pass' if suite.passed else 'FAIL'}"
        f" (max residual {suite.max_abs_residual:.3e})"
        for suite in suites
    ]
    status = 0 if all(suite.passed for suite in suites) else 1
    return status, results, max_abs, lines


def _cmd_simulate(config, seed, out_dir, fmt):
    particle, kind = _particle_from(config)
    # an antiparticle moves as the particle with the opposite charge
    particle = dataclasses.replace(particle, charge=species_sign(kind) * particle.charge)
    provider = _provider_from(config)

    init = config["initial_state"]
    beta = np.asarray(init.get("beta", (0.0, 0.0, 0.0)), dtype=np.float64)
    gamma = gamma_of_beta(beta)
    spin = np.asarray(init["spin"], dtype=np.float64)
    norm = np.linalg.norm(spin)
    if not norm > 0.0:
        raise ContractError("initial spin must be a nonzero vector")
    state = DynState(
        x=np.asarray(init.get("x", (0.0, 0.0, 0.0, 0.0)), dtype=np.float64),
        u=np.concatenate([[gamma], gamma * beta]),
        s_rest=spin / norm,
    )

    evolution = config["evolution"]
    trajectory = integrate(
        state,
        provider,
        ds=evolution["ds"],
        s_max=evolution.get("s_max"),
        n_steps=evolution.get("n_steps"),
        particle=particle,
    )

    if fmt == "csv":
        save_trajectory_csv(out_dir / "trajectory.csv", trajectory)
        artifact = "trajectory.csv"
    else:
        save_trajectory_json(out_dir / "trajectory.json", trajectory)
        artifact = "trajectory.json"

    results = {
        "ds": float(evolution["ds"]),
        "steps": len(trajectory) - 1,
        "artifact": artifact,
        "final": {
            "s": float(trajectory.s[-1]),
            "x": [float(v) for v in trajectory.x[-1]],
            "u": [float(v) for v in trajectory.u[-1]],
            "spin": [float(v) for v in trajectory.s_rest[-1]],
        },
    }
    spin_norm_drift = np.max(np.abs(np.linalg.norm(trajectory.s_rest, axis=1) - 1.0))
    max_abs = {
        "mass_shell_drift": trajectory.mass_shell_error(),
        "spin_norm_drift": float(spin_norm_drift),
    }
    lines = [
        f"simulate: {results['steps']} steps of ds={results['ds']:g}"
        f" (mass-shell drift {max_abs['mass_shell_drift']:.3e})"
    ]

    if evolution.get("fit_frequency"):
        axis = evolution.get("fit_axis")
        fit = fit_precession_frequency(
            trajectory.s,
            trajectory.s_rest,
            axis=None if axis is None else np.asarray(axis, dtype=np.float64),
        )
        results["fit"] = {
            "frequency": float(fit.omega),
            "axis": [float(v) for v in fit.axis],
            "rms_residual": float(fit.rms_residual),
            "total_angle": float(fit.total_angle),
        }
        if fmt == "csv":
            save_fit_csv(out_dir / "fit.csv", fit)
        lines.append(
            f"simulate: fitted precession frequency {fit.omega:.9f}"
            f" (rms residual {fit.rms_residual:.3e})"
        )
    return 0, results, max_abs, lines


def _residual_grids(fields, provider, particle):
    first = first_order_residuals(fields, provider, particle)
    bilinear = second_order_residuals_bilinear(fields, provider, particle)
    expanded = second_order_residuals_expanded(fields, provider, particle)
    return {
        "continuity_first_order": first.continuity,
        "hamilton_jacobi_first_order": first.hamilton_jacobi,
        "continuity_bilinear": bilinear.continuity,
        "qhj_bilinear": bilinear.qhj,
        "qhj_imag_bilinear": bilinear.qhj_imag,
        "continuity_expanded": expanded.continuity,
        "qhj_expanded": expanded.qhj,
    }


def _sup_norms(grids):
    """Max |value| of each named residual grid; a non-finite one is a numerical failure.

    Checked before anything is written, so a NaN surfaces as
    NonFiniteResultError (exit 3) rather than as a JSON encoding error.
    """
    max_abs = {name: float(np.max(np.abs(grid))) for name, grid in grids.items()}
    broken = [name for name, value in max_abs.items() if not np.isfinite(value)]
    if broken:
        raise NonFiniteResultError(
            "non-finite sup-norm in residual field " + ", ".join(broken)
        )
    return max_abs


def _cmd_residuals(config, seed, out_dir, fmt):
    particle, kind = _particle_from(config)
    provider = _provider_from(config)
    spec = _grid_from(config)
    fields = _configured_fields(spec, config, seed, kind, particle)

    grids = _residual_grids(fields, provider, particle)
    max_abs = _sup_norms(grids)

    # 1D and 2D grids export cleanly as CSV tables; anything bigger keeps
    # the self-describing grid container regardless of the requested format
    if fmt == "csv" and spec.ndim <= 2:
        save_slice_csv(out_dir / "residual_fields.csv", spec, grids)
        artifact = "residual_fields.csv"
    else:
        save_grid_fields(out_dir / "residual_fields.json", spec, grids)
        artifact = "residual_fields.json"

    results = {
        "configuration_type": config["configuration"]["type"],
        "kind": fields.kind,
        "grid_shape": list(spec.shape),
        "artifact": artifact,
    }
    worst = max(max_abs.values())
    lines = [f"residuals: worst sup-norm {worst:.3e} across {len(grids)} fields"]
    return 0, results, max_abs, lines


def _cmd_fisher(config, seed, out_dir, fmt):
    particle, kind = _particle_from(config)
    provider = _provider_from(config)
    spec = _grid_from(config)
    fields = _configured_fields(spec, config, seed, kind, particle)
    depth = config.get("fisher", {}).get("depth", 1)

    report = action_functional(fields, provider, particle=particle, depth=depth)
    information = fisher_information(spec, fields.rho0, depth=depth)
    expanded = second_order_residuals_expanded(fields, provider, particle)

    results = {
        "configuration_type": config["configuration"]["type"],
        "kind": fields.kind,
        "depth": int(depth),
        "fisher_information": float(information),
        "functional": {
            "fisher_term": float(report.fisher_term),
            "lagrangian_term": float(report.lagrangian_term),
            "total": float(report.total),
            "volume_element": float(report.volume_element),
        },
    }
    max_abs = _sup_norms(
        {"continuity_expanded": expanded.continuity, "qhj_expanded": expanded.qhj}
    )
    lines = [
        f"fisher: action total {report.total:.9e}"
        f" (fisher term {report.fisher_term:.9e})"
    ]
    return 0, results, max_abs, lines


_COMMANDS = {
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "residuals": _cmd_residuals,
    "fisher": _cmd_fisher,
}


def run(config, seed=None, out_dir=None, fmt=None, quiet=False):
    """Execute a schema-valid config; returns the process exit status.

    Writes report.json (deterministic) and metadata.json (wall-clock
    times, excluded from the determinism contract) into the output
    directory next to any command-specific artifacts.
    """
    command = config["command"]
    if seed is None:
        seed = config.get("seed", 0)
    output = config.get("output", {})
    out_dir = Path(out_dir if out_dir is not None else output.get("directory", "out"))
    fmt = fmt if fmt is not None else output.get("format", "csv")
    out_dir.mkdir(parents=True, exist_ok=True)

    started = datetime.datetime.now(datetime.timezone.utc)
    t0 = time.perf_counter()
    status, results, max_abs, lines = _COMMANDS[command](config, seed, out_dir, fmt)
    elapsed = time.perf_counter() - t0

    write_json_report(
        out_dir / "report.json",
        {
            "command": command,
            "seed": int(seed),
            "results": results,
            "max_abs_residuals": max_abs,
            "timing": {"recorded_in": "metadata.json"},
        },
    )
    write_json_report(
        out_dir / "metadata.json",
        {
            "started_utc": started.isoformat(),
            "elapsed_seconds": elapsed,
        },
    )
    if not quiet:
        for line in lines:
            print(line)
        print(f"report: {out_dir / 'report.json'}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dirachydro",
        description="Batch runner: verification suites, trajectories, residual grids, functionals.",
    )
    parser.add_argument("--config", required=True, metavar="PATH", help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, metavar="DIR", help="override the output directory")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None,
                        help="override the bulk-data format")
    parser.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"dirachydro: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        print(
            f"dirachydro: config parse error at line {exc.lineno},"
            f" column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    problems = validate_config(config)
    if problems:
        for message in problems:
            print(f"dirachydro: {message}", file=sys.stderr)
        return 2

    try:
        return run(config, seed=args.seed, out_dir=args.out, fmt=args.fmt, quiet=args.quiet)
    except InstabilityError as exc:
        print(f"dirachydro: numerical instability: {exc}", file=sys.stderr)
        print(f"dirachydro: failing step index {exc.step_index}", file=sys.stderr)
        return 3
    except (FitError, NonFiniteResultError, StepSizeError) as exc:
        print(f"dirachydro: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # ContractError and friends: the config asked for something a module refuses
        print(f"dirachydro: config rejected: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
