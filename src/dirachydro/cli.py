"""Batch command line front end.

One JSON config file, validated against the bundled schema
(config_schema.json) by the in-repo draft 2020-12 subset checker in
dirachydro.schema, describes a full run; the ``command`` key inside it
selects the operation.  Flags only override cross-cutting knobs (seed,
output directory, bulk-data format), so a config plus a seed is a complete
reproducible description: rerunning writes byte-identical artifacts, with
wall-clock times quarantined in metadata.json.

Commands
    verify     seeded randomized identity suites, pass/fail report
    simulate   proper-time trajectory integration, optional frequency fit
    residuals  first- and second-order residual grids for a configured state
    fisher     information and action functionals of a configured state

residuals and fisher refuse a vacuum point of rho0 (exit 3) before any
evaluator runs: the quantum potential is undefined there.  residuals
evaluates its grids in slabs of rows along the grid's first active axis,
one per core this process may run on (more on a grid too large for that
many slabs of ``_SLAB_POINTS`` points).  Each slab reads a halo of 2 rows,
the reach of the stencils, on each side, so the grids kept from its own
rows are bitwise those of one evaluation of the whole grid.  The slabs are
cut into one run per core, and the runs go through ``_parts.fork_parts``
into a shared map of the grids.

A command computes its results and lists its artifacts; it writes nothing.
``run`` checks every float of the report, then writes the artifacts,
report.json and metadata.json in that order; a write that fails removes
the files written before it, so a run leaves all of its files or none.

The process entry is ``script``: the ``dirachydro`` console script and
``python -m dirachydro.cli`` both call it.  It moves every object the
imports left behind (NumPy's included, about 22,000) into the collector's
permanent generation with ``gc.freeze`` and then exits with ``main``'s
status, so the interpreter's teardown no longer walks them in a full
collection: the exit of a job, from ``main``'s return to the reap, fell
from 41-57 ms to 12-21 ms (medians on a 2-vCPU VM).  The freeze is also
the step CPython's ``gc`` documentation recommends before ``fork()``
without ``exec``, which ``_parts.fork_parts`` does.  ``main`` called
in-process, and an import of this module, leave the caller's collector
as it was.

Exit status: 0 success, 1 a verification suite failed, 2 the config was
rejected (unreadable, malformed, schema violation, a value a module
refused with a ContractError, or an array too large to allocate), 3 a
numerical failure (instability, fit, or a non-finite or overflowing result).
"""

from __future__ import annotations

import argparse
import datetime
import gc
import importlib.resources
import json
import math
import mmap
import sys
import time
from pathlib import Path

import numpy as np

from . import _parts
from .dynamics import DynState, fit_precession_frequency, integrate
from .errors import ContractError, FitError, InstabilityError, NonFiniteResultError
from .fields import Particle, ZERO_FIELD, provider_from_config
from .grids import _MIN_SAMPLES, GridSpec
from .hydro import (
    _STENCIL_REACH,
    _is_vacuum,
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
    perturbed_plane_wave_fields,
    plane_wave_fields,
    seeded_manufactured_fields,
)
from .schema import schema_errors
from .spinors import _PARAM_NAMES, species_sign

__all__ = ["load_schema", "validate_config", "run", "main", "script"]


def load_schema():
    """The bundled run-config JSON schema as a dict."""
    resource = importlib.resources.files("dirachydro").joinpath("config_schema.json")
    return json.loads(resource.read_text(encoding="utf-8"))


def validate_config(config):
    """All schema violations as human-readable strings, empty when valid.

    The checker (dirachydro.schema) implements the draft 2020-12 keywords
    the bundled schema uses and refuses a schema with any other keyword.
    Messages are sorted by the config path they name.
    """
    messages = []
    for path, message in sorted(schema_errors(load_schema(), config), key=lambda e: e[0]):
        where = "/".join(str(part) for part in path) or "(top level)"
        messages.append(f"config key {where}: {message}")
    return messages


def _particle_from(config):
    block = dict(config.get("particle", {}))
    kind = block.pop("kind", "particle")
    return Particle(**{key: float(value) for key, value in block.items()}), kind


def _provider_from(config):
    if "fields" in config:
        return provider_from_config(config["fields"])
    return ZERO_FIELD


def _configured_fields(spec, config, seed, default_kind, particle):
    block = dict(config["configuration"])
    ctype = block.pop("type")
    kind = block.pop("kind", default_kind)
    if ctype == "plane-wave":
        if "amplitude" in block:
            raise ContractError("amplitude does not apply to a plane-wave configuration")
        return plane_wave_fields(spec, kind=kind, particle=particle, **block)
    if ctype == "perturbed-plane-wave":
        return perturbed_plane_wave_fields(spec, seed, kind=kind, particle=particle, **block)
    base = {key: block.pop(key) for key in _PARAM_NAMES if key in block}
    return seeded_manufactured_fields(
        spec, seed, base=base, kind=kind, particle=particle, **block
    )


def _grid_state(config, seed):
    """(particle, provider, fields) of a residuals or fisher config, refused
    with NonFiniteResultError where rho0 has a vacuum point."""
    particle, kind = _particle_from(config)
    provider = _provider_from(config)
    spec = GridSpec(**config["grid"])
    fields = _configured_fields(spec, config, seed, kind, particle)
    vacuum = np.count_nonzero(_is_vacuum(fields.rho0))
    if vacuum:
        raise NonFiniteResultError(
            f"rho0 is at or below the density floor at {vacuum} of {fields.rho0.size} grid points,"
            " where the quantum potential, and so qhj_bilinear and qhj_expanded, is undefined")
    return particle, provider, fields


def _cmd_verify(config, seed, fmt):
    # imported here: only verify runs the suites, and they pull in lagrangian
    from .verification import run_all

    suites = run_all(seed, **config.get("verify", {}))
    results = [suite.as_dict() for suite in suites]
    max_abs = {suite.name: suite.max_abs_residual for suite in suites}
    lines = [
        f"verify[{suite.name}]: {'pass' if suite.passed else 'FAIL'}"
        f" (max residual {suite.max_abs_residual:.3e})"
        for suite in suites
    ]
    status = 0 if all(suite.passed for suite in suites) else 1
    return status, results, max_abs, lines, []


def _cmd_simulate(config, seed, fmt):
    particle, kind = _particle_from(config)
    # an antiparticle moves as the particle with the opposite charge
    particle = Particle(mass=particle.mass, charge=species_sign(kind) * particle.charge,
                        hbar=particle.hbar)
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

    artifact = f"trajectory.{fmt}"
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

    artifacts = []
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
            artifacts.append(("fit.csv", save_fit_csv, fit))
        lines.append(
            f"simulate: fitted precession frequency {fit.omega:.9f}"
            f" (rms residual {fit.rms_residual:.3e})"
        )
    save = save_trajectory_csv if fmt == "csv" else save_trajectory_json
    artifacts.append((artifact, save, trajectory))
    return 0, results, max_abs, lines, artifacts


_RESIDUAL_NAMES = (
    "continuity_first_order",
    "hamilton_jacobi_first_order",
    "continuity_bilinear",
    "qhj_bilinear",
    "qhj_imag_bilinear",
    "continuity_expanded",
    "qhj_expanded",
)
# points a slab holds at most, halo included, where a row is small enough;
# every benchmark and demo grid fits in one slab this size
_SLAB_POINTS = 1 << 17


def _evaluated_grids(fields, provider, particle):
    """The grids of the three evaluators on the whole of ``fields``."""
    first = first_order_residuals(fields, provider, particle)
    bilinear = second_order_residuals_bilinear(fields, provider, particle)
    expanded = second_order_residuals_expanded(fields, provider, particle)
    return dict(zip(_RESIDUAL_NAMES, (
        first.continuity,
        first.hamilton_jacobi,
        bilinear.continuity,
        bilinear.qhj,
        bilinear.qhj_imag,
        expanded.continuity,
        expanded.qhj,
    )))


def _slab_count(shape, cores):
    """Slabs the first axis is cut into: one per core, more where a slab would
    hold over ``_SLAB_POINTS`` points with its halo, but none owning fewer than
    ``_MIN_SAMPLES - _STENCIL_REACH`` = 3 rows, so an edge slab with its one
    halo has the 5 rows a ``GridSpec`` needs."""
    rows, row = shape[0], math.prod(shape[1:])
    floor = _MIN_SAMPLES - _STENCIL_REACH
    owned = max(floor, _SLAB_POINTS // row - 2 * _STENCIL_REACH)
    return min(max(cores, -(-rows // owned)), rows // floor)


def _residual_grids(fields, provider, particle):
    """The residual grids, evaluated in slabs of rows along the first active axis.

    ``fields`` is vacuum-free (``_grid_state`` refuses the others), so every
    residual at a point reads only the rows within ``hydro._STENCIL_REACH``
    = 2 of it. So each slab is evaluated on its rows and a halo of 2 rows on
    each side (fewer at a grid edge), and only its own rows are kept: the
    grids are bitwise those of one evaluation of the whole grid. There is a
    slab per usable core, or more on a grid too large for that many slabs of
    ``_SLAB_POINTS`` points. The slabs are split into one contiguous run per
    core and the runs go through ``_parts.fork_parts``: the first run, which
    starts with slab 0, here, each other one in a child, which writes its rows
    into an anonymous shared map that holds the grids. A run that no child
    finished is evaluated again here, so its error raises here with its own
    type. One slab is the whole grid, evaluated here.
    """
    spec = fields.spec
    slabs = _slab_count(spec.shape, _parts.usable_cores())
    if slabs == 1:
        return _evaluated_grids(fields, provider, particle)
    rows = spec.shape[0]
    bounds = _parts.cuts(rows, slabs)
    runs = _parts.per_core(slabs)
    firsts = _parts.cuts(slabs, runs)
    try:
        buffer = mmap.mmap(-1, len(_RESIDUAL_NAMES) * math.prod(spec.shape) * 8)
    except OSError as exc:
        raise MemoryError(f"cannot map the residual grids: {exc}") from exc
    out = np.frombuffer(buffer, dtype=np.float64).reshape((len(_RESIDUAL_NAMES),) + spec.shape)

    def run(j):
        for k in range(firsts[j], firsts[j + 1]):
            lo, hi = bounds[k], bounds[k + 1]
            below, above = max(0, lo - _STENCIL_REACH), min(rows, hi + _STENCIL_REACH)
            grids = _evaluated_grids(fields.slab(below, above), provider, particle)
            # indexed, not iterated, so no view of the map outlives the statement
            for index, grid in enumerate(grids.values()):
                out[index, lo:hi] = grid[lo - below:hi - below]

    try:
        _parts.fork_parts(runs, run)
    except BaseException:
        del out
        buffer.close()
        raise
    return dict(zip(_RESIDUAL_NAMES, out))


def _floats(value, path):
    """(key path, value) for every float in a report section."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _floats(item, f"{path}/{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _floats(item, f"{path}/{index}")
    elif isinstance(value, float):
        yield path, value


def _require_finite(report):
    """Raise NonFiniteResultError naming each non-finite float of the report by its key path.

    Checked before anything is written, so a NaN or an overflow surfaces as
    a numerical failure (exit 3) rather than as a JSON encoding error.
    """
    broken = [
        path
        for key, section in report.items()
        for path, value in _floats(section, key)
        if not math.isfinite(value)
    ]
    if broken:
        raise NonFiniteResultError("non-finite " + ", ".join(broken))


def _cmd_residuals(config, seed, fmt):
    particle, provider, fields = _grid_state(config, seed)
    spec = fields.spec

    grids = _residual_grids(fields, provider, particle)
    max_abs = {name: spec.sup_norm(grid, depth=0) for name, grid in grids.items()}

    # 1D and 2D grids export cleanly as CSV tables; anything bigger keeps
    # the self-describing grid container regardless of the requested format
    if fmt == "csv" and spec.ndim <= 2:
        artifacts = [("residual_fields.csv", save_slice_csv, spec, grids)]
    else:
        artifacts = [("residual_fields.json", save_grid_fields, spec, grids)]

    results = {
        "configuration_type": config["configuration"]["type"],
        "kind": fields.kind,
        "grid_shape": list(spec.shape),
        "artifact": artifacts[0][0],
    }
    worst = max(max_abs.values())
    lines = [f"residuals: worst sup-norm {worst:.3e} across {len(grids)} fields"]
    return 0, results, max_abs, lines, artifacts


def _cmd_fisher(config, seed, fmt):
    # imported here: only fisher evaluates the action functional
    from .fisher import action_functional

    particle, provider, fields = _grid_state(config, seed)
    depth = config.get("fisher", {}).get("depth", 1)

    report = action_functional(fields, provider, particle=particle, depth=depth)
    expanded = second_order_residuals_expanded(fields, provider, particle)

    results = {
        "configuration_type": config["configuration"]["type"],
        "kind": fields.kind,
        "depth": int(depth),
        "fisher_information": float(report.fisher_information),
        "functional": {
            "fisher_term": float(report.fisher_term),
            "lagrangian_term": float(report.lagrangian_term),
            "total": float(report.total),
            "volume_element": float(report.volume_element),
        },
    }
    max_abs = {
        "continuity_expanded": fields.spec.sup_norm(expanded.continuity, depth=0),
        "qhj_expanded": fields.spec.sup_norm(expanded.qhj, depth=0),
    }
    lines = [
        f"fisher: action total {report.total:.9e}"
        f" (fisher term {report.fisher_term:.9e})"
    ]
    return 0, results, max_abs, lines, []


_COMMANDS = {
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "residuals": _cmd_residuals,
    "fisher": _cmd_fisher,
}


def run(config, out_dir=None, fmt=None, quiet=False):
    """Execute a schema-valid config; returns the process exit status.

    Writes the command's artifacts, report.json (deterministic) and
    metadata.json (wall-clock times, excluded from the determinism
    contract) into the output directory, all of them or none, once every
    reported number is checked; elapsed_seconds covers the command and
    every file but metadata.json itself.
    """
    command = config["command"]
    # a float seed such as 3.0 is a schema-valid integer
    seed = int(config.get("seed", 0))
    output = config.get("output", {})
    out_dir = Path(out_dir if out_dir is not None else output.get("directory", "out"))
    fmt = fmt if fmt is not None else output.get("format", "csv")
    out_dir.mkdir(parents=True, exist_ok=True)

    started = datetime.datetime.now(datetime.timezone.utc)
    t0 = time.perf_counter()
    # floating-point trouble shows up as a non-finite result, checked
    # before anything is written, instead of as a warning on stderr
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        status, results, max_abs, lines, artifacts = _COMMANDS[command](config, seed, fmt)
    report = {
        "command": command,
        "seed": seed,
        "results": results,
        "max_abs_residuals": max_abs,
        "timing": {"recorded_in": "metadata.json"},
    }
    _require_finite(report)

    written = []
    try:
        for name, save, *args in [*artifacts, ("report.json", write_json_report, report)]:
            save(out_dir / name, *args)
            written.append(out_dir / name)
        timing = {"started_utc": started.isoformat(), "elapsed_seconds": time.perf_counter() - t0}
        write_json_report(out_dir / "metadata.json", timing)
    except BaseException:
        # the writer that raised has removed its own file
        for path in written:
            path.unlink(missing_ok=True)
        raise
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
    if args.seed is not None and isinstance(config, dict):
        config["seed"] = args.seed
    problems = validate_config(config)
    if problems:
        for message in problems:
            print(f"dirachydro: {message}", file=sys.stderr)
        return 2

    try:
        return run(config, out_dir=args.out, fmt=args.fmt, quiet=args.quiet)
    except InstabilityError as exc:
        print(f"dirachydro: numerical instability: {exc}", file=sys.stderr)
        print(f"dirachydro: failing step index {exc.step_index}", file=sys.stderr)
        return 3
    except (FitError, NonFiniteResultError, OverflowError) as exc:
        print(f"dirachydro: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ContractError, MemoryError) as exc:
        # the config asked for something a module refuses or too large to allocate
        print(f"dirachydro: config rejected: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # the output directory could not be made or an artifact not written
        print(f"dirachydro: cannot write output: {exc}", file=sys.stderr)
        return 2


def script():
    """Process entry: freeze the import-time objects, then exit with ``main()``'s status.

    Only a process that ends when ``main`` returns calls this; the objects
    frozen here outlive the run, so the exit's full collection skips them.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    script()
