"""File formats: grid field containers, CSV tables, trajectory JSON, reports.

Everything here is deterministic: keys are sorted, floats are written with
17 significant digits (enough to round-trip float64 exactly), and nothing
records wall-clock state.  Rerunning the same computation must reproduce
the same bytes.

Grid container layout: a single JSON object with a ``grid`` header
(active_axes, shape, spacing, origin) and a ``fields`` map from field name
to the flattened sample list in row-major (C) order over the grid shape.
Non-finite samples (masked quantum-potential points) are stored as null.
Every JSON file (reports, grid containers, trajectory JSON) comes from one
writer that streams the document as it encodes it, so no file is ever held
in memory whole.

CSV tables (trajectories, precession fits, fields of 1-D and 2-D grids) all
come from one writer: a header row, then one row per sample, CRLF row ends,
17 significant digits, masked and non-finite samples as nan/inf.  Grids
with three or more axes have no CSV form; they use the grid container.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .dynamics import Trajectory
from .errors import ContractError
from .grids import GridSpec

__all__ = [
    "GRID_FORMAT",
    "save_grid_fields",
    "load_grid_fields",
    "save_trajectory_csv",
    "save_trajectory_json",
    "load_trajectory_csv",
    "save_fit_csv",
    "save_slice_csv",
    "write_json_report",
    "format_float",
]

GRID_FORMAT = "dirachydro-grid-v1"
TRAJECTORY_FORMAT = "dirachydro-trajectory-v1"

TRAJECTORY_COLUMNS = ("s", "t", "x", "y", "z", "u0", "u1", "u2", "u3",
                      "sx", "sy", "sz")
FIT_COLUMNS = ("frequency", "axis_x", "axis_y", "axis_z", "rms_residual", "total_angle")


def format_float(value):
    """17 significant digits; round-trips float64 bit-exactly."""
    return f"{float(value):.17g}"


def _real_field(spec, name, values):
    """A named grid field as float64 with masked samples as NaN.

    Both grid writers read their fields through here, so a complex field or
    one off the grid shape is refused before anything is written.
    """
    arr = np.asarray(np.ma.filled(values, np.nan))
    if np.iscomplexobj(arr):
        raise ContractError(f"field {name!r} is complex; export parts separately")
    if arr.shape != spec.shape:
        raise ContractError(
            f"field {name!r} has shape {arr.shape}, grid is {spec.shape}"
        )
    return arr.astype(np.float64, copy=False)


def save_grid_fields(path, spec, fields):
    """Write named real grid fields with their grid header as JSON."""
    payload_fields = {}
    for name, values in fields.items():
        flat = _real_field(spec, name, values).ravel()
        samples = flat.tolist()
        for index in np.flatnonzero(~np.isfinite(flat)).tolist():
            samples[index] = None
        payload_fields[name] = samples
    payload = {
        "format": GRID_FORMAT,
        "grid": {
            "active_axes": list(spec.active_axes),
            "shape": list(spec.shape),
            "spacing": list(spec.spacing),
            "origin": list(spec.origin),
        },
        "order": "row-major",
        "fields": payload_fields,
    }
    write_json_report(path, payload)


def load_grid_fields(path):
    """Read a grid container; returns (GridSpec, dict of arrays).

    Null samples come back as NaN.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != GRID_FORMAT:
        raise ContractError(f"not a {GRID_FORMAT} file: {path}")
    g = payload["grid"]
    spec = GridSpec(
        active_axes=tuple(g["active_axes"]),
        shape=tuple(g["shape"]),
        spacing=tuple(g["spacing"]),
        origin=tuple(g["origin"]),
    )
    fields = {}
    for name, flat in payload["fields"].items():
        arr = np.array(
            [np.nan if v is None else float(v) for v in flat], dtype=np.float64
        )
        if arr.size != int(np.prod(spec.shape)):
            raise ContractError(f"field {name!r} sample count does not match grid")
        fields[name] = arr.reshape(spec.shape)
    return spec, fields


def _write_csv(path, header, columns):
    """Write one CSV table: a header row, then one row per sample.

    ``columns`` are stacked side by side with ``np.column_stack`` (1-D
    arrays become one column each, 2-D blocks keep theirs). Rows end in
    CRLF and values are written as ``format_float`` writes them, which is
    the csv module's default dialect; names that it would have to quote are
    refused.
    """
    for name in header:
        if any(char in name for char in ',"\r\n'):
            raise ContractError(f"column name {name!r} would need CSV quoting")
    table = np.column_stack(columns)
    # format_float's "%.17g" applied to a whole row at once
    template = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        # one row at a time keeps the formatted text out of memory
        for row in table:
            fh.write(template % tuple(row.tolist()))


def _trajectory_columns(trajectory):
    return [trajectory.s, trajectory.x, trajectory.u, trajectory.s_rest]


def save_trajectory_csv(path, trajectory):
    """Trajectory table: s, event, four-velocity, rest-frame spin."""
    _write_csv(path, TRAJECTORY_COLUMNS, _trajectory_columns(trajectory))


def save_trajectory_json(path, trajectory):
    """The trajectory table as a JSON map from column name to samples."""
    table = np.column_stack(_trajectory_columns(trajectory))
    write_json_report(path, {
        "format": TRAJECTORY_FORMAT,
        "data": dict(zip(TRAJECTORY_COLUMNS, table.T.tolist())),
    })


def load_trajectory_csv(path):
    """Read a trajectory table back into a Trajectory."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    if tuple(header) != TRAJECTORY_COLUMNS:
        raise ContractError(f"unexpected trajectory columns: {header}")
    table = np.array(rows, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ContractError("ragged trajectory table")
    return Trajectory(
        s=table[:, 0],
        x=table[:, 1:5],
        u=table[:, 5:9],
        s_rest=table[:, 9:12],
    )


def save_fit_csv(path, fit):
    """One-row table of a PrecessionFit: frequency, axis, residual, angle."""
    _write_csv(path, FIT_COLUMNS,
               [[fit.omega], [fit.axis], [fit.rms_residual], [fit.total_angle]])


def save_slice_csv(path, spec, fields):
    """Export the fields of a 1-D or 2-D grid as one CSV table.

    Each grid point is a row in row-major order: coordinate columns named
    t/x/y/z by spacetime axis, then one column per field in the given
    order. Masked samples are written as nan.
    """
    if spec.ndim > 2:
        raise ContractError(
            f"a CSV table holds a 1-D or 2-D grid, this one has {spec.ndim} axes"
        )
    mesh = np.meshgrid(*spec.axis_coordinates(), indexing="ij")
    columns = [axis.ravel() for axis in mesh]
    for name, values in fields.items():
        columns.append(_real_field(spec, name, values).ravel())
    _write_csv(path, list(spec.axis_names) + list(fields), columns)


def write_json_report(path, payload):
    """Sorted-keys JSON indented by 2, with a trailing newline; NaN-free.

    The bytes are exactly ``json.dumps(payload, indent=2, sort_keys=True,
    allow_nan=False) + "\n"``, but each piece is written as soon as it is
    encoded. A payload that ``json.dumps`` refuses (NaN, infinity, an
    object with no JSON form) raises as it would there, and so does a dict
    key that is not a str, which ``json.dumps`` would turn into one. A
    refused payload leaves no file behind.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            _write_json(fh.write, payload, "\n")
            fh.write("\n")
    except (TypeError, ValueError):
        Path(path).unlink(missing_ok=True)
        raise


def _write_json(write, value, newline):
    """Write one JSON value; ``newline`` is a line break plus the current indent.

    Dicts and lists are walked here. A list of scalars alone goes to the C
    encoder in one call: with indent set, ``json.dumps`` would fall back to
    its pure-Python encoder for the whole document.
    """
    inner = newline + "  "
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
        if not value:
            write("{}")
            return
        opener = "{"
        for key in sorted(value):
            write(opener + inner + json.dumps(key) + ": ")
            _write_json(write, value[key], inner)
            opener = ","
        write(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        if any(isinstance(item, (dict, list, tuple)) for item in value):
            opener = "["
            for item in value:
                write(opener + inner)
                _write_json(write, item, inner)
                opener = ","
        else:
            text = json.dumps(value, separators=("," + inner, ": "), allow_nan=False)
            write("[" + inner)
            write(text[1:-1])
        write(newline + "]")
    else:
        write(json.dumps(value, allow_nan=False))
