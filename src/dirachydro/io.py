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
writer that streams the document as it encodes it.  Bulk samples reach it
as 1-D float64 arrays, which it encodes a fixed-size slice at a time, so
neither a file nor a field's sample list is ever held in memory whole.

CSV tables (trajectories, precession fits, fields of 1-D and 2-D grids) all
come from one writer: a header row, then one row per sample, CRLF row ends,
17 significant digits, masked and non-finite samples as nan/inf.  The
writer formats ``_BLOCK_ROWS`` rows per string operation, so the text in
memory is bounded by the block, not by the table.  A grid table's
coordinate columns repeat a few values on every row; each distinct
coordinate is formatted once and its text reused.  Grids with three or
more axes have no CSV form; they use the grid container.

Both writers go through one part writer, ``_write_parts``, which sees a
file as a sequence of items: the rows of a table, or the samples of a
JSON document's arrays taken in document order as one sequence, so a
document is split once, not once per array.  A file of at least
``2 * _PART_ROWS`` items is cut into contiguous item ranges, one per usable
core but no more than one per ``_PART_ROWS`` items, which run through
``_parts.fork_parts``: the first is rendered into the file by this process,
each other one into an unnamed temporary file, which is then appended in
order with a small copy buffer.  Each process holds one block or slice of
text, so memory stays bounded, and the bytes are those of a one-process
write, also where a part is rendered again in this process (see
``_parts``).  A write that fails leaves no file behind.
"""

from __future__ import annotations

import csv
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from ._parts import cuts, fork_parts, per_core
from .dynamics import TRAJECTORY_COLUMNS, Trajectory
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
    """Write named real grid fields with their grid header as JSON.

    Every field is checked before anything is written.
    """
    flats = {name: _real_field(spec, name, values).ravel() for name, values in fields.items()}
    write_json_report(path, {
        "format": GRID_FORMAT,
        "grid": {
            "active_axes": list(spec.active_axes),
            "shape": list(spec.shape),
            "spacing": list(spec.spacing),
            "origin": list(spec.origin),
        },
        "order": "row-major",
        "fields": flats,
    })


def load_grid_fields(path):
    """Read a grid container; returns (GridSpec, dict of arrays).

    Null samples come back as NaN.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != GRID_FORMAT:
        raise ContractError(f"not a {GRID_FORMAT} file: {path}")
    spec = GridSpec(**payload["grid"])
    fields = {}
    for name, flat in payload["fields"].items():
        arr = np.array(flat, dtype=np.float64)
        if arr.size != int(np.prod(spec.shape)):
            raise ContractError(f"field {name!r} sample count does not match grid")
        fields[name] = arr.reshape(spec.shape)
    return spec, fields


# rows formatted per string operation: bounds the text in memory
_BLOCK_ROWS = 64
# items (table rows, document samples) per process at least: shorter files are never split
_PART_ROWS = 8192
# characters per read when a child's part is appended to the file
_COPY_CHARS = 1 << 16


def _write_parts(fh, items, render):
    """Write items ``[0, items)`` to ``fh`` as ``render(write, start, stop)`` writes them.

    An item is a row of a CSV table or a sample of a JSON document. ``render``
    writes the text of the items ``[start, stop)`` together with the literal
    text that leads them; a render called with ``stop == items`` also writes
    what follows the last item. The items are cut into as many contiguous
    parts as there are usable cores, but no more than one per ``_PART_ROWS``
    items, and the parts run through ``_parts.fork_parts``. Part 0 is rendered
    straight into ``fh``; each other part is rendered into an unnamed
    temporary file, emptied first in case a child that failed left text in
    it, and appended to ``fh`` in item order. Every temporary file is closed
    whether or not the write succeeds.
    """
    parts = per_core(items, _PART_ROWS)
    bounds = cuts(items, parts)
    files = []  # a temporary file per part after the first
    try:
        for _ in range(1, parts):
            files.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))

        def run(k):
            if k == 0:
                render(fh.write, bounds[0], bounds[1])
                return
            part = files[k - 1]
            part.seek(0)
            part.truncate()
            render(part.write, bounds[k], bounds[k + 1])
            part.flush()

        def join(k):
            files[k - 1].seek(0)
            shutil.copyfileobj(files[k - 1], fh, _COPY_CHARS)

        fork_parts(parts, run, join)
    finally:
        for part in files:
            part.close()


def _write_file(path, items, render):
    """Write the file at ``path`` through ``_write_parts``; a failed write leaves no file.

    Whatever raises once the file is open (a failed part, an error in the
    render, a failed flush or close) removes the file before it propagates.
    """
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            _write_parts(fh, items, render)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _write_csv(path, header, columns):
    """Write one CSV table: a header row, then one row per sample.

    ``columns`` are the table's columns side by side, as ``np.column_stack``
    would stack them: a 1-D array is one column, a 2-D array one column per
    entry of its second axis. A float column is written as ``format_float``
    writes it; an object array holds text that is written as it is. Rows end
    in CRLF, which is the csv module's default dialect; names that it would
    have to quote are refused, and so is a header that does not name every
    column once. The rows are formatted ``_BLOCK_ROWS`` at a time, each block
    from slices of the columns, and a long table is split between processes
    by ``_write_parts``: its items are the rows, and the header goes with
    row 0.
    """
    for name in header:
        if not set(name).isdisjoint(',"\r\n'):
            raise ContractError(f"column name {name!r} would need CSV quoting")
    flat = []
    for column in map(np.asarray, columns):
        flat.extend([column] if column.ndim == 1 else list(column.T))
    rows, width = len(flat[0]), len(flat)
    if any(len(column) != rows for column in flat):
        raise ContractError("CSV columns must all have one value per row")
    if len(header) != width:
        raise ContractError(f"a CSV header of {len(header)} names for {width} columns")
    # one row: format_float's "%.17g" for a number, a text column as it is
    template = ",".join("%s" if c.dtype == object else "%.17g" for c in flat) + "\r\n"

    def render(write, start, stop):
        if start == 0:
            write(",".join(header) + "\r\n")
        for begin in range(start, stop, _BLOCK_ROWS):
            end = min(begin + _BLOCK_ROWS, stop)
            # row-major values of the block: column j fills every width-th slot
            values = [None] * ((end - begin) * width)
            for j, column in enumerate(flat):
                values[j::width] = column[begin:end].tolist()
            write(template * (end - begin) % tuple(values))

    _write_file(path, rows, render)


def save_trajectory_csv(path, trajectory):
    """Trajectory table: s, event, four-velocity, rest-frame spin."""
    _write_csv(path, TRAJECTORY_COLUMNS, [trajectory.table])


def save_trajectory_json(path, trajectory):
    """The trajectory table as a JSON map from column name to samples."""
    write_json_report(path, {
        "format": TRAJECTORY_FORMAT,
        "data": dict(zip(TRAJECTORY_COLUMNS, trajectory.table.T)),
    })


def load_trajectory_csv(path):
    """Read a trajectory table back into a Trajectory."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header) != TRAJECTORY_COLUMNS:
            raise ContractError(f"unexpected trajectory columns: {header}")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ContractError(f"trajectory line {reader.line_num} has {len(row)} values")
            rows.append([float(v) for v in row])
    return Trajectory(np.array(rows, dtype=np.float64))


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
    # each coordinate formatted once; the text is shared by every row it is on
    texts = [np.array([format_float(v) for v in axis], dtype=object)
             for axis in spec.axis_coordinates()]
    mesh = np.meshgrid(*(np.arange(n) for n in spec.shape), indexing="ij")
    columns = [text[index.ravel()] for text, index in zip(texts, mesh)]
    for name, values in fields.items():
        columns.append(_real_field(spec, name, values).ravel())
    _write_csv(path, list(spec.axis_names) + list(fields), columns)


def write_json_report(path, payload):
    """Sorted-keys JSON indented by 2, with a trailing newline; NaN-free.

    The bytes are exactly ``json.dumps(payload, indent=2, sort_keys=True,
    allow_nan=False) + "\n"``. A 1-D float64 array anywhere in the payload
    is written as its sample list with null for each non-finite sample.
    Anything else that ``json.dumps`` refuses (NaN or infinity outside such
    an array, any other array, an object with no JSON form) raises as it
    would there, and so does a dict key that is not a str, which
    ``json.dumps`` would turn into one. Every refusal is made before the file
    is opened, and a write that fails later leaves no file behind.

    The document goes through ``_write_parts`` as one sequence of items: the
    samples of all its arrays in document order. A long document is thus
    split between processes once, whatever the number of arrays in it. An
    array's samples are encoded ``_SLICE`` at a time, so the text in memory
    is bounded by the slice, not by the array.
    """
    segments, tail = _json_segments(payload)
    offsets = [0]
    for _, samples, _ in segments:
        offsets.append(offsets[-1] + samples.size)

    def render(write, start, stop):
        for (text, samples, separator), first in zip(segments, offsets):
            begin, end = max(start, first), min(stop, first + samples.size)
            if begin >= end:
                continue
            # the text up to an array's "[" goes with its first sample
            if begin == first:
                write(text)
            for index in range(begin - first, end - first, _SLICE):
                part = samples[index:min(index + _SLICE, end - first)]
                values = part.tolist()
                for nonfinite in np.flatnonzero(~np.isfinite(part)).tolist():
                    values[nonfinite] = None
                encoded = json.dumps(values, separators=(separator, ": "))[1:-1]
                write(encoded if index == 0 else separator + encoded)
        if stop == offsets[-1]:
            write(tail)

    _write_file(path, offsets[-1], render)


# samples of an array encoded per json.dumps call: bounds the text in memory
_SLICE = 4096


def _json_segments(payload):
    """The JSON text of ``payload`` cut at its arrays, with every refusal made here.

    Returns ``(segments, tail)``. Each segment is ``(text, samples,
    separator)``: the literal text since the previous array, up to and
    including the next non-empty 1-D float64 array's opening bracket and
    indent; that array; and the text between two of its samples. ``tail`` is
    the text after the last array, the final newline included. Dicts, lists
    and tuples are walked here, so that only scalars and keys go to
    ``json.dumps``: with indent set, it would fall back to its pure-Python
    encoder for the whole document.
    """
    segments, text = [], []

    def walk(value, newline):
        inner = newline + "  "
        if isinstance(value, dict):
            for key in value:
                if not isinstance(key, str):
                    raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            if not value:
                text.append("{}")
                return
            opener = "{"
            for key in sorted(value):
                text.append(opener + inner + json.dumps(key) + ": ")
                walk(value[key], inner)
                opener = ","
            text.append(newline + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                text.append("[]")
                return
            opener = "["
            for item in value:
                text.append(opener + inner)
                walk(item, inner)
                opener = ","
            text.append(newline + "]")
        elif isinstance(value, np.ndarray):
            if value.ndim != 1 or value.dtype != np.float64:
                raise TypeError(
                    f"only 1-D float64 arrays are written, not {value.ndim}-D {value.dtype}"
                )
            if not value.size:
                text.append("[]")
                return
            text.append("[" + inner)
            segments.append(("".join(text), value, "," + inner))
            text[:] = [newline + "]"]
        else:
            text.append(json.dumps(value, allow_nan=False))

    walk(payload, "\n")
    text.append("\n")
    return segments, "".join(text)
