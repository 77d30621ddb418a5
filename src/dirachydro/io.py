"""File formats: grid field containers, CSV tables, trajectory JSON, reports.

Everything here is deterministic: keys are sorted, every float is written
so that it reads back as the same float64 (CSV values with 17 significant
digits, JSON values as the shortest such text, which is what ``repr`` and
``json.dumps`` write), and nothing records wall-clock state.  Rerunning the
same computation must reproduce the same bytes.

Grid container layout: a single JSON object with a ``grid`` header
(active_axes, shape, spacing, origin) and a ``fields`` map from field name
to the flattened sample list in row-major (C) order over the grid shape.
Non-finite samples are stored as null.  For callers outside the package,
whose grids may be ``numpy.ma`` masked arrays, the writers store masked
samples the same way; they reach ``numpy.ma`` only for such an array, so
plain arrays never import it.
Every JSON file (reports, grid containers, trajectory JSON) comes from one
writer that streams the document as it encodes it.  Bulk samples reach it
as 1-D float64 arrays, whose text ``_floattext.json_blocks`` yields in
NumPy a block at a time, bitwise as ``json.dumps`` would write it, so
neither a file nor a field's sample list is ever held in memory whole.

CSV tables (trajectories, precession fits, fields of 1-D and 2-D grids) all
come from one writer: a header row, then one row per sample, CRLF row ends,
every value with 17 significant digits in ``%g`` layout (masked and
non-finite samples as nan/inf).  ``_floattext.csv_blocks`` yields the rows'
text in NumPy a block at a time, copied from slices of the float columns, a
grid table's coordinate columns included, so the text in memory is bounded
by the block, not by the table.  Grids with three or more axes have no CSV
form; they use the grid container.

The renderer decides the block size; the writers only write what it yields.
Both go through one part writer, ``_write_parts``, which writes bytes.  It
sees a file as a sequence of items: the rows of a table, or
the samples of a JSON document's arrays taken in document order as one
sequence, so a document is split once, not once per array.  A file of at
least ``2 * _PART_ROWS`` items is cut into contiguous item ranges, one per
usable core but no more than one per ``_PART_ROWS`` items, which run through
``_parts.fork_parts``: the first is rendered into the file by this process,
each other one into an unnamed temporary file, and once every part has run
the temporary files are appended in order.  Each process holds one block of
text, so memory stays bounded, and the bytes are those of a one-process
write, also where a part is rendered again in this process (see
``_parts``).  A write that fails leaves no file behind.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
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
]

GRID_FORMAT = "dirachydro-grid-v1"
TRAJECTORY_FORMAT = "dirachydro-trajectory-v1"

FIT_COLUMNS = ("frequency", "axis_x", "axis_y", "axis_z", "rms_residual", "total_angle")


def _real_field(spec, name, values):
    """A named grid field as float64 with masked samples as NaN.

    Both grid writers read their fields through here, so a complex field or
    one off the grid shape is refused before anything is written. The mask
    fill serves callers outside the package, whose masked samples would
    otherwise be written as the values under the mask; it goes through
    ``numpy.ma`` only once something has imported it, so a CLI job never does.
    """
    ma = sys.modules.get("numpy.ma")
    if ma is not None and isinstance(values, ma.MaskedArray):
        values = values.filled(np.nan)
    arr = np.asarray(values)
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


# items (table rows, document samples) per process at least: shorter files are never split
_PART_ROWS = 8192


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
    it. Once every part has run, the temporary files are appended to ``fh``
    in item order. Every temporary file is closed whether or not the write
    succeeds.
    """
    parts = per_core(items, _PART_ROWS)
    bounds = cuts(items, parts)
    files = []  # a temporary file per part after the first
    try:
        for _ in range(1, parts):
            files.append(tempfile.TemporaryFile("w+b"))

        def run(k):
            if k == 0:
                render(fh.write, bounds[0], bounds[1])
                return
            part = files[k - 1]
            part.seek(0)
            part.truncate()
            render(part.write, bounds[k], bounds[k + 1])
            part.flush()

        fork_parts(parts, run)
        for part in files:
            part.seek(0)
            shutil.copyfileobj(part, fh)
    finally:
        for part in files:
            part.close()


def _write_file(path, items, render):
    """Write the file at ``path`` through ``_write_parts``; a failed write leaves no file.

    Whatever raises once the file is open (a failed part, an error in the
    render, a failed flush or close) removes the file before it propagates.
    """
    fh = open(path, "wb")
    try:
        with fh:
            _write_parts(fh, items, render)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _write_csv(path, header, columns):
    """Write one CSV table: a header row, then one row per sample.

    ``columns`` are the table's float columns side by side, as
    ``np.column_stack`` would stack them: a 1-D array is one column, a 2-D
    array one column per entry of its second axis. Every value is written
    with 17 significant digits in ``%g`` layout, and rows end in CRLF, which
    is the csv module's default dialect; names that it would have to quote
    are refused, and so is a header that does not name every column once.
    ``_floattext.csv_blocks`` yields the rows' text, and a long table is split
    between processes by ``_write_parts``: its items are the rows, and the
    header goes with row 0.
    """
    for name in header:
        if not set(name).isdisjoint(',"\r\n'):
            raise ContractError(f"column name {name!r} would need CSV quoting")
    flat = []
    for column in (np.asarray(column, dtype=np.float64) for column in columns):
        flat.extend([column] if column.ndim == 1 else list(column.T))
    rows, width = len(flat[0]), len(flat)
    if any(len(column) != rows for column in flat):
        raise ContractError("CSV columns must all have one value per row")
    if len(header) != width:
        raise ContractError(f"a CSV header of {len(header)} names for {width} columns")
    # imported here: only CSV tables use the renderer, so other runs start without it;
    # its tables are built before any part forks, so that every part inherits them
    from ._floattext import csv_blocks, output_tables
    output_tables("csv")

    def render(write, start, stop):
        if start == 0:
            write((",".join(header) + "\r\n").encode("utf-8"))
        for block in csv_blocks(flat, start, stop):
            write(block)

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
    columns = [axis.ravel() for axis in np.meshgrid(*spec.axis_coordinates(), indexing="ij")]
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
    split between processes once, whatever the number of arrays in it.
    ``_floattext.json_blocks`` yields an array's text a block at a time, each
    sample as ``float.__repr__`` writes it, which is how ``json.dumps``
    writes a float, so the text in memory is bounded by the block, not by
    the array.
    """
    segments, tail = _json_segments(payload)
    offsets = [0]
    for _, samples, _ in segments:
        offsets.append(offsets[-1] + samples.size)
    if segments:
        # imported here: only documents with arrays use the renderer; its tables are
        # built before any part forks, so that every part inherits them
        from ._floattext import json_blocks, output_tables
        output_tables("json")

    def render(write, start, stop):
        for (text, samples, separator), first in zip(segments, offsets):
            begin, end = max(start, first), min(stop, first + samples.size)
            if begin >= end:
                continue
            # the text up to an array's "[" goes with its first sample, and a part
            # that starts inside an array starts with the separator
            write(text.encode() if begin == first else separator)
            for block in json_blocks(samples[begin - first:end - first], separator):
                write(block)
        if stop == offsets[-1]:
            write(tail.encode())

    _write_file(path, offsets[-1], render)


def _json_segments(payload):
    """The JSON text of ``payload`` cut at its arrays, with every refusal made here.

    Returns ``(segments, tail)``. Each segment is ``(text, samples,
    separator)``: the literal text since the previous array, up to and
    including the next non-empty 1-D float64 array's opening bracket and
    indent; that array; and the bytes between two of its samples. ``tail`` is
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
            segments.append(("".join(text), value, ("," + inner).encode()))
            text[:] = [newline + "]"]
        else:
            text.append(json.dumps(value, allow_nan=False))

    walk(payload, "\n")
    text.append("\n")
    return segments, "".join(text)
