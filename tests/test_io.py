"""Deterministic file formats: grid containers, trajectory tables, reports."""

import csv
import io
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dirachydro.dynamics import DynState, PrecessionFit, Trajectory, integrate
from dirachydro.errors import ContractError
from dirachydro.fields import UniformField
from dirachydro import _parts
from dirachydro import io as dio
from dirachydro.grids import GridSpec
from dirachydro.io import (
    _BLOCK_ROWS,
    _PART_ROWS,
    _SLICE,
    _write_csv,
    _write_parts,
    FIT_COLUMNS,
    GRID_FORMAT,
    TRAJECTORY_COLUMNS,
    format_float,
    load_grid_fields,
    load_trajectory_csv,
    save_fit_csv,
    save_grid_fields,
    save_slice_csv,
    save_trajectory_csv,
    save_trajectory_json,
    write_json_report,
)

# awkward floats: every one must come out exactly as csv.writer wrote it
EDGE_VALUES = np.array([
    np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
    -1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5e-17, 123456789.0,
])


def _spec2d():
    return GridSpec(
        active_axes=(0, 1), shape=(7, 9), spacing=(0.1, 0.2), origin=(0.0, -0.5, 0.0, 0.0)
    )


def _spec2d_blocks():
    """A slice of several CSV blocks whose coordinates print 17 digits."""
    return GridSpec(
        active_axes=(1, 3), shape=(5, 2 * _BLOCK_ROWS - 3), spacing=(0.1, 0.1),
        origin=(0.0, -0.3, 0.0, -0.3),
    )


def _spec1d():
    return GridSpec(active_axes=(1,), shape=(9,), spacing=(0.2,), origin=(0.0, -0.5, 0.0, 0.0))


def _reference_csv(header, rows):
    """The csv.writer + format_float table the writers must reproduce."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_float(v) for v in row])
    return buffer.getvalue().encode("utf-8")


def _edge_fill(shape, offset):
    return np.resize(np.roll(EDGE_VALUES, offset), shape)


def _trajectory():
    state = DynState(
        x=np.zeros(4),
        u=np.array([np.cosh(0.4), np.sinh(0.4), 0.0, 0.0]),
        s_rest=np.array([0.0, 0.0, 1.0]),
    )
    provider = UniformField(B0=np.array([0.0, 0.0, 0.7]))
    return integrate(state, provider, ds=0.05, n_steps=40)


def test_format_float_round_trips_exactly():
    rng = np.random.default_rng(17)
    values = np.concatenate([
        rng.normal(size=200),
        rng.normal(size=100) * 1e-200,
        rng.normal(size=100) * 1e200,
        [0.0, 1.0, -1.0, np.pi],
    ])
    for v in values:
        assert float(format_float(v)) == float(v)


def test_grid_container_round_trip(tmp_path):
    spec = _spec2d()
    rng = np.random.default_rng(5)
    plain = rng.normal(size=spec.shape)
    masked = np.ma.MaskedArray(rng.normal(size=spec.shape), mask=np.zeros(spec.shape, bool))
    masked.mask[2, 3] = True
    path = tmp_path / "fields.json"
    save_grid_fields(path, spec, {"plain": plain, "masked": masked})

    text = path.read_text()
    assert GRID_FORMAT in text
    assert "null" in text  # masked sample stored as null, not NaN

    loaded_spec, fields = load_grid_fields(path)
    assert loaded_spec == spec
    np.testing.assert_array_equal(fields["plain"], plain)
    assert np.isnan(fields["masked"][2, 3])
    good = np.delete(fields["masked"].ravel(), 2 * 9 + 3)
    np.testing.assert_array_equal(good, np.delete(masked.data.ravel(), 2 * 9 + 3))


def test_grid_container_rejections(tmp_path):
    spec = _spec2d()
    with pytest.raises(ContractError):
        save_grid_fields(tmp_path / "x.json", spec, {"bad": np.ones((3, 3))})
    with pytest.raises(ContractError):
        save_grid_fields(
            tmp_path / "x.json", spec, {"cplx": np.ones(spec.shape, dtype=complex)}
        )
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"format": "something-else", "fields": {}}))
    with pytest.raises(ContractError):
        load_grid_fields(other)


def test_trajectory_round_trip(tmp_path):
    traj = _trajectory()
    path = tmp_path / "traj.csv"
    save_trajectory_csv(path, traj)

    header = path.read_text().splitlines()[0]
    assert header == ",".join(TRAJECTORY_COLUMNS)

    loaded = load_trajectory_csv(path)
    np.testing.assert_array_equal(loaded.s, traj.s)
    np.testing.assert_array_equal(loaded.x, traj.x)
    np.testing.assert_array_equal(loaded.u, traj.u)
    np.testing.assert_array_equal(loaded.s_rest, traj.s_rest)


# any float64, with the awkward ones drawn often
_ANY_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.nan, np.inf, -np.inf]),
)


def _same_bits(got, want):
    """Equal bit for bit, except that a NaN may come back with another payload."""
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and np.array_equal(
        got[~nan].view(np.int64), want[~nan].view(np.int64)
    )


@settings(max_examples=60)
@given(st.integers(1, 6).flatmap(lambda rows: arrays(np.float64, (rows, 12), elements=_ANY_FLOAT)))
def test_trajectory_csv_round_trips_any_float64(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traj.csv"
        save_trajectory_csv(path, Trajectory(table))
        loaded = load_trajectory_csv(path)
    got = np.column_stack([loaded.s, loaded.x, loaded.u, loaded.s_rest])
    assert _same_bits(got, table)


@settings(max_examples=60)
@given(st.tuples(st.integers(5, 8), st.integers(5, 8)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=_ANY_FLOAT)))
def test_grid_container_round_trips_finite_values_and_nulls_the_rest(values):
    spec = GridSpec(active_axes=(0, 1), shape=values.shape, spacing=(0.1, 0.2))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fields.json"
        save_grid_fields(path, spec, {"f": values})
        _, fields = load_grid_fields(path)
    assert _same_bits(fields["f"], np.where(np.isfinite(values), values, np.nan))


def test_trajectory_table_rejections(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("s,t,x\n0.0,0.0,0.0\n")
    with pytest.raises(ContractError):
        load_trajectory_csv(bad)
    extra = tmp_path / "extra.csv"
    extra.write_text(",".join(TRAJECTORY_COLUMNS + ("gamma",)) + "\n" + ",".join(["0"] * 13) + "\n")
    with pytest.raises(ContractError):
        load_trajectory_csv(extra)
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(",".join(TRAJECTORY_COLUMNS) + "\n")
    with pytest.raises(ContractError):
        load_trajectory_csv(header_only)
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    with pytest.raises(ContractError, match="unexpected trajectory columns"):
        load_trajectory_csv(empty)
    for shape in [(12,), (3, 11), (3, 13), (2, 3, 12)]:
        with pytest.raises(ContractError):
            Trajectory(np.zeros(shape))


def test_ragged_trajectory_csv_is_refused_naming_the_row(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text(",".join(TRAJECTORY_COLUMNS) + "\n" + ",".join(["0"] * 12) + "\n"
                      + "0,1,2\n")
    with pytest.raises(ContractError, match="line 3 has 3 values"):
        load_trajectory_csv(ragged)


def test_trajectory_columns_are_read_only_views_of_the_table():
    table = np.arange(36.0).reshape(3, 12)
    traj = Trajectory(table)
    for column in (traj.s, traj.x, traj.u, traj.s_rest):
        assert np.shares_memory(column, table)
        assert not column.flags.writeable
    np.testing.assert_array_equal(np.column_stack([traj.s, traj.x, traj.u, traj.s_rest]), table)


@pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                               2 * _BLOCK_ROWS + 1])
def test_trajectory_csv_bytes_match_csv_writer(tmp_path, n):
    traj = Trajectory(np.column_stack([_edge_fill((n,), 0), _edge_fill((n, 4), 1),
                                       _edge_fill((n, 4), 2), _edge_fill((n, 3), 3)]))
    rows = traj.table.tolist()
    path = tmp_path / "traj.csv"
    save_trajectory_csv(path, traj)
    assert path.read_bytes() == _reference_csv(TRAJECTORY_COLUMNS, rows)


@pytest.mark.parametrize("spec", [_spec1d(), _spec2d(), _spec2d_blocks()],
                         ids=["1d", "2d", "2d-blocks"])
def test_slice_csv_bytes_match_csv_writer(tmp_path, spec):
    plain = _edge_fill(spec.shape, 0)
    masked = np.ma.MaskedArray(_edge_fill(spec.shape, 5), mask=np.zeros(spec.shape, bool))
    masked.mask.flat[4] = True
    path = tmp_path / "slice.csv"
    save_slice_csv(path, spec, {"plain": plain, "masked": masked})

    coords = spec.axis_coordinates()
    rows = []
    for index in np.ndindex(*spec.shape):
        filled = np.nan if masked.mask[index] else masked.data[index]
        rows.append([c[i] for c, i in zip(coords, index)] + [plain[index], filled])
    header = list(spec.axis_names) + ["plain", "masked"]
    assert path.read_bytes() == _reference_csv(header, rows)


def test_fit_csv_rows_end_in_crlf(tmp_path):
    fit = PrecessionFit(omega=0.5, axis=np.array([0.0, -0.0, 1.0]),
                        rms_residual=1e-15, total_angle=31.4)
    path = tmp_path / "fit.csv"
    save_fit_csv(path, fit)
    written = path.read_bytes()
    assert written == _reference_csv(FIT_COLUMNS, [[0.5, 0.0, -0.0, 1.0, 1e-15, 31.4]])
    assert written.endswith(b"\r\n") and written.count(b"\r\n") == 2


def test_slice_csv_one_free_axis(tmp_path):
    spec = _spec1d()
    values = np.arange(9, dtype=np.float64)
    path = tmp_path / "slice.csv"
    save_slice_csv(path, spec, {"f": values})
    lines = path.read_text().splitlines()
    assert lines[0] == "x,f"
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    assert float(first[0]) == -0.5
    assert float(first[1]) == values[0]


def test_slice_csv_two_free_axes(tmp_path):
    spec = _spec2d()
    values = np.zeros(spec.shape)
    path = tmp_path / "surface.csv"
    save_slice_csv(path, spec, {"f": values})
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,f"
    assert len(lines) == 1 + 7 * 9


def test_slice_csv_rejections(tmp_path):
    spec = _spec2d()
    with pytest.raises(ContractError):
        save_slice_csv(tmp_path / "s.csv", spec, {"f": np.zeros((2, 2))})
    # three or more axes have no CSV form; they go to the grid container
    cube = GridSpec(active_axes=(0, 1, 2), shape=(5, 5, 5), spacing=(0.1, 0.1, 0.1))
    with pytest.raises(ContractError, match="3 axes"):
        save_slice_csv(tmp_path / "s.csv", cube, {"f": np.zeros(cube.shape)})


def test_grid_writers_refuse_a_complex_field(tmp_path):
    """Neither writer drops an imaginary part; both refuse before writing."""
    spec = _spec2d()
    fields = {"f": np.zeros(spec.shape), "cplx": np.full(spec.shape, 1.0 + 2.0j)}
    for writer, name in ((save_grid_fields, "g.json"), (save_slice_csv, "s.csv")):
        with pytest.raises(ContractError, match="complex"):
            writer(tmp_path / name, spec, fields)
        assert not (tmp_path / name).exists()


@pytest.mark.parametrize("name", ["a,b", 'say "hi"', "cr\r", "lf\n"])
def test_csv_rejects_names_that_need_quoting(tmp_path, name):
    spec = _spec1d()
    path = tmp_path / "s.csv"
    with pytest.raises(ContractError, match="quoting"):
        save_slice_csv(path, spec, {name: np.zeros(spec.shape)})
    assert not path.exists()


@pytest.mark.parametrize("header", [["a"], ["a", "b", "c"]], ids=["short", "long"])
def test_csv_refuses_a_header_of_another_width(tmp_path, header):
    """Its own reader could not read back a table whose header misnames the columns."""
    path = tmp_path / "t.csv"
    with pytest.raises(ContractError, match="header"):
        _write_csv(path, header, [np.zeros((3, 2))])
    assert not path.exists()


# a split write forks and places its parts with the CPU-affinity calls
_splits = pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity"),
                             reason="needs os.fork and os.sched_setaffinity")


def _table_bytes(write, path, cores, part_rows=_PART_ROWS):
    """The bytes ``write(path)`` leaves with the given core count and part size.

    The write must leave this process's CPU mask as it found it.
    """
    cpus = os.sched_getaffinity(0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_parts, "usable_cores", lambda: cores)
        patch.setattr(dio, "_PART_ROWS", part_rows)
        write(path)
    assert os.sched_getaffinity(0) == cpus
    return path.read_bytes()


def _trajectory_table(rows, seed):
    table = np.random.default_rng(seed).normal(size=(rows, 12)) * 1e5
    return Trajectory(np.where(np.arange(rows * 12).reshape(rows, 12) % 7 == 0,
                               _edge_fill((rows, 12), seed), table))


def _slice_fields(spec, seed):
    values = np.random.default_rng(seed).normal(size=spec.shape)
    masked = np.ma.MaskedArray(_edge_fill(spec.shape, seed), mask=values > 1.0)
    return {"plain": values, "masked": masked}


def _assert_parts_do_not_change_bytes(tmp, traj, spec, fields, cores, part_rows):
    """A table split ``cores`` ways is bitwise the one-process table."""
    for name, write in (("traj.csv", lambda path: save_trajectory_csv(path, traj)),
                        ("slice.csv", lambda path: save_slice_csv(path, spec, fields))):
        one = _table_bytes(write, Path(tmp) / f"one-{name}", 1, part_rows)
        split = _table_bytes(write, Path(tmp) / f"split-{name}", cores, part_rows)
        assert split == one


@_splits
@settings(max_examples=30)
@given(part_rows=st.integers(1, 2 * _BLOCK_ROWS), cores=st.integers(2, 4),
       parts=st.integers(1, 5), offset=st.integers(-1, 1), n0=st.integers(5, 7),
       seed=st.integers(0, 2**16))
def test_csv_bytes_do_not_depend_on_the_part_count(part_rows, cores, parts, offset, n0, seed):
    """Row counts on and either side of part boundaries, split evenly or not.

    The trajectory has exactly ``parts * part_rows + offset`` rows; the slice
    has as many when ``n0`` divides them and at least 5 per axis.
    """
    rows = max(1, parts * part_rows + offset)
    spec = GridSpec(active_axes=(1, 2), shape=(n0, max(5, -(-rows // n0))), spacing=(0.1, 0.3),
                    origin=(0.0, -0.3, 0.7, 0.0))
    with tempfile.TemporaryDirectory() as tmp:
        _assert_parts_do_not_change_bytes(tmp, _trajectory_table(rows, seed), spec,
                                          _slice_fields(spec, seed), cores, part_rows)


@_splits
def test_full_size_csv_bytes_do_not_depend_on_the_part_count(tmp_path):
    """A 45k-row trajectory and a 257^2 slice, split in two at the real part size."""
    spec = GridSpec(active_axes=(0, 1), shape=(257, 257), spacing=(0.01, 0.01),
                    origin=(-1.28, -1.28, 0.0, 0.0))
    _assert_parts_do_not_change_bytes(tmp_path, _trajectory_table(45_000, 9), spec,
                                      _slice_fields(spec, 9), 2, _PART_ROWS)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class _RenderFailed(Exception):
    pass


@_splits
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("fails", ["child", "child-after-text", "parent"])
def test_a_failed_part_reaps_every_child_and_closes_every_file(tmp_path, monkeypatch, fails):
    """A part that fails only in its child is rendered again here, over any text
    the child left, so the write has the one-process bytes; a part that fails
    here raises. Either way no child, no open file and no CPU pin is left."""
    monkeypatch.setattr(_parts, "usable_cores", lambda: 3)
    monkeypatch.setattr(dio, "_PART_ROWS", 4)
    maker = os.getpid()

    def render(write, start, stop):
        if fails != "parent" and os.getpid() != maker:
            if fails == "child-after-text":
                # more than the file's buffers hold, so it reaches the file
                write("x" * (1 << 16))
            raise _RenderFailed(f"rows {start} to {stop}")
        if fails == "parent" and start == 0:
            raise _RenderFailed(f"rows {start} to {stop}")
        write(f"{start},{stop}\r\n")

    fds, cpus = _open_fds(), os.sched_getaffinity(0)
    path = tmp_path / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fails == "parent":
            with pytest.raises(_RenderFailed):
                _write_parts(fh, 12, render)
        else:
            _write_parts(fh, 12, render)
    if fails != "parent":
        assert path.read_bytes() == b"0,4\r\n4,8\r\n8,12\r\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds
    assert os.sched_getaffinity(0) == cpus


@_splits
def test_parts_are_appended_in_row_order_each_from_its_own_cpu(tmp_path, monkeypatch):
    monkeypatch.setattr(_parts, "usable_cores", lambda: 3)
    monkeypatch.setattr(dio, "_PART_ROWS", 4)
    cpus = os.sched_getaffinity(0)
    path = tmp_path / "t.csv"

    def render(write, start, stop):
        write(f"{start}-{stop}:{os.getpid()}:{sorted(os.sched_getaffinity(0))};")

    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_parts(fh, 14, render)
    parts = [part.split(":") for part in path.read_text().split(";")[:-1]]
    assert [bounds for bounds, _, _ in parts] == ["0-4", "4-9", "9-14"]
    assert parts[0][1] == str(os.getpid()) and len({pid for _, pid, _ in parts}) == 3
    # part k on the k-th usable CPU, cycling where there are fewer than three
    assert [mask for _, _, mask in parts] == [str([c]) for c in (sorted(cpus) * 3)[:3]]
    assert os.sched_getaffinity(0) == cpus


@pytest.mark.parametrize("cores, rows", [(1, 50), (4, 7)], ids=["one-core", "short-table"])
def test_one_part_never_forks(tmp_path, monkeypatch, cores, rows):
    """One core, or fewer than two parts' rows, is written by this process alone."""
    def no_fork():
        raise AssertionError("a one-part write forked")

    monkeypatch.setattr(_parts, "usable_cores", lambda: cores)
    monkeypatch.setattr(dio, "_PART_ROWS", 4)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    traj = _trajectory_table(rows, 1)
    path = tmp_path / "traj.csv"
    save_trajectory_csv(path, traj)
    assert path.read_bytes() == _reference_csv(TRAJECTORY_COLUMNS, traj.table.tolist())


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_a_platform_without_fork_or_affinity_has_one_core(monkeypatch, missing):
    monkeypatch.delattr(os, missing, raising=False)
    assert _parts.usable_cores() == 1


def test_json_report_is_deterministic(tmp_path):
    payload = {"b": [1.5, 2.5], "a": {"z": 1, "k": "text"}}
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    write_json_report(first, payload)
    write_json_report(second, {"a": {"k": "text", "z": 1}, "b": [1.5, 2.5]})
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    with pytest.raises(ValueError):
        write_json_report(tmp_path / "nan.json", {"v": float("nan")})


def _reference_json(payload):
    """The bytes write_json_report must reproduce."""
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


AWKWARD_PAYLOADS = {
    "empty-dict": {},
    "empty-list": [],
    "empty-members": {"d": {}, "l": [], "t": ()},
    "nested-lists": [[1, [2.5, []]], [[[]]], [{"a": [None]}], 3],
    "tuples": {"t": (1, (2.0, "x")), "u": ((),)},
    "floats": [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1e16, 1e-7],
    "scalars": {"n": None, "t": True, "f": False, "i": -12, "big": 2**70},
    "text": {"\u03c1": "\u03c1", 'quote"key': 'back\\slash "q"', "ctl\nkey": "\x00\t"},
    "mixed-list": [1, {"b": 2, "a": [1, {}]}, [], "s", None],
    "one-sample-container": {
        "format": GRID_FORMAT,
        "grid": {"active_axes": [1], "shape": [1], "spacing": [0.2],
                 "origin": [0.0, -0.5, 0.0, 0.0]},
        "order": "row-major",
        "fields": {"masked": [None], "plain": [-0.0]},
    },
    "top-level-scalar": 5e-324,
}


@pytest.mark.parametrize("payload", AWKWARD_PAYLOADS.values(), ids=AWKWARD_PAYLOADS.keys())
def test_json_writer_bytes_match_json_dumps(tmp_path, payload):
    path = tmp_path / "out.json"
    write_json_report(path, payload)
    assert path.read_bytes() == _reference_json(payload)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=60)
@given(_JSON_VALUES)
def test_json_writer_matches_json_dumps_on_any_payload(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        write_json_report(path, payload)
        assert path.read_bytes() == _reference_json(payload)


def test_grid_container_bytes_match_json_dumps(tmp_path):
    spec = _spec2d()
    fields = {"b": _edge_fill(spec.shape, 0), "a": _edge_fill(spec.shape, 7)}
    path = tmp_path / "fields.json"
    save_grid_fields(path, spec, fields)
    assert path.read_bytes() == _reference_json(json.loads(path.read_text()))


REFUSED_PAYLOADS = {
    "nan": ({"v": [1.0, float("nan")]}, ValueError),
    "inf": ({"a": 1, "b": {"c": float("inf")}}, ValueError),
    "int-key": ({1: "int key"}, TypeError),
    "none-key": ({"a": [1.0], "b": {None: 1.0}}, TypeError),
    "tuple-key": ({"a": {(1, 2): 1.0}}, TypeError),
}


@pytest.mark.parametrize("payload, error", REFUSED_PAYLOADS.values(), ids=REFUSED_PAYLOADS.keys())
def test_json_writer_refuses_bad_payloads_and_leaves_no_file(tmp_path, payload, error):
    """NaN and infinity raise as in json.dumps; a key json.dumps would rewrite is refused."""
    path = tmp_path / "refused.json"
    with pytest.raises(error):
        write_json_report(path, payload)
    assert not path.exists()


def test_grid_container_writer_memory_is_bounded(tmp_path):
    """The container is streamed: no whole document and one field's samples at a time.

    Measured 45 bytes per value (Python 3.11, NumPy 2.4) with 7 fields of
    9^4 samples; the bound is 1.5 times that. Building every field's sample
    list before the write took 72 bytes per value, and encoding the whole
    document before writing it took 144.
    """
    spec = GridSpec(active_axes=(0, 1, 2, 3), shape=(9,) * 4, spacing=(0.05,) * 4)
    rng = np.random.default_rng(3)
    fields = {f"f{k}": rng.normal(size=spec.shape) for k in range(7)}
    tracemalloc.start()
    try:
        save_grid_fields(tmp_path / "g.json", spec, fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (7 * 9**4) <= 1.5 * 45


_SLICE_SIZES = [0, 1, _SLICE - 1, _SLICE, _SLICE + 1]
_NON_FINITE = [np.nan, np.inf, -np.inf]


@settings(max_examples=25)
@given(
    size=st.sampled_from(_SLICE_SIZES) | st.integers(0, 3 * _SLICE + 2),
    seed=st.integers(0, 2**32),
    edge_values=st.lists(st.sampled_from(_NON_FINITE + [-0.0, 5e-324, 1.7976931348623157e308]),
                         min_size=6, max_size=6),
    nest=st.sampled_from(["top", "dict", "list"]),
)
def test_json_writer_encodes_float_arrays_in_slices(size, seed, edge_values, nest):
    """A 1-D float64 array is written as its sample list, null where not finite."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size)
    values[rng.random(size) < 0.01] = np.nan
    # awkward samples on both sides of every slice boundary
    edges = [i for k in range(0, size + _SLICE, _SLICE) for i in (k - 1, k) if 0 <= i < size]
    for index, value in zip(edges, edge_values * len(edges)):
        values[index] = value
    samples = [v if np.isfinite(v) else None for v in values.tolist()]
    payload, reference = {
        "top": (values, samples),
        "dict": ({"b": values, "a": [1.5]}, {"b": samples, "a": [1.5]}),
        "list": ([values, {"x": values}], [samples, {"x": samples}]),
    }[nest]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        write_json_report(path, payload)
        assert path.read_bytes() == _reference_json(reference)


OTHER_ARRAYS = {"2-d": np.zeros((3, 4)), "int": np.arange(5)}


@pytest.mark.parametrize("array", OTHER_ARRAYS.values(), ids=OTHER_ARRAYS.keys())
def test_json_writer_refuses_other_arrays_and_leaves_no_file(tmp_path, array):
    """Only 1-D float64 arrays have a JSON form here; json.dumps refuses every array."""
    path = tmp_path / "refused.json"
    with pytest.raises(TypeError):
        write_json_report(path, {"a": [1.0], "f": array})
    assert not path.exists()


def _grid_writer_peak(tmp_path, n):
    spec = GridSpec(active_axes=(0, 1, 2, 3), shape=(n,) * 4, spacing=(0.05,) * 4)
    field = np.random.default_rng(4).normal(size=spec.shape)
    tracemalloc.start()
    try:
        save_grid_fields(tmp_path / "g.json", spec, {"f": field})
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_writer_memory_does_not_grow_with_the_field(tmp_path):
    """Samples are encoded a slice at a time, so 13 times the samples is not 13 times the peak.

    Measured 0.59 MB at both 9^4 and 17^4 (Python 3.11, NumPy 2.4); building
    the whole sample list and its text took 9.3 MB at 17^4.
    """
    # the first write in a process allocates once for good; keep it out of the peaks
    _grid_writer_peak(tmp_path, 5)
    assert _grid_writer_peak(tmp_path, 17) <= 1.5 * _grid_writer_peak(tmp_path, 9)


REFUSALS = {**REFUSED_PAYLOADS,
            **{f"{name}-array": ({"f": array}, TypeError) for name, array in OTHER_ARRAYS.items()}}


@pytest.mark.parametrize("payload, error", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_refused_json_payload_opens_no_file_and_forks_nothing(tmp_path, monkeypatch,
                                                               payload, error):
    """Every refusal is made before the file is opened, even after samples
    enough for four parts."""
    def refuse(*args, **kwargs):
        raise AssertionError("a refused payload was written")

    monkeypatch.setattr(_parts, "usable_cores", lambda: 4)
    monkeypatch.setattr(dio, "_PART_ROWS", 1)
    monkeypatch.setattr(os, "fork", refuse, raising=False)
    monkeypatch.setattr(dio, "open", refuse, raising=False)
    path = tmp_path / "refused.json"
    with pytest.raises(error):
        write_json_report(path, {"a": np.linspace(0.0, 1.0, 64), "b": payload})
    assert not path.exists()


def _json_samples(size, seed):
    """``size`` float64 samples over the exponent range, with nan, +-inf and
    signed zero among them and on both sides of every slice boundary."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size)
    awkward = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324])
    picked = rng.random(size) < 0.05
    values[picked] = rng.choice(awkward, size=int(picked.sum()))
    edges = [i for k in range(0, size + _SLICE, _SLICE) for i in (k - 1, k) if 0 <= i < size]
    values[edges] = rng.choice(awkward, size=len(edges))
    return values


@st.composite
def _split_documents(draw):
    """A payload of several arrays, the document json.dumps must write for it,
    and a part size: arrays on and either side of part and slice boundaries,
    some empty, at the top, in dicts and in lists, with scalars between them."""
    part_rows = draw(st.integers(1, 64))
    sizes = (st.sampled_from([0, 1, part_rows - 1, part_rows, part_rows + 1,
                              _SLICE - 1, _SLICE, _SLICE + 1])
             | st.integers(0, 3 * part_rows))
    scalars = (st.none() | st.booleans() | st.integers() | st.text(max_size=3)
               | st.floats(allow_nan=False, allow_infinity=False))
    payload, reference = {}, {}
    for k in range(draw(st.integers(1, 4))):
        values = _json_samples(draw(sizes), draw(st.integers(0, 2**16)))
        samples = [v if np.isfinite(v) else None for v in values.tolist()]
        scalar = draw(scalars)
        payload[f"a{k}"], reference[f"a{k}"] = draw(st.sampled_from([
            (values, samples),
            ({"s": scalar, "v": values}, {"s": scalar, "v": samples}),
            ([scalar, values, {"w": values}], [scalar, samples, {"w": samples}]),
        ]))
    return payload, reference, part_rows


@_splits
@settings(max_examples=30)
@given(document=_split_documents(), cores=st.integers(2, 4))
def test_json_bytes_do_not_depend_on_the_part_count(document, cores):
    payload, reference, part_rows = document
    with tempfile.TemporaryDirectory() as tmp:
        def write(path):
            write_json_report(path, payload)

        one = _table_bytes(write, Path(tmp) / "one.json", 1, part_rows)
        split = _table_bytes(write, Path(tmp) / "split.json", cores, part_rows)
    assert split == one == _reference_json(reference)


@_splits
def test_full_size_json_bytes_do_not_depend_on_the_part_count(tmp_path):
    """A 17^4 container of 7 fields and a 45k-step trajectory, split in two
    at the real part size."""
    spec = GridSpec(active_axes=(0, 1, 2, 3), shape=(17,) * 4, spacing=(0.05,) * 4)
    fields = {f"f{k}": _json_samples(17**4, k).reshape(spec.shape) for k in range(7)}
    traj = _trajectory_table(45_000, 9)
    for name, write in (("grid.json", lambda path: save_grid_fields(path, spec, fields)),
                        ("traj.json", lambda path: save_trajectory_json(path, traj))):
        one = _table_bytes(write, tmp_path / f"one-{name}", 1)
        split = _table_bytes(write, tmp_path / f"split-{name}", 2)
        assert split == one


class _FailingSamples(np.ndarray):
    """Float64 samples whose encoding fails in one process: the one that made
    them (``in_maker``) or any other."""

    def tolist(self):
        if (os.getpid() == self.maker) == self.in_maker:
            raise _RenderFailed(f"encoding in process {os.getpid()}")
        return super().tolist()


@_splits
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("fails", ["child", "parent"])
def test_a_failed_json_part_reaps_every_child_and_closes_every_file(tmp_path, monkeypatch,
                                                                      fails):
    """Samples whose encoding fails only in a child are encoded again here, and the
    document has the one-process bytes; where it fails here, the write raises and
    leaves no file."""
    monkeypatch.setattr(_parts, "usable_cores", lambda: 3)
    monkeypatch.setattr(dio, "_PART_ROWS", 4)
    monkeypatch.setattr(_FailingSamples, "maker", os.getpid(), raising=False)
    monkeypatch.setattr(_FailingSamples, "in_maker", fails == "parent", raising=False)
    samples = np.linspace(0.0, 1.0, 12).view(_FailingSamples)
    fds, cpus = _open_fds(), os.sched_getaffinity(0)
    path = tmp_path / "t.json"
    if fails == "parent":
        with pytest.raises(_RenderFailed):
            write_json_report(path, {"a": samples, "b": 1})
        assert not path.exists()
    else:
        write_json_report(path, {"a": samples, "b": 1})
        assert path.read_bytes() == _reference_json(
            {"a": np.linspace(0.0, 1.0, 12).tolist(), "b": 1})
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds
    assert os.sched_getaffinity(0) == cpus


class _FailingText:
    """A CSV text value whose text cannot be made, in any process."""

    def __str__(self):
        raise _RenderFailed("no text for this value")


class _LateSamples(np.ndarray):
    """Float64 samples whose encoding fails, in any process, past the first ten."""

    def tolist(self):
        if self.size and self[0] >= 10.0:
            raise _RenderFailed("no text for these samples")
        return super().tolist()


@_splits
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failed_write_leaves_no_file(tmp_path, monkeypatch, fmt):
    """A part that fails after the file was opened and part 0 rendered, in its child
    and again here, makes the write raise and removes the file."""
    monkeypatch.setattr(_parts, "usable_cores", lambda: 2)
    monkeypatch.setattr(dio, "_PART_ROWS", 4)
    path = tmp_path / f"t.{fmt}"
    with pytest.raises(_RenderFailed):
        if fmt == "csv":
            text = np.array([f"{k}" for k in range(10)] + [_FailingText()] * 10, dtype=object)
            _write_csv(path, ["v"], [text])
        else:
            write_json_report(path, {"a": np.arange(20.0).view(_LateSamples)})
    assert not path.exists()


@_splits
def test_a_fork_that_fails_writes_the_one_process_bytes(tmp_path):
    """With no process to be had, a 45k-row trajectory CSV and a 17^4 grid container
    are written here, part after part, with the bytes of a one-CPU write."""
    spec = GridSpec(active_axes=(0, 1, 2, 3), shape=(17,) * 4, spacing=(0.05,) * 4)
    fields = {f"f{k}": _json_samples(17**4, k).reshape(spec.shape) for k in range(7)}
    traj = _trajectory_table(45_000, 9)
    forks = []

    def no_process():
        forks.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    for name, write in (("traj.csv", lambda path: save_trajectory_csv(path, traj)),
                        ("grid.json", lambda path: save_grid_fields(path, spec, fields))):
        one = _table_bytes(write, tmp_path / f"one-{name}", 1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "fork", no_process)
            split = _table_bytes(write, tmp_path / f"split-{name}", 2)
        assert split == one
    assert len(forks) == 2
