"""Deterministic file formats: grid containers, trajectory tables, reports."""

import csv
import io
import json
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
from dirachydro.grids import GridSpec
from dirachydro.io import (
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
    traj = Trajectory(s=table[:, 0], x=table[:, 1:5], u=table[:, 5:9], s_rest=table[:, 9:12])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traj.csv"
        save_trajectory_csv(path, traj)
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


def test_trajectory_csv_bytes_match_csv_writer(tmp_path):
    n = 30
    traj = Trajectory(
        s=_edge_fill((n,), 0),
        x=_edge_fill((n, 4), 1),
        u=_edge_fill((n, 4), 2),
        s_rest=_edge_fill((n, 3), 3),
    )
    rows = [[traj.s[i], *traj.x[i], *traj.u[i], *traj.s_rest[i]] for i in range(n)]
    path = tmp_path / "traj.csv"
    save_trajectory_csv(path, traj)
    assert path.read_bytes() == _reference_csv(TRAJECTORY_COLUMNS, rows)


@pytest.mark.parametrize("spec", [_spec1d(), _spec2d()], ids=["1d", "2d"])
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


@pytest.mark.parametrize("payload, error", [
    ({"v": [1.0, float("nan")]}, ValueError),
    ({"a": 1, "b": {"c": float("inf")}}, ValueError),
    ({1: "int key"}, TypeError),
    ({"a": [1.0], "b": {None: 1.0}}, TypeError),
    ({"a": {(1, 2): 1.0}}, TypeError),
], ids=["nan", "inf", "int-key", "none-key", "tuple-key"])
def test_json_writer_refuses_bad_payloads_and_leaves_no_file(tmp_path, payload, error):
    """NaN and infinity raise as in json.dumps; a key json.dumps would rewrite is refused."""
    path = tmp_path / "refused.json"
    with pytest.raises(error):
        write_json_report(path, payload)
    assert not path.exists()


def test_grid_container_writer_memory_is_bounded(tmp_path):
    """The container is streamed: no whole document is held in memory.

    Measured 69 bytes per value (Python 3.11, NumPy 2.4) with 7 fields of
    9^4 samples; the bound is 1.5 times that. Encoding the whole document
    before writing it took 144 bytes per value.
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
    assert peak / (7 * 9**4) <= 1.5 * 69
