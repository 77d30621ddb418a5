"""The NumPy renderers write every float64 bitwise as ``"%.17g" % v`` writes it (CSV)
and as ``json.dumps`` writes it (JSON)."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from conftest import child_env
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirachydro import _floattext
from dirachydro._floattext import BLOCK_VALUES, csv_blocks, json_blocks


def rows_bytes(block):
    """The CSV bytes ``csv_blocks`` yields for the rows of a (rows, columns) block."""
    return b"".join(csv_blocks(list(block.T), 0, block.shape[0]))


def json_bytes(values, separator):
    """The JSON text ``json_blocks`` yields for ``values``, one gather per block."""
    blocks = list(json_blocks(values, separator))
    assert len(blocks) == -(-values.size // BLOCK_VALUES)
    return b"".join(blocks)


def _reference(block):
    """The CSV bytes of a (rows, columns) block, one ``"%.17g"`` per value."""
    return "".join(",".join("%.17g" % v for v in row) + "\r\n"
                   for row in block.tolist()).encode()


def _assert_renders(values, width):
    """``values`` as rows of ``width``, the last one padded with -0.0, render as "%.17g"."""
    values = np.asarray(values, dtype=np.float64).ravel()
    block = np.concatenate([values, np.full(-values.size % width, -0.0)]).reshape(-1, width)
    assert rows_bytes(block) == _reference(block)


def _is_below_power_of_ten(value, k):
    """Whether the double ``value`` is below 10**k, compared exactly."""
    p, q = value.as_integer_ratio()
    return p * 10 ** max(-k, 0) < 10 ** max(k, 0) * q


# every power of ten the doubles reach, as the nearest double, and its neighbours
_POWERS = [float(f"1e{k}") for k in range(-323, 309)]
_SWEEP = [v for p in _POWERS for v in (p, math.nextafter(p, 0.0), math.nextafter(p, math.inf))]


@settings(max_examples=60)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3 * BLOCK_VALUES),
       width=st.integers(1, 13))
@example(bits=[0x7FF8000000000000, 0xFFF8000000000000, 1, 0x7FEFFFFFFFFFFFFF, 0x000FFFFFFFFFFFFF],
         width=2)
def test_any_bit_pattern_renders_as_percent_17g(bits, width):
    """Subnormals, extremes, NaN payloads of both signs: every float64 there is."""
    _assert_renders(np.array(bits, dtype=np.uint64).view(np.float64), width)


@pytest.mark.parametrize("width", [1, 3, 12])
def test_every_power_of_ten_and_its_neighbours_renders_as_percent_17g(width):
    assert len(_SWEEP) == 1896
    _assert_renders(_SWEEP + [-v for v in _SWEEP], width)


def test_signed_zeros_nan_and_infinities():
    values = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]
    _assert_renders(values, 6)
    assert rows_bytes(np.array([values])) == b"0,-0,nan,nan,inf,-inf\r\n"


def test_integers_near_the_ends_of_exact_doubles_and_of_17_digits():
    centres = [2.0**53, 1e16, 1e17, 2.0**63, 123456789012345678.0]
    values = [c + step * math.ulp(c) for c in centres for step in range(-3, 4)]
    _assert_renders(values + [-v for v in values], 5)


def test_digits_that_round_up_to_the_next_decade():
    """1e-14 is a double below 10**-14 whose 17 digits round up to 10**17; the double
    nearest 1e23 is below it too, but keeps its decade."""
    carried = [v for k, p in zip(range(-323, 309), _POWERS)
               for v in (p, math.nextafter(p, 0.0))
               if _is_below_power_of_ten(v, k)
               and ("%.17g" % v).partition("e")[0].replace(".", "").strip("0") == "1"]
    assert len(carried) == 14 and 1e-14 in carried
    _assert_renders(carried, 4)
    assert rows_bytes(np.array([[1e-14, 1e23, -1e16, 1e17]])) == (
        b"1e-14,9.9999999999999992e+22,-10000000000000000,1e+17\r\n")


def test_an_exact_tie_takes_the_scalar_fallback(monkeypatch):
    """1000000000000000.25 is a double whose 18th digit is an exact 5: its 17 digits
    round half to even, which only the scalar oracle decides."""
    tie = 4000000000000001 / 4
    assert tie == 1000000000000000.25
    fallback, asked = _floattext._fallback, []

    def recorded(values, text):
        asked.extend(values.tolist())
        return fallback(values, text)

    monkeypatch.setattr(_floattext, "_fallback", recorded)
    assert rows_bytes(np.array([[tie, -tie, 0.5]])) == (
        b"1000000000000000.2,-1000000000000000.2,0.5\r\n")
    assert asked == [tie, tie]


def test_importing_the_cli_builds_no_table_and_imports_no_rational_arithmetic(tmp_path):
    """Start-up stays as it was: the renderer is imported by the first CSV table or
    JSON array written, not by a report without arrays, and importing it builds no
    table."""
    probe = ("import sys, dirachydro.cli\n"
             "modules = {'fractions', 'decimal', 'dirachydro._floattext'}\n"
             "print(sorted(modules & set(sys.modules)))\n"
             "from dirachydro.io import write_json_report\n"
             "write_json_report(sys.argv[1], {'a': [1.5, {'b': None}], 'c': 0.1})\n"
             "print(sorted(modules & set(sys.modules)))\n"
             "from dirachydro import _floattext\n"
             "print(_floattext._tables)\n")
    child = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "report.json")],
                           capture_output=True, text=True, env=child_env(), check=True)
    assert child.stdout == "[]\n[]\n{}\n"


def test_rendering_with_every_scale_row_empty_does_not_import_numpy_ma():
    """Finding the scale rows a block needs loads no masked-array module: ``np.unique``
    would, and a job that writes text would pay for it."""
    probe = ("import sys\n"
             "import numpy as np\n"
             "from dirachydro._floattext import csv_blocks, json_blocks\n"
             "values = np.ldexp(np.linspace(-1.5, 1.5, 2098), np.arange(-1074, 1024))\n"
             "b''.join(csv_blocks([values, -values], 0, values.size))\n"
             "b''.join(json_blocks(values, b','))\n"
             "print('numpy.ma' in sys.modules)\n")
    child = subprocess.run([sys.executable, "-c", probe],
                           capture_output=True, text=True, env=child_env(), check=True)
    assert child.stdout == "False\n"


@pytest.mark.parametrize("form", ["csv", "json"])
def test_a_block_of_many_binary_exponents_fills_every_scale_row_it_needs(monkeypatch, form):
    """From empty tables, one block spanning hundreds of binary exponents fills the
    scale row of each of them, and no other."""
    monkeypatch.setattr(_floattext, "_tables", {})
    rng = np.random.default_rng(5)
    values = np.ldexp(rng.uniform(0.5, 1.0, BLOCK_VALUES), rng.integers(-1073, 1025, BLOCK_VALUES))
    if form == "csv":
        _assert_renders(values, 4)
    else:
        _assert_json(values)
    filled = np.flatnonzero(_floattext._tables["filled"])
    np.testing.assert_array_equal(filled, np.unique(np.frexp(values)[1]) - _floattext._E_MIN)


def test_the_renderer_imports_nothing_from_the_package():
    """A fresh interpreter that imports the renderer loads no other package module."""
    probe = ("import sys, dirachydro._floattext\n"
             "print(sorted(m for m in sys.modules if m.startswith('dirachydro.')))\n")
    child = subprocess.run([sys.executable, "-c", probe],
                           capture_output=True, text=True, env=child_env(), check=True)
    assert child.stdout == "['dirachydro._floattext']\n"


# the separators of JSON sample arrays: at the writer's depth (grid fields, trajectory
# columns), one deeper and one shallower
_SEPARATORS = [",\n      ", ",\n        ", ",\n    "]


def _assert_json(values, separator=_SEPARATORS[0]):
    """``values`` render as json.dumps writes them, null where not finite."""
    values = np.asarray(values, dtype=np.float64).ravel()
    reference = json.dumps([v if math.isfinite(v) else None for v in values.tolist()],
                           separators=(separator, ": "))[1:-1]
    assert json_bytes(values, separator.encode()) == reference.encode()


@settings(max_examples=60)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3 * BLOCK_VALUES),
       separator=st.sampled_from(_SEPARATORS))
@example(bits=[0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000000, 0xFFF0000000000000,
               1, 0x8000000000000001, 0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF,
               0x8000000000000000, 0],
         separator=_SEPARATORS[0])
def test_any_bit_pattern_renders_as_json_dumps(bits, separator):
    """Subnormals, extremes, NaN payloads of both signs: every float64 there is."""
    _assert_json(np.array(bits, dtype=np.uint64).view(np.float64), separator)


def test_every_power_of_ten_and_of_two_and_their_neighbours_render_as_json_dumps():
    """The powers of two from 2**-1074 to 2**1023 have a gap below half the gap above,
    except 2**-1022 and the subnormals."""
    twos = [2.0**k for k in range(-1074, 1024)]
    assert len(twos) == 2098 and twos[0] == 5e-324
    values = _SWEEP + twos
    _assert_json(values + [-v for v in values])


def test_integers_edges_and_extremes_render_as_json_dumps():
    integers = [float(n) for n in range(2001)] + [2.0**53 + n for n in range(-5, 6)]
    edges = [9999999999999998.0, 1e16, 1e15, 0.0001, 1e-05, 1e23, 5e-324,
             1.7976931348623157e308, 0.0, -0.0]
    _assert_json(integers + edges + [-v for v in edges])
    assert json_bytes(np.array(edges), b",") == (
        b"9999999999999998.0,1e+16,1000000000000000.0,0.0001,1e-05,1e+23,5e-324,"
        b"1.7976931348623157e+308,0.0,-0.0")
    assert json_bytes(np.array([math.nan, -math.inf, math.inf, 2.0]), b", ") == (
        b"null, null, null, 2.0")


def test_an_end_of_the_interval_on_an_integer_takes_the_fallback(monkeypatch):
    """Half the gaps from 2**53 to its neighbours are 1 above and 1/2 below, so both
    ends of the interval that reads back as it are exact decimals: whether such an end
    reads back as 2**53 is a round-half-even tie, which only ``repr`` decides."""
    fallback, asked = _floattext._fallback, []

    def recorded(values, text):
        asked.extend(values.tolist())
        return fallback(values, text)

    monkeypatch.setattr(_floattext, "_fallback", recorded)
    assert json_bytes(np.array([2.0**53, -2.0**53, 0.5]), b",") == (
        b"9007199254740992.0,-9007199254740992.0,0.5")
    assert asked == [2.0**53, 2.0**53]
