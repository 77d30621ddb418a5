"""Shared pytest hooks for the acceptance summary.

Tests in test_acceptance.py are marked with their criterion number and
register a one-line detail string while they run; a terminal-summary hook
prints the collected lines in order, so every full test run ends with an
explicit pass/fail verdict per acceptance criterion.

Also shared by the test modules: the hypothesis settings profile,
``measured_order``, ``draw_unit``, ``draw_transverse_unit`` and
``child_env`` (import them with ``from conftest import ...``).
"""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

import dirachydro.errors
from dirachydro.errors import ContractError

# property tests draw the same examples on every run and write no database
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

_TITLES = {}
_DETAILS = {}
_OUTCOMES = {}


def register_criterion(number, title, detail):
    """Attach the summary line for one acceptance criterion.

    Call before the final asserts so the measured numbers show up in the
    summary even when the criterion fails.
    """
    number = int(number)
    _TITLES[number] = title
    _DETAILS[number] = detail


def measured_order(coarse, mid, fine):
    """Convergence order from three refinements sampled at shared points.

    The arrays must be aligned (same physical points, h halved twice);
    the order is log2 of the ratio of successive max differences, which
    needs no knowledge of the continuum limit.
    """
    coarse = np.asarray(coarse, dtype=np.float64)
    mid = np.asarray(mid, dtype=np.float64)
    fine = np.asarray(fine, dtype=np.float64)
    if not (coarse.shape == mid.shape == fine.shape):
        raise ContractError("refinement samples must be aligned to shared points")
    first = float(np.max(np.abs(coarse - mid)))
    second = float(np.max(np.abs(mid - fine)))
    if second < 1e-300:
        raise ContractError("refinement differences vanish; order undefined")
    return float(np.log2(first / second))


def draw_unit(draw):
    """A random unit three-vector for a hypothesis test that draws with ``draw``."""
    vector = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    assume(np.linalg.norm(vector) > 0.1)
    return vector / np.linalg.norm(vector)


def draw_transverse_unit(draw, n):
    """A random unit three-vector perpendicular to the unit vector n."""
    vector = draw_unit(draw)
    vector = vector - (vector @ n) * n
    assume(np.linalg.norm(vector) > 0.1)
    return vector / np.linalg.norm(vector)


def child_env():
    """Environment for a child Python process that imports the package under test.

    The package's absolute parent directory goes first on PYTHONPATH, ahead
    of any inherited entries: a child that runs from another working
    directory would not resolve a relative one.
    """
    package_root = str(Path(dirachydro.errors.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, inherited])))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(number, title): maps a test to an acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    number = int(marker.args[0])
    _OUTCOMES[number] = report.passed
    if len(marker.args) > 1:
        _TITLES.setdefault(number, marker.args[1])


def pytest_terminal_summary(terminalreporter):
    if not _OUTCOMES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_OUTCOMES):
        verdict = "PASS" if _OUTCOMES[number] else "FAIL"
        title = _TITLES.get(number, "")
        detail = _DETAILS.get(number)
        line = f"criterion {number:2d} {title}: {verdict}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
