"""The process entry ``cli.script``: one function for both ways of starting a run.

``python -m dirachydro.cli`` and the installed ``dirachydro`` console script
both call ``script``, which freezes the objects the imports left behind
(``gc.freeze``) and exits with ``main``'s status.  An import of ``cli`` and
an in-process ``main`` call must leave the caller's collector as it was:
tests and the benchmark call ``main`` and import ``cli`` as a library.
"""

import ast
import filecmp
import gc
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env

from dirachydro.cli import main

ROOT = Path(__file__).resolve().parent.parent
CLI_SOURCE = ROOT / "src" / "dirachydro" / "cli.py"
DEMO = ROOT / "demos" / "configs" / "plane_wave_residuals.json"


def _main_block_call():
    """The name of the function the ``if __name__ == "__main__":`` block of cli calls."""
    tree = ast.parse(CLI_SOURCE.read_text(encoding="utf-8"))
    blocks = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert len(blocks) == 1
    (statement,) = blocks[0].body
    assert isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Call)
    assert not statement.value.args and not statement.value.keywords
    return statement.value.func.id


def test_the_console_script_calls_the_function_the_main_block_calls():
    """``dirachydro`` and ``python -m dirachydro.cli`` start a run the same way.

    Read as text: ``tomllib`` is not in Python 3.10, which the project supports.
    """
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert section is not None
    targets = re.findall(r'^dirachydro\s*=\s*"([^"]*)"', section.group(1), re.M)
    assert targets == [f"dirachydro.cli:{_main_block_call()}"]
    assert _main_block_call() == "script"


def test_main_and_an_import_leave_the_collector_unfrozen(tmp_path):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert main(["--config", str(DEMO), "--out", str(tmp_path), "--quiet"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)

    probe = "import gc, dirachydro.cli\nprint(gc.get_freeze_count(), gc.isenabled())\n"
    child = subprocess.run([sys.executable, "-c", probe],
                           capture_output=True, text=True, env=child_env(), check=True)
    assert child.stdout == "0 True\n"


def test_the_entry_freezes_and_writes_the_bytes_of_main(tmp_path):
    """A process started through the entry runs frozen to its exit, and writes what an
    in-process ``main`` writes, every artifact but metadata.json."""
    probe = ("import atexit, gc, sys\n"
             "from dirachydro import cli\n"
             "seen = sys.argv[1]\n"
             "atexit.register(lambda: open(seen, 'w').write(str(gc.get_freeze_count())))\n"
             "sys.argv = ['dirachydro', *sys.argv[2:]]\n"
             "cli.script()\n")
    entry, here = tmp_path / "entry", tmp_path / "here"
    child = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "frozen"),
         "--config", str(DEMO), "--out", str(entry), "--quiet"],
        capture_output=True, text=True, env=child_env(),
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "", "")
    assert int((tmp_path / "frozen").read_text()) > 0

    assert main(["--config", str(DEMO), "--out", str(here), "--quiet"]) == 0
    names = sorted(path.name for path in here.iterdir() if path.name != "metadata.json")
    assert names == ["report.json", "residual_fields.csv"]
    assert sorted(path.name for path in entry.iterdir()) == sorted([*names, "metadata.json"])
    for name in names:
        assert filecmp.cmp(entry / name, here / name, shallow=False), name


def _overflowing_spacing(tmp_path):
    payload = json.loads(DEMO.read_text())
    payload["grid"]["spacing"] = [1e300, 0.1]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("config, status, message", [
    (lambda tmp_path: tmp_path / "missing.json", 2, "cannot read config"),
    (_overflowing_spacing, 3, "numerical failure"),
], ids=["unreadable", "spacing-overflow"])
def test_the_entry_exits_with_the_status_and_stderr_of_main(tmp_path, capsys, config,
                                                            status, message):
    path = config(tmp_path)
    argv = ["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]
    child = subprocess.run([sys.executable, "-m", "dirachydro.cli", *argv],
                           capture_output=True, text=True, env=child_env())
    assert main(argv) == status
    assert child.returncode == status
    assert message in child.stderr and "Traceback" not in child.stderr
    assert child.stderr == capsys.readouterr().err
