"""The package starts processes in one place only: ``_parts.fork_parts``.

Two users go through that one helper: the part writer ``io._write_parts``,
which splits every bulk artifact, CSV table or JSON document, between
processes, and ``cli._residual_grids``, which evaluates the residual grids
in slabs, one run of slabs per usable CPU. The helper pins each part to its
CPU, reaps every child, runs again any part that no child finished, and
restores the CPU mask however the parts end. A second site that forked on
its own would have to get all of that right again, so this test reads the
package's source with ``ast`` and requires that ``os.fork``, and the calls
that place, reap and end a child (``os.sched_setaffinity``, ``os.waitpid``,
``os._exit``), are made only inside ``_parts.fork_parts``, and that no
module reaches another way of starting a process or thread: a
process-starting name of ``os`` (``fork``, ``forkpty``, ``spawn*``,
``posix_spawn*``), or the ``subprocess``, ``multiprocessing``,
``concurrent`` or ``threading`` modules.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "dirachydro"
FORK_SITE = ("_parts", "fork_parts")
# the calls that place, reap and end a forked child
CHILD_CALLS = ("sched_setaffinity", "waitpid", "_exit")
PARALLEL_MODULES = ("subprocess", "multiprocessing", "concurrent", "threading")


def _guarded(name):
    return name.startswith(("fork", "spawn", "posix_spawn")) or name in CHILD_CALLS


def _process_uses(source=SOURCE):
    """(module, enclosing top-level function or class or None, line, what) for
    every use of a process- or thread-starting name, or of a child call, in the
    package."""
    uses = []
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "os" and _guarded(node.attr)):
                    uses.append((path.stem, owner, node.lineno, f"os.{node.attr}"))
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    uses.extend((path.stem, owner, node.lineno, f"from os import {alias.name}")
                                for alias in node.names if _guarded(alias.name))
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    modules = [node.module or ""]
                else:
                    modules = []
                uses.extend((path.stem, owner, node.lineno, f"import {module}")
                            for module in modules
                            if module.split(".")[0] in PARALLEL_MODULES)
    return uses


def test_os_fork_is_called_only_by_the_shared_fork_helper():
    uses = _process_uses()
    elsewhere = [use for use in uses if (use[0], use[1]) != FORK_SITE]
    assert not elsewhere, f"processes started outside _parts.fork_parts: {elsewhere}"
    assert sorted({what for _, _, _, what in uses}) == [
        "os._exit", "os.fork", "os.sched_setaffinity", "os.waitpid"]
    assert [what for _, _, _, what in uses].count("os.fork") == 1


def test_the_check_sees_every_form_it_refuses(tmp_path):
    """Each refused form, written into a scratch package, is reported."""
    (tmp_path / "_parts.py").write_text(
        "import os\n"
        "def fork_parts():\n"
        "    os.sched_setaffinity(0, {0})\n"
        "    return os.fork()\n"
    )
    (tmp_path / "other.py").write_text(
        "import os\n"
        "import subprocess\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from os import forkpty\n"
        "class Writer:\n"
        "    def write(self):\n"
        "        return os.fork(), os.posix_spawn\n"
        "spawn = os.spawnv\n"
        "from os import waitpid\n"
        "def reap(pid):\n"
        "    os.sched_setaffinity(0, {0})\n"
        "    os._exit(os.waitpid(pid, 0)[1])\n"
    )
    found = {(module, owner, what) for module, owner, _, what in _process_uses(tmp_path)}
    assert found == {
        ("_parts", "fork_parts", "os.fork"),
        ("_parts", "fork_parts", "os.sched_setaffinity"),
        ("other", None, "import subprocess"),
        ("other", None, "import concurrent.futures"),
        ("other", None, "from os import forkpty"),
        ("other", "Writer", "os.fork"),
        ("other", "Writer", "os.posix_spawn"),
        ("other", None, "os.spawnv"),
        ("other", None, "from os import waitpid"),
        ("other", "reap", "os.sched_setaffinity"),
        ("other", "reap", "os._exit"),
        ("other", "reap", "os.waitpid"),
    }
