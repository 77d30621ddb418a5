"""Per-CPU work: the usable core count, the cut into parts, and the package's one fork.

``io._write_parts`` renders the items of a long CSV table or JSON document
in parts, and ``cli._residual_grids`` evaluates runs of residual slabs.
Each asks ``per_core`` how many parts to make, cuts its units with
``cuts`` and hands the parts to ``fork_parts``, which also holds the one
failure rule; what the parts leave (text in temporary files, rows in a
shared map) the caller takes up once ``fork_parts`` returns.  The children
are started with ``os.fork``.  Python 3.12 and later emit a
``DeprecationWarning`` for a fork in a process that runs other threads (a
BLAS thread pool is one); the interpreter this is tested on is 3.11.
"""

from __future__ import annotations

import os
import sys


def usable_cores():
    """Cores this process may run on; 1 where it cannot fork or ask."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def per_core(units, floor=1):
    """Parts to cut ``units`` into: one per usable core, but none of fewer than
    ``floor`` units, and at least one."""
    return max(1, min(usable_cores(), units // floor))


def cuts(units, parts):
    """The bounds of ``parts`` contiguous, near-equal ranges of ``[0, units)``:
    part k is ``[cuts[k], cuts[k + 1])``."""
    return [units * k // parts for k in range(parts + 1)]


def fork_parts(parts, run):
    """Run ``run(k)`` for each part ``k`` in ``range(parts)``, part 0 here, each other one
    in a forked child.

    This is the package's one place that starts processes. Part k runs on the
    k-th CPU this process may use, and this process is held to the first of
    them until the parts end: a scheduler need not move a fresh fork off its
    parent's CPU, and then the parts would take turns on one core. A child
    exits with status 0 when its ``run`` returns, else it prints one line to
    stderr, naming the part and the error and saying that the part runs again
    in the calling process, and exits with status 1; a traceback comes only
    from a rerun that fails. Once part 0 has run, the parts k = 1, 2, ... are
    taken in order: a part that no child finished is run here, so its error
    raises here with its own type. No child finished a part whose child
    exited with another status, or one left without a child because a fork
    raised ``OSError`` (as at a process limit); once a fork fails, no more
    are tried. One part runs here alone: no fork, no pinning. Every child is
    reaped and the CPU mask restored however the parts end.
    """
    if parts == 1:
        run(0)
        return
    cpus = os.sched_getaffinity(0)
    # more parts than CPUs only where a test sets the core count
    order = sorted(cpus) * parts
    pids = []  # the children not yet reaped, in part order
    try:
        os.sched_setaffinity(0, {order[0]})
        for k in range(1, parts):
            try:
                pid = os.fork()
            except OSError:
                break  # no more processes: this part and the rest run here
            if pid == 0:  # the child: run its part, then leave without running cleanup
                status = 1
                try:
                    os.sched_setaffinity(0, {order[k]})
                    run(k)
                    status = 0
                except BaseException as exc:
                    # the part runs again in the parent, which raises its own error if it fails
                    print(f"dirachydro: part {k} of {parts} failed in a child process"
                          f" ({type(exc).__name__}: {exc});"
                          " it runs again in the calling process", file=sys.stderr)
                    sys.stderr.flush()
                finally:
                    os._exit(status)
            pids.append(pid)
        run(0)
        for k in range(1, parts):
            finished = False
            if pids:
                finished = os.waitpid(pids[0], 0)[1] == 0
                pids.pop(0)
            if not finished:
                run(k)
    finally:
        os.sched_setaffinity(0, cpus)
        for pid in pids:
            os.waitpid(pid, 0)
