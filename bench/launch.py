"""Child processes of the benchmark: environment, timing and peak memory."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# Jobs that overrun this are killed and counted as failed.
JOB_TIMEOUT_S = 150.0

_SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cap_threads(env):
    """One BLAS/OpenMP thread, so a job fits one core of a small machine."""
    for name in _SINGLE_THREAD:
        env[name] = "1"
    return env


def child_env(src_dir):
    """Environment for every child: absolute PYTHONPATH, one thread.

    The path is absolute because children run in their own working
    directory, where a relative ``PYTHONPATH=src`` would not resolve.
    """
    env = cap_threads(dict(os.environ))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(src_dir).resolve())] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def run_child(argv, cwd, env, timeout=JOB_TIMEOUT_S):
    """Run one process to completion.

    Returns (wall seconds from start to exit, exit code, its own peak RSS in
    MB, captured stdout, stderr tail). The peak comes from this child's
    rusage via wait4, not RUSAGE_CHILDREN, which is a maximum over every
    child ever reaped.
    """
    stderr_path = Path(cwd) / "stderr.txt"
    stdout_path = Path(cwd) / "stdout.txt"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
    stderr_tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-400:]
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout, stderr_tail


def job_argv(job, config_path, out_dir):
    if job["runner"] == "cli":
        return [sys.executable, "-m", "dirachydro.cli", "--config", str(config_path),
                "--out", str(out_dir), "--quiet"]
    return [sys.executable, str(BENCH_DIR / "variational_job.py"), "--config", str(config_path),
            "--out", str(out_dir)]


def probe(config_path, cwd, env):
    """Time one set-up probe; returns (wall seconds, its JSON report or None)."""
    argv = [sys.executable, str(BENCH_DIR / "probe.py"), str(config_path)]
    wall, code, _, stdout, _ = run_child(argv, cwd, env)
    if code != 0:
        return wall, None
    return wall, json.loads(stdout.strip().splitlines()[-1])


def check(job, out_dir, cwd, env):
    """Problems found by checks.py in a job's artifacts, run in its own process."""
    job_path = Path(cwd) / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    argv = [sys.executable, str(BENCH_DIR / "checks.py"), str(job_path), str(out_dir)]
    _, code, _, stdout, stderr_tail = run_child(argv, cwd, env)
    if code != 0:
        return [f"check exited with status {code}: {stderr_tail.strip()}"]
    return json.loads(stdout.strip().splitlines()[-1])


class Calibrator:
    """A child running calibrate.py, which times its fixed kernel on request.

    It sleeps between requests, so it takes no processor time from the jobs.
    Use it as a context manager: leaving the block stops the child and
    waits for it to end.
    """

    def __init__(self, cwd, env):
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "calibrate.py")], cwd=cwd, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def measure(self):
        """Seconds the kernel takes now."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration child ended with status {self._proc.wait()}")
        return float(line)

    def close(self):
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()
        finally:
            self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_config(job, job_dir):
    job_dir.mkdir(parents=True, exist_ok=True)
    path = job_dir / "config.json"
    path.write_text(json.dumps(job["config"], indent=1), encoding="utf-8")
    return path
