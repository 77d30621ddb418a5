#!/usr/bin/env python3
"""Benchmark of dirachydro: seeded jobs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload grid-residuals --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn
    python3 bench/run.py --compare BASE NEW           # ratios between result sets

Each workload is a closed loop with one client: jobs generated from the
seed run one after another, each as a fresh subprocess, for about
``--seconds`` (see workloads.timed_jobs). Every job's artifacts pass
a physics check or the job counts as failed.

``--trace 0`` reports the end-to-end metrics (setup_s, job_s, work_per_s,
peak_rss_mb, with error_rate printed beside them), with times scaled to a
reference host speed that a calibration kernel measures around each job
(see e2e_metrics and calibrate.py). ``--trace 1`` recomposes
the same jobs in-process with a span on every layer call and reports the
per-layer metrics (see tracing.py). The last line of standard output is the
result as one JSON object; the full result, with provenance, is also
written under bench/results/.

``--compare BASE NEW`` takes two result files or directories of them and
prints, per (metric, workload), the ratio of the medians with its base. A
pair whose run-to-run spread (interquartile range over median) exceeds the
metric's bound in BENCHMARK.json is marked unresolved.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import launch
import workloads

# The driver imports no numpy and keeps no artifact in memory, so it stays
# small: a child's peak RSS from wait4 includes the process it started from.
launch.cap_threads(os.environ)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

# Median time of the calibration kernel (calibrate.py) on the host the
# benchmark was tuned on, a 2-core share of an Intel Xeon VM.
CALIBRATION_REFERENCE_S = 0.150

WAIT_NOTE = "wait time: not applicable, one client runs jobs one after another so nothing queues"


def e2e_run(workload, seed, seconds, work_dir, env):
    """Run subprocess jobs one after another for about ``seconds``.

    The calibration kernel runs right before and right after each job, so
    that e2e_metrics can scale the job's times by the host's speed around it.
    """
    samples = []
    with launch.Calibrator(work_dir, env) as calibrator:
        # an untimed probe first fills the bytecode and file caches, which an
        # installed package has warm on every run
        warm = workloads.round_jobs(workload, seed, 0)[0]
        launch.probe(launch.write_config(warm, work_dir / "warm-up"), work_dir / "warm-up", env)
        for job in workloads.timed_jobs(workload, seed, seconds):
            job_dir = work_dir / job["id"]
            config_path = launch.write_config(job, job_dir)
            out_dir = job_dir / "out"
            setup_s, report = launch.probe(config_path, job_dir, env)
            problems = [] if report is not None else ["set-up probe failed"]
            before = calibrator.measure()
            job_s, code, rss_mb, _, stderr = launch.run_child(
                launch.job_argv(job, config_path, out_dir), job_dir, env)
            after = calibrator.measure()
            if code != 0:
                problems.append(f"exit status {code}: {stderr.strip()}")
            else:
                problems += launch.check(job, out_dir, job_dir, env)
            samples.append({"id": job["id"], "label": job["label"], "work": job["work"],
                            "setup_s": setup_s, "job_s": job_s, "peak_rss_mb": rss_mb,
                            "calibration_s": [before, after], "problems": problems})
            shutil.rmtree(job_dir)
    return samples


def e2e_metrics(samples, reference_s=None):
    """The end-to-end metrics of a run, plus its error rate.

    With ``reference_s``, each job's set-up and wall times are scaled by
    reference_s over the mean of the calibration-kernel times taken right
    before and right after it: they become seconds on a host where the
    kernel takes reference_s. Without it, the times are as measured.
    """
    def scaled(sample, name):
        if reference_s is None:
            return sample[name]
        return sample[name] * reference_s / statistics.mean(sample["calibration_s"])

    walls = [scaled(s, "job_s") for s in samples]
    completed = sum(s["work"] for s in samples if not s["problems"])
    metrics = {
        "setup_s": {"value": statistics.median(scaled(s, "setup_s") for s in samples),
                    "unit": "s"},
        "job_s": {"value": statistics.mean(walls), "unit": "s"},
        "work_per_s": {"value": completed / sum(walls), "unit": "1/s"},
        "peak_rss_mb": {"value": max(s["peak_rss_mb"] for s in samples), "unit": "MB"},
    }
    failed = sum(1 for s in samples if s["problems"])
    return metrics, failed / len(samples)


def _read_first(path, default=None):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return default


def provenance(seed):
    """Versions, host and commit, recorded with every result."""
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    for line in (_read_first("/proc/cpuinfo", "") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read_first(index / "level")
        kind = _read_first(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read_first(index / "size")
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "jsonschema": version("jsonschema"),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "git_commit": commit,
        "seed": seed,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def _fmt(value):
    return f"{value:.6g}"


def run_workload(workload, seed, seconds, trace):
    """One run; prints its table, writes its result file, returns the result."""
    env = launch.child_env(SRC)
    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = (f"{workload}-seed{seed}-trace{trace}-"
            f"{datetime.datetime.now(datetime.timezone.utc):%Y%m%dT%H%M%S%f}")
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "provenance": provenance(seed), "loop": "closed, one client", "wait": WAIT_NOTE}
    try:
        if trace:
            sys.path.insert(0, str(SRC))
            import tracing

            metrics, layers, attempted, failed, tracer = tracing.traced_run(
                workload, seed, seconds, work_dir, env)
            spans_path = RESULTS / f"{stem}.spans.json.gz"
            tracer.write(spans_path)
            missing = [name for name in tracing.METRIC_NAMES if name not in metrics]
            record.update(layers=layers, problems=failed, unmeasured_metrics=missing,
                          spans=spans_path.name)
            failed_count = len(failed)
            print(f"{workload} seed {seed}: traced {attempted} jobs in-process; {WAIT_NOTE}")
            for name in tracing.METRIC_NAMES:
                if name in metrics:
                    source = layers["metric_source"][name]
                    print(f"  {name:40s} {_fmt(metrics[name]['value']):>12s} "
                          f"{metrics[name]['unit']:5s} ({source})")
            correct = not failed and not missing
        else:
            samples = e2e_run(workload, seed, seconds, work_dir, env)
            metrics, error_rate = e2e_metrics(samples, CALIBRATION_REFERENCE_S)
            measured, _ = e2e_metrics(samples)
            kernel_s = statistics.median(t for s in samples for t in s["calibration_s"])
            attempted = len(samples)
            failed_count = sum(1 for s in samples if s["problems"])
            record.update(samples=samples, error_rate=error_rate,
                          calibration_reference_s=CALIBRATION_REFERENCE_S,
                          measured_metrics=measured)
            unit = workloads.WORK_UNITS[workload]
            print(f"{workload} seed {seed}: {attempted} jobs,"
                  f" closed loop with one client; {WAIT_NOTE}")
            print(f"  calibration kernel: median {_fmt(kernel_s)} s, reference"
                  f" {_fmt(CALIBRATION_REFERENCE_S)} s; times are at the reference speed,"
                  f" as measured in brackets")
            for name, metric in metrics.items():
                note = f" ({unit} per second of job wall time)" if name == "work_per_s" else ""
                if name != "peak_rss_mb":
                    note += f" [{_fmt(measured[name]['value'])}]"
                print(f"  {name:12s} {_fmt(metric['value']):>12s} {metric['unit']}{note}")
            print(f"  {'error_rate':12s} {_fmt(error_rate):>12s} share"
                  f" ({failed_count} of {attempted} jobs failed)")
            for sample in samples:
                for problem in sample["problems"]:
                    print(f"  FAILED {sample['id']} ({sample['label']}): {problem}")
            correct = failed_count == 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed_count, "metrics": metrics}
    record["result"] = result
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return result


def _load_results(paths):
    files = []
    for path in map(Path, paths):
        files += sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def _spread(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(base_paths, new_paths):
    """Print each (metric, workload) pair as a ratio of medians with its base."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_better = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]
                    if m["better"] == "lower"}

    def grouped(records):
        out = {}
        for record in records:
            for name, metric in record["result"]["metrics"].items():
                out.setdefault((name, record["workload"]), []).append(metric["value"])
        return out

    base, new = grouped(_load_results(base_paths)), grouped(_load_results(new_paths))
    for key in sorted(base.keys() & new.keys()):
        name, workload = key
        b, n = statistics.median(base[key]), statistics.median(new[key])
        spreads = [_spread(base[key]), _spread(new[key])]
        bound = bounds.get(name)
        status = "per-layer, no bound"
        if bound is not None:
            status = f"resolved (bound {bound:g})"
            if any(s is None or s > bound for s in spreads):
                sign = 1 if name in lower_better else -1
                every_run_better = sign * max(new[key]) < sign * min(base[key])
                status = ("better in every run" if every_run_better
                          else f"unresolved (spread > bound {bound:g})")
        shown = ", ".join("n/a" if s is None else f"{s:.1%}" for s in spreads)
        ratio = f"{n / b:.4f}" if b else "n/a"
        print(f"{name:40s} {workload:20s} new/base {ratio} (base {_fmt(b)}, n={len(base[key])}/"
              f"{len(new[key])}, spreads {shown}) {status}")


def _exit_on_sigterm(signum, frame):
    sys.exit(128 + signum)  # unwinds through the finally blocks that stop children


def main(argv=None):
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description="dirachydro benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        compare([args.compare[0]], [args.compare[1]])
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if not (SRC / "dirachydro" / "cli.py").is_file():
        print(f"bench: no dirachydro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
