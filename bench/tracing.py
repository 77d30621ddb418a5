"""Traced run: each job recomposed in-process with a span on every layer call.

Spans are recorded from the benchmark's side, by wrapping the module and
class attributes through which the CLI and the variational job reach each
layer; the program itself is not changed. A span is
``[name, start, end, parent, job, work, failed, extra]``. Span names are the
per-layer metric names they feed, so a layer's metric is its spans' self
time (duration minus the child spans it covers) divided by their work
count. ``extra`` holds the tracemalloc peak of an evaluator call and the
bytes an io call wrote.

Every job runs twice, untraced and then traced, so the tracing overhead and
the share of a job that no span covers are measured per job.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import shutil
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import checks
import launch
import variational_job
import workloads
from dirachydro import cli, fisher, hydro
from dirachydro.fields import PlaneWaveField, PolynomialField, UniformField
from dirachydro.grids import GridSpec

# Rate metrics: name -> (unit, factor from seconds per work unit).
RATE_METRICS = {
    "cli.validate_config_us": ("us", 1e6),
    "fields.sample_grid_ns_per_point": ("ns", 1e9),
    "fields.sample_point_us": ("us", 1e6),
    "manufactured.build_ns_per_point": ("ns", 1e9),
    "spinors.spinor_field_ns_per_point": ("ns", 1e9),
    "clifford.bilinears_ns_per_point": ("ns", 1e9),
    "grids.points_ns_per_point": ("ns", 1e9),
    "grids.gradient_lower_ns_per_point": ("ns", 1e9),
    "grids.integrate_us_per_call": ("us", 1e6),
    "hydro.first_order_ns_per_point.2d": ("ns", 1e9),
    "hydro.first_order_ns_per_point.4d": ("ns", 1e9),
    "hydro.bilinear_ns_per_point.2d": ("ns", 1e9),
    "hydro.bilinear_ns_per_point.4d": ("ns", 1e9),
    "hydro.expanded_ns_per_point.2d": ("ns", 1e9),
    "hydro.expanded_ns_per_point.4d": ("ns", 1e9),
    "dynamics.constant_us_per_step": ("us", 1e6),
    "dynamics.generic_us_per_step": ("us", 1e6),
    "dynamics.fit_ns_per_sample": ("ns", 1e9),
    "fisher.derivative_S_us_per_point": ("us", 1e6),
    "fisher.derivative_rho0_us_per_point": ("us", 1e6),
    "fisher.action_functional_ns_per_point": ("ns", 1e9),
    "io.slice_csv_ns_per_value": ("ns", 1e9),
    "io.grid_json_ns_per_value": ("ns", 1e9),
    "io.trajectory_csv_ns_per_value": ("ns", 1e9),
}

METRIC_NAMES = ("cli.import_s", *RATE_METRICS, "hydro.peak_alloc_mb.2d", "hydro.peak_alloc_mb.4d",
                "io.mb_written", "trace.unattributed_share", "trace.overhead")

JOB_SPAN = "job"
REPORT_SPAN = "io.json_report"

# Not on any workload's path, so no metric measures them.
UNMEASURED = ("kinematics", "lagrangian", "verification", "hydro.squared_dirac_residual")


class Tracer:
    """Spans of one run, kept in memory and written out at the end."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        record = [name, time.perf_counter(), 0.0, parent, self.job, 0, False, None]
        self.spans.append(record)
        return record

    def close(self, record, work, failed=False, extra=None):
        record[2] = time.perf_counter()
        self._stack.pop()
        record[5], record[6], record[7] = work, failed, extra

    @contextmanager
    def span(self, name, work):
        record = self.open(name)
        try:
            yield record
        except Exception:
            self.close(record, work, failed=True)
            raise
        self.close(record, work)

    def write(self, path):
        payload = {"columns": ["name", "start", "end", "parent", "job", "work", "failed", "extra"],
                   "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _points(spec):
    return math.prod(spec.shape)


def _grid_name(prefix):
    return lambda args, kwargs: f"{prefix}.{args[0].spec.ndim}d"


def _sample_name(args, kwargs):
    return ("fields.sample_point_us" if np.ndim(args[1]) == 1
            else "fields.sample_grid_ns_per_point")


def _sample_work(args, kwargs, result):
    return math.prod(np.shape(args[1])[:-1])


def _integrate_name(args, kwargs):
    constant = getattr(args[1], "constant_field", False)
    return "dynamics.constant_us_per_step" if constant else "dynamics.generic_us_per_step"


def _derivative_name(args, kwargs):
    return f"fisher.derivative_{kwargs.get('wrt', 'S')}_us_per_point"


def _const(name):
    return lambda args, kwargs: name


def _fields_points(args, kwargs, result):
    return _points(args[0].spec)


def _spec_points(args, kwargs, result):
    return _points(args[0])


def _slice_values(args, kwargs, result):
    spec, fields = args[1], args[2]
    return _points(spec) * (spec.ndim + len(fields))


def _build_patches():
    """(owner, attribute, span name, work count, what else to record)."""
    build = (_const("manufactured.build_ns_per_point"), _spec_points, None)
    patches = [
        (cli, "plane_wave_fields") + build,
        (cli, "perturbed_plane_wave_fields") + build,
        (cli, "seeded_manufactured_fields") + build,
        (variational_job, "perturbed_plane_wave_fields") + build,
        (hydro.HydroFieldSet, "spinors", _const("spinors.spinor_field_ns_per_point"),
         lambda a, k, r: _points(a[0].spec), None),
        (hydro, "bilinears", _const("clifford.bilinears_ns_per_point"),
         lambda a, k, r: math.prod(np.shape(a[0])[:-1]), None),
        (GridSpec, "points", _const("grids.points_ns_per_point"), _spec_points, None),
        (GridSpec, "gradient_lower", _const("grids.gradient_lower_ns_per_point"), _spec_points, None),
        (GridSpec, "integrate", _const("grids.integrate_us_per_call"), lambda a, k, r: 1, None),
        (cli, "integrate", _integrate_name, lambda a, k, r: len(r) - 1, None),
        (cli, "fit_precession_frequency", _const("dynamics.fit_ns_per_sample"),
         lambda a, k, r: len(a[0]), None),
        (fisher, "functional_derivative", _derivative_name, _fields_points, None),
        (fisher, "action_functional", _const("fisher.action_functional_ns_per_point"),
         _fields_points, None),
        (cli, "save_slice_csv", _const("io.slice_csv_ns_per_value"), _slice_values, "bytes"),
        (cli, "save_grid_fields", _const("io.grid_json_ns_per_value"),
         lambda a, k, r: _points(a[1]) * len(a[2]), "bytes"),
        (cli, "save_trajectory_csv", _const("io.trajectory_csv_ns_per_value"),
         lambda a, k, r: len(a[1]) * 12, "bytes"),
        (cli, "write_json_report", _const(REPORT_SPAN), lambda a, k, r: 1, "bytes"),
    ]
    for provider in (UniformField, PlaneWaveField, PolynomialField):
        patches.append((provider, "sample", _sample_name, _sample_work, None))
    evaluators = (("first_order_residuals", "hydro.first_order_ns_per_point"),
                  ("second_order_residuals_bilinear", "hydro.bilinear_ns_per_point"),
                  ("second_order_residuals_expanded", "hydro.expanded_ns_per_point"))
    for attribute, prefix in evaluators:
        patches.append((cli, attribute, _grid_name(prefix), _fields_points, "alloc"))
    patches.append((hydro, "second_order_residuals_expanded",
                    _grid_name("hydro.expanded_ns_per_point"), _fields_points, "alloc"))
    return patches


def _wrap(tracer, fn, name_of, work_of, record_extra):
    def traced(*args, **kwargs):
        record = tracer.open(name_of(args, kwargs))
        if record_extra == "alloc":
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            if record_extra == "alloc":
                tracemalloc.stop()
            tracer.close(record, 0, failed=True)
            raise
        extra = None
        if record_extra == "alloc":
            extra = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        elif record_extra == "bytes" and Path(args[0]).name != "metadata.json":
            # metadata.json holds wall-clock times, so its size is not exact
            extra = os.path.getsize(args[0])
        tracer.close(record, work_of(args, kwargs, result), extra=extra)
        return result
    return traced


@contextmanager
def instrumented(tracer):
    """Install the span wrappers for the duration of one traced job."""
    saved = []
    try:
        for owner, attribute, name_of, work_of, record_extra in _build_patches():
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(tracer, original, name_of, work_of, record_extra))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def run_inprocess(job, out_dir):
    """Run a job through the same public calls its subprocess makes."""
    if job["runner"] == "cli":
        status = cli.run(job["config"], out_dir=str(out_dir), quiet=True)
        if status != 0:
            raise RuntimeError(f"cli.run returned {status}")
    else:
        variational_job.run_job(job["config"], out_dir)


def _traced_job(tracer, job, job_dir):
    """Validate and run one job under tracing; returns its problems."""
    tracer.job = job["id"]
    problems = []
    out_dir = job_dir / "traced"
    try:
        with tracer.span("cli.validate_config_us", 1):
            problems += cli.validate_config(job["config"])
        with instrumented(tracer), tracer.span(JOB_SPAN, job["work"]):
            run_inprocess(job, out_dir)
    except Exception as exc:  # a failed job is counted, the run goes on
        return problems + [f"{type(exc).__name__}: {exc}"]
    return problems + checks.check_job(job, out_dir)


def _self_times(spans):
    child = [0.0] * len(spans)
    for record in spans:
        if record[3] >= 0:
            child[record[3]] += record[2] - record[1]
    return [record[2] - record[1] - c for record, c in zip(spans, child)]


def layer_table(spans, self_times, keep):
    """Per span name: calls, work count, self seconds and failed calls."""
    table = {}
    for record, own in zip(spans, self_times):
        if not keep(record[4]):
            continue
        row = table.setdefault(record[0], {"calls": 0, "work": 0, "self_s": 0.0, "failed": 0})
        row["calls"] += 1
        row["work"] += record[5]
        row["self_s"] += own
        row["failed"] += int(record[6])
    return table


def _is_reference(job_id):
    return "/" in job_id  # "<workload>/ref-..." for another workload's reference


def per_layer_metrics(spans, untraced, import_samples):
    """Per-layer metrics from the spans; returns (metrics, layer tables, sources).

    A metric comes from the workload's own jobs (those with an untraced
    time) when they did that layer's work, otherwise from the reference jobs.
    """
    self_times = _self_times(spans)
    keeps = {"workload": lambda job_id: job_id in untraced, "reference": _is_reference}
    tables = {source: layer_table(spans, self_times, keep) for source, keep in keeps.items()}
    metrics, sources = {}, {}

    def put(name, value, unit, source):
        metrics[name] = {"value": value, "unit": unit}
        sources[name] = source

    if import_samples:
        put("cli.import_s", statistics.median(import_samples), "s", "workload")
    for name, (unit, factor) in RATE_METRICS.items():
        for source, table in tables.items():
            row = table.get(name)
            if row and row["work"] > 0:
                put(name, row["self_s"] / row["work"] * factor, unit, source)
                break
    for ndim in ("2d", "4d"):
        for source, keep in keeps.items():
            peaks = [r[7] for r in spans if keep(r[4]) and r[7]
                     and r[0].startswith("hydro.") and r[0].endswith(ndim)]
            if peaks:
                put(f"hydro.peak_alloc_mb.{ndim}", max(peaks) / 1e6, "MB", source)
                break
    own = keeps["workload"]
    written = sum(r[7] or 0 for r in spans if own(r[4]) and r[0].startswith("io."))
    put("io.mb_written", written / 1e6, "MB", "workload")
    roots = [(r, s) for r, s in zip(spans, self_times) if r[0] == JOB_SPAN and own(r[4])]
    if roots:
        total_untraced = sum(untraced[r[4]] for r, _ in roots)
        put("trace.unattributed_share", sum(s for _, s in roots) / total_untraced,
            "share", "workload")
        put("trace.overhead", sum(r[2] - r[1] for r, _ in roots) / total_untraced,
            "ratio", "workload")
    return metrics, tables, sources


def traced_run(workload, seed, seconds, work_dir, env):
    """Trace the workload's jobs for about ``seconds``, then the references.

    Returns (metrics, layers, attempted jobs, problems by failed job, tracer).
    """
    tracer = Tracer()
    import_samples = []
    untraced = {}  # own jobs only: seconds of the untraced pass
    failed = {}
    attempted = 0

    def run(job, job_dir):
        t0 = time.perf_counter()
        try:
            run_inprocess(job, job_dir / "untraced")
        except Exception as exc:  # a failed job is counted, the run goes on
            problems = [f"untraced {type(exc).__name__}: {exc}"]
        else:
            if not _is_reference(job["id"]):
                untraced[job["id"]] = time.perf_counter() - t0
            problems = _traced_job(tracer, job, job_dir)
        if problems:
            failed[job["id"]] = problems
        shutil.rmtree(job_dir, ignore_errors=True)

    for job in workloads.timed_jobs(workload, seed, seconds):
        attempted += 1
        job_dir = work_dir / job["id"]
        _, report = launch.probe(launch.write_config(job, job_dir), job_dir, env)
        if report is not None:
            import_samples.append(report["import_s"])
        run(job, job_dir)
    for other in workloads.WORKLOADS:
        if other != workload:
            for job in workloads.reference_jobs(other, seed):
                attempted += 1
                run(dict(job, id=f"{other}/{job['id']}"), work_dir / f"{other}-{job['id']}")

    metrics, tables, sources = per_layer_metrics(tracer.spans, untraced, import_samples)
    layers = dict(tables, metric_source=sources, unmeasured=list(UNMEASURED),
                  wait_s="not applicable: one client runs jobs one after another, so nothing queues")
    return metrics, layers, attempted, failed, tracer
