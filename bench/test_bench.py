"""Tests of the benchmark itself: seeding, physics checks, metric names.

    python -m pytest bench/test_bench.py -q
"""

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import launch  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dirachydro import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _all_jobs(seed):
    jobs = []
    for workload in workloads.WORKLOADS:
        for round_index in range(3):
            jobs += workloads.round_jobs(workload, seed, round_index)
        jobs += workloads.reference_jobs(workload, seed)
    return jobs


def test_same_seed_same_configs():
    assert _all_jobs(11) == _all_jobs(11)
    assert [j["config"] for j in _all_jobs(11)] != [j["config"] for j in _all_jobs(12)]


def test_rounds_keep_their_mix():
    for seed in (1, 2):
        labels = sorted(j["label"] for j in workloads.round_jobs("grid-residuals", seed, 0))
        assert labels == ["2d-manufactured", "2d-perturbed-plane-wave", "2d-plane-wave",
                          labels[3]] and labels[3].startswith("4d-")
        steps = sorted(j["work"] for j in workloads.round_jobs("spin-orbits", seed, 0))
        assert steps == [3_000] + [45_000] * 2
        sizes = sorted(j["config"]["grid"]["shape"][0]
                       for j in workloads.round_jobs("variational-closure", seed, 0))
        assert sizes == [33, 49, 65]


def test_runs_hold_whole_rounds():
    for workload in workloads.WORKLOADS:
        assert list(workloads.timed_jobs(workload, 4, 0)) == workloads.round_jobs(workload, 4, 0)


def test_generated_configs_are_schema_valid():
    for job in _all_jobs(3):
        assert cli.validate_config(job["config"]) == [], job["id"]


def test_times_are_scaled_to_the_reference_host(tmp_path):
    reference = run.CALIBRATION_REFERENCE_S
    samples = [{"setup_s": 0.6, "job_s": 4.0, "work": 10, "peak_rss_mb": 50.0, "problems": [],
                "calibration_s": [1.5 * reference, 2.5 * reference]}]
    metrics, _ = run.e2e_metrics(samples, reference)
    assert metrics["setup_s"]["value"] == pytest.approx(0.3)
    assert metrics["job_s"]["value"] == pytest.approx(2.0)
    assert metrics["work_per_s"]["value"] == pytest.approx(5.0)
    assert metrics["peak_rss_mb"]["value"] == 50.0
    with launch.Calibrator(tmp_path, launch.child_env(ROOT / "src")) as calibrator:
        assert 0.0 < calibrator.measure() < 60.0


def test_metric_names_match_benchmark_json():
    samples = [{"setup_s": 0.3, "job_s": 2.0, "work": 10, "peak_rss_mb": 50.0, "problems": []}]
    metrics, error_rate = run.e2e_metrics(samples)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: m["unit"] for name, m in metrics.items()}
    assert error_rate == 0.0
    assert list(tracing.METRIC_NAMES) == [m["name"] for m in SPEC["per_layer"]]
    assert [m["name"] for m in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_traced_jobs_emit_every_per_layer_metric(tmp_path):
    tracer = tracing.Tracer()
    untraced = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.reference_jobs(workload, 5):
            job = dict(job, id=f"{workload}-{job['id']}")
            assert tracing._traced_job(tracer, job, tmp_path / job["id"]) == []
            untraced[job["id"]] = 1.0
    names = {record[0] for record in tracer.spans}
    assert set(tracing.RATE_METRICS) <= names
    assert names - set(tracing.RATE_METRICS) <= {tracing.JOB_SPAN, tracing.REPORT_SPAN}
    assert all(record[2] >= record[1] and not record[6] for record in tracer.spans)
    assert min(tracing._self_times(tracer.spans)) > -1e-9
    metrics, _, sources = tracing.per_layer_metrics(tracer.spans, untraced, [0.3])
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(sources.values()) == {"workload"}
    assert all(m["value"] > 0 for m in metrics.values())


# --- each physics check passes a real artifact and rejects a corrupted one


def _produce(job, tmp_path):
    out_dir = tmp_path / job["id"]
    tracing.run_inprocess(job, out_dir)
    assert checks.check_job(job, out_dir) == []
    return out_dir


def _edit_csv(path, column, delta, row=None):
    lines = path.read_text(encoding="utf-8").splitlines()
    index = lines[0].split(",").index(column)
    row = len(lines) // 2 if row is None else row
    cells = lines[row].split(",")
    cells[index] = repr(float(cells[index]) + delta)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _job(kind, seed=9):
    rng = random.Random(seed)
    if kind == "free":
        return workloads.residual_job(rng, "free", (33, 33), "plane-wave")
    if kind == "seeded-2d":
        return workloads.residual_job(rng, "seeded2d", (33, 33), "manufactured")
    if kind == "seeded-4d":
        return workloads.residual_job(rng, "seeded4d", (9, 9, 9, 9), "perturbed-plane-wave")
    if kind == "uniform":
        return workloads.uniform_orbit_job(rng, "uniform", 4_000)
    if kind == "plane-wave":
        return workloads.plane_wave_orbit_job(rng, "planewave", 200)
    return workloads.variational_job(rng, "variational", 17)


@pytest.mark.parametrize("column", ["qhj_expanded", "continuity_first_order"])
def test_free_plane_wave_check_rejects_corruption(tmp_path, column):
    job = _job("free")
    out_dir = _produce(job, tmp_path)
    _edit_csv(out_dir / "residual_fields.csv", column, 1e-9)
    assert checks.check_job(job, out_dir)


def test_seeded_check_rejects_corrupted_slice(tmp_path):
    job = _job("seeded-2d")
    out_dir = _produce(job, tmp_path)
    _edit_csv(out_dir / "residual_fields.csv", "qhj_bilinear", 1e-5)
    assert checks.check_job(job, out_dir)


def test_seeded_check_rejects_corrupted_grid_container(tmp_path):
    job = _job("seeded-4d")
    out_dir = _produce(job, tmp_path)
    path = out_dir / "residual_fields.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    values = payload["fields"]["qhj_expanded"]
    values[len(values) // 2] += 1e-5
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert checks.check_job(job, out_dir)


def test_residual_checks_reject_truncated_artifact(tmp_path):
    job = _job("seeded-2d")
    out_dir = _produce(job, tmp_path)
    path = out_dir / "residual_fields.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-5]) + "\n", encoding="utf-8")
    assert checks.check_job(job, out_dir)


def test_uniform_orbit_check_rejects_wrong_frequency(tmp_path):
    job = _job("uniform")
    out_dir = _produce(job, tmp_path)
    fit = out_dir / "fit.csv"
    frequency = float(fit.read_text(encoding="utf-8").splitlines()[1].split(",")[0])
    _edit_csv(fit, "frequency", 1e-5 * frequency, row=1)
    assert checks.check_job(job, out_dir)


def test_uniform_orbit_check_rejects_mass_shell_drift(tmp_path):
    job = _job("uniform")
    out_dir = _produce(job, tmp_path)
    _edit_csv(out_dir / "trajectory.csv", "u0", 1e-8)
    assert checks.check_job(job, out_dir)


def test_plane_wave_orbit_check_rejects_broken_invariant(tmp_path):
    job = _job("plane-wave")
    out_dir = _produce(job, tmp_path)
    _edit_csv(out_dir / "trajectory.csv", "u0", 1e-8)
    assert checks.check_job(job, out_dir)


@pytest.mark.parametrize("name", ["dA_dS", "dA_drho0", "action_particle"])
def test_variational_check_rejects_corruption(tmp_path, name):
    job = _job("variational")
    out_dir = _produce(job, tmp_path)
    path = out_dir / "closure.npz"
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    if arrays[name].ndim:
        arrays[name][8, 8] += 1e-3
    else:
        arrays[name] = arrays[name] + 1e-9
    np.savez(path, **arrays)
    assert checks.check_job(job, out_dir)
