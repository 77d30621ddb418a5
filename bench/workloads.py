"""Seeded job generators for the three benchmark workloads.

A workload is a sequence of rounds. Each round is a fixed mix of job types
whose physics parameters are drawn from the seed. The sizes that set a
job's cost are fixed, and a run holds whole rounds only (see timed_jobs),
so every run weighs the job types the same whatever the seed and however
many rounds fit in it.

Every job is a plain dict:

    id       unique within the run
    runner   "cli" (``python -m dirachydro.cli``) or "variational"
             (``bench/variational_job.py``, public API only)
    config   a schema-valid run config; the program sees nothing else
    work     work units the job completes (grid points, proper-time steps
             or functional-derivative points)
    check    which physics check its artifacts must pass (see checks.py)
    label    the job type, for reports
"""

from __future__ import annotations

import math
import random
import time

WORKLOADS = ("grid-residuals", "spin-orbits", "variational-closure")

WORK_UNITS = {
    "grid-residuals": "grid points",
    "spin-orbits": "proper-time steps",
    "variational-closure": "functional-derivative points",
}

# h = 0.02 keeps the free plane wave at roundoff: at 257^2 with h = 0.005
# the residual roundoff already reaches 7.8e-11 against the 1e-10 gate.
SPACING = 0.02

CONFIG_TYPES = ("plane-wave", "perturbed-plane-wave", "manufactured")
FIELD_KINDS = ("uniform", "crossed", "plane-wave")
KINDS = ("particle", "antiparticle")


def _rng(workload, seed, round_index):
    return random.Random(f"{workload}:{seed}:{round_index}")


def _unit_vector(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-3:
            return [c / norm for c in v]


def _perpendicular_unit(rng, n):
    while True:
        v = _unit_vector(rng)
        dot = sum(a * b for a, b in zip(v, n))
        w = [a - dot * b for a, b in zip(v, n)]
        norm = math.sqrt(sum(c * c for c in w))
        if norm > 0.1:
            return [c / norm for c in w]


def _scaled(v, s):
    return [s * c for c in v]


def _field_block(rng, field_kind):
    if field_kind == "uniform":
        return {
            "kind": "uniform",
            "E0": [rng.uniform(-0.05, 0.05) for _ in range(3)],
            "B0": [rng.uniform(-1.0, 1.0) for _ in range(3)],
        }
    if field_kind == "crossed":
        b_dir = _unit_vector(rng)
        return {
            "kind": "crossed",
            "E0": _scaled(_perpendicular_unit(rng, b_dir), rng.uniform(0.01, 0.05)),
            "B0": _scaled(b_dir, rng.uniform(0.2, 1.0)),
        }
    return _plane_wave_field(rng, rng.uniform(0.01, 0.1))


def _plane_wave_field(rng, amplitude):
    n = _unit_vector(rng)
    omega = rng.uniform(0.5, 2.0)
    return {
        "kind": "plane-wave",
        "wave_vector": [omega] + _scaled(n, omega),
        "polarization": _perpendicular_unit(rng, n),
        "amplitude": amplitude,
    }


def residual_job(rng, job_id, shape, config_type, field_kind=None):
    """A ``residuals`` CLI job on a (t, x) slice or on a full 4-D grid.

    The field kind is drawn when not given; a plane-wave configuration is a
    free solution and gets no external field.
    """
    ndim = len(shape)
    axes = [0, 1] if ndim == 2 else [0, 1, 2, 3]
    kind = rng.choice(KINDS)
    block = {"type": config_type, "kind": kind}
    config = {
        "command": "residuals",
        "seed": rng.randrange(2**31),
        "grid": {"active_axes": axes, "shape": list(shape), "spacing": [SPACING] * ndim},
        "configuration": block,
    }
    if config_type == "manufactured":
        block["amplitude"] = rng.uniform(2e-5, 1e-4)
        block["rho_value"] = rng.uniform(0.8, 1.5)
    else:
        block.update(
            chi=rng.uniform(0.2, 1.2),
            theta=rng.uniform(0.3, 2.8),
            eta0=rng.uniform(0.0, 2.0 * math.pi),
            rho_value=rng.uniform(0.6, 1.8),
        )
        if ndim == 4:
            # only a 4-D grid resolves a velocity off the x axis
            block["theta_u"] = rng.uniform(0.3, 2.8)
            block["phi"] = rng.uniform(0.0, 2.0 * math.pi)
    if config_type == "perturbed-plane-wave":
        # the expanded-vs-bilinear stencil gap grows as amplitude^2; on 17^4
        # at amplitude 1e-3 it reaches 1.3e-6, above the 1e-6 gate
        block["amplitude"] = rng.uniform(5e-4, 2e-3) if ndim == 2 else rng.uniform(1e-4, 3e-4)
    if config_type == "plane-wave":
        check = "free-plane-wave"
    else:
        config["fields"] = _field_block(rng, field_kind or rng.choice(FIELD_KINDS))
        check = "seeded-residuals"
    points = math.prod(shape)
    return {"id": job_id, "runner": "cli", "config": config, "work": points, "check": check,
            "label": f"{ndim}d-{config_type}"}


def _initial_state(rng, max_beta):
    speed = rng.uniform(0.0, max_beta)
    return {"beta": _scaled(_unit_vector(rng), speed), "spin": _unit_vector(rng)}


def uniform_orbit_job(rng, job_id, n_steps):
    """Uniform-B orbit: constant-field RK4 path plus a precession fit."""
    b_dir = _unit_vector(rng)
    b = rng.uniform(0.5, 2.0)
    mass = rng.uniform(0.5, 2.0)
    omega = b / mass  # |qB/m| with the electron's unit charge
    state = _initial_state(rng, 0.6)
    while True:  # the fit needs spin off the rotation axis
        dot = sum(a * c for a, c in zip(state["spin"], b_dir))
        if 1.0 - dot * dot > 0.09:
            break
        state["spin"] = _unit_vector(rng)
    config = {
        "command": "simulate",
        "particle": {"mass": mass, "kind": rng.choice(KINDS)},
        "fields": {"kind": "uniform", "B0": _scaled(b_dir, b)},
        "initial_state": state,
        "evolution": {
            "ds": rng.uniform(2e-3, 4e-3) / omega,
            "n_steps": n_steps,
            "fit_frequency": True,
            "fit_axis": b_dir,
        },
    }
    return {"id": job_id, "runner": "cli", "config": config, "work": n_steps,
            "check": "uniform-orbit", "label": "uniform-B"}


def plane_wave_orbit_job(rng, job_id, n_steps):
    """Plane-wave orbit: the generic RK4 path with per-stage field samples."""
    config = {
        "command": "simulate",
        "particle": {"kind": rng.choice(KINDS)},
        "fields": _plane_wave_field(rng, rng.uniform(0.2, 1.0)),
        "initial_state": _initial_state(rng, 0.5),
        "evolution": {"ds": rng.uniform(0.01, 0.03), "n_steps": n_steps},
    }
    return {"id": job_id, "runner": "cli", "config": config, "work": n_steps,
            "check": "plane-wave-orbit", "label": "plane-wave"}


def variational_job(rng, job_id, n):
    """Functional derivatives and actions of a perturbed plane wave on n^2."""
    config = {
        "command": "fisher",
        "seed": rng.randrange(2**31),
        "fields": {
            "kind": "uniform",
            "E0": [rng.uniform(-0.05, 0.05) for _ in range(3)],
            "B0": [rng.uniform(-0.3, 0.3) for _ in range(3)],
        },
        "grid": {"active_axes": [0, 1], "shape": [n, n], "spacing": [SPACING, SPACING]},
        "configuration": {
            "type": "perturbed-plane-wave",
            "kind": rng.choice(KINDS),
            "amplitude": rng.uniform(5e-4, 2e-3),
            "chi": rng.uniform(0.2, 1.2),
            "theta": rng.uniform(0.3, 2.8),
            "eta0": rng.uniform(0.0, 2.0 * math.pi),
            "rho_value": rng.uniform(0.6, 1.8),
        },
        "fisher": {"depth": 3},
    }
    # derivatives with respect to S and to rho0, one value per grid point each
    return {"id": job_id, "runner": "variational", "config": config, "work": 2 * n * n,
            "check": "variational", "label": f"{n}x{n}"}


# Steps per orbit job. A uniform-B job (constant-field RK4 at about 30 us a
# step plus 12 CSV values a step) and a plane-wave job (generic RK4 at about
# 800 us a step) then take about the same wall time, and two of the first
# against one of the second split the integration time about in half.
# Rounds are kept short (three jobs here, three or four elsewhere), because a
# run holds whole rounds and so ends up to half a round away from --seconds.
UNIFORM_STEPS = 45_000
PLANE_WAVE_STEPS = 3_000

# 33^2 and 65^2 are the ends of the O(N^2) range, 49^2 its middle.
VARIATIONAL_SIZES = (49, 33, 65)


def round_jobs(workload, seed, round_index):
    """The seeded jobs of one round, in the order they run."""
    rng = _rng(workload, seed, round_index)
    prefix = f"r{round_index}"
    if workload == "grid-residuals":
        # one 257^2 slice per configuration type, and the 17^4 grid; the 4-D
        # job is always the heaviest combination (a perturbed plane wave in a
        # plane-wave field), so every run has the same peak RSS
        types = list(CONFIG_TYPES)
        rng.shuffle(types)
        jobs = [residual_job(rng, f"{prefix}-2d{k}", (257, 257), t) for k, t in enumerate(types)]
        jobs.insert(2, residual_job(rng, f"{prefix}-4d", (17, 17, 17, 17),
                                    "perturbed-plane-wave", "plane-wave"))
        return jobs
    if workload == "spin-orbits":
        return [uniform_orbit_job(rng, f"{prefix}-0", UNIFORM_STEPS),
                plane_wave_orbit_job(rng, f"{prefix}-1", PLANE_WAVE_STEPS),
                uniform_orbit_job(rng, f"{prefix}-2", UNIFORM_STEPS)]
    if workload == "variational-closure":
        return [variational_job(rng, f"{prefix}-v{k}", n) for k, n in enumerate(VARIATIONAL_SIZES)]
    raise ValueError(f"unknown workload {workload!r}")


def timed_jobs(workload, seed, seconds):
    """Yield whole rounds of jobs for about ``seconds``.

    A run holds whole rounds only, so every run has the same mix of job
    types whatever the host's speed. The first round always runs; another
    starts only while the time so far plus half a mean round is below
    ``seconds``, so a run ends within about half a round of ``seconds``.
    The caller runs each job before asking for the next.
    """
    start = time.perf_counter()
    round_index = 0
    while True:
        yield from round_jobs(workload, seed, round_index)
        round_index += 1
        elapsed = time.perf_counter() - start
        if elapsed * (1.0 + 0.5 / round_index) >= seconds:
            return


def reference_jobs(workload, seed):
    """Small jobs of one workload, for layers another workload leaves idle.

    The traced run of a workload measures its own jobs; a layer those jobs
    never call is measured on these instead, so every per-layer metric is a
    measurement. They also serve the benchmark's own tests.
    """
    rng = _rng(workload, seed, "reference")
    if workload == "grid-residuals":
        return [
            residual_job(rng, "ref-2d", (33, 33), "manufactured"),
            residual_job(rng, "ref-4d", (9, 9, 9, 9), "manufactured"),
        ]
    if workload == "spin-orbits":
        return [uniform_orbit_job(rng, "ref-u", 4_000), plane_wave_orbit_job(rng, "ref-p", 200)]
    if workload == "variational-closure":
        return [variational_job(rng, "ref-v", 17)]
    raise ValueError(f"unknown workload {workload!r}")
