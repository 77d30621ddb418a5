"""Acceptance criteria, one test per criterion.

Each test pins the tolerance it is held to, registers a one-line summary
(printed by the conftest hook after the run), and then asserts.  Criteria
with runtime budgets time themselves and assert the budget too.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import register_criterion

import dirachydro.cli
from dirachydro.clifford import GAMMA, METRIC, bilinears, sigma_from_u_s, spin_tensor
from dirachydro.dynamics import DynState, fit_precession_frequency, integrate, precession_rate
from dirachydro.fields import CrossedField, UniformField, ZERO_FIELD, rest_frame_B, tensor_from_EB
from dirachydro.fisher import (
    CONTINUITY_FACTOR,
    QHJ_FACTOR,
    action_functional,
    functional_derivative,
    lagrangian_density,
    pauli_limit_density,
)
from dirachydro.grids import GridSpec
from dirachydro.hydro import (
    first_order_residuals,
    quantum_potential,
    second_order_residuals_bilinear,
    second_order_residuals_expanded,
)
from dirachydro.kinematics import beta_from_u, beta_hat_rate, spin_to_lab
from dirachydro.lagrangian import identity_residuals
from dirachydro.manufactured import (
    DEFAULT_BASE_PARAMS,
    perturbed_plane_wave_fields,
    plane_wave_fields,
    seeded_manufactured_fields,
    smooth_angle_params,
)
from dirachydro.spinors import (
    KinematicParams,
    four_velocity,
    make_antiparticle_spinor,
    make_particle_spinor,
    rest_spin,
    sigma_component_table,
)

REPO = Path(__file__).resolve().parent.parent

_SAMPLE_SEED = 2024


def _draw_samples(n=10_000):
    # shared draw for criteria 2 and 3: "the same 10^4 samples"
    rng = np.random.default_rng(_SAMPLE_SEED)
    return KinematicParams(
        chi=rng.uniform(0.0, 3.0, n),
        theta_u=rng.uniform(0.0, np.pi, n),
        phi=rng.uniform(0.0, 2.0 * np.pi, n),
        theta=rng.uniform(0.0, np.pi, n),
        eta0=rng.uniform(0.0, 2.0 * np.pi, n),
    )


@pytest.mark.criterion(1, "gamma-algebra exactness")
def test_criterion_01_anticommutators_exact():
    t0 = time.perf_counter()
    exact_pairs = 0
    for mu in range(4):
        for nu in range(4):
            anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            target = 2.0 * METRIC[mu, nu] * np.eye(4)
            exact_pairs += int(np.array_equal(anti, target))
    elapsed = time.perf_counter() - t0
    register_criterion(
        1, "gamma-algebra exactness",
        f"{exact_pairs}/16 pairs exact in {elapsed * 1e3:.1f} ms",
    )
    assert exact_pairs == 16
    assert elapsed < 1.0


@pytest.mark.criterion(2, "guiding relation at 10^4 samples")
def test_criterion_02_guiding_relation():
    t0 = time.perf_counter()
    params = _draw_samples()
    u = four_velocity(params)
    bil_p = bilinears(make_particle_spinor(params))
    bil_ap = bilinears(make_antiparticle_spinor(params))

    worst_p = np.max(np.abs(bil_p.vector / bil_p.scalar[:, None] - u))
    worst_ap = np.max(np.abs(-bil_ap.vector / bil_ap.scalar[:, None] - u))
    scalar_p = np.max(np.abs(bil_p.scalar - 1.0 / params.gamma))
    scalar_ap = np.max(np.abs(bil_ap.scalar + 1.0 / params.gamma))
    elapsed = time.perf_counter() - t0

    register_criterion(
        2, "guiding relation at 10^4 samples",
        f"worst residual {max(worst_p, worst_ap):.3e} vs 1e-10,"
        f" scalar density {max(scalar_p, scalar_ap):.3e} vs 1e-12,"
        f" {elapsed:.2f} s",
    )
    assert worst_p < 1e-10
    assert worst_ap < 1e-10
    assert scalar_p < 1e-12
    assert scalar_ap < 1e-12
    assert elapsed < 10.0


@pytest.mark.criterion(3, "polarization tensor cross-checks")
def test_criterion_03_sigma_three_way():
    params = _draw_samples()
    u = four_velocity(params)
    e = make_particle_spinor(params)

    table = sigma_component_table(params)
    from_bilinear = spin_tensor(e) / bilinears(e).scalar[:, None, None]
    from_axial = sigma_from_u_s(u, spin_to_lab(rest_spin(params), beta_from_u(u)))

    pair_ab = np.max(np.abs(table - from_bilinear))
    pair_ac = np.max(np.abs(table - from_axial))
    pair_bc = np.max(np.abs(from_bilinear - from_axial))
    sigma03 = np.max(np.abs(table[:, 0, 3]))

    register_criterion(
        3, "polarization tensor cross-checks",
        f"worst pairwise {max(pair_ab, pair_ac, pair_bc):.3e} vs 1e-12,"
        f" sigma03 {sigma03:.3e}",
    )
    assert pair_ab < 1e-12
    assert pair_ac < 1e-12
    assert pair_bc < 1e-12
    assert sigma03 <= 1e-12


@pytest.mark.criterion(4, "spin-vorticity identity convergence")
def test_criterion_04_identity_convergence_order():
    steps = (0.02, 0.01, 0.005)
    x = np.array([0.1, -0.2, 0.3, 0.05])
    orders = []
    for seed in range(5):
        params_of = smooth_angle_params(seed)
        res = {h: identity_residuals(params_of, x, h=h) for h in steps}
        for key in ("divergence_vs_contraction", "divergence_vs_vorticity"):
            for coarse, fine in zip(steps, steps[1:]):
                orders.append(np.log2(res[coarse][key] / res[fine][key]))
    register_criterion(
        4, "spin-vorticity identity convergence",
        f"orders {min(orders):.4f}..{max(orders):.4f} on 5 configurations"
        " vs 2.0 +/- 0.2",
    )
    assert min(orders) >= 1.8
    assert max(orders) <= 2.2


@pytest.mark.criterion(5, "Larmor frequency")
def test_criterion_05_larmor_frequency():
    axis = np.array([0.0, 0.0, 1.0])
    rest = DynState(
        x=np.zeros(4), u=np.array([1.0, 0.0, 0.0, 0.0]),
        s_rest=np.array([1.0, 0.0, 0.0]),
    )
    traj = integrate(
        rest, UniformField(B0=np.array([0.0, 0.0, 1.0])), ds=0.01,
        s_max=20.0 * np.pi,
    )
    fit = fit_precession_frequency(traj.s, traj.s_rest, axis=axis)

    doubled_traj = integrate(
        rest, UniformField(B0=np.array([0.0, 0.0, 2.0])), ds=0.005,
        s_max=10.0 * np.pi,
    )
    doubled = fit_precession_frequency(doubled_traj.s, doubled_traj.s_rest, axis=axis)

    register_criterion(
        5, "Larmor frequency",
        f"fitted {fit.omega:.12f} vs 1 +/- 1e-6,"
        f" doubled-field ratio {doubled.omega / fit.omega:.12f}",
    )
    assert abs(fit.omega - 1.0) < 1e-6
    assert abs(doubled.omega - 2.0 * fit.omega) < 1e-6


@pytest.mark.criterion(6, "Thomas precession consistency")
def test_criterion_06_thomas_assembled_vs_closed():
    E0 = np.array([0.05, 0.0, 0.0])
    B0 = np.array([0.0, 0.0, 0.8])
    provider = CrossedField(E0=E0, B0=B0)
    state = DynState(
        x=np.zeros(4),
        u=np.array([2.0, np.sqrt(3.0), 0.0, 0.0]),
        s_rest=np.array([0.0, np.sqrt(0.5), np.sqrt(0.5)]),
    )
    traj = integrate(state, provider, ds=2e-4, n_steps=20_000)

    gamma = traj.u[:, 0]
    beta = traj.beta
    beta_hat = beta / np.linalg.norm(beta, axis=1, keepdims=True)
    du = np.gradient(traj.u, traj.s, axis=0, edge_order=2)
    thomas = (gamma - 1.0)[:, None] * np.cross(beta_hat, beta_hat_rate(traj.u, du))
    b_prime = rest_frame_B(
        np.broadcast_to(E0, beta.shape), np.broadcast_to(B0, beta.shape), beta
    )
    assembled = b_prime - thomas

    closed = precession_rate(traj.u, tensor_from_EB(E0, B0))

    interior = slice(5, -5)
    diff = np.max(np.linalg.norm((assembled - closed)[interior], axis=1))
    scale = np.max(np.linalg.norm(closed[interior], axis=1))
    relative = diff / scale
    register_criterion(
        6, "Thomas precession consistency",
        f"gamma = 2 orbit, relative mismatch {relative:.3e} vs 1e-6",
    )
    assert relative < 1e-6


@pytest.mark.criterion(7, "spin-velocity angle over 100 cyclotron periods")
def test_criterion_07_g2_angle_invariant():
    t0 = time.perf_counter()
    chi = 0.8
    period = 2.0 * np.pi * np.cosh(chi)
    state = DynState(
        x=np.zeros(4),
        u=np.array([np.cosh(chi), np.sinh(chi), 0.0, 0.0]),
        s_rest=np.array([1.0, 0.0, 0.0]),
    )
    traj = integrate(
        state, UniformField(B0=np.array([0.0, 0.0, 1.0])),
        ds=period / 4000.0, s_max=100.0 * period,
    )
    beta_hat = traj.beta / np.linalg.norm(traj.beta, axis=1, keepdims=True)
    cross = np.linalg.norm(np.cross(traj.s_rest, beta_hat), axis=1)
    dot = np.einsum("ni,ni->n", traj.s_rest, beta_hat)
    angle = np.arctan2(cross, dot)
    drift = np.max(np.abs(angle - angle[0]))
    shell = traj.mass_shell_error()
    elapsed = time.perf_counter() - t0

    register_criterion(
        7, "spin-velocity angle over 100 cyclotron periods",
        f"angle drift {drift:.3e} vs 1e-6, mass-shell {shell:.3e} vs 1e-9,"
        f" {elapsed:.1f} s",
    )
    assert drift < 1e-6
    assert shell < 1e-9
    assert elapsed < 60.0


@pytest.mark.criterion(8, "plane-wave annihilation")
def test_criterion_08_plane_wave_annihilation():
    spec = GridSpec(active_axes=(0, 1), shape=(65, 65), spacing=(0.02, 0.02))
    worst = 0.0
    for kind in ("particle", "antiparticle"):
        fields = plane_wave_fields(spec, kind=kind)
        first = first_order_residuals(fields, ZERO_FIELD)
        bil = second_order_residuals_bilinear(fields, ZERO_FIELD)
        exp = second_order_residuals_expanded(fields, ZERO_FIELD)
        for grid in (
            first.continuity, first.hamilton_jacobi,
            bil.continuity, bil.qhj, bil.qhj_imag,
            exp.continuity, exp.qhj,
        ):
            worst = max(worst, float(np.max(np.abs(grid))))
    register_criterion(
        8, "plane-wave annihilation",
        f"worst sup-norm {worst:.3e} vs 1e-10, both kinds, 65x65",
    )
    assert worst <= 1e-10


@pytest.mark.criterion(9, "expanded-vs-bilinear oracle")
def test_criterion_09_expanded_matches_bilinear():
    spec = GridSpec(active_axes=(0, 1), shape=(33, 33), spacing=(0.01, 0.01))
    provider = UniformField(
        E0=np.array([0.02, 0.0, 0.01]), B0=np.array([0.0, 0.0, 0.6])
    )
    worst_qhj = 0.0
    worst_cont = 0.0
    for seed in range(20):
        fields = seeded_manufactured_fields(spec, seed=seed)
        bil = second_order_residuals_bilinear(fields, provider)
        exp = second_order_residuals_expanded(fields, provider)
        worst_qhj = max(worst_qhj, float(np.max(np.abs(bil.qhj - exp.qhj))))
        worst_cont = max(
            worst_cont, float(np.max(np.abs(bil.continuity - exp.continuity)))
        )

    report_path = REPO / "demos" / "calibration_report.json"
    report = json.loads(report_path.read_text())
    coefficients = report["shape_coefficients"]
    calibration_shift = 0.0
    for name in ("theta_gradient", "kappa_gradient"):
        block = coefficients[name]
        assert "resolved" in block
        assert "ratio_to_quarter_form" in block
        assert "ratio_to_unit_form" in block
        calibration_shift = max(
            calibration_shift, abs(block["resolved"] - block["frozen_in_module"])
        )

    register_criterion(
        9, "expanded-vs-bilinear oracle",
        f"20 seeded configurations, worst qhj {worst_qhj:.3e} /"
        f" continuity {worst_cont:.3e} vs 1e-6;"
        f" calibration report shift {calibration_shift:.1e}",
    )
    assert worst_qhj < 1e-6
    assert worst_cont < 1e-6
    assert calibration_shift <= 1e-3


@pytest.mark.criterion(10, "quantum potential on a Gaussian")
def test_criterion_10_quantum_potential():
    errors = []
    for h in (0.04, 0.02, 0.01):
        n = int(round(8.0 / h)) + 1
        spec = GridSpec(
            active_axes=(1,), shape=(n,), spacing=(h,), origin=(0.0, -4.0, 0.0, 0.0)
        )
        x = spec.axis_coordinates()[0]
        q = quantum_potential(spec, np.exp(-(x**2)))
        errors.append(abs(q.data[(n - 1) // 2] + 0.5))
    orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]

    h = 1e-3
    n = int(round(8.0 / h)) + 1
    spec = GridSpec(
        active_axes=(1,), shape=(n,), spacing=(h,), origin=(0.0, -4.0, 0.0, 0.0)
    )
    x = spec.axis_coordinates()[0]
    q = quantum_potential(spec, np.exp(-(x**2)))
    window = np.abs(x) <= 2.0
    sup = float(np.max(np.abs(q.data[window] - 0.5 * (x[window] ** 2 - 1.0))))

    register_criterion(
        10, "quantum potential on a Gaussian",
        f"Q(0) orders {orders[0]:.4f}, {orders[1]:.4f} vs 2.0 +/- 0.2;"
        f" closed-form sup {sup:.3e} vs 1e-6 at h = 1e-3",
    )
    for order in orders:
        assert 1.8 <= order <= 2.2
    assert sup < 1e-6


@pytest.mark.criterion(11, "variational closure")
def test_criterion_11_functional_derivatives():
    spec = GridSpec(active_axes=(0, 1), shape=(33, 33), spacing=(0.02, 0.02))
    provider = UniformField(E0=np.array([0.0, 0.03, 0.0]), B0=np.array([0.0, 0.0, 0.1]))
    fields = perturbed_plane_wave_fields(spec, seed=5, amplitude=1e-3)
    residuals = second_order_residuals_expanded(fields, provider)
    interior = spec.trusted_mask(depth=3)

    dS = functional_derivative(fields, provider, wrt="S")
    diff_s = np.max(np.abs((dS - CONTINUITY_FACTOR * residuals.continuity)[interior]))
    drho = functional_derivative(fields, provider, wrt="rho0")
    diff_r = np.max(np.abs((drho - QHJ_FACTOR * residuals.qhj)[interior]))

    inputs = [fields] + [
        seeded_manufactured_fields(spec, seed=seed) for seed in (1, 2)
    ]
    antisymmetry = max(
        abs(
            action_functional(f, provider, kind="antiparticle").total
            + action_functional(f, provider, kind="particle").total
        )
        for f in inputs
    )

    register_criterion(
        11, "variational closure",
        f"dA/dS residual {diff_s:.3e}, dA/drho0 residual {diff_r:.3e} vs 1e-4;"
        f" antisymmetry {antisymmetry:.1e} vs 1e-12",
    )
    assert diff_s < 1e-4
    assert diff_r < 1e-4
    assert antisymmetry <= 1e-12


@pytest.mark.criterion(12, "Pauli limit")
def test_criterion_12_pauli_limit():
    rng = np.random.default_rng(_SAMPLE_SEED)
    n = 10_000
    params = KinematicParams(
        chi=np.full(n, 1e-3),
        theta_u=rng.uniform(0.0, np.pi, n),
        phi=rng.uniform(0.0, 2.0 * np.pi, n),
        theta=rng.uniform(0.0, np.pi, n),
        eta0=rng.uniform(0.0, 2.0 * np.pi, n),
    )
    sigma12 = sigma_component_table(params)[:, 1, 2]
    pointwise = np.max(np.abs(sigma12 + np.cos(params.theta)))

    spec = GridSpec(active_axes=(0, 1), shape=(33, 33), spacing=(0.01, 0.01))
    provider = UniformField(E0=np.array([0.01, 0.0, 0.02]), B0=np.array([0.0, 0.0, 0.3]))
    base = dict(DEFAULT_BASE_PARAMS, chi=1e-3, theta_u=np.pi / 2, phi=0.0)
    fields = seeded_manufactured_fields(spec, seed=3, base=base)
    density_gap = float(np.max(np.abs(
        lagrangian_density(fields, provider) - pauli_limit_density(fields, provider)
    )))

    register_criterion(
        12, "Pauli limit",
        f"|Sigma12 + cos(theta)| {pointwise:.3e} vs 1e-5;"
        f" density gap {density_gap:.3e} vs 1e-4 at chi = 1e-3",
    )
    assert pointwise < 1e-5
    assert density_gap < 1e-4


def _cli(tmp_path, config_path, out_dir, extra=()):
    # the child runs from tmp_path, so a relative PYTHONPATH would not find
    # the package under test; put its absolute parent directory first
    package_root = str(Path(dirachydro.cli.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, inherited])))
    return subprocess.run(
        [sys.executable, "-m", "dirachydro.cli", "--config", str(config_path),
         "--out", str(out_dir), "--quiet", *extra],
        cwd=tmp_path, capture_output=True, text=True, env=env,
    )


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


_CLI_CONFIGS = {
    "verify": {
        "command": "verify",
        "seed": 5,
        "verify": {"samples": 300},
        "output": {"format": "json"},
    },
    "simulate": {
        "command": "simulate",
        "seed": 0,
        "fields": {"kind": "uniform", "B0": [0.0, 0.0, 1.0]},
        "initial_state": {"beta": [0.0, 0.0, 0.0], "spin": [1.0, 0.0, 0.0]},
        "evolution": {"ds": 0.01, "n_steps": 700, "fit_frequency": True,
                      "fit_axis": [0.0, 0.0, 1.0]},
    },
    "residuals": {
        "command": "residuals",
        "seed": 0,
        "grid": {"active_axes": [0, 1], "shape": [33, 33], "spacing": [0.02, 0.02]},
        "configuration": {"type": "plane-wave", "kind": "particle"},
    },
    "fisher": {
        "command": "fisher",
        "seed": 3,
        "fields": {"kind": "uniform", "E0": [0.0, 0.02, 0.0], "B0": [0.0, 0.0, 0.05]},
        "grid": {"active_axes": [0, 1], "shape": [17, 17], "spacing": [0.025, 0.025]},
        "configuration": {"type": "perturbed-plane-wave", "amplitude": 0.001},
        "fisher": {"depth": 2},
        "output": {"format": "json"},
    },
}


@pytest.mark.criterion(13, "CLI determinism and exit statuses")
def test_criterion_13_cli_determinism(tmp_path):
    identical = []
    for name, payload in _CLI_CONFIGS.items():
        config_path = _write(tmp_path, f"{name}.json", payload)
        first = tmp_path / f"{name}_a"
        second = tmp_path / f"{name}_b"
        for out_dir in (first, second):
            proc = _cli(tmp_path, config_path, out_dir)
            assert proc.returncode == 0, (name, proc.stderr)
        names_a = sorted(p.name for p in first.iterdir())
        names_b = sorted(p.name for p in second.iterdir())
        assert names_a == names_b
        assert "metadata.json" in names_a
        for artifact in names_a:
            if artifact == "metadata.json":
                continue
            same = (first / artifact).read_bytes() == (second / artifact).read_bytes()
            identical.append(same)
            assert same, (name, artifact)

    # documented exit statuses: 2 parse error, 1 suite failure, 3 instability
    broken = tmp_path / "broken.json"
    broken.write_text('{"command": "verify",}')
    parse = _cli(tmp_path, broken, tmp_path / "broken_out")
    assert parse.returncode == 2 and "config parse error" in parse.stderr

    failing = _write(
        tmp_path, "failing.json",
        {"command": "verify", "seed": 0,
         "verify": {"samples": 50, "tolerance_scale": 1e-30}},
    )
    suite_fail = _cli(tmp_path, failing, tmp_path / "failing_out")
    assert suite_fail.returncode == 1

    runaway = _write(
        tmp_path, "runaway.json",
        {"command": "simulate",
         "fields": {"kind": "uniform", "E0": [1e6, 0.0, 0.0]},
         "initial_state": {"spin": [0.0, 0.0, 1.0]},
         "evolution": {"ds": 10.0, "n_steps": 50}},
    )
    unstable = _cli(tmp_path, runaway, tmp_path / "runaway_out")
    assert unstable.returncode == 3 and "failing step index" in unstable.stderr

    register_criterion(
        13, "CLI determinism and exit statuses",
        f"{len(identical)} artifacts byte-identical across reruns of 4 commands;"
        " exit codes 2/1/3 observed",
    )
    assert all(identical)
