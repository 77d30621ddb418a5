"""Seeded randomized identity suites behind the CLI verify command.

Each suite draws its samples from ``numpy.random.default_rng(seed)`` (the
PCG64 generator, fixed for reproducibility), evaluates a set of algebraic
identities in bulk, and reports the worst absolute residual per check next
to the tolerance it was held to.  Tolerances can be scaled with a single
knob; scaling them down until a check fails is how the CLI's failure exit
path is exercised without corrupting any physics code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import (
    GAMMA,
    GAMMA5,
    METRIC,
    bilinears,
    minkowski_dot,
    sigma_from_u_s,
    spin_tensor,
)
from .dynamics import DynState, integrate, precession_rate
from .errors import ContractError
from .fields import ELECTRON, Particle, UniformField, tensor_from_EB
from .kinematics import beta_from_u, boost_matrix, gamma_of_beta, spin_to_lab
from .lagrangian import alternative_spin_terms, lagrangian_terms, sigma12_of
from .spinors import (
    KinematicParams,
    four_velocity,
    make_antiparticle_spinor,
    make_particle_spinor,
    recover_velocity,
    rest_spin,
    sigma_component_table,
)

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite", "run_all"]

SUITE_NAMES = ("clifford", "spinor_factory", "kinematics", "lagrangian")


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one suite: per-check residuals against tolerances."""

    name: str
    seed: int
    samples: int
    checks: dict

    @property
    def passed(self):
        return all(entry["passed"] for entry in self.checks.values())

    @property
    def max_abs_residual(self):
        return max(entry["max_abs_residual"] for entry in self.checks.values())

    def as_dict(self):
        return {
            "name": self.name,
            "seed": self.seed,
            "samples": self.samples,
            "passed": self.passed,
            "checks": self.checks,
        }


def _entry(residual, tolerance):
    residual = float(residual)
    tolerance = float(tolerance)
    return {
        "max_abs_residual": residual,
        "tolerance": tolerance,
        "passed": residual <= tolerance,
    }


def _draw_params(rng, n, chi_range=(0.0, 3.0)):
    return KinematicParams(
        chi=rng.uniform(*chi_range, size=n),
        theta_u=rng.uniform(0.0, np.pi, size=n),
        phi=rng.uniform(0.0, 2.0 * np.pi, size=n),
        theta=rng.uniform(0.0, np.pi, size=n),
        eta0=rng.uniform(0.0, 2.0 * np.pi, size=n),
    )


def _suite_clifford(rng, samples, scale):
    checks = {}

    worst = 0
    for mu in range(4):
        for nu in range(4):
            anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            target = 2.0 * METRIC[mu, nu] * np.eye(4)
            worst = max(worst, int(np.max(np.abs(anti - target))))
    # integer-exact contract: tolerance 0 regardless of scaling
    checks["anticommutator_exact"] = _entry(worst, 0.0)

    product = 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]
    checks["gamma5_product"] = _entry(np.max(np.abs(product - GAMMA5)), 0.0)
    checks["gamma5_squares_to_one"] = _entry(
        np.max(np.abs(GAMMA5 @ GAMMA5 - np.eye(4))), 0.0
    )

    a = rng.normal(size=(samples, 4))
    b = rng.normal(size=(samples, 4))
    explicit = (
        a[:, 0] * b[:, 0] - np.einsum("ni,ni->n", a[:, 1:], b[:, 1:])
    )
    checks["minkowski_dot_signature"] = _entry(
        np.max(np.abs(minkowski_dot(a, b) - explicit)), 1e-12 * scale
    )
    return checks


def _suite_spinor_factory(rng, samples, scale):
    checks = {}
    params = _draw_params(rng, samples)
    gamma = params.gamma
    u = four_velocity(params)

    e_p = make_particle_spinor(params)
    e_ap = make_antiparticle_spinor(params)
    bil_p = bilinears(e_p)
    bil_ap = bilinears(e_ap)

    norm_p = np.einsum("na,na->n", np.conj(e_p), e_p).real
    checks["unit_norm"] = _entry(np.max(np.abs(norm_p - 1.0)), 1e-12 * scale)
    checks["scalar_density_particle"] = _entry(
        np.max(np.abs(bil_p.scalar - 1.0 / gamma)), 1e-12 * scale
    )
    checks["scalar_density_antiparticle"] = _entry(
        np.max(np.abs(bil_ap.scalar + 1.0 / gamma)), 1e-12 * scale
    )
    checks["guiding_relation_particle"] = _entry(
        np.max(np.abs(bil_p.vector / bil_p.scalar[:, None] - u)), 1e-10 * scale
    )
    checks["guiding_relation_antiparticle"] = _entry(
        np.max(np.abs(-bil_ap.vector / bil_ap.scalar[:, None] - u)), 1e-10 * scale
    )
    checks["velocity_recovery"] = _entry(
        np.max(np.abs(recover_velocity(e_p) - u)), 1e-10 * scale
    )

    table = sigma_component_table(params)
    from_bilinear = spin_tensor(e_p) / bil_p.scalar[:, None, None]
    checks["sigma_table_vs_bilinear"] = _entry(
        np.max(np.abs(table - from_bilinear)), 1e-12 * scale
    )
    from_us = sigma_from_u_s(u, spin_to_lab(rest_spin(params), beta_from_u(u)))
    checks["sigma_table_vs_axial_form"] = _entry(
        np.max(np.abs(table - from_us)), 1e-12 * scale
    )
    checks["sigma_03_vanishes"] = _entry(
        np.max(np.abs(table[:, 0, 3])), 1e-12 * scale
    )
    return checks


def _suite_kinematics(rng, samples, scale):
    checks = {}
    direction = rng.normal(size=(samples, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    beta = direction * rng.uniform(0.0, 0.95, size=(samples, 1))
    gamma = gamma_of_beta(beta)
    lam = boost_matrix(beta)

    metric_residual = np.einsum("nab,bc,ndc->nad", lam, METRIC, lam) - METRIC
    checks["boost_preserves_metric"] = _entry(
        np.max(np.abs(metric_residual)), 1e-12 * scale
    )

    # boost_matrix(beta) is passive (lab -> comoving); rest -> lab needs -beta
    u_rest = np.zeros((samples, 4))
    u_rest[:, 0] = 1.0
    u = np.einsum("nab,nb->na", boost_matrix(-beta), u_rest)
    expected_u = np.concatenate([gamma[:, None], gamma[:, None] * beta], axis=1)
    checks["boost_of_rest_velocity"] = _entry(
        np.max(np.abs(u - expected_u)), 1e-12 * scale
    )
    round_trip = np.einsum("nab,nbc->nac", lam, boost_matrix(-beta)) - np.eye(4)
    checks["boost_inverts_its_reverse"] = _entry(
        np.max(np.abs(round_trip)), 1e-12 * scale
    )

    s_rest = rng.normal(size=(samples, 3))
    s_rest /= np.linalg.norm(s_rest, axis=1, keepdims=True)
    s_lab = spin_to_lab(s_rest, beta)
    checks["lab_spin_orthogonal_to_u"] = _entry(
        np.max(np.abs(minkowski_dot(u, s_lab))), 1e-12 * scale
    )
    checks["lab_spin_norm"] = _entry(
        np.max(np.abs(minkowski_dot(s_lab, s_lab) + 1.0)), 1e-12 * scale
    )
    checks["beta_round_trip"] = _entry(
        np.max(np.abs(beta_from_u(u) - beta)), 1e-12 * scale
    )
    return checks


def _suite_lagrangian(rng, samples, scale):
    checks = {}
    params = _draw_params(rng, max(samples // 10, 10), chi_range=(0.0, 2.0))
    u = four_velocity(params)
    s_rest = rest_spin(params)
    x = rng.normal(size=(u.shape[0], 4))
    phi_rate = rng.normal(size=u.shape[0])
    eta_rate = rng.normal(size=u.shape[0])
    omega_prime = rng.normal(size=(u.shape[0], 3))
    provider = UniformField(
        E0=np.array([0.03, -0.01, 0.02]), B0=np.array([0.01, 0.02, -0.03])
    )

    rates = (x, u, s_rest, phi_rate, eta_rate, omega_prime)
    lp = lagrangian_terms(*rates, provider=provider)
    lap = lagrangian_terms(*rates, provider=provider, kind="antiparticle")
    mass_sum = lp.total + lap.total
    checks["kind_flip_leaves_twice_mass"] = _entry(
        np.max(np.abs(mass_sum + 2.0 * ELECTRON.mass)), 1e-12 * scale
    )

    checks["sigma12_matches_table"] = _entry(
        np.max(np.abs(sigma12_of(u, s_rest) - sigma_component_table(params)[:, 1, 2])),
        1e-12 * scale,
    )

    doubled = Particle(
        mass=ELECTRON.mass, charge=ELECTRON.charge, hbar=2.0 * ELECTRON.hbar
    )
    lp2 = lagrangian_terms(*rates, provider=provider, particle=doubled)
    hbar_linear = np.concatenate([
        lp2.phase - 2.0 * lp.phase,
        lp2.sigma12 - 2.0 * lp.sigma12,
        lp2.spin_vorticity - 2.0 * lp.spin_vorticity,
    ])
    checks["spin_terms_linear_in_hbar"] = _entry(
        np.max(np.abs(hbar_linear)), 1e-12 * scale
    )

    # two displayed spin-term forms along a short cyclotron arc
    provider_b = UniformField(E0=np.zeros(3), B0=np.array([0.0, 0.0, 1.0]))
    state = DynState(
        x=np.zeros(4),
        u=np.array([np.cosh(0.6), np.sinh(0.6), 0.0, 0.0]),
        s_rest=np.array([np.sqrt(0.5), 0.0, np.sqrt(0.5)]),
    )
    traj = integrate(state, provider_b, ds=5e-4, n_steps=800)
    F_b = tensor_from_EB(np.zeros(3), np.array([0.0, 0.0, 1.0]))
    omega_tr = precession_rate(traj.u, F_b)
    from .lagrangian import spin_azimuth_rate
    from .kinematics import beta_hat_rate

    du = np.gradient(traj.u, traj.s, axis=0, edge_order=2)
    bh_rate = beta_hat_rate(traj.u, du)
    phi_rate_tr = spin_azimuth_rate(traj.s, traj.s_rest)
    direct = (
        -0.5 * ELECTRON.hbar * sigma12_of(traj.u, traj.s_rest) * phi_rate_tr
        - 0.5 * ELECTRON.hbar * np.einsum("ni,ni->n", omega_tr, traj.s_rest)
    )
    alternative = alternative_spin_terms(
        traj.u, traj.s_rest, phi_rate_tr, omega_tr, bh_rate
    )
    interior = slice(5, -5)
    checks["spin_term_forms_agree"] = _entry(
        np.max(np.abs((direct - alternative)[interior])), 1e-8 * scale
    )
    return checks


_SUITES = {
    "clifford": _suite_clifford,
    "spinor_factory": _suite_spinor_factory,
    "kinematics": _suite_kinematics,
    "lagrangian": _suite_lagrangian,
}


def run_suite(name, seed, samples=2000, tolerance_scale=1.0):
    """Run one named suite with its own independent generator."""
    if name not in _SUITES:
        raise ContractError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if samples < 10:
        raise ContractError("samples must be at least 10")
    scale = float(tolerance_scale)
    if not scale > 0.0:
        raise ContractError("tolerance_scale must be positive")
    rng = np.random.default_rng([int(seed), SUITE_NAMES.index(name)])
    checks = _SUITES[name](rng, int(samples), scale)
    return SuiteResult(name=name, seed=int(seed), samples=int(samples), checks=checks)


def run_all(seed, samples=2000, tolerance_scale=1.0, suites=None):
    """Run the requested suites (default: all four) in declared order."""
    if suites is None:
        suites = SUITE_NAMES
    for name in suites:
        if name not in _SUITES:
            raise ContractError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return [
        run_suite(name, seed, samples=samples, tolerance_scale=tolerance_scale)
        for name in suites
    ]
