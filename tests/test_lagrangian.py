"""Point Lagrangian split, its two spin-term forms, transport identities."""

import numpy as np
import pytest

from dirachydro.dynamics import DynState, integrate, precession_rate
from dirachydro.errors import ContractError
from dirachydro.fields import (
    ELECTRON,
    Particle,
    UniformField,
    ZERO_FIELD,
    tensor_from_EB,
)
from dirachydro.kinematics import beta_hat_rate
from dirachydro.lagrangian import (
    alternative_spin_terms,
    identity_residuals,
    lagrangian_terms,
    sigma12_of,
    spin_azimuth_rate,
)
from dirachydro.manufactured import smooth_angle_params
from dirachydro.spinors import (
    KinematicParams,
    four_velocity,
    rest_spin,
    sigma_component_table,
)


def _sample_states(seed, n):
    rng = np.random.default_rng(seed)
    params = KinematicParams(
        chi=rng.uniform(0.0, 2.0, n),
        theta_u=rng.uniform(0.0, np.pi, n),
        phi=rng.uniform(0.0, 2.0 * np.pi, n),
        theta=rng.uniform(0.0, np.pi, n),
        eta0=rng.uniform(0.0, 2.0 * np.pi, n),
    )
    return params, rng


def test_kinds_sum_to_minus_two_masses():
    """Every term except the mass flips sign between the two kinds."""
    params, rng = _sample_states(71, 100)
    u = four_velocity(params)
    s = rest_spin(params)
    x = rng.normal(size=(100, 4))
    args = (x, u, s, rng.normal(size=100), rng.normal(size=100), rng.normal(size=(100, 3)))
    provider = UniformField(E0=np.array([0.1, -0.2, 0.05]), B0=np.array([0.3, 0.0, -0.1]))
    lp = lagrangian_terms(*args, provider=provider, kind="particle")
    lap = lagrangian_terms(*args, provider=provider, kind="antiparticle")
    np.testing.assert_allclose(lp.total + lap.total, -2.0 * ELECTRON.mass, atol=1e-12)
    np.testing.assert_array_equal(lp.mass, lap.mass)
    np.testing.assert_allclose(lp.coupling, -lap.coupling, atol=1e-15)
    np.testing.assert_allclose(lp.sigma12, -lap.sigma12, atol=1e-15)
    with pytest.raises(ContractError):
        lagrangian_terms(*args, kind="sideways")


def test_free_particle_lagrangian_is_minus_mass():
    """With no field, no rates and no vorticity only the mass term is left."""
    params, rng = _sample_states(72, 50)
    u = four_velocity(params)
    s = rest_spin(params)
    zeros = np.zeros(50)
    terms = lagrangian_terms(
        rng.normal(size=(50, 4)), u, s, zeros, zeros, np.zeros((50, 3))
    )
    np.testing.assert_allclose(terms.total, -ELECTRON.mass, atol=1e-15)


def test_breakdown_along_free_motion():
    """Along a free orbit, with the azimuth rate measured from the orbit itself."""
    state = DynState(
        x=np.zeros(4),
        u=np.array([np.cosh(0.3), 0.0, 0.0, np.sinh(0.3)]),
        s_rest=np.array([0.0, 1.0, 0.0]),
    )
    traj = integrate(state, ZERO_FIELD, ds=0.01, n_steps=100)
    phi_rate = spin_azimuth_rate(traj.s, traj.s_rest)
    terms = lagrangian_terms(
        traj.x, traj.u, traj.s_rest, phi_rate, np.zeros(len(traj)), np.zeros((len(traj), 3))
    )
    np.testing.assert_allclose(terms.total, -ELECTRON.mass, atol=1e-10)
    assert np.trapezoid(terms.total, traj.s) == pytest.approx(-1.0, abs=1e-9)


def test_spin_terms_linear_in_hbar():
    params, rng = _sample_states(73, 60)
    u = four_velocity(params)
    s = rest_spin(params)
    args = (np.zeros((60, 4)), u, s, rng.normal(size=60), rng.normal(size=60),
            rng.normal(size=(60, 3)))
    one = lagrangian_terms(*args)
    three = lagrangian_terms(*args, particle=Particle(mass=1.0, charge=-1.0, hbar=3.0))
    np.testing.assert_allclose(three.phase, 3.0 * one.phase, atol=1e-14)
    np.testing.assert_allclose(three.sigma12, 3.0 * one.sigma12, atol=1e-14)
    np.testing.assert_allclose(three.spin_vorticity, 3.0 * one.spin_vorticity, atol=1e-14)
    np.testing.assert_array_equal(three.mass, one.mass)


def test_sigma12_of_matches_component_table():
    params, _ = _sample_states(74, 500)
    u = four_velocity(params)
    s = rest_spin(params)
    np.testing.assert_allclose(
        sigma12_of(u, s), sigma_component_table(params)[:, 1, 2], atol=1e-12
    )


def test_spin_term_forms_agree_along_orbit():
    """The two printed spin-term forms coincide on an actual motion.

    The primary form weights the azimuth rate with Sigma12, the second with
    cos(theta) and moves the difference into an explicit Thomas term.
    """
    provider = UniformField(B0=np.array([0.0, 0.0, 1.0]))
    state = DynState(
        x=np.zeros(4),
        u=np.array([np.cosh(0.6), np.sinh(0.6), 0.0, 0.0]),
        s_rest=np.array([np.sqrt(0.5), 0.0, np.sqrt(0.5)]),
    )
    traj = integrate(state, provider, ds=5e-4, n_steps=800)
    F = tensor_from_EB(np.zeros(3), np.array([0.0, 0.0, 1.0]))
    omega_prime = precession_rate(traj.u, F)
    phi_rate = spin_azimuth_rate(traj.s, traj.s_rest)
    du = np.gradient(traj.u, traj.s, axis=0, edge_order=2)
    direct = (
        -0.5 * ELECTRON.hbar * sigma12_of(traj.u, traj.s_rest) * phi_rate
        - 0.5 * ELECTRON.hbar * np.einsum("ni,ni->n", omega_prime, traj.s_rest)
    )
    alt = alternative_spin_terms(
        traj.u, traj.s_rest, phi_rate, omega_prime, beta_hat_rate(traj.u, du)
    )
    np.testing.assert_allclose(direct[5:-5], alt[5:-5], atol=1e-8)


def test_spin_azimuth_rate_polar_fallback():
    # spin pinned to +z has no azimuth, so the rate is zero
    n = 64
    s = np.linspace(0.0, 2.0, n)
    s_rest = np.tile(np.array([0.0, 0.0, 1.0]), (n, 1))
    np.testing.assert_array_equal(spin_azimuth_rate(s, s_rest), np.zeros(n))
    # so is a spin that passes through the pole once
    angle = np.linspace(-1.0, 1.0, n + 1)
    through = np.stack([np.sin(angle), np.zeros(n + 1), np.cos(angle)], axis=1)
    assert np.min(np.hypot(through[:, 0], through[:, 1])) == 0.0
    np.testing.assert_array_equal(
        spin_azimuth_rate(np.linspace(0.0, 2.0, n + 1), through), np.zeros(n + 1)
    )


def test_identity_residuals_converge_at_second_order():
    """Both spin-transport identities close under h-halving at order 2."""
    params_of = smooth_angle_params(5)
    x = np.array([0.2, 0.1, -0.3, 0.4])
    res = {h: identity_residuals(params_of, x, h=h) for h in (0.02, 0.01)}
    for key in ("divergence_vs_contraction", "divergence_vs_vorticity"):
        ratio = res[0.02][key] / res[0.01][key]
        assert 2.0**1.8 <= ratio <= 2.0**2.2
    # the three quantities themselves agree at the h^2 level
    values = res[0.01]
    assert abs(values["divergence"] - values["contraction"]) < 1e-6
    assert abs(values["divergence"] - values["vorticity"]) < 1e-6
