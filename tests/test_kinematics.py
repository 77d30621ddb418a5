"""Boost kinematics: matrices, spin transport, acceleration tensor."""

import numpy as np
import pytest

from dirachydro.clifford import METRIC, minkowski_dot
from dirachydro.errors import ContractError
from dirachydro.fields import boost_field_tensor, electric_field, magnetic_field, tensor_from_EB
from dirachydro.kinematics import (
    acceleration_tensor,
    beta_from_u,
    beta_hat_rate,
    boost_matrix,
    gamma_of_beta,
    spin_to_lab,
    vorticity_to_rest,
)


def _seeded_betas(seed, n, cap=0.95):
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return direction * rng.uniform(0.0, cap, size=(n, 1))


def test_gamma_of_beta_values():
    assert gamma_of_beta(np.zeros(3)) == pytest.approx(1.0)
    assert gamma_of_beta(np.array([0.6, 0.0, 0.0])) == pytest.approx(1.25)
    with pytest.raises(ContractError):
        gamma_of_beta(np.array([1.0, 0.0, 0.0]))


def test_boost_is_passive():
    """boost_matrix(beta) sends the lab velocity of that frame to rest."""
    beta = np.array([0.3, -0.5, 0.2])
    gamma = gamma_of_beta(beta)
    u_lab = np.concatenate([[gamma], gamma * beta])
    u_frame = boost_matrix(beta) @ u_lab
    np.testing.assert_allclose(u_frame, [1.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_boost_preserves_metric():
    beta = _seeded_betas(31, 200)
    lam = boost_matrix(beta)
    residual = np.einsum("nab,bc,ndc->nad", lam, METRIC, lam) - METRIC
    np.testing.assert_allclose(residual, 0.0, atol=1e-12)


def test_boost_inverse_is_reversed_velocity():
    beta = _seeded_betas(32, 200)
    product = np.einsum("nab,nbc->nac", boost_matrix(beta), boost_matrix(-beta))
    np.testing.assert_allclose(product, np.broadcast_to(np.eye(4), product.shape), atol=1e-12)


def test_spin_to_lab_invariants():
    """s.s = -1 and u.s = 0 for the boosted spin."""
    beta = _seeded_betas(33, 300)
    gamma = gamma_of_beta(beta)
    rng = np.random.default_rng(34)
    s_rest = rng.normal(size=(300, 3))
    s_rest /= np.linalg.norm(s_rest, axis=1, keepdims=True)
    s_lab = spin_to_lab(s_rest, beta)
    u = np.concatenate([gamma[:, None], gamma[:, None] * beta], axis=1)
    np.testing.assert_allclose(minkowski_dot(s_lab, s_lab), -1.0, atol=1e-12)
    np.testing.assert_allclose(minkowski_dot(u, s_lab), 0.0, atol=1e-12)
    # at rest the four-spin is just (0, s')
    at_rest = spin_to_lab(s_rest, np.zeros((300, 3)))
    np.testing.assert_allclose(at_rest[:, 0], 0.0, atol=1e-15)
    np.testing.assert_allclose(at_rest[:, 1:], s_rest, atol=1e-15)


def test_spin_to_lab_requires_unit_spin():
    with pytest.raises(ContractError):
        spin_to_lab(np.array([0.0, 0.0, 2.0]), np.zeros(3))


def test_vorticity_to_rest_limits():
    omega = np.array([0.1, -0.2, 0.3])
    accel = np.array([0.5, 0.0, -0.1])
    np.testing.assert_allclose(
        vorticity_to_rest(omega, accel, np.zeros(3)), omega, atol=1e-15
    )
    # beta parallel to omega, no acceleration: omega' = omega exactly
    beta = np.array([0.0, 0.0, 0.6])
    parallel = np.array([0.0, 0.0, 0.4])
    gamma = gamma_of_beta(beta)
    out = vorticity_to_rest(parallel, np.zeros(3), beta)
    expected = gamma * parallel - (gamma - 1.0) * parallel
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_vorticity_to_rest_matches_tensor_boost():
    """Omega^{mu nu} transforms as F^{mu nu}, with a in place of E and omega of B."""
    beta = _seeded_betas(35, 200)
    rng = np.random.default_rng(36)
    omega = rng.normal(scale=0.3, size=(200, 3))
    accel = rng.normal(scale=0.3, size=(200, 3))
    boosted = boost_field_tensor(tensor_from_EB(accel, omega), beta)
    np.testing.assert_allclose(
        vorticity_to_rest(omega, accel, beta), magnetic_field(boosted), atol=1e-12
    )


def test_acceleration_tensor_exact_on_linear_field():
    """Central differences are exact on fields linear in the coordinates."""
    slope = np.array(
        [
            [0.00, 0.01, -0.02, 0.03],
            [0.02, 0.00, 0.01, -0.01],
            [-0.01, 0.03, 0.00, 0.02],
            [0.01, -0.02, 0.02, 0.00],
        ]
    )

    def u_field(x):
        return np.array([1.3, 0.1, -0.2, 0.05]) + slope @ x

    x0 = np.array([0.2, -0.1, 0.3, 0.4])
    omega = acceleration_tensor(u_field, x0, h=1e-3)
    d_upper = slope.T.copy()  # slope[nu, alpha] = d_alpha u^nu
    d_upper[1:4] *= -1.0
    np.testing.assert_allclose(omega, d_upper - d_upper.T, atol=1e-12)
    np.testing.assert_allclose(omega + omega.T, 0.0, atol=1e-15)


def test_acceleration_tensor_named_views():
    # Omega^{0i} = -a_i and Omega^{jk} = -eps_{jki} omega_i, the E/B split of F
    a = np.array([0.1, 0.2, 0.3])
    w = np.array([-0.4, 0.5, -0.6])
    omega = np.zeros((4, 4))
    omega[0, 1:4] = -a
    omega[1:4, 0] = a
    omega[2, 3], omega[3, 2] = -w[0], w[0]
    omega[3, 1], omega[1, 3] = -w[1], w[1]
    omega[1, 2], omega[2, 1] = -w[2], w[2]
    np.testing.assert_array_equal(omega, tensor_from_EB(a, w))
    np.testing.assert_array_equal(electric_field(omega), a)
    np.testing.assert_array_equal(magnetic_field(omega), w)


def test_acceleration_tensor_of_a_batch_is_its_per_point_tensors():
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=(4, 4, 4))

    def u_field(x):
        # quadratic in the coordinates, so the stencil is not exact
        return np.einsum("nab,...a,...b->...n", coeffs, x, x) + x

    points = rng.normal(size=(6, 4))
    batch = acceleration_tensor(u_field, points, h=1e-3)
    assert batch.shape == (6, 4, 4)
    for point, omega in zip(points, batch):
        np.testing.assert_array_equal(omega, acceleration_tensor(u_field, point, h=1e-3))


@pytest.mark.parametrize("x", [np.float64(0.5), np.zeros(3), np.zeros((2, 5))],
                         ids=["0-d", "three", "five-wide"])
def test_acceleration_tensor_refuses_points_without_four_components(x):
    with pytest.raises(ContractError, match="shape"):
        acceleration_tensor(lambda y: y, x)


def test_proper_acceleration_rigid_rotation():
    """u_mu Omega^{mu nu} reproduces du/ds for a rotating flow."""
    w = 0.3

    def u_field(x):
        vx = -w * x[2]
        vy = w * x[1]
        gamma = 1.0 / np.sqrt(1.0 - vx**2 - vy**2)
        return gamma * np.array([1.0, vx, vy, 0.0])

    x0 = np.array([0.0, 0.4, 0.2, 0.0])
    u0 = u_field(x0)
    omega = acceleration_tensor(u_field, x0, h=1e-4)
    u_lower = u0 * np.array([1.0, -1.0, -1.0, -1.0])
    rate = u_lower @ omega
    # the three-vector form -gamma (a + beta x omega) ties the tensor's
    # split into accel and vorticity to the boost conventions
    gamma = u0[0]
    cross_form = -gamma * (electric_field(omega)
                           + np.cross(u0[1:] / gamma, magnetic_field(omega)))
    np.testing.assert_allclose(rate[1:], cross_form, atol=1e-10)
    # steady flow: du/ds = gamma (v . grad) u, circular at angular speed w
    expected_space = gamma**2 * w * np.array([-u0[2] / u0[0], u0[1] / u0[0], 0.0])
    np.testing.assert_allclose(rate[1:3], expected_space[:2], rtol=1e-6)


def test_beta_from_u():
    u = np.array([2.0, 1.0, 0.5, -0.8])
    np.testing.assert_allclose(beta_from_u(u), [0.5, 0.25, -0.4], atol=1e-15)


def test_beta_hat_rate_circular_motion():
    """For u = gamma (1, b cos ws, b sin ws, 0) the unit rate is w (-sin, cos, 0)."""
    chi = 0.9
    w = 0.7
    s = np.linspace(0.0, 2.0, 41)
    gamma = np.cosh(chi)
    b = np.tanh(chi)
    u = np.stack(
        [
            np.full_like(s, gamma),
            gamma * b * np.cos(w * s),
            gamma * b * np.sin(w * s),
            np.zeros_like(s),
        ],
        axis=1,
    )
    du = np.stack(
        [
            np.zeros_like(s),
            -gamma * b * w * np.sin(w * s),
            gamma * b * w * np.cos(w * s),
            np.zeros_like(s),
        ],
        axis=1,
    )
    rate = beta_hat_rate(u, du)
    expected = np.stack([-w * np.sin(w * s), w * np.cos(w * s), np.zeros_like(s)], axis=1)
    np.testing.assert_allclose(rate, expected, atol=1e-12)


def test_beta_hat_rate_vanishes_at_rest():
    u = np.array([1.0, 0.0, 0.0, 0.0])
    du = np.array([0.0, 0.3, 0.0, 0.0])
    np.testing.assert_array_equal(beta_hat_rate(u, du), np.zeros(3))
