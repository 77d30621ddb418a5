"""Gamma-matrix algebra and bilinear densities.

The matrices are built from exact integer and unit-imaginary entries, so
the algebraic checks here use exact equality; only the spinor bilinears,
which involve transcendental parameter functions, get tolerances.
"""

import numpy as np
import pytest

from dirachydro.clifford import (
    GAMMA,
    GAMMA5,
    LEVI_CIVITA,
    METRIC,
    _GAMMA_COMMUTATOR,
    _GAMMA_LOWER_5,
    _GAMMA_PAIR,
    bilinears,
    lower_index,
    minkowski_dot,
    raise_index,
    sigma_from_u_s,
)
from dirachydro.errors import ContractError
from dirachydro.spinors import KinematicParams, make_particle_spinor


def test_anticommutator_is_twice_metric():
    """{gamma^mu, gamma^nu} = 2 g^{mu nu} I, exactly."""
    for mu in range(4):
        for nu in range(4):
            anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            expected = 2.0 * METRIC[mu, nu] * np.eye(4)
            assert np.array_equal(anti, expected)
    # the module's product tables equal their einsum definitions exactly
    pair = np.einsum("mab,nbc->mnac", GAMMA, GAMMA)
    assert np.array_equal(_GAMMA_PAIR, pair)
    assert np.array_equal(
        _GAMMA_COMMUTATOR, pair - np.einsum("nab,mbc->mnac", GAMMA, GAMMA)
    )
    assert np.array_equal(
        _GAMMA_LOWER_5, np.einsum("mn,nab,bc->mac", METRIC, GAMMA, GAMMA5)
    )


def test_gamma5_product_and_square():
    assert np.array_equal(1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3], GAMMA5)
    assert np.array_equal(GAMMA5 @ GAMMA5, np.eye(4))


def test_gamma5_anticommutes_with_every_gamma():
    for mu in range(4):
        assert np.array_equal(GAMMA5 @ GAMMA[mu], -GAMMA[mu] @ GAMMA5)


def test_gamma_hermiticity_pattern():
    """gamma^0 is hermitian, the spatial matrices are anti-hermitian."""
    assert np.array_equal(GAMMA[0].conj().T, GAMMA[0])
    for i in (1, 2, 3):
        assert np.array_equal(GAMMA[i].conj().T, -GAMMA[i])


def test_levi_civita_orientation():
    assert LEVI_CIVITA[0, 1, 2, 3] == 1
    assert LEVI_CIVITA[1, 0, 2, 3] == -1
    assert LEVI_CIVITA[0, 0, 2, 3] == 0
    # 4! nonzero entries, half of each sign
    assert int(np.sum(LEVI_CIVITA != 0)) == 24
    assert int(np.sum(LEVI_CIVITA)) == 0


def test_minkowski_dot_signature():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([5.0, 6.0, 7.0, 8.0])
    assert minkowski_dot(a, b) == 5.0 - 12.0 - 21.0 - 32.0


def test_index_raising_and_lowering_round_trip():
    rng = np.random.default_rng(11)
    v = rng.normal(size=(50, 4))
    np.testing.assert_array_equal(raise_index(lower_index(v)), v)
    low = lower_index(v)
    assert np.array_equal(low[:, 0], v[:, 0])
    assert np.array_equal(low[:, 1:], -v[:, 1:])


def test_bilinears_are_real_and_tensor_antisymmetric():
    rng = np.random.default_rng(21)
    params = KinematicParams(
        chi=rng.uniform(0.0, 2.5, 200),
        theta_u=rng.uniform(0.0, np.pi, 200),
        phi=rng.uniform(0.0, 2.0 * np.pi, 200),
        theta=rng.uniform(0.0, np.pi, 200),
        eta0=rng.uniform(0.0, 2.0 * np.pi, 200),
    )
    e = make_particle_spinor(params)
    bil = bilinears(e)
    for arr in (bil.scalar, bil.vector, bil.axial, bil.tensor):
        assert arr.dtype == np.float64
    np.testing.assert_allclose(
        bil.tensor + np.swapaxes(bil.tensor, -1, -2), 0.0, atol=1e-14
    )


def test_bilinears_rejects_bad_input():
    with pytest.raises(ContractError):
        bilinears(np.ones(3))
    with pytest.raises(ContractError):
        bilinears(np.array([1.0, np.nan, 0.0, 0.0]))


def test_sigma_from_u_s_rest_state():
    """At rest with spin along +z only the 12-block survives, value -1."""
    u = np.array([1.0, 0.0, 0.0, 0.0])
    s = np.array([0.0, 0.0, 0.0, 1.0])
    sigma = sigma_from_u_s(u, s)
    expected = np.zeros((4, 4))
    expected[1, 2] = -1.0
    expected[2, 1] = 1.0
    np.testing.assert_allclose(sigma, expected, atol=1e-15)


def test_sigma_from_u_s_validates_inputs():
    u = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ContractError):
        sigma_from_u_s(2.0 * u, np.array([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ContractError):
        # s with a time component is not orthogonal to a rest u
        sigma_from_u_s(u, np.array([0.5, 0.0, 0.0, 1.0]))
