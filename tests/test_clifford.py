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
    _GAMMA_COEFF,
    _GAMMA_COMMUTATOR,
    _GAMMA_PAIR,
    _GAMMA_PERM,
    _PAIR_COEFF,
    _PAIR_LOWER,
    _PAIR_PERM,
    _PAIRS,
    _adjoint,
    bilinears,
    lower_both,
    lower_index,
    minkowski_dot,
    raise_index,
    sigma_from_u_s,
    spin_tensor,
)
from dirachydro.errors import ContractError
from dirachydro.grids import GridSpec
from dirachydro.manufactured import plane_wave_fields
from dirachydro.spinors import KinematicParams, make_particle_spinor


def _monomial(perm, coeff):
    """The dense matrix M with (M e)_a = coeff[a] e[perm[a]]."""
    matrix = np.zeros((4, 4), dtype=np.complex128)
    matrix[np.arange(4), perm] = coeff
    return matrix


def _random_spinors(rng, shape):
    return rng.normal(size=shape + (4,)) + 1j * rng.normal(size=shape + (4,))


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
    # the literal index tables are the same matrices, entry for entry
    for mu in range(4):
        assert np.array_equal(_monomial(_GAMMA_PERM[mu], _GAMMA_COEFF[mu]), GAMMA[mu])
    assert _PAIRS == tuple((m, n) for m in range(4) for n in range(m + 1, 4))
    for (m, n), perm, coeff in zip(_PAIRS, _PAIR_PERM, _PAIR_COEFF):
        assert np.array_equal(_monomial(perm, coeff), _GAMMA_PAIR[m, n])
    # the pair signs are those lower_both gives
    table = np.arange(1.0, 17.0).reshape(4, 4)
    lowered = lower_both(table)
    for (m, n), lower in zip(_PAIRS, _PAIR_LOWER):
        assert lowered[m, n] == lower * table[m, n]


def test_adjoint_is_the_matrix_product_bitwise():
    """Signed zeros included: d_mu e of a plane wave is full of zeros."""
    spec = GridSpec(active_axes=(0, 1), shape=(9, 9), spacing=(0.1, 0.1))
    de = plane_wave_fields(spec)._spinor_data[2]
    expected = np.conj(de) @ GAMMA[0]
    assert np.array_equal(_adjoint(de).view(np.uint64), expected.view(np.uint64))
    # flipping the signs of the real and imaginary parts leaves -0.0 where
    # the product has +0.0
    flipped = de.view(np.float64) * np.repeat([1.0, 1.0, -1.0, -1.0], 2) * np.tile([1.0, -1.0], 4)
    assert not np.array_equal(flipped.view(np.uint64), expected.view(np.uint64))
    # every pairing of signed zeros and nonzero parts, in every component
    parts = np.array([0.0, -0.0, 1.5, -2.0])
    values = np.empty(16, dtype=np.complex128)
    values.real, values.imag = np.repeat(parts, 4), np.tile(parts, 4)
    e = np.stack([values, values[::-1], values, values[::-1]], axis=-1)
    expected = np.conj(e) @ GAMMA[0]
    assert np.array_equal(_adjoint(e).view(np.uint64), expected.view(np.uint64))
    assert not np.array_equal((np.conj(e) * (1, 1, -1, -1)).view(np.uint64),
                              expected.view(np.uint64))


def test_vector_density_matches_the_dense_contraction():
    """bilinears(e).vector against the dense gamma table it no longer reads."""
    rng = np.random.default_rng(17)
    for shape in [(), (33,), (6, 7)]:
        e = _random_spinors(rng, shape)
        ebar = np.conj(e) @ GAMMA[0]
        dense = np.einsum("...a,mab,...b->...m", ebar, GAMMA, e).real
        # four products of two operands are summed: allow a few ulps of that scale
        scale = np.max(np.abs(ebar)) * np.max(np.abs(e))
        np.testing.assert_allclose(bilinears(e).vector, dense, rtol=0,
                                   atol=16 * np.finfo(float).eps * scale)


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
    # both indices of a tensor field: g T g, exactly
    T = rng.normal(size=(50, 4, 4))
    np.testing.assert_array_equal(lower_both(T), METRIC @ T @ METRIC)


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
    tensor = spin_tensor(e)
    for arr in (bil.scalar, bil.vector, tensor):
        assert arr.dtype == np.float64
    np.testing.assert_allclose(tensor + np.swapaxes(tensor, -1, -2), 0.0, atol=1e-14)


def test_bilinears_rejects_bad_input():
    for density in (bilinears, spin_tensor):
        with pytest.raises(ContractError):
            density(np.ones(3))
        with pytest.raises(ContractError):
            density(np.array([1.0, np.nan, 0.0, 0.0]))


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
