"""Field providers: tensors, gauges, frame transforms, config factory."""

import numpy as np
import pytest

from dirachydro.errors import ContractError
from dirachydro.fields import (
    ELECTRON,
    CrossedField,
    GaugeShiftedProvider,
    Particle,
    PlaneWaveField,
    PolynomialField,
    ScalarPolynomial,
    UniformField,
    ZERO_FIELD,
    boost_field_tensor,
    electric_field,
    field_consistency_residual,
    magnetic_field,
    provider_from_config,
    rest_frame_B,
    tensor_from_EB,
)
from dirachydro.kinematics import gamma_of_beta


def test_electron_defaults():
    assert ELECTRON.mass == 1.0
    assert ELECTRON.charge == -1.0
    assert ELECTRON.hbar == 1.0


def test_particle_validation():
    with pytest.raises(ContractError):
        Particle(mass=0.0)
    with pytest.raises(ContractError):
        Particle(mass=-1.0)
    with pytest.raises(ContractError):
        Particle(charge=np.nan)


def test_tensor_from_EB_round_trip():
    rng = np.random.default_rng(41)
    E = rng.normal(size=(20, 3))
    B = rng.normal(size=(20, 3))
    F = tensor_from_EB(E, B)
    np.testing.assert_array_equal(electric_field(F), E)
    np.testing.assert_array_equal(magnetic_field(F), B)
    np.testing.assert_array_equal(F + np.swapaxes(F, -1, -2), np.zeros_like(F))


def test_uniform_field_gauge_and_tensor():
    """A^0 = -E.r and A = B x r / 2 reproduce the constant tensor."""
    provider = UniformField(E0=np.array([0.1, 0.0, -0.2]), B0=np.array([0.0, 0.3, 0.0]))
    x = np.array([1.0, 2.0, -1.0, 0.5])
    A, F = provider.sample(x)
    r = x[1:]
    assert A[0] == pytest.approx(-np.dot(r, provider.E0))
    np.testing.assert_allclose(A[1:], 0.5 * np.cross(provider.B0, r), atol=1e-15)
    np.testing.assert_array_equal(F, tensor_from_EB(provider.E0, provider.B0))
    # A is linear in position, so the consistency residual is pure roundoff
    points = np.array([[0.0, 0.1, 0.2, 0.3], [1.0, -0.4, 0.0, 0.6]])
    assert field_consistency_residual(provider, points) < 1e-11


def test_crossed_field_requires_orthogonality():
    CrossedField(E0=np.array([0.1, 0.0, 0.0]), B0=np.array([0.0, 0.0, 0.5]))
    with pytest.raises(ContractError):
        CrossedField(E0=np.array([0.1, 0.0, 0.1]), B0=np.array([0.0, 0.0, 0.5]))


def test_plane_wave_validation():
    with pytest.raises(ContractError):
        PlaneWaveField(wave_vector=(1.0, 0.0, 0.0, 0.5))
    with pytest.raises(ContractError):
        PlaneWaveField(
            wave_vector=(1.0, 0.0, 0.0, 1.0), polarization=(0.0, 0.0, 1.0)
        )
    with pytest.raises(ContractError):
        PlaneWaveField(polarization=(0.0, 0.0, 0.0))


def test_plane_wave_tensor_consistency():
    provider = PlaneWaveField(
        wave_vector=(1.0, 0.0, 0.0, 1.0), polarization=(0.0, 1.0, 0.0), amplitude=0.2
    )
    rng = np.random.default_rng(42)
    points = rng.normal(size=(30, 4))
    h = 1e-5
    assert field_consistency_residual(provider, points, h=h) < 1e-9
    # E and B of a vacuum wave are orthogonal with equal magnitude
    _, F = provider.sample(points)
    E = electric_field(F)
    B = magnetic_field(F)
    np.testing.assert_allclose(np.einsum("ni,ni->n", E, B), 0.0, atol=1e-14)
    np.testing.assert_allclose(
        np.linalg.norm(E, axis=1), np.linalg.norm(B, axis=1), atol=1e-14
    )


def test_polynomial_field_exact_derivatives():
    # A^1 = 0.3 t^2 x gives F^{01} = d^0 A^1 - d^1 A^0 = 0.6 t x
    # A^2 = 0.5 x y z and A^3 = -0.4 x y z give F^{23} = -d_y A^3 + d_z A^2 = 0.4 x z + 0.5 x y,
    # F^{12} = -d_x A^2 = -0.5 y z and F^{13} = -d_x A^3 = 0.4 y z
    provider = PolynomialField(terms={1: [(0.3, (2, 1, 0, 0))], 2: [(0.5, (0, 1, 1, 1))],
                                      3: [(-0.4, (0, 1, 1, 1))]})
    t, x, y, z = 1.5, 2.0, -0.7, 1.3
    A, F = provider.sample(np.array([t, x, y, z]))
    assert A[1] == pytest.approx(0.3 * t**2 * x)
    assert A[2] == pytest.approx(0.5 * x * y * z) and A[3] == pytest.approx(-0.4 * x * y * z)
    assert F[0, 1] == pytest.approx(0.6 * t * x)
    assert F[1, 0] == pytest.approx(-0.6 * t * x)
    assert F[2, 3] == pytest.approx(0.4 * x * z + 0.5 * x * y)
    assert F[1, 2] == pytest.approx(-0.5 * y * z) and F[1, 3] == pytest.approx(0.4 * y * z)
    assert F[0, 2] == F[0, 3] == 0.0
    rng = np.random.default_rng(43)
    assert field_consistency_residual(provider, rng.normal(size=(10, 4)), h=1e-4) < 1e-7


def test_polynomial_field_degree_cap():
    with pytest.raises(ContractError):
        PolynomialField(terms={0: [(1.0, (2, 2, 0, 0))]})
    with pytest.raises(ContractError):
        PolynomialField(terms={7: [(1.0, (1, 0, 0, 0))]})


def test_gauge_shift_changes_A_not_F():
    base = UniformField(E0=np.array([0.1, 0.0, 0.0]), B0=np.array([0.0, 0.0, 0.4]))
    gauge = ScalarPolynomial(terms=((0.7, (1, 1, 0, 0)), (-0.2, (0, 0, 2, 0))))
    shifted = GaugeShiftedProvider(base=base, gauge_function=gauge)
    rng = np.random.default_rng(44)
    x = rng.normal(size=(25, 4))
    A0, F0 = base.sample(x)
    A1, F1 = shifted.sample(x)
    np.testing.assert_array_equal(F0, F1)
    # the shift is d^mu Lambda: time component plain, spatial negated
    grad = gauge.gradient_lower(x)
    expected = grad.copy()
    expected[:, 1:] *= -1.0
    np.testing.assert_allclose(A1 - A0, expected, atol=1e-14)
    assert field_consistency_residual(shifted, x) < 1e-10


def test_rest_frame_B_known_cases():
    B = np.array([0.0, 0.0, 0.8])
    # boost along B: longitudinal field unchanged
    np.testing.assert_allclose(
        rest_frame_B(np.zeros(3), B, np.array([0.0, 0.0, 0.6])), B, atol=1e-14
    )
    # boost perpendicular to B with no E: field grows by gamma
    beta = np.array([0.6, 0.0, 0.0])
    np.testing.assert_allclose(
        rest_frame_B(np.zeros(3), B, beta), gamma_of_beta(beta) * B, atol=1e-14
    )


def test_rest_frame_B_matches_tensor_boost():
    """The three-vector formula agrees with boosting the full tensor."""
    rng = np.random.default_rng(45)
    for _ in range(20):
        E = rng.normal(scale=0.3, size=3)
        B = rng.normal(scale=0.3, size=3)
        beta = rng.normal(size=3)
        beta *= rng.uniform(0.0, 0.9) / np.linalg.norm(beta)
        F_prime = boost_field_tensor(tensor_from_EB(E, B), beta)
        np.testing.assert_allclose(
            rest_frame_B(E, B, beta), magnetic_field(F_prime), atol=1e-12
        )


def test_zero_field_provider():
    A, F = ZERO_FIELD.sample(np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_array_equal(A, np.zeros(4))
    np.testing.assert_array_equal(F, np.zeros((4, 4)))
    assert getattr(ZERO_FIELD, "constant_field", False)


def test_provider_from_config_kinds():
    uniform = provider_from_config({"kind": "uniform", "E0": [0.1, 0.0, 0.0], "B0": [0.0, 0.0, 1.0]})
    assert isinstance(uniform, UniformField)
    crossed = provider_from_config({"kind": "crossed", "E0": [0.1, 0.0, 0.0], "B0": [0.0, 0.0, 1.0]})
    assert isinstance(crossed, CrossedField)
    wave = provider_from_config(
        {
            "kind": "plane-wave",
            "wave_vector": [1.0, 0.0, 0.0, 1.0],
            "polarization": [0.0, 1.0, 0.0],
            "amplitude": 0.05,
        }
    )
    assert isinstance(wave, PlaneWaveField)
    poly = provider_from_config(
        {"kind": "custom-polynomial", "coefficients": {"1": [{"c": 0.2, "powers": [1, 0, 0, 0]}]}}
    )
    assert isinstance(poly, PolynomialField)
    with pytest.raises(ContractError):
        provider_from_config({"kind": "swirl"})
