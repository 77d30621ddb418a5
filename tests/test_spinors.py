"""Spinor factory: parametrization, guiding relation, component table."""

import warnings

import numpy as np
import pytest

from dirachydro.clifford import bilinears, spin_tensor
from dirachydro.errors import ContractError, DegenerateSpinorError
from dirachydro.spinors import (
    KinematicParams,
    four_velocity,
    make_antiparticle_spinor,
    make_particle_spinor,
    particle_spinor_u_form,
    recover_velocity,
    rest_spin,
    sigma_component_table,
    species_sign,
)


def _seeded_params(seed, n):
    rng = np.random.default_rng(seed)
    return KinematicParams(
        chi=rng.uniform(0.0, 3.0, n),
        theta_u=rng.uniform(0.0, np.pi, n),
        phi=rng.uniform(0.0, 2.0 * np.pi, n),
        theta=rng.uniform(0.0, np.pi, n),
        eta0=rng.uniform(0.0, 2.0 * np.pi, n),
    )


def test_params_validation():
    with pytest.raises(ContractError):
        KinematicParams(chi=-0.1)
    with pytest.raises(ContractError):
        KinematicParams(theta_u=3.5)
    with pytest.raises(ContractError):
        KinematicParams(theta=-0.2)
    # phi and eta0 are unrestricted so azimuths can unwind continuously
    KinematicParams(phi=17.0, eta0=-9.0)


def test_params_reject_rapidity_whose_cosh_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="chi"):
            KinematicParams(chi=800.0)
        with pytest.raises(ContractError, match="chi"):
            KinematicParams(chi=np.array([0.5, 711.0]))
        # just below the threshold cosh(chi) is still finite
        params = KinematicParams(chi=710.4)
        assert np.isfinite(params.gamma)


def test_derived_properties():
    params = KinematicParams(chi=0.8, theta_u=1.1, theta=0.5)
    assert params.kappa == pytest.approx(2.0 * 1.1 - 0.5)
    assert params.gamma == pytest.approx(np.cosh(0.8))
    assert params.u_perp == pytest.approx(np.sin(1.1) * np.sinh(0.8))


def test_four_velocity_components_and_normalization():
    params = _seeded_params(3, 500)
    u = four_velocity(params)
    sh = np.sinh(params.chi)
    np.testing.assert_allclose(u[:, 0], np.cosh(params.chi), rtol=1e-15)
    np.testing.assert_allclose(
        u[:, 1], np.cos(params.phi) * np.sin(params.theta_u) * sh, atol=1e-15
    )
    np.testing.assert_allclose(u[:, 3], np.cos(params.theta_u) * sh, atol=1e-15)
    uu = u[:, 0] ** 2 - np.sum(u[:, 1:] ** 2, axis=1)
    np.testing.assert_allclose(uu, 1.0, atol=1e-12)


def test_rest_spin_is_unit():
    params = _seeded_params(4, 500)
    s = rest_spin(params)
    np.testing.assert_allclose(np.linalg.norm(s, axis=1), 1.0, atol=1e-15)
    np.testing.assert_allclose(s[:, 2], np.cos(params.theta), atol=1e-15)


def test_spinors_are_unit_norm():
    params = _seeded_params(5, 500)
    for make in (make_particle_spinor, make_antiparticle_spinor):
        e = make(params)
        norm = np.einsum("na,na->n", np.conj(e), e).real
        np.testing.assert_allclose(norm, 1.0, atol=1e-12)


def test_scalar_density_is_inverse_gamma():
    """e-bar e = +1/gamma for particles and -1/gamma for antiparticles."""
    params = _seeded_params(6, 500)
    gamma = params.gamma
    np.testing.assert_allclose(
        bilinears(make_particle_spinor(params)).scalar, 1.0 / gamma, atol=1e-13
    )
    np.testing.assert_allclose(
        bilinears(make_antiparticle_spinor(params)).scalar, -1.0 / gamma, atol=1e-13
    )


def test_guiding_relation_both_kinds():
    """The current direction over e-bar e is +u (particle) or -u."""
    params = _seeded_params(7, 2000)
    u = four_velocity(params)
    bil_p = bilinears(make_particle_spinor(params))
    bil_ap = bilinears(make_antiparticle_spinor(params))
    np.testing.assert_allclose(bil_p.vector / bil_p.scalar[:, None], u, atol=1e-10)
    np.testing.assert_allclose(bil_ap.vector / bil_ap.scalar[:, None], -u, atol=1e-10)


def test_u_form_matches_half_angle_form():
    """The two printed constructions of the same spinor agree pointwise."""
    params = _seeded_params(8, 2000)
    np.testing.assert_allclose(
        particle_spinor_u_form(params), make_particle_spinor(params), atol=1e-12
    )


def test_antiparticle_swaps_two_spinor_blocks():
    params = _seeded_params(9, 50)
    e_p = make_particle_spinor(params)
    e_ap = make_antiparticle_spinor(params)
    np.testing.assert_array_equal(e_ap[:, 0:2], e_p[:, 2:4])
    np.testing.assert_array_equal(e_ap[:, 2:4], e_p[:, 0:2])


def test_recover_velocity_round_trip():
    params = _seeded_params(10, 300)
    u = four_velocity(params)
    np.testing.assert_allclose(
        recover_velocity(make_particle_spinor(params)), u, atol=1e-11
    )


def test_species_sign():
    assert species_sign("particle") == 1.0
    assert species_sign("antiparticle") == -1.0
    for kind in ("positron", "Particle", None, 1):
        with pytest.raises(ContractError):
            species_sign(kind)


def test_recover_velocity_degenerate_spinor():
    # equal-weight mix of the two blocks has e-bar e = 0 (lightlike direction)
    e = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
    with pytest.raises(DegenerateSpinorError):
        recover_velocity(e)


def test_sigma_table_antisymmetric_with_zero_03():
    params = _seeded_params(11, 1000)
    table = sigma_component_table(params)
    np.testing.assert_allclose(table + np.swapaxes(table, -1, -2), 0.0, atol=1e-15)
    np.testing.assert_array_equal(table[:, 0, 3], np.zeros(1000))


def test_sigma_table_matches_bilinear_tensor():
    """The closed-form table equals the gamma-normalized tensor bilinear."""
    params = _seeded_params(12, 1000)
    e = make_particle_spinor(params)
    from_bilinear = spin_tensor(e) / bilinears(e).scalar[:, None, None]
    np.testing.assert_allclose(sigma_component_table(params), from_bilinear, atol=1e-12)


def test_sigma_table_finite_on_velocity_axis():
    """u_perp -> 0 keeps the table finite; the azimuth comes from the spin."""
    params = KinematicParams(chi=1.5, theta_u=0.0, phi=0.7, theta=0.9)
    table = sigma_component_table(params)
    assert np.all(np.isfinite(table))
