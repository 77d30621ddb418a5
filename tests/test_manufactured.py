"""Reference configurations: plane waves, seeded non-solutions, perturbations."""

import numpy as np
import pytest

from dirachydro.errors import ContractError
from dirachydro.grids import GridSpec
from dirachydro.manufactured import (
    DEFAULT_BASE_PARAMS,
    perturbed_plane_wave_fields,
    plane_wave_fields,
    seeded_manufactured_fields,
    smooth_angle_params,
)


def _spec(n=17, h=0.02, axes=(0, 1)):
    return GridSpec(active_axes=axes, shape=(n,) * len(axes), spacing=(h,) * len(axes))


def test_plane_wave_phase_and_constants():
    """Particle phase is -m u.x, antiparticle +m u.x; everything else flat."""
    spec = _spec()
    points = spec.points()
    u0, u1 = np.cosh(0.8), np.sinh(0.8)
    expected = -(u0 * points[..., 0] - u1 * points[..., 1])
    fields = plane_wave_fields(spec)
    np.testing.assert_allclose(fields.S, expected, atol=1e-14)
    anti = plane_wave_fields(spec, kind="antiparticle")
    np.testing.assert_allclose(anti.S, -expected, atol=1e-14)
    np.testing.assert_array_equal(fields.rho, np.full(spec.shape, 1.3))
    for name in ("chi", "theta_u", "phi", "theta", "eta0"):
        values = getattr(fields.params, name)
        assert np.ptp(values) == 0.0


def test_plane_wave_rejects_out_of_plane_velocity():
    """A (t, x) grid cannot carry phase gradients along y or z."""
    spec = _spec()
    with pytest.raises(ContractError):
        plane_wave_fields(spec, phi=0.3)
    with pytest.raises(ContractError):
        plane_wave_fields(spec, theta_u=0.3)
    # the same azimuth is fine once y is an active axis
    plane_wave_fields(_spec(n=9, axes=(0, 1, 2)), phi=0.3)
    # a particle at rest has no spatial phase gradient to represent
    rest = plane_wave_fields(spec, chi=0.0, theta_u=0.2, phi=1.0)
    np.testing.assert_allclose(rest.gamma, np.ones(spec.shape))


def test_seeded_fields_are_deterministic():
    spec = _spec()
    a = seeded_manufactured_fields(spec, seed=12)
    b = seeded_manufactured_fields(spec, seed=12)
    np.testing.assert_array_equal(a.rho, b.rho)
    np.testing.assert_array_equal(a.S, b.S)
    np.testing.assert_array_equal(a.params.theta, b.params.theta)
    c = seeded_manufactured_fields(spec, seed=13)
    assert np.max(np.abs(a.rho - c.rho)) > 0.0


def test_seeded_fields_refine_to_the_same_continuum():
    """A seed fixes a continuum configuration, not a grid-sized draw.

    Halving h over the same physical extent must reproduce the coarse
    values at shared points, otherwise convergence studies against these
    fields would be meaningless.
    """
    coarse = seeded_manufactured_fields(_spec(n=17, h=0.02), seed=4)
    fine = seeded_manufactured_fields(_spec(n=33, h=0.01), seed=4)
    np.testing.assert_allclose(fine.rho[::2, ::2], coarse.rho, atol=1e-12)
    np.testing.assert_allclose(fine.S[::2, ::2], coarse.S, atol=1e-12)
    np.testing.assert_allclose(
        fine.params.chi[::2, ::2], coarse.params.chi, atol=1e-12
    )


def test_seeded_fields_guard_density_positivity():
    with pytest.raises(ContractError, match="rho crossed zero"):
        seeded_manufactured_fields(_spec(), seed=0, rho_value=1e-6)


def test_perturbed_plane_wave_keeps_spinor_shape():
    """Only rho and S move; the parameter fields stay those of the wave."""
    spec = _spec()
    wave = plane_wave_fields(spec, chi=0.5)
    bumped = perturbed_plane_wave_fields(spec, seed=9, chi=0.5)
    for name in ("chi", "theta_u", "phi", "theta", "eta0"):
        np.testing.assert_array_equal(
            getattr(bumped.params, name), getattr(wave.params, name)
        )
    assert np.max(np.abs(bumped.rho - wave.rho)) > 0.0
    assert np.max(np.abs(bumped.S - wave.S)) > 0.0
    # relative density bump is bounded by the amplitude times the draw size
    np.testing.assert_allclose(bumped.rho, wave.rho, rtol=0.05)
    again = perturbed_plane_wave_fields(spec, seed=9, chi=0.5)
    np.testing.assert_array_equal(again.rho, bumped.rho)


def test_a_partial_base_takes_the_other_defaults():
    """A base naming some parameters is the same as the defaults updated by it."""
    spec = _spec()
    partial = {"chi": 0.6, "theta": 0.9}
    full = dict(DEFAULT_BASE_PARAMS, **partial)
    a = seeded_manufactured_fields(spec, 4, base=partial)
    b = seeded_manufactured_fields(spec, 4, base=full)
    np.testing.assert_array_equal(a.S, b.S)
    x = spec.points()
    pairs = [(a.params, b.params),
             (smooth_angle_params(4, base=partial)(x), smooth_angle_params(4, base=full)(x))]
    for first, second in pairs:
        for name in DEFAULT_BASE_PARAMS:
            np.testing.assert_array_equal(getattr(first, name), getattr(second, name))


def test_smooth_angle_params_field():
    params_of = smooth_angle_params(3)
    x = np.array([0.1, -0.2, 0.3, 0.4])
    first = params_of(x)
    second = smooth_angle_params(3)(x)
    assert first.chi == second.chi and first.phi == second.phi
    # sinusoidal bumps stay within the amplitude around the base point
    for name, base in DEFAULT_BASE_PARAMS.items():
        assert abs(getattr(first, name) - base) <= 0.05 + 1e-15
    batch = params_of(np.zeros((7, 4)))
    assert np.shape(batch.theta_u) == (7,)
    flat = smooth_angle_params(3, amplitude=0.0)(x)
    assert flat.eta0 == DEFAULT_BASE_PARAMS["eta0"]
