"""Grid container and finite-difference operators.

The stencils are second order everywhere (central inside, one-sided on the
boundary layer), so they are exact on polynomials up to degree two; those
cases are tested with tight tolerances, smooth-function cases through the
measured convergence order.
"""

import numpy as np
import pytest
from conftest import measured_order

from dirachydro.errors import ContractError, InsufficientInteriorError
from dirachydro.grids import GridSpec


def make_spec(n=33, h=0.05):
    return GridSpec(active_axes=(0, 1), shape=(n, n), spacing=(h, h))


def test_spec_validation():
    with pytest.raises(ContractError):
        GridSpec(active_axes=(), shape=(), spacing=())
    with pytest.raises(ContractError):
        GridSpec(active_axes=(1, 0), shape=(9, 9), spacing=(0.1, 0.1))
    with pytest.raises(ContractError):
        GridSpec(active_axes=(0, 1), shape=(9,), spacing=(0.1, 0.1))
    with pytest.raises(ContractError):
        GridSpec(active_axes=(0,), shape=(4,), spacing=(0.1,))
    with pytest.raises(ContractError):
        GridSpec(active_axes=(0,), shape=(9,), spacing=(-0.1,))
    with pytest.raises(ContractError):
        GridSpec(active_axes=(0,), shape=(9,), spacing=(0.1,), origin=(0.0, 0.0))


def test_points_and_axis_names():
    spec = GridSpec(
        active_axes=(0, 2), shape=(5, 7), spacing=(0.5, 0.25), origin=(1.0, 2.0, 3.0, 4.0)
    )
    assert spec.axis_names == ("t", "y")
    points = spec.points()
    assert points.shape == (5, 7, 4)
    assert points[0, 0, 0] == 1.0
    assert points[4, 0, 0] == pytest.approx(1.0 + 4 * 0.5)
    assert points[0, 6, 2] == pytest.approx(3.0 + 6 * 0.25)
    # inactive axes stay pinned at the origin value
    np.testing.assert_array_equal(points[..., 1], np.full((5, 7), 2.0))
    np.testing.assert_array_equal(points[..., 3], np.full((5, 7), 4.0))


def test_partial_exact_on_quadratics():
    spec = make_spec()
    t = spec.points()[..., 0]
    x = spec.points()[..., 1]
    f = 1.0 + 2.0 * t - 3.0 * x + 0.5 * t**2 + t * x - 0.25 * x**2
    np.testing.assert_allclose(spec.partial(f, 0), 2.0 + t + x, atol=1e-11)
    np.testing.assert_allclose(spec.partial(f, 1), -3.0 + t - 0.5 * x, atol=1e-11)
    # inactive axis: derivative vanishes identically
    np.testing.assert_array_equal(spec.partial(f, 2), np.zeros_like(f))


def test_second_partial_exact_on_quadratics():
    spec = make_spec()
    t = spec.points()[..., 0]
    x = spec.points()[..., 1]
    f = 0.5 * t**2 - 0.25 * x**2 + t * x
    np.testing.assert_allclose(spec.second_partial(f, 0), 1.0, atol=1e-10)
    np.testing.assert_allclose(spec.second_partial(f, 1), -0.5, atol=1e-10)
    np.testing.assert_array_equal(spec.second_partial(f, 3), np.zeros_like(f))


def test_gradient_index_placement():
    spec = make_spec()
    t = spec.points()[..., 0]
    x = spec.points()[..., 1]
    f = 2.0 * t + 5.0 * x
    lower = spec.gradient_lower(f)
    np.testing.assert_allclose(lower[..., 0], 2.0, atol=1e-11)
    np.testing.assert_allclose(lower[..., 1], 5.0, atol=1e-11)


def test_divergence_of_linear_vector_field():
    spec = make_spec()
    points = spec.points()
    vec = np.zeros(spec.shape + (4,))
    vec[..., 0] = 3.0 * points[..., 0]
    vec[..., 1] = -2.0 * points[..., 1]
    vec[..., 2] = 9.0  # constant along an inactive axis contributes nothing
    np.testing.assert_allclose(spec.divergence(vec), 1.0, atol=1e-11)


def test_dalembertian_sign_convention():
    """box f = d_t^2 f - laplacian f on the active axes."""
    spec = make_spec()
    t = spec.points()[..., 0]
    x = spec.points()[..., 1]
    np.testing.assert_allclose(spec.dalembertian(t**2), 2.0, atol=1e-10)
    np.testing.assert_allclose(spec.dalembertian(x**2), -2.0, atol=1e-10)
    np.testing.assert_allclose(spec.dalembertian(t**2 + x**2), 0.0, atol=1e-10)


def test_operator_convergence_on_smooth_field():
    """Second-order convergence of the dalembertian on aligned refinements."""
    samples = []
    for n in (17, 33, 65):
        spec = GridSpec(active_axes=(1,), shape=(n,), spacing=(1.6 / (n - 1),))
        x = spec.points()[..., 1]
        box = spec.dalembertian(np.sin(3.0 * x))
        samples.append(box[:: (n - 1) // 16])
    order = measured_order(*samples)
    assert 1.8 <= order <= 2.2


def test_measured_order_on_synthetic_sequence():
    base = np.array([1.0, -2.0, 0.5])
    limit = np.array([0.1, 0.2, 0.3])
    seq = [limit + base * h**2 for h in (0.4, 0.2, 0.1)]
    assert measured_order(*seq) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ContractError):
        measured_order(limit, limit, limit)


def test_trusted_mask_and_sup_norm():
    spec = GridSpec(active_axes=(0, 1), shape=(9, 7), spacing=(0.1, 0.1))
    mask = spec.trusted_mask(2)
    assert mask.sum() == (9 - 4) * (7 - 4)
    assert not mask[0, 0] and not mask[1, 3] and mask[4, 3]
    values = np.zeros((9, 7))
    values[0, 0] = 100.0  # boundary spike must not leak into the interior norm
    values[4, 3] = 2.0
    assert spec.sup_norm(values, depth=2) == 2.0
    with pytest.raises(InsufficientInteriorError):
        spec.trusted_mask(4)


def test_interior_slices_build_the_trusted_mask():
    spec = GridSpec(active_axes=(0, 1, 3), shape=(9, 7, 6), spacing=(0.1, 0.1, 0.1))
    assert spec.interior(0) == (slice(0, 9), slice(0, 7), slice(0, 6))
    assert spec.interior(2) == (slice(2, 7), slice(2, 5), slice(2, 4))
    for depth in (0, 1, 2):
        mask = np.zeros(spec.shape, dtype=bool)
        mask[spec.interior(depth)] = True
        np.testing.assert_array_equal(spec.trusted_mask(depth), mask)
    # the shortest axis decides: 6 samples leave none at depth 3
    with pytest.raises(InsufficientInteriorError):
        spec.interior(3)
    with pytest.raises(ContractError):
        spec.interior(-1)


def test_integrate_matches_analytic_value():
    spec = GridSpec(active_axes=(0, 1), shape=(101, 101), spacing=(0.01, 0.01))
    t = spec.points()[..., 0]
    x = spec.points()[..., 1]
    # integral of t x over the unit square is 1/4; trapezoid is exact on
    # products of piecewise-linear factors sampled on the tensor grid
    assert spec.integrate(t * x) == pytest.approx(0.25, abs=1e-12)
    shrunk = spec.integrate(np.ones(spec.shape), depth=10)
    assert shrunk == pytest.approx(0.8 * 0.8, abs=1e-12)


def test_trapezoid_weights_sum_to_volume():
    spec = GridSpec(active_axes=(0, 1), shape=(21, 11), spacing=(0.05, 0.1))
    w = spec.trapezoid_weights()
    assert w.sum() == pytest.approx(1.0 * 1.0, abs=1e-12)
    assert w[0, 0] == pytest.approx(0.25 * 0.05 * 0.1)
    assert w[5, 5] == pytest.approx(0.05 * 0.1)
    # weights reproduce the trapezoid reduction exactly
    rng = np.random.default_rng(51)
    f = rng.normal(size=spec.shape)
    assert float(np.sum(w * f)) == pytest.approx(spec.integrate(f), abs=1e-12)


_WEIGHT_GRIDS = [
    ((1,), (9,)),
    ((0, 2), (7, 11)),
    ((0, 1, 3), (5, 8, 6)),
    ((0, 1, 2, 3), (5, 6, 7, 5)),
]


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("axes,shape", _WEIGHT_GRIDS)
def test_trapezoid_weights_reproduce_interior_integral(axes, shape, depth):
    spec = GridSpec(active_axes=axes, shape=shape,
                    spacing=tuple(0.05 + 0.01 * k for k in range(len(axes))))
    f = np.random.default_rng(52).normal(size=shape) + 3.0
    w = spec.trapezoid_weights(depth)
    assert np.all(w[~spec.trusted_mask(depth)] == 0.0)
    expected = spec.integrate(f, depth)
    assert float(np.sum(w * f)) == pytest.approx(expected, rel=1e-13, abs=1e-300)


def test_trapezoid_weights_refuse_what_integrate_refuses():
    spec = GridSpec(active_axes=(0, 1), shape=(5, 9), spacing=(0.1, 0.1))
    for depth in (3, 4):
        with pytest.raises(InsufficientInteriorError):
            spec.integrate(np.ones(spec.shape), depth)
        with pytest.raises(InsufficientInteriorError):
            spec.trapezoid_weights(depth)
    with pytest.raises(ContractError):
        spec.trapezoid_weights(-1)


def test_field_shape_mismatch_raises():
    spec = make_spec(n=9)
    with pytest.raises(ContractError):
        spec.partial(np.zeros((9, 8)), 0)
    with pytest.raises(ContractError):
        spec.divergence(np.zeros((9, 9, 3)))
