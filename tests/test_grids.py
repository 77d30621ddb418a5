"""Grid container and finite-difference operators.

The stencils are second order everywhere (central inside, one-sided on the
boundary layer), so they are exact on polynomials up to degree two; those
cases are tested with tight tolerances, smooth-function cases through the
measured convergence order.
"""

from itertools import combinations

import numpy as np
import pytest
from conftest import measured_order
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@st.composite
def _rows_and_cuts(draw):
    """A row count, a slab's rows ``[lo, hi)`` of at least 5, and the first of 5 rows
    inside the slab."""
    rows = draw(st.integers(5, 40))
    lo = draw(st.integers(0, rows - 5))
    hi = draw(st.integers(lo + 5, rows))
    return rows, lo, hi, draw(st.integers(0, hi - lo - 5))


@settings(max_examples=60)
@given(axes=st.sampled_from([(0,), (2,), (0, 1), (1, 3), (0, 1, 3), (0, 1, 2, 3)]),
       cut=_rows_and_cuts(), origin=st.tuples(*[st.floats(-50.0, 50.0)] * 4),
       step=st.floats(1e-3, 10.0))
# a slab away from row 0 fails at once where its origin or start is wrong, unshrunk
@example(axes=(0, 1), cut=(17, 3, 15, 2), origin=(0.5, -1.25, 0.0, 3.0), step=0.1)
def test_a_slab_has_the_bitwise_points_of_its_rows(axes, cut, origin, step):
    """A slab's coordinates are origin + h * k for the parent's row index k, so its
    points are the parent's rows to the last bit, and a slab of a slab too."""
    rows, lo, hi, inner = cut
    spec = GridSpec(active_axes=axes, shape=(rows,) + (5,) * (len(axes) - 1),
                    spacing=tuple(step * (1.0 + 0.1 * k) for k in range(len(axes))),
                    origin=origin)
    slab = spec.slab(lo, hi)
    assert slab.shape == (hi - lo,) + spec.shape[1:] and slab.start == lo
    assert slab.origin == spec.origin and slab.spacing == spec.spacing
    np.testing.assert_array_equal(slab.points().view(np.int64),
                                  spec.points()[lo:hi].view(np.int64))
    np.testing.assert_array_equal(slab.slab(inner, inner + 5).points().view(np.int64),
                                  spec.points()[lo + inner:lo + inner + 5].view(np.int64))


def test_slab_refusals():
    spec = GridSpec(active_axes=(0, 1), shape=(9, 7), spacing=(0.1, 0.1))
    for lo, hi in ((-1, 6), (0, 10), (4, 4)):
        with pytest.raises(ContractError, match="rows"):
            spec.slab(lo, hi)
    with pytest.raises(ContractError, match="at least 5"):
        spec.slab(0, 4)
    with pytest.raises(ContractError, match="start"):
        GridSpec(active_axes=(0,), shape=(9,), spacing=(0.1,), start=-1)


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
    # an inactive axis has no derivative
    with pytest.raises(ContractError):
        spec.partial(f, 2)


def test_second_partial_exact_on_quadratics():
    spec = make_spec()
    t = spec.points()[..., 0]
    x = spec.points()[..., 1]
    f = 0.5 * t**2 - 0.25 * x**2 + t * x
    np.testing.assert_allclose(spec.second_partial(f, 0), 1.0, atol=1e-10)
    np.testing.assert_allclose(spec.second_partial(f, 1), -0.5, atol=1e-10)
    with pytest.raises(ContractError):
        spec.second_partial(f, 3)


def test_gradient_index_placement():
    spec = make_spec()
    t = spec.points()[..., 0]
    x = spec.points()[..., 1]
    f = 2.0 * t + 5.0 * x
    lower = spec.gradient_lower(f)
    np.testing.assert_allclose(lower[..., 0], 2.0, atol=1e-11)
    np.testing.assert_allclose(lower[..., 1], 5.0, atol=1e-11)


def test_gradient_of_a_spinor_field_puts_mu_before_the_components():
    spec = GridSpec(active_axes=(0, 2), shape=(7, 9), spacing=(0.1, 0.2))
    rng = np.random.default_rng(4)
    values = rng.normal(size=spec.shape + (4,)) + 1j * rng.normal(size=spec.shape + (4,))
    lower = spec.gradient_lower(values)
    # one slot per active axis, none for the inactive x and z
    assert lower.shape == spec.shape + (2, 4)
    assert lower.dtype == np.complex128
    for k, h in enumerate(spec.spacing):
        expected = np.gradient(values, h, axis=k, edge_order=2)
        assert lower[..., k, :].tobytes() == expected.tobytes()


_AXIS_SUBSETS = [axes for n in range(1, 5) for axes in combinations(range(4), n)]


@settings(max_examples=60)
@given(axes=st.sampled_from(_AXIS_SUBSETS), data=st.data())
def test_gradient_has_one_bitwise_slot_per_active_axis(axes, data):
    """Every increasing subset of 1-4 axes, (0, 2) and (1, 3) among them.

    Slot k is np.gradient along grid axis k, bit for bit, and lies at
    four-vector component axes[k] of the active slots.
    """
    shape = tuple(data.draw(st.integers(5, 8)) for _ in axes)
    spacing = tuple(data.draw(st.floats(0.01, 2.0)) for _ in axes)
    spinor = data.draw(st.booleans())
    spec = GridSpec(active_axes=axes, shape=shape, spacing=spacing)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=shape + ((4,) if spinor else ()))
    if spinor:
        values = values + 1j * rng.normal(size=values.shape)
    lower = spec.gradient_lower(values)
    assert lower.shape == shape + (len(axes),) + values.shape[len(axes):]
    assert lower.dtype == values.dtype
    for k, (axis, h) in enumerate(zip(axes, spacing)):
        expected = np.gradient(values, h, axis=k, edge_order=2)
        assert np.take(lower, k, axis=len(axes)).tobytes() == expected.tobytes()
        assert spec.partial(values, axis).tobytes() == expected.tobytes()
    assert np.arange(4)[spec.active_slots].tolist() == list(axes)
    signs = spec.raise_gradient(np.ones(shape + (len(axes),)))[(0,) * len(axes)]
    assert signs.tolist() == [1.0 if axis == 0 else -1.0 for axis in axes]


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
