"""Grid field sets, hydrodynamic residual evaluators, quantum potential."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from conftest import draw_transverse_unit, draw_unit
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirachydro import hydro
from dirachydro.clifford import GAMMA, METRIC, _GAMMA_PAIR, _adjoint, lower_both
from dirachydro.errors import ContractError
from dirachydro.fields import (
    ELECTRON,
    CrossedField,
    GaugeShiftedProvider,
    PlaneWaveField,
    PolynomialField,
    ScalarPolynomial,
    UniformField,
    ZERO_FIELD,
)
from dirachydro.grids import GridSpec
from dirachydro.hydro import (
    TERM_COEFFS,
    HydroFieldSet,
    first_order_residuals,
    quantum_potential,
    second_order_residuals_bilinear,
    second_order_residuals_expanded,
    squared_dirac_residual,
)
from dirachydro.manufactured import (
    perturbed_plane_wave_fields,
    plane_wave_fields,
    seeded_manufactured_fields,
)
from dirachydro.spinors import _PARAM_NAMES, KinematicParams


def _plane_spec(n=17, h=0.01):
    return GridSpec(active_axes=(0, 1), shape=(n, n), spacing=(h, h))


def _grid_params(spec, chi=0.3):
    shape = spec.shape
    return KinematicParams(
        chi=np.full(shape, chi),
        theta_u=np.full(shape, 0.5 * np.pi),
        phi=np.zeros(shape),
        theta=np.full(shape, 0.4),
        eta0=np.zeros(shape),
    )


def test_field_set_validation():
    spec = _plane_spec(5)
    good = _grid_params(spec)
    rho = np.ones(spec.shape)
    S = np.zeros(spec.shape)
    with pytest.raises(ContractError):
        HydroFieldSet(spec=spec, rho=rho, S=S, params=good, kind="other")
    with pytest.raises(ContractError):
        HydroFieldSet(spec=spec, rho=np.ones(4), S=S, params=good)
    with pytest.raises(ContractError):
        HydroFieldSet(spec=spec, rho=-rho, S=S, params=good)
    with pytest.raises(ContractError):
        HydroFieldSet(spec=spec, rho=rho * np.nan, S=S, params=good)
    scalar_params = KinematicParams(chi=0.3, theta_u=1.0, phi=0.0, theta=0.4, eta0=0.0)
    with pytest.raises(ContractError):
        HydroFieldSet(spec=spec, rho=rho, S=S, params=scalar_params)


def test_field_set_derived_quantities():
    spec = _plane_spec(5)
    fields = HydroFieldSet(
        spec=spec, rho=np.full(spec.shape, 2.0), S=np.zeros(spec.shape),
        params=_grid_params(spec, chi=0.7),
    )
    np.testing.assert_allclose(fields.gamma, np.cosh(0.7))
    np.testing.assert_allclose(fields.rho0, 2.0 / np.cosh(0.7))
    e = fields.spinors()
    assert e.shape == spec.shape + (4,)
    norms = np.einsum("...a,...a->...", e.conj(), e).real
    np.testing.assert_allclose(norms, 1.0, atol=1e-13)
    # |psi|^2 recovers the probability density regardless of hbar
    psi = fields.psi(hbar=0.5)
    density = np.einsum("...a,...a->...", psi.conj(), psi).real
    np.testing.assert_allclose(density, fields.rho, atol=1e-12)


@pytest.mark.parametrize("kind", ["particle", "antiparticle"])
def test_plane_wave_annihilates_every_evaluator(kind):
    """Free plane waves zero all residual evaluators to roundoff.

    The phase is linear and the shape parameters constant, so every finite
    difference is exact and the only residual left is float rounding.
    """
    spec = _plane_spec(17)
    fields = plane_wave_fields(spec, kind=kind)
    first = first_order_residuals(fields, ZERO_FIELD)
    bil = second_order_residuals_bilinear(fields, ZERO_FIELD)
    exp = second_order_residuals_expanded(fields, ZERO_FIELD)
    for grid in (
        first.continuity, first.hamilton_jacobi,
        bil.continuity, bil.qhj, bil.qhj_imag,
        exp.continuity, exp.qhj,
    ):
        assert np.max(np.abs(grid)) < 1e-10
    # the operator evaluator differences the oscillatory psi itself, so it
    # keeps an O(h^2 k^4) truncation error instead of annihilating exactly
    op = squared_dirac_residual(fields, ZERO_FIELD)
    assert np.max(np.abs(op)) < 1e-3


@settings(max_examples=60)
@given(st.data())
def test_plane_waves_of_any_rapidity_annihilate_every_evaluator(data):
    """Lorentz: a free plane wave boosted to any chi <= 3 is a solution, for either kind.

    Every grid of all three evaluators stays at roundoff, edges included.
    """
    draw = data.draw
    n = draw(st.integers(9, 17))
    spec = GridSpec(active_axes=(0, 1), shape=(n, n), spacing=(0.02, 0.02))
    fields = plane_wave_fields(
        spec,
        chi=draw(st.floats(0.0, 3.0)),
        # a (t, x) grid resolves only velocities along x
        phi=draw(st.sampled_from([0.0, np.pi])),
        theta=draw(st.floats(0.0, np.pi)),
        eta0=draw(st.floats(0.0, 2.0 * np.pi, exclude_max=True)),
        rho_value=draw(st.floats(0.5, 2.0)),
        kind=draw(st.sampled_from(["particle", "antiparticle"])),
    )
    first = first_order_residuals(fields, ZERO_FIELD)
    bil = second_order_residuals_bilinear(fields, ZERO_FIELD)
    exp = second_order_residuals_expanded(fields, ZERO_FIELD)
    for grid in (
        first.continuity, first.hamilton_jacobi,
        bil.continuity, bil.qhj, bil.qhj_imag,
        exp.continuity, exp.qhj,
    ):
        assert np.max(np.abs(grid)) <= 1e-10


def test_expanded_matches_bilinear_on_smooth_fields():
    """Closed-form parameter terms reproduce the spinor-differencing terms.

    On slowly varying manufactured fields the two second-order evaluators
    differ only through products of finite-difference errors, far below the
    size of either residual's own truncation error.
    """
    provider = UniformField(
        E0=np.array([0.02, 0.0, 0.01]), B0=np.array([0.0, 0.0, 0.6])
    )
    # (0, 2) and (1, 3) put the gradient slots apart from the four-vector components
    for axes, seed in itertools.product([(0, 1), (0, 2), (1, 3)], (0, 3, 11)):
        spec = GridSpec(active_axes=axes, shape=(25, 25), spacing=(0.01, 0.01))
        interior = spec.trusted_mask(depth=3)
        fields = seeded_manufactured_fields(spec, seed=seed)
        bil = second_order_residuals_bilinear(fields, provider)
        exp = second_order_residuals_expanded(fields, provider)
        assert np.max(np.abs((bil.qhj - exp.qhj)[interior])) < 1e-6
        assert np.max(np.abs((bil.continuity - exp.continuity)[interior])) < 1e-6
        # the bilinear evaluator's imaginary leakage sits at the float floor
        assert np.max(np.abs(bil.qhj_imag[interior])) < 1e-8
        np.testing.assert_array_equal(exp.qhj_imag, np.zeros(spec.shape))


@pytest.mark.parametrize("kind,sign", [("particle", 1.0), ("antiparticle", -1.0)])
def test_squared_operator_reproduces_bilinear_residuals(kind, sign):
    """psibar Op psi encodes both second-order defects.

    -Re(psibar Op psi) divided by the signed scalar density psibar psi is
    the quantum Hamilton-Jacobi defect, and Im(psibar Op psi)/hbar carries
    the continuity defect with the same kind sign.  The operator evaluator
    differences psi itself, so this is an independent check of the
    bilinear evaluator.
    """
    provider = UniformField(
        E0=np.array([0.02, 0.0, 0.01]), B0=np.array([0.0, 0.0, 0.6])
    )
    for axes in [(0, 1), (0, 2), (1, 3)]:
        spec = GridSpec(active_axes=axes, shape=(25, 25), spacing=(0.01, 0.01))
        fields = seeded_manufactured_fields(spec, seed=3, kind=kind)
        op = squared_dirac_residual(fields, provider)
        bil = second_order_residuals_bilinear(fields, provider)
        interior = spec.trusted_mask(depth=3)
        qhj_from_op = -op.real / (sign * fields.rho0)
        np.testing.assert_allclose(
            qhj_from_op[interior], bil.qhj[interior], atol=1e-4, err_msg=str(axes)
        )
        np.testing.assert_allclose(
            (sign * op.imag / ELECTRON.hbar)[interior],
            bil.continuity[interior],
            atol=1e-6,
            err_msg=str(axes),
        )


@pytest.mark.parametrize("kind", ["particle", "antiparticle"])
def test_residuals_are_gauge_covariant(kind):
    """Shifting A by d Lambda and S by -q Lambda leaves every residual alone.

    A quadratic Lambda keeps the grid differences of the shifted phase
    exact, so the two evaluations agree to roundoff, not to stencil error.
    """
    spec = _plane_spec(17, h=0.02)
    base = UniformField(E0=np.array([0.01, 0.0, 0.0]), B0=np.array([0.0, 0.0, 0.2]))
    gauge = ScalarPolynomial(
        terms=((0.3, (2, 0, 0, 0)), (-0.15, (1, 1, 0, 0)), (0.1, (0, 1, 0, 0)))
    )
    shifted = GaugeShiftedProvider(base=base, gauge_function=gauge)
    fields = seeded_manufactured_fields(spec, seed=7, kind=kind)
    lam = gauge.value(spec.points())
    moved = HydroFieldSet(
        spec=spec, rho=fields.rho, S=fields.S - ELECTRON.charge * lam,
        params=fields.params, kind=kind,
    )
    first_a = first_order_residuals(fields, base)
    first_b = first_order_residuals(moved, shifted)
    np.testing.assert_allclose(first_b.continuity, first_a.continuity, atol=1e-12)
    np.testing.assert_allclose(
        first_b.hamilton_jacobi, first_a.hamilton_jacobi, atol=1e-10
    )
    second_a = second_order_residuals_expanded(fields, base)
    second_b = second_order_residuals_expanded(moved, shifted)
    np.testing.assert_allclose(second_b.qhj, second_a.qhj, atol=1e-10)
    np.testing.assert_allclose(second_b.continuity, second_a.continuity, atol=1e-10)


# Gauge monomials t^a x^b of degree at most 3 on the (t, x) grid.  Each
# coordinate's power is at most 2, because the second-order stencils are
# exact only up to quadratics along an axis: a t^3 gauge leaves stencil
# error of order 1e-4 to 1e-2 in the shifted grids, which would hide roundoff.
_GAUGE_POWERS = [(a, b, 0, 0) for a in range(3) for b in range(3) if 0 < a + b <= 3]

_VECTORS = st.tuples(*[st.floats(-0.5, 0.5)] * 3).map(np.array)


@st.composite
def _gauge_cases(draw):
    """A seeded manufactured configuration, its kind, a provider and a gauge."""
    if draw(st.booleans()):
        provider = UniformField(E0=draw(_VECTORS), B0=draw(_VECTORS))
    else:
        provider = PlaneWaveField(wave_vector=(1.0, 1.0, 0.0, 0.0), polarization=(0.0, 1.0, 0.0),
                                  amplitude=draw(st.floats(0.0, 1.0)))
    terms = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.sampled_from(_GAUGE_POWERS)),
                          min_size=1, max_size=4))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["particle", "antiparticle"]))
    return seed, kind, provider, ScalarPolynomial(tuple(terms))


@settings(max_examples=50)
@given(_gauge_cases())
def test_every_formula_evaluator_is_gauge_covariant_on_the_grid(case):
    """A -> A + d Lambda with S -> S - q Lambda leaves all three evaluators' grids alone.

    The gauge is differenced exactly on the grid, so the grids agree to
    roundoff (measured at most 2e-12 over 200 draws) rather than to stencil
    error.
    """
    seed, kind, provider, gauge = case
    spec = _plane_spec(17, h=0.02)
    fields = seeded_manufactured_fields(spec, seed=seed, kind=kind)
    moved = HydroFieldSet(
        spec=spec, rho=fields.rho, S=fields.S - ELECTRON.charge * gauge.value(spec.points()),
        params=fields.params, kind=kind,
    )
    shifted = GaugeShiftedProvider(base=provider, gauge_function=gauge)
    for evaluator in (first_order_residuals, second_order_residuals_bilinear,
                      second_order_residuals_expanded):
        before = vars(evaluator(fields, provider))
        after = vars(evaluator(moved, shifted))
        for name, grid in before.items():
            np.testing.assert_allclose(after[name], grid, rtol=0, atol=1e-10,
                                       err_msg=f"{evaluator.__name__}.{name}")


def _about_z(v):
    """A three-vector turned by 90 degrees about z."""
    return np.array([-v[1], v[0], v[2]])


# monomial powers of degree 1 to 3 in (t, x, y, z)
_POWERS = [p for p in itertools.product(range(4), repeat=4) if 0 < sum(p) <= 3]


@st.composite
def _quarter_turn_cases(draw):
    """The active axes of a (t, x, y, z) or (t, x, y) grid and its size, a seed and kind,
    and a uniform, crossed, plane-wave or polynomial field."""
    field_kind = draw(st.sampled_from(["uniform", "crossed", "plane-wave", "polynomial"]))
    if field_kind == "plane-wave":
        n = draw_unit(draw)
        wave = draw(st.floats(0.5, 3.0))
        field = PlaneWaveField(wave_vector=np.concatenate([[wave], wave * n]),
                               polarization=draw_transverse_unit(draw, n),
                               amplitude=draw(st.floats(0.01, 0.5)))
    elif field_kind == "polynomial":
        terms = st.lists(st.tuples(st.floats(-0.5, 0.5), st.sampled_from(_POWERS)),
                         min_size=1, max_size=3)
        field = PolynomialField({mu: draw(terms) for mu in range(4)})
    else:
        E0, w = draw(_VECTORS), draw(_VECTORS)
        # a crossed field's B is perpendicular to its E
        field = (CrossedField(E0=E0, B0=np.cross(E0, w)) if field_kind == "crossed"
                 else UniformField(E0=E0, B0=w))
    return (draw(st.sampled_from([(0, 1, 2, 3), (0, 1, 2)])), draw(st.integers(7, 9)),
            draw(st.integers(0, 2**16)), draw(st.sampled_from(["particle", "antiparticle"])),
            field)


def _turned_field(field, rotate):
    """``field`` turned as ``rotate`` turns a three-vector, with x' = R x for a signed
    permutation R: E, B, k and the polarisation turn as vectors, and a polynomial
    potential becomes A'(x') = R A(R^T x'), so the x_j of each monomial becomes
    R[to[j], j] x'_to[j], and A^j becomes the component to[j] times R[to[j], j]."""
    if isinstance(field, PlaneWaveField):
        k = field.wave_vector
        return PlaneWaveField(wave_vector=np.concatenate([k[:1], rotate(k[1:])]),
                              polarization=rotate(field.polarization), amplitude=field.amplitude)
    if not isinstance(field, PolynomialField):
        return type(field)(E0=rotate(field.E0), B0=rotate(field.B0))
    R = np.column_stack([rotate(e) for e in np.eye(3)])
    to = np.argmax(np.abs(R), axis=0)
    sign = R[to, range(3)]
    terms = {}
    for mu, component in field.terms.items():
        entries = []
        for c, (pt, *powers) in component.terms:
            turned = [pt, 0, 0, 0]
            for j, p in enumerate(powers):
                turned[1 + to[j]] = p
            entries.append((c * np.prod(sign ** np.array(powers)), tuple(turned)))
        if mu == 0:
            terms[0] = entries
        else:
            terms[1 + to[mu - 1]] = [(sign[mu - 1] * c, p) for c, p in entries]
    return PolynomialField(terms)


def _about_x(v):
    """A three-vector turned by 180 degrees about x."""
    return np.array([v[0], -v[1], -v[2]])


def _assert_turn_covariance(case, turn, origin, turned_params, rotate, relative=1e-12):
    """Each evaluator's grids on a turned configuration are the turned grids.

    The configuration of ``case`` is drawn on the grid with origin 0; ``turn``
    maps its samples onto the grid of ``origin``, ``turned_params`` its angles
    and ``rotate`` the field's three-vectors (see ``_turned_field``). Each grid
    must agree to ``relative`` of its largest value, and the bilinear qhj_imag
    to 1e-15.
    """
    axes, n, seed, kind, field = case
    h = 0.05
    shape, spacing = (n,) * len(axes), (h,) * len(axes)
    spec = GridSpec(active_axes=axes, shape=shape, spacing=spacing)
    fields = seeded_manufactured_fields(spec, seed=seed, kind=kind, amplitude=2e-2)
    turned = HydroFieldSet(
        spec=GridSpec(active_axes=axes, shape=shape, spacing=spacing,
                      origin=origin(axes, (n - 1) * h)),
        rho=turn(fields.rho), S=turn(fields.S), kind=kind,
        params=turned_params(KinematicParams(**{
            name: turn(getattr(fields.params, name)) for name in _PARAM_NAMES})),
    )
    for evaluator in (first_order_residuals, second_order_residuals_bilinear,
                      second_order_residuals_expanded):
        before = vars(evaluator(fields, field))
        after = vars(evaluator(turned, _turned_field(field, rotate)))
        for name, grid in before.items():
            bound = 1e-15 if name == "qhj_imag" else relative * np.nanmax(np.abs(grid))
            np.testing.assert_allclose(after[name], turn(grid), rtol=0, atol=bound,
                                       err_msg=f"{evaluator.__name__}.{name}")


# a plane wave along (1, 2, 2)/3 polarised in the (x, y) plane, and a polynomial
# potential with y and z in its A^1, A^2 and A^3: a sign error confined to y or z
# fails on these before any random draw, so it needs no shrinking
@settings(max_examples=40)
@given(_quarter_turn_cases())
@example(((0, 1, 2, 3), 7, 3, "particle",
          PlaneWaveField(wave_vector=(2.0, 2 / 3, 4 / 3, 4 / 3), polarization=(0.8, -0.4, 0.0),
                         amplitude=0.3)))
@example(((0, 1, 2), 7, 5, "antiparticle",
          PolynomialField({0: [(0.2, (0, 1, 1, 0))], 1: [(0.3, (0, 0, 2, 0))],
                           2: [(-0.4, (1, 1, 0, 0)), (0.1, (0, 0, 1, 1))],
                           3: [(0.25, (0, 1, 0, 1))]})))
def test_every_evaluator_is_covariant_under_a_quarter_turn_about_z(case):
    """Turning the configuration, its grid and the field by 90 degrees about z turns
    every residual grid with them.

    The samples turn with ``np.rot90`` over the (x, y) axes onto the grid whose
    origin is (0, -(n - 1) h, 0, 0), and phi gains pi/2, which changes the spinor
    by a constant phase only. The turn maps the lattice to itself, so the grids
    agree to roundoff: at most 1.8e-13 of each grid's largest value over 120
    draws of 4-D grids and 1.1e-13 over 101 of 3-D (t, x, y) grids, and the
    bilinear qhj_imag, itself roundoff, to 3.1e-17 and 2.1e-17.
    """
    _assert_turn_covariance(
        case,
        turn=lambda grid: np.rot90(grid, 1, axes=(1, 2)),
        origin=lambda axes, width: (0.0, -width, 0.0, 0.0),
        turned_params=lambda p: dataclasses.replace(p, phi=p.phi + 0.5 * np.pi),
        rotate=_about_z,
    )


@settings(max_examples=40)
@given(_quarter_turn_cases())
def test_every_evaluator_is_covariant_under_a_half_turn_about_x(case):
    """Turning the configuration, its grid and the field by 180 degrees about x turns
    every residual grid with them.

    The samples flip along y and z onto the grid whose origin is
    (0, 0, -(n - 1) h, -(n - 1) h) (z stays 0 on a (t, x, y) grid). The angles map
    as theta_u -> pi - theta_u, theta -> pi - theta and phi -> -phi, and eta0
    gains the old phi: Sigma_x turns the spinor into e^{i phi} times the
    parametrised one. The turn maps the lattice to itself, so the grids agree to
    roundoff, but to more of it than under the quarter turn: there phi moves by
    a constant and the large spinor components stay bitwise the same, while here
    every component is computed again from re-rounded angles and a phase that
    varies from point to point, and the continuity grids difference that twice.
    Over 1,300 draws (643 of 4-D grids, 657 of 3-D) the two second-order
    continuity grids reached 2.6e-12 of their largest value (1.5e-12 on 4-D
    grids) and exceeded 1e-12 in about one draw in a hundred; every other grid
    stayed within 2.1e-13, and the bilinear qhj_imag within 3.4e-17. So the
    relative bound is 1e-11.
    """
    _assert_turn_covariance(
        case,
        turn=lambda grid: np.flip(grid, axis=tuple(range(2, grid.ndim))),
        origin=lambda axes, width: (0.0, 0.0, -width, -width if 3 in axes else 0.0),
        turned_params=lambda p: KinematicParams(
            chi=p.chi, theta_u=np.pi - p.theta_u, phi=-p.phi, theta=np.pi - p.theta,
            eta0=p.eta0 + p.phi),
        rotate=_about_x,
        relative=1e-11,
    )


def test_quantum_potential_gaussian_closed_form():
    """Q on a unit Gaussian is (x^2 - 1)/2 up to second-order stencil error."""
    spec = GridSpec(
        active_axes=(1,), shape=(401,), spacing=(0.01,), origin=(0.0, -2.0, 0.0, 0.0)
    )
    x = spec.points()[:, 1]
    rho0 = np.exp(-(x**2))
    q = quantum_potential(spec, rho0)
    assert type(q) is np.ndarray and q.dtype == np.float64 and not np.isnan(q).any()
    expected = 0.5 * (x**2 - 1.0)
    np.testing.assert_allclose(q[5:-5], expected[5:-5], atol=1e-4)
    # hbar enters squared
    q2 = quantum_potential(spec, rho0, hbar=2.0)
    np.testing.assert_allclose(q2, 4.0 * q, atol=1e-12)


def test_quantum_potential_refuses_vacuum():
    """Zero-density points are refused, counted; so is a grid of the wrong shape."""
    spec = GridSpec(
        active_axes=(1,), shape=(401,), spacing=(0.01,), origin=(0.0, -2.0, 0.0, 0.0)
    )
    x = spec.points()[:, 1]
    rho0 = np.exp(-(x**2))
    rho0[180:221] = 0.0
    with pytest.raises(ContractError, match="at 41 of 401 grid points"):
        quantum_potential(spec, rho0)
    with pytest.raises(ContractError):
        quantum_potential(spec, np.ones(7))


def test_quantum_potential_refuses_a_vacuum_point_on_the_grid_edge():
    """An edge sample is refused like any other; so is a NaN, and a density at the floor."""
    spec = GridSpec(active_axes=(1,), shape=(20,), spacing=(0.1,))
    for value in (0.0, np.nan, hydro.DENSITY_FLOOR):
        rho0 = np.ones(20)
        rho0[0] = value
        with pytest.raises(ContractError, match="at 1 of 20 grid points"):
            quantum_potential(spec, rho0)
    rho0[0] = np.nextafter(hydro.DENSITY_FLOOR, 1.0)
    assert np.isfinite(quantum_potential(spec, rho0)).all()


_EVALUATORS = (
    first_order_residuals,
    second_order_residuals_bilinear,
    second_order_residuals_expanded,
)


_SMOOTH_PROVIDER = UniformField(
    E0=np.array([0.02, 0.0, 0.01]), B0=np.array([0.0, 0.0, 0.6])
)


def _smooth_fields():
    spec = GridSpec(active_axes=(0, 1), shape=(21, 21), spacing=(0.01, 0.01))
    return seeded_manufactured_fields(spec, seed=5)


def test_a_field_set_slab_views_its_rows():
    """A slab shares its rows with the field set and carries its kind."""
    fields = seeded_manufactured_fields(
        GridSpec(active_axes=(0, 1), shape=(21, 9), spacing=(0.01, 0.02)), seed=5,
        kind="antiparticle")
    slab = fields.slab(4, 11)
    assert slab.kind == "antiparticle" and slab.spec == fields.spec.slab(4, 11)
    for name in ("rho", "S"):
        assert np.shares_memory(getattr(slab, name), getattr(fields, name))
        np.testing.assert_array_equal(getattr(slab, name), getattr(fields, name)[4:11])
    for name in ("chi", "theta_u", "phi", "theta", "eta0"):
        np.testing.assert_array_equal(getattr(slab.params, name),
                                      getattr(fields.params, name)[4:11])


def test_evaluators_build_spinor_data_once_per_field_set(monkeypatch):
    """The three evaluators share one spinor field and one bilinear set."""
    calls = {"spinors": 0, "bilinears": 0}
    spinors, bilinears = HydroFieldSet.spinors, hydro.bilinears

    def counted_spinors(self):
        calls["spinors"] += 1
        return spinors(self)

    def counted_bilinears(*args, **kwargs):
        calls["bilinears"] += 1
        return bilinears(*args, **kwargs)

    monkeypatch.setattr(HydroFieldSet, "spinors", counted_spinors)
    monkeypatch.setattr(hydro, "bilinears", counted_bilinears)
    fields = _smooth_fields()
    for evaluator in _EVALUATORS:
        evaluator(fields, _SMOOTH_PROVIDER)
    assert calls == {"spinors": 1, "bilinears": 1}


def test_warm_field_set_reproduces_fresh_results_bitwise():
    """Cached spinor data gives the same bits in any evaluator order."""
    fresh = [
        vars(evaluator(_smooth_fields(), _SMOOTH_PROVIDER)) for evaluator in _EVALUATORS
    ]
    warm = _smooth_fields()
    order = list(zip(_EVALUATORS, fresh))
    for evaluator, expected in order + order[::-1]:
        got = vars(evaluator(warm, _SMOOTH_PROVIDER))
        for name, grid in expected.items():
            np.testing.assert_array_equal(got[name], grid, err_msg=name)


def test_both_second_order_evaluators_refuse_vacuum():
    """A vacuum patch is refused by both qhj evaluators, with the same count."""
    spec = _plane_spec(25)
    plane = plane_wave_fields(spec)
    rho = np.array(plane.rho, copy=True)
    rho[10:14, 8:12] = 0.0
    fields = HydroFieldSet(
        spec=spec, rho=rho, S=plane.S, params=plane.params, kind=plane.kind
    )
    for evaluator in (second_order_residuals_bilinear, second_order_residuals_expanded):
        with pytest.raises(ContractError, match="at 16 of 625 grid points"):
            evaluator(fields, ZERO_FIELD)


def test_frozen_shape_coefficients():
    # calibrated against the bilinear evaluator; see the committed report
    assert TERM_COEFFS == {
        "theta_gradient": 0.25,
        "kappa_gradient": -0.25,
        "chi_gradient": -0.25,
        "phi_gradient": 0.25,
        "quantum_potential": 2.0,
        "magnetic": 1.0,
    }


def test_bilinear_evaluator_memory_per_point_is_bounded():
    """Each (grid, 4, 4) temporary is freed once its term is formed.

    With the spinor data already cached, a 9^4 call peaked at 690 bytes
    per point (Python 3.11, NumPy 2.4); the bound is 1.5 times that. With
    every temporary alive until return it peaked at 1566.
    """
    spec = GridSpec(active_axes=(0, 1, 2, 3), shape=(9,) * 4, spacing=(0.05,) * 4)
    fields = perturbed_plane_wave_fields(spec, seed=4, amplitude=2e-4, chi=0.7, theta_u=1.1,
                                         phi=0.4)
    provider = PlaneWaveField(wave_vector=np.array([0.5, 0.0, 0.0, 0.5]), amplitude=0.05)
    fields._spinor_data
    tracemalloc.start()
    try:
        second_order_residuals_bilinear(fields, provider)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 9**4 <= 1.5 * 690


def _random_spinors(rng, shape):
    return rng.normal(size=shape + (4,)) + 1j * rng.normal(size=shape + (4,))


def test_slashed_term_matches_the_dense_contraction():
    """ebar gamma^mu d_mu e over the active mu, against the dense gamma table it no longer reads."""
    rng = np.random.default_rng(23)
    for axes, shape in itertools.product([(0, 1, 2, 3), (0, 1), (0, 2), (1, 3), (2,)],
                                         [(), (40,), (5, 6)]):
        ebar = _random_spinors(rng, shape) @ GAMMA[0]
        slots = shape + (len(axes), 4)
        de = rng.normal(size=slots) + 1j * rng.normal(size=slots)
        dense = np.einsum("...a,mab,...mb->...", ebar, GAMMA[list(axes)], de)
        # sixteen products of two operands: a few ulps of that scale
        scale = 16 * np.max(np.abs(ebar)) * np.max(np.abs(de))
        np.testing.assert_allclose(hydro._slashed(ebar, de, axes), dense, rtol=0,
                                   atol=8 * np.finfo(float).eps * scale)


def _zero_padded(spec, g_lower):
    """A gradient over the active axes put into all four slots, zero along the others."""
    out = np.zeros(spec.shape + (4,) + g_lower.shape[spec.ndim + 1:], g_lower.dtype)
    grid = (slice(None),) * spec.ndim
    for k, axis in enumerate(spec.active_axes):
        out[grid + (axis,)] = g_lower[grid + (k,)]
    return out


@pytest.mark.parametrize("axes", [(0, 2), (1, 3)], ids=["t-y", "x-z"])
def test_gradient_contractions_match_a_zero_padded_four_axis_reference(axes):
    """Contractions over the active axes equal the dense four-axis forms on padded gradients."""
    spec = GridSpec(active_axes=axes, shape=(9, 11), spacing=(0.1, 0.07))
    rng = np.random.default_rng(31)
    e = _random_spinors(rng, spec.shape)
    ebar = _adjoint(e)
    # unit scalar density, so the comparison is of the sums themselves
    scalar = np.ones(spec.shape)
    de_lower = spec.gradient_lower(e)
    e_de = np.einsum("...a,...ma->...m", ebar, de_lower)

    de4 = _zero_padded(spec, de_lower)
    debar4 = _adjoint(de4)
    de_bar_e = np.einsum("...ma,...a->...m", debar4, e)
    e_de4 = np.einsum("...a,...ma->...m", ebar, de4)
    cross = np.einsum("...m,mn,...n->...", de_bar_e, METRIC, e_de4)
    grad_sq = np.einsum("...ma,mn,...na->...", debar4, METRIC, de4)
    reference = grad_sq - cross
    combo = hydro._spinor_gradient_correction(spec, e, de_lower, e_de, scalar)
    # eight products in grad_sq, two sums of four products times four in cross
    scale = 32 * np.max(np.abs(de4)) ** 2 * (1.0 + np.max(np.abs(e)) ** 2)
    np.testing.assert_allclose(combo, reference, rtol=0, atol=8 * np.finfo(float).eps * scale)

    for field in (rng.normal(size=spec.shape), _random_spinors(rng, spec.shape)[..., 0]):
        g4 = _zero_padded(spec, spec.gradient_lower(field))
        reference = np.einsum("...m,mn,...n->...", g4, METRIC, g4)
        scale = np.max(np.abs(g4)) ** 2
        np.testing.assert_allclose(hydro._metric_square(spec, field), reference, rtol=0,
                                   atol=8 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("shape, points", [
    ((11, 6, 5), 4 * 30), ((11, 6, 5), 7), ((40, 1000), None),
], ids=["four-rows-a-block", "a-row-over-a-block", "default-block"])
def test_the_correction_in_blocks_of_rows_is_bitwise_one_block(monkeypatch, shape, points):
    """Blocks of whole rows, the last one partial, give the bits of one block: 4-row
    blocks of 11 rows, one row a block where a row holds more points than a block,
    and the evaluators' own block size on 40 rows of 1,000 points (16, 16 and 8)."""
    spec = GridSpec(active_axes=(0, 1, 3)[:len(shape)], shape=shape,
                    spacing=(0.1, 0.07, 0.05)[:len(shape)])
    rng = np.random.default_rng(37)
    e = _random_spinors(rng, spec.shape)
    de_lower = spec.gradient_lower(e)
    e_de = np.einsum("...a,...ma->...m", _adjoint(e), de_lower)
    scalar = rng.uniform(0.5, 1.5, size=spec.shape)
    if points is not None:
        monkeypatch.setattr(hydro, "_CORRECTION_POINTS", points)
    blocks = hydro._spinor_gradient_correction(spec, e, de_lower, e_de, scalar)
    monkeypatch.setattr(hydro, "_CORRECTION_POINTS", e.size)
    whole = hydro._spinor_gradient_correction(spec, e, de_lower, e_de, scalar)
    np.testing.assert_array_equal(blocks.view(np.int64), whole.view(np.int64))


def test_field_coupling_matches_the_dense_contraction():
    """The six-pair coupling against all sixteen ebar g^mu g^nu e contracted with F."""
    rng = np.random.default_rng(29)
    hbar, q = 0.7, -1.3
    for shape in [(), (40,), (5, 6)]:
        e = _random_spinors(rng, shape)
        ebar = np.conj(e) @ GAMMA[0]
        F = rng.normal(size=shape + (4, 4))
        F = F - np.swapaxes(F, -1, -2)
        pair = np.einsum("...a,mnab,...b->...mn", ebar, _GAMMA_PAIR, e)
        dense = (-0.5j * hbar * q) * np.einsum("...mn,...mn->...", pair, lower_both(F))
        # unit scalar density, so the comparison is of the sums themselves
        coupling = hydro._field_coupling(e, ebar, np.ones(shape), F, hbar, q)
        scale = 16 * hbar * abs(q) * np.max(np.abs(ebar)) * np.max(np.abs(e)) * np.max(np.abs(F))
        np.testing.assert_allclose(coupling, dense, rtol=0, atol=8 * np.finfo(float).eps * scale)
