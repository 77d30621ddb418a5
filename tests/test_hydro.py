"""Grid field sets, hydrodynamic residual evaluators, quantum potential."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirachydro import hydro
from dirachydro.errors import ContractError
from dirachydro.fields import (
    ELECTRON,
    GaugeShiftedProvider,
    PlaneWaveField,
    ScalarPolynomial,
    UniformField,
    ZERO_FIELD,
)
from dirachydro.grids import GridSpec
from dirachydro.hydro import (
    BPRIME_TERM_COEFF,
    CHI_TERM_COEFF,
    HydroFieldSet,
    KAPPA_TERM_COEFF,
    PHI_TERM_COEFF,
    QP_TERM_COEFF,
    THETA_TERM_COEFF,
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
from dirachydro.spinors import KinematicParams


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
    spec = GridSpec(active_axes=(0, 1), shape=(25, 25), spacing=(0.01, 0.01))
    provider = UniformField(
        E0=np.array([0.02, 0.0, 0.01]), B0=np.array([0.0, 0.0, 0.6])
    )
    interior = spec.trusted_mask(depth=3)
    for seed in (0, 3, 11):
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
    spec = GridSpec(active_axes=(0, 1), shape=(25, 25), spacing=(0.01, 0.01))
    provider = UniformField(
        E0=np.array([0.02, 0.0, 0.01]), B0=np.array([0.0, 0.0, 0.6])
    )
    fields = seeded_manufactured_fields(spec, seed=3, kind=kind)
    op = squared_dirac_residual(fields, provider)
    bil = second_order_residuals_bilinear(fields, provider)
    interior = spec.trusted_mask(depth=3)
    qhj_from_op = -op.real / (sign * fields.rho0)
    np.testing.assert_allclose(
        qhj_from_op[interior], bil.qhj[interior], atol=1e-4
    )
    np.testing.assert_allclose(
        (sign * op.imag / ELECTRON.hbar)[interior],
        bil.continuity[interior],
        atol=1e-6,
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


def test_quantum_potential_gaussian_closed_form():
    """Q on a unit Gaussian is (x^2 - 1)/2 up to second-order stencil error."""
    spec = GridSpec(
        active_axes=(1,), shape=(401,), spacing=(0.01,), origin=(0.0, -2.0, 0.0, 0.0)
    )
    x = spec.points()[:, 1]
    rho0 = np.exp(-(x**2))
    q = quantum_potential(spec, rho0)
    assert isinstance(q, np.ma.MaskedArray) and not q.mask.any()
    expected = 0.5 * (x**2 - 1.0)
    np.testing.assert_allclose(q.data[5:-5], expected[5:-5], atol=1e-4)
    # hbar enters squared
    q2 = quantum_potential(spec, rho0, hbar=2.0)
    np.testing.assert_allclose(q2.data, 4.0 * q.data, atol=1e-12)


def test_quantum_potential_masks_vacuum():
    """Zero-density points and their stencil halo come back masked."""
    spec = GridSpec(
        active_axes=(1,), shape=(401,), spacing=(0.01,), origin=(0.0, -2.0, 0.0, 0.0)
    )
    x = spec.points()[:, 1]
    rho0 = np.exp(-(x**2))
    rho0[180:221] = 0.0
    q = quantum_potential(spec, rho0)
    assert q.mask[177] and q.mask[223]
    assert not q.mask[176] and not q.mask[224]
    assert np.all(np.isfinite(q.compressed()))
    with pytest.raises(ContractError):
        quantum_potential(spec, np.ones(7))


def test_quantum_potential_mask_stops_at_grid_edge():
    """A vacuum point on one edge masks its own halo, not the opposite edge."""
    spec = GridSpec(active_axes=(1,), shape=(20,), spacing=(0.1,))
    rho0 = np.ones(20)
    rho0[0] = 0.0
    q = quantum_potential(spec, rho0)
    np.testing.assert_array_equal(np.flatnonzero(q.mask), [0, 1, 2, 3])


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


def test_bilinear_evaluator_masks_vacuum_like_expanded():
    """A vacuum patch is NaN in both qhj grids, on the same points."""
    spec = _plane_spec(25)
    plane = plane_wave_fields(spec)
    rho = np.array(plane.rho, copy=True)
    rho[10:14, 8:12] = 0.0
    fields = HydroFieldSet(
        spec=spec, rho=rho, S=plane.S, params=plane.params, kind=plane.kind
    )
    bil = second_order_residuals_bilinear(fields, ZERO_FIELD)
    exp = second_order_residuals_expanded(fields, ZERO_FIELD)
    vacuum = np.isnan(bil.qhj)
    np.testing.assert_array_equal(vacuum, np.isnan(exp.qhj))
    # the halo reaches three points along each axis from the patch
    assert vacuum[7, 8] and vacuum[13, 14]
    assert not vacuum[6, 10] and not vacuum[7, 7]
    assert np.all(np.isfinite(bil.qhj[~vacuum]))


def test_frozen_shape_coefficients():
    # calibrated against the bilinear evaluator; see the committed report
    assert THETA_TERM_COEFF == 0.25
    assert KAPPA_TERM_COEFF == -0.25
    assert CHI_TERM_COEFF == -0.25
    assert PHI_TERM_COEFF == 0.25
    assert QP_TERM_COEFF == 2.0
    assert BPRIME_TERM_COEFF == 1.0


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
