"""Information functional, action evaluation, numerical functional derivatives."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirachydro import fisher, hydro
from dirachydro.errors import ContractError
from dirachydro.fields import ELECTRON, Particle, PlaneWaveField, UniformField
from dirachydro.fisher import (
    CONTINUITY_FACTOR,
    QHJ_FACTOR,
    action_functional,
    fisher_information,
    functional_derivative,
    lagrangian_density,
    pauli_limit_density,
)
from dirachydro.grids import GridSpec
from dirachydro.hydro import (
    TERM_COEFFS,
    HydroFieldSet,
    first_order_residuals,
    quantum_potential,
    second_order_residuals_bilinear,
    second_order_residuals_expanded,
)
from dirachydro.manufactured import (
    DEFAULT_BASE_PARAMS,
    perturbed_plane_wave_fields,
    seeded_manufactured_fields,
)
from dirachydro.spinors import species_sign


def _gaussian_spec(sigma, axis=1):
    half = 8.0 * sigma
    n = 1601
    origin = [0.0, 0.0, 0.0, 0.0]
    origin[axis] = -half
    return GridSpec(
        active_axes=(axis,),
        shape=(n,),
        spacing=(2.0 * half / (n - 1),),
        origin=tuple(origin),
    )


def test_gaussian_information_closed_form():
    """A normalized width-sigma Gaussian carries I = -1/(4 sigma^2).

    Negative because the profile is static: its gradients are all spatial
    and the contraction is Minkowski-signed.
    """
    for sigma in (1.0, 2.0):
        spec = _gaussian_spec(sigma)
        x = spec.axis_coordinates()[0]
        rho = np.exp(-0.5 * (x / sigma) ** 2) / (sigma * np.sqrt(2.0 * np.pi))
        value = fisher_information(spec, rho)
        np.testing.assert_allclose(value, -1.0 / (4.0 * sigma**2), atol=1e-8)


def test_time_axis_information_is_positive():
    # same profile along t flips the sign of the contraction
    spec = _gaussian_spec(1.0, axis=0)
    t = spec.axis_coordinates()[0]
    rho = np.exp(-0.5 * t**2) / np.sqrt(2.0 * np.pi)
    np.testing.assert_allclose(fisher_information(spec, rho), 0.25, atol=1e-8)


def test_information_contract_checks():
    spec = _gaussian_spec(1.0)
    with pytest.raises(ContractError):
        fisher_information(spec, np.ones(7))
    bad = np.ones(spec.shape)
    bad[800] = 0.0
    with pytest.raises(ContractError):
        fisher_information(spec, bad)


def test_information_tolerates_zero_density_outside_the_interior():
    """rho may vanish on the boundary layer: no division warning, the interior integral."""
    spec = GridSpec(active_axes=(0, 1), shape=(9, 9), spacing=(1.0, 1.0))
    rho = np.ones(spec.shape)
    rho[0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = fisher_information(spec, rho, depth=1)
    # only row 1 sees the zero row: d_t rho = 1/2 there, density 1/16, trapezoid 6 x 1/2
    assert value == 0.1875


def test_a_vacuum_sample_outside_the_interior_divides_as_one():
    """rho = 1e-305 on the boundary layer is vacuum like 0: no overflow, the same integral."""
    spec = GridSpec(active_axes=(0, 1), shape=(9, 9), spacing=(0.01, 0.01))
    values = []
    for value in (0.0, 1e-305):
        rho = np.ones(spec.shape)
        rho[0, 4] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values.append(fisher_information(spec, rho, depth=1))
    assert values[0] == values[1]


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_information_refuses_a_non_finite_rho(value):
    """A NaN or inf on the boundary layer, which the interior gradient reads, is refused."""
    spec = GridSpec(active_axes=(0, 1), shape=(9, 9), spacing=(0.01, 0.01))
    rho = np.ones(spec.shape)
    rho[0, 4] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="finite"):
            fisher_information(spec, rho)


@settings(max_examples=50)
@given(data=st.data(), value=st.sampled_from([0.0, 1e-305]))
def test_every_entry_that_divides_by_rho0_refuses_one_vacuum_point(data, value):
    """One vacuum point, rho = 0 or 1e-305, at any sample of a 1-D to 4-D grid.

    Q and both second-order evaluators refuse it wherever it lies, naming
    the count; the Fisher information and the rho0 derivative refuse it on
    the depth-1 interior, the samples they integrate; the first-order
    residuals never divide by rho0 and stay finite.
    """
    draw = data.draw
    axes = tuple(sorted(draw(st.sets(st.integers(0, 3), min_size=1), label="axes")))
    shape = tuple(draw(st.integers(5, 9), label="samples") for _ in axes)
    point = tuple(draw(st.integers(0, n - 1), label="index") for n in shape)
    spec = GridSpec(active_axes=axes, shape=shape, spacing=(0.05,) * len(axes))
    manufactured = seeded_manufactured_fields(spec, seed=draw(st.integers(0, 2**16)))
    rho = np.array(manufactured.rho, copy=True)
    rho[point] = value
    fields = HydroFieldSet(spec=spec, rho=rho, S=manufactured.S, params=manufactured.params)
    provider = UniformField(E0=np.array([0.0, 0.03, 0.0]), B0=np.array([0.0, 0.0, 0.1]))
    count = f"at 1 of {rho.size} grid points"
    with pytest.raises(ContractError, match=count):
        quantum_potential(spec, fields.rho0)
    for evaluator in (second_order_residuals_bilinear, second_order_residuals_expanded):
        with pytest.raises(ContractError, match=count):
            evaluator(fields, provider)
    if all(0 < i < n - 1 for i, n in zip(point, shape)):
        with pytest.raises(ContractError, match="density floor"):
            fisher_information(spec, fields.rho0)
        with pytest.raises(ContractError, match="density floor"):
            functional_derivative(fields, provider, wrt="rho0")
    first = first_order_residuals(fields, provider)
    assert np.isfinite(first.continuity).all() and np.isfinite(first.hamilton_jacobi).all()


def test_functional_antisymmetry_is_exact():
    """Evaluating the antiparticle functional on the same data negates it, at every depth."""
    spec = GridSpec(active_axes=(0, 1), shape=(17, 17), spacing=(0.02, 0.02))
    provider = UniformField(E0=np.array([0.0, 0.03, 0.0]), B0=np.array([0.0, 0.0, 0.1]))
    fields = seeded_manufactured_fields(spec, seed=2)
    for depth in (0, 1, 2):
        p = action_functional(fields, provider, kind="particle", depth=depth)
        ap = action_functional(fields, provider, kind="antiparticle", depth=depth)
        assert ap.total == -p.total
        assert ap.fisher_term == -p.fisher_term
        assert ap.lagrangian_term == -p.lagrangian_term
        assert p.total == p.fisher_term + p.lagrangian_term
    assert p.volume_element == pytest.approx(0.02 * 0.02)
    with pytest.raises(ContractError):
        action_functional(fields, provider, kind="both")


def test_fisher_term_is_hbar_squared_times_the_information():
    spec = GridSpec(active_axes=(0, 1), shape=(17, 17), spacing=(0.02, 0.02))
    provider = UniformField(E0=np.array([0.0, 0.03, 0.0]), B0=np.array([0.0, 0.0, 0.1]))
    fields = seeded_manufactured_fields(spec, seed=2)
    information = fisher_information(spec, fields.rho0)
    assert action_functional(fields, provider).fisher_term == information
    for hbar in (0.5, 3.0):
        report = action_functional(fields, provider, particle=Particle(hbar=hbar))
        assert report.fisher_term == pytest.approx(hbar**2 * information, rel=1e-15)


def test_report_carries_the_fisher_information_bit_for_bit():
    spec = GridSpec(active_axes=(0, 1), shape=(17, 17), spacing=(0.02, 0.02))
    provider = UniformField(E0=np.array([0.0, 0.03, 0.0]), B0=np.array([0.0, 0.0, 0.1]))
    fields = perturbed_plane_wave_fields(spec, seed=4, amplitude=1e-3, phi=0.0)
    for depth in (0, 1, 2):
        information = fisher_information(spec, fields.rho0, depth=depth)
        for kind, hbar in (("particle", 1.0), ("antiparticle", 0.5)):
            report = action_functional(fields, provider, particle=Particle(hbar=hbar),
                                       kind=kind, depth=depth)
            # the bare integral: no species sign, no hbar squared
            assert report.fisher_information == information


@settings(max_examples=40)
@given(st.data())
def test_antiparticle_functional_negates_particle_functional(data):
    """On random perturbed plane waves the antiparticle action is -1 times the particle's."""
    draw = data.draw
    n = draw(st.integers(9, 17))
    spec = GridSpec(active_axes=(0, 1), shape=(n, n), spacing=(draw(st.floats(0.01, 0.05)),) * 2)
    fields = perturbed_plane_wave_fields(
        spec,
        seed=draw(st.integers(0, 2**31 - 1)),
        amplitude=draw(st.floats(0.0, 1e-3)),
        kind=draw(st.sampled_from(["particle", "antiparticle"])),
        chi=draw(st.floats(0.0, 3.0)),
        # a (t, x) grid resolves only velocities along x
        phi=draw(st.sampled_from([0.0, np.pi])),
        theta=draw(st.floats(0.0, np.pi)),
        eta0=draw(st.floats(0.0, 2.0 * np.pi)),
        rho_value=draw(st.floats(0.1, 10.0)),
    )
    field_strength = st.tuples(*[st.floats(-0.3, 0.3)] * 3)
    provider = UniformField(E0=np.array(draw(field_strength)), B0=np.array(draw(field_strength)))
    depth = draw(st.integers(0, 2))
    p = action_functional(fields, provider, kind="particle", depth=depth)
    ap = action_functional(fields, provider, kind="antiparticle", depth=depth)
    assert ap.fisher_term == -p.fisher_term
    assert ap.lagrangian_term == -p.lagrangian_term
    assert ap.total == -p.total


def _closure_config(n, axes=(0, 1)):
    spec = GridSpec(active_axes=axes, shape=(n,) * len(axes), spacing=(0.02,) * len(axes))
    provider = UniformField(E0=np.array([0.0, 0.03, 0.0]), B0=np.array([0.0, 0.0, 0.1]))
    return spec, provider, perturbed_plane_wave_fields(spec, seed=5, amplitude=1e-3)


def _assert_closure(n, atol, axes=(0, 1)):
    spec, provider, fields = _closure_config(n, axes)
    residuals = second_order_residuals_expanded(fields, provider)
    interior = spec.trusted_mask(depth=3)

    dS = functional_derivative(fields, provider, wrt="S")
    np.testing.assert_allclose(
        dS[interior], (CONTINUITY_FACTOR * residuals.continuity)[interior], atol=atol
    )
    drho = functional_derivative(fields, provider, wrt="rho0")
    np.testing.assert_allclose(
        drho[interior], (QHJ_FACTOR * residuals.qhj)[interior], atol=atol
    )


def test_functional_derivatives_reproduce_residual_grids():
    """Numerical functional derivatives land on the residual fields.

    dA/dS is the continuity residual times the frozen factor -2, dA/drho0
    the quantum Hamilton-Jacobi residual times +1; the residual grids come
    from the independently coded expanded evaluator.
    """
    _assert_closure(13, atol=1e-6)


def test_closure_at_129_squared():
    """Criterion 11's tolerance on a grid the per-sample loop could not afford."""
    _assert_closure(129, atol=1e-4)


def test_closure_on_a_4d_grid():
    """Criterion 11's tolerance on 11^4, where 2d + 1 = 9 colours keep the cost small."""
    _assert_closure(11, atol=1e-4, axes=(0, 1, 2, 3))


def test_functional_derivative_contract_checks():
    spec = GridSpec(active_axes=(0, 1), shape=(9, 9), spacing=(0.02, 0.02))
    provider = UniformField(B0=np.array([0.0, 0.0, 0.1]))
    fields = perturbed_plane_wave_fields(spec, seed=1)
    with pytest.raises(ContractError):
        functional_derivative(fields, provider, wrt="rho")
    # a vanishing rest density on the interior has no Fisher density
    rho = np.array(fields.rho, copy=True)
    rho[4, 4] = 0.0
    empty = HydroFieldSet(spec=spec, rho=rho, S=fields.S, params=fields.params)
    with pytest.raises(ContractError):
        functional_derivative(empty, provider, wrt="rho0")
    # the imaginary step leaves the real part alone, so a thin density is no obstacle
    rho[4, 4] = 1e-9
    thin = HydroFieldSet(spec=spec, rho=rho, S=fields.S, params=fields.params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = functional_derivative(thin, provider, wrt="rho0")
    assert np.all(np.isfinite(d))


@pytest.mark.parametrize("wrt", ["S", "rho0"])
def test_complex_step_derivative_does_not_depend_on_the_step(monkeypatch, wrt):
    """Nothing is subtracted, so steps from 1e-20 to 1e-150 give the same derivative."""
    _, provider, fields = _closure_config(13)
    reference = functional_derivative(fields, provider, wrt=wrt)
    for step in (1e-20, 1e-50, 1e-100, 1e-150):
        monkeypatch.setattr(fisher, "_STEP", step)
        d = functional_derivative(fields, provider, wrt=wrt)
        assert np.any(d != 0.0), step
        # relative to the largest value: each sample sums cross terms of that size
        gap = np.max(np.abs(d - reference)) / np.max(np.abs(reference))
        assert gap <= 1e-14, (step, gap)


@pytest.mark.parametrize("n, axes", [(33, (0, 1)), (129, (0, 1)), (13, (0, 1, 2)),
                                     (11, (0, 1, 2, 3))], ids=["33^2", "129^2", "13^3", "11^4"])
def test_phase_closure_is_exact_to_roundoff(n, axes):
    """dA/dS meets -2 times the continuity residual to roundoff on the depth-3 interior.

    The S integrand is a quadratic form in dS, so its discrete variation is
    the continuity stencil itself and only the step could leave a gap.
    """
    spec, provider, fields = _closure_config(n, axes)
    continuity = second_order_residuals_expanded(fields, provider).continuity
    interior = spec.trusted_mask(depth=3)
    dS = functional_derivative(fields, provider, wrt="S")
    gap = np.max(np.abs((dS - CONTINUITY_FACTOR * continuity)[interior]))
    assert gap <= 1e-12


def _per_sample_reference(fields, provider, wrt, epsilon=1e-6):
    """The O(N^2) definition: perturb one sample, integrate the whole integrand."""
    spec = fields.spec
    field, integrand = fisher._integrand(fields, provider, ELECTRON, wrt)
    eps = epsilon * max(1.0, float(np.max(np.abs(field))))
    norm = (1.0 if fields.kind == "particle" else -1.0) / (2.0 * eps * np.prod(spec.spacing))
    out = np.zeros(spec.shape)
    for index in np.ndindex(*spec.shape):
        saved = field[index]
        field[index] = saved + eps
        plus = spec.integrate(integrand(field), depth=1)
        field[index] = saved - eps
        minus = spec.integrate(integrand(field), depth=1)
        field[index] = saved
        out[index] = norm * (plus - minus)
    return out


_ORACLE_GRIDS = {
    "1d-41-depth1": ((1,), (41,)),
    "2d-13-depth1": ((0, 1), (13, 13)),
    "3d-9-depth1": ((0, 1, 2), (9, 9, 9)),
    # the smallest grid: each colour holds one sample per row and per column, and
    # np.roll wraps the cross of every edge sample onto the opposite edge
    "2d-5-one-point-per-colour": ((0, 1), (5, 5)),
}


@pytest.mark.parametrize("kind", ["particle", "antiparticle"])
@pytest.mark.parametrize("wrt", ["S", "rho0"])
@pytest.mark.parametrize("grid", list(_ORACLE_GRIDS))
def test_coloured_derivative_matches_per_sample_loop(grid, wrt, kind):
    axes, shape = _ORACLE_GRIDS[grid]
    spec = GridSpec(active_axes=axes, shape=shape, spacing=(0.02,) * len(axes))
    provider = UniformField(E0=np.array([0.0, 0.03, 0.0]), B0=np.array([0.0, 0.0, 0.1]))
    fields = perturbed_plane_wave_fields(spec, seed=5, amplitude=1e-3, kind=kind)
    coloured = functional_derivative(fields, provider, wrt=wrt)
    reference = _per_sample_reference(fields, provider, wrt)
    np.testing.assert_allclose(coloured, reference, rtol=0, atol=1e-7)


def _box_coloured_reference(fields, provider, wrt):
    """The derivative coloured with stride 3: 3^d colours, each summed over a box.

    Samples three apart along every axis share no weighted stencil, so each
    colour's weighted imaginary change is summed over the 3^d box around
    each of its samples: one pass of three strided adds per axis.
    """
    spec = fields.spec
    interior = spec.interior(1)
    weights = spec.trapezoid_weights(1)[interior]
    base_field, integrand = fisher._integrand(fields, provider, ELECTRON, wrt)
    field = base_field.astype(np.complex128)
    change = np.zeros(spec.shape)
    out = np.zeros(spec.shape)
    for offsets in np.ndindex(*(3,) * spec.ndim):
        colour = tuple(slice(c, None, 3) for c in offsets)
        field[colour] += 1j * fisher._STEP
        change[interior] = weights * integrand(field)[interior].imag
        field[colour] = base_field[colour]
        box = np.pad(change, 1)
        for axis, (offset, n) in enumerate(zip(offsets, spec.shape)):
            stop = offset + 3 * len(range(offset, n, 3))
            total = 0.0
            for shift in range(3):
                index = [slice(None)] * box.ndim
                index[axis] = slice(offset + shift, stop + shift, 3)
                total = total + box[tuple(index)]
            box = total
        out[colour] = box
    out *= species_sign(fields.kind) / (fisher._STEP * float(np.prod(spec.spacing)))
    return out


@settings(max_examples=40)
@given(data=st.data(), kind=st.sampled_from(["particle", "antiparticle"]),
       provider=st.sampled_from([
           UniformField(E0=np.array([0.0, 0.03, 0.0]), B0=np.array([0.0, 0.0, 0.1])),
           PlaneWaveField(wave_vector=np.array([0.5, 0.5, 0.0, 0.0]),
                          polarization=np.array([0.0, 0.0, 1.0]), amplitude=0.05)]))
def test_star_colouring_is_bitwise_the_box_colouring(data, kind, provider):
    """Both derivatives equal the 3^d box colouring as int64 views on 1-D to 4-D grids.

    The star colouring gathers each change over the cross in the order the
    box sum adds it, and every other box term is an exact zero.
    """
    draw = data.draw
    axes = tuple(sorted(draw(st.sets(st.integers(0, 3), min_size=1), label="axes")))
    top = 6 if len(axes) == 4 else 9
    shape = tuple(draw(st.integers(5, top), label="samples") for _ in axes)
    spec = GridSpec(active_axes=axes, shape=shape, spacing=(0.02,) * len(axes))
    fields = seeded_manufactured_fields(spec, seed=draw(st.integers(0, 2**16), label="seed"),
                                        kind=kind)
    for wrt in ("S", "rho0"):
        coloured = functional_derivative(fields, provider, wrt=wrt)
        reference = _box_coloured_reference(fields, provider, wrt)
        np.testing.assert_array_equal(coloured.view(np.int64), reference.view(np.int64))


# integrand evaluations of one derivative: one complex grid per colour, 2d + 1
_DERIVATIVE_COST = {
    ((1,), 41): 3,
    ((0, 1), 17): 5,
    ((0, 1), 33): 5,
    ((0, 1), 49): 5,
    ((0, 1, 2), 9): 7,
    ((0, 1, 2), 13): 7,
    ((0, 1, 2, 3), 9): 9,
}


def test_derivative_cost_does_not_grow_with_the_grid(monkeypatch):
    """The integrand count is fixed by the colours, not by the sample count."""
    calls = []
    real = fisher._integrand

    def counted(*args):
        field, integrand = real(*args)

        def counting(values):
            calls.append(values.shape)
            return integrand(values)

        return field, counting

    monkeypatch.setattr(fisher, "_integrand", counted)
    for (axes, n), cost in _DERIVATIVE_COST.items():
        _, provider, fields = _closure_config(n, axes)
        for wrt in ("S", "rho0"):
            calls.clear()
            functional_derivative(fields, provider, wrt=wrt)
            assert len(calls) == cost, (axes, n, wrt)


@pytest.mark.parametrize("kind", ["particle", "antiparticle"])
@pytest.mark.parametrize("provider", [
    UniformField(E0=np.array([0.0, 0.03, 0.0]), B0=np.array([0.0, 0.0, 0.1])),
    PlaneWaveField(wave_vector=np.array([0.5, 0.5, 0.0, 0.0]),
                   polarization=np.array([0.0, 0.0, 1.0]), amplitude=0.05),
], ids=["uniform", "plane-wave"])
def test_expanded_residual_is_the_lagrangian_plus_the_quantum_potential(provider, kind):
    """qhj = L + TERM_COEFFS["quantum_potential"] * Q bit for bit."""
    spec = GridSpec(active_axes=(0, 1), shape=(25, 25), spacing=(0.02, 0.02))
    fields = seeded_manufactured_fields(spec, seed=6, kind=kind)
    qhj = second_order_residuals_expanded(fields, provider).qhj
    qp = quantum_potential(spec, fields.rho0)
    expected = (lagrangian_density(fields, provider)
                + TERM_COEFFS["quantum_potential"] * qp)
    np.testing.assert_array_equal(qhj.view(np.int64), expected.view(np.int64))


def test_phase_derivative_builds_only_the_momentum_bracket(monkeypatch):
    """wrt="S" never builds the terms of L; wrt="rho0" builds them once."""
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hydro, "expanded_terms", counted("terms", hydro.expanded_terms))
    monkeypatch.setattr(fisher, "_expanded_lagrangian",
                        counted("lagrangian", fisher._expanded_lagrangian))
    spec = GridSpec(active_axes=(0, 1), shape=(17, 17), spacing=(0.02, 0.02))
    fields = perturbed_plane_wave_fields(spec, seed=2)
    provider = UniformField(E0=np.array([0.01, 0.0, 0.02]), B0=np.array([0.0, 0.0, 0.3]))
    functional_derivative(fields, provider, wrt="S")
    assert calls == []
    functional_derivative(fields, provider, wrt="rho0")
    assert calls == ["lagrangian", "terms"]


def test_pauli_limit_tracks_full_density_at_small_boost():
    """At chi ~ 1e-3 the independent Pauli-limit density agrees to O(chi^2)."""
    spec = GridSpec(active_axes=(0, 1), shape=(17, 17), spacing=(0.01, 0.01))
    provider = UniformField(E0=np.array([0.01, 0.0, 0.02]), B0=np.array([0.0, 0.0, 0.3]))
    base = dict(DEFAULT_BASE_PARAMS, chi=1e-3, theta_u=np.pi / 2, phi=0.0)
    fields = seeded_manufactured_fields(spec, seed=3, base=base)
    full = lagrangian_density(fields, provider)
    limit = pauli_limit_density(fields, provider)
    assert np.max(np.abs(full - limit)) < 1e-5
