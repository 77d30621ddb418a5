"""Point dynamics: Lorentz force, spin precession, exact orbits, RK4 integrator, fits."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import draw_transverse_unit, draw_unit, measured_order

from dirachydro.dynamics import (
    DynState,
    Trajectory,
    fit_precession_frequency,
    integrate,
    lorentz_force,
    precession_rate,
    state_derivative,
)
from dirachydro.errors import ContractError, FitError, InstabilityError
from dirachydro.fields import (CrossedField, GaugeShiftedProvider, Particle, PlaneWaveField,
                               PolynomialField, ScalarPolynomial, UniformField, tensor_from_EB)

B_UNIT = UniformField(B0=np.array([0.0, 0.0, 1.0]))
REST = DynState(x=np.zeros(4), u=np.array([1.0, 0.0, 0.0, 0.0]),
                s_rest=np.array([1.0, 0.0, 0.0]))
WAVE = PlaneWaveField(wave_vector=np.array([1.0, 0.0, 0.0, 1.0]),
                      polarization=np.array([1.0, 0.0, 0.0]), amplitude=0.8)
# the same F as WAVE, but not a PlaneWaveField: RK4 runs
GAUGED_WAVE = GaugeShiftedProvider(WAVE, ScalarPolynomial(terms=((0.3, (1, 1, 0, 0)),)))
MOVING = DynState(x=np.zeros(4), u=np.array([np.cosh(0.3), 0.0, np.sinh(0.3), 0.0]),
                  s_rest=np.array([0.0, 0.0, 1.0]))


def test_state_validation():
    with pytest.raises(ContractError):
        DynState(x=np.zeros(4), u=np.array([1.0, 0.5, 0.0, 0.0]),
                 s_rest=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ContractError):
        DynState(x=np.zeros(4), u=np.array([1.0, 0.0, 0.0, 0.0]),
                 s_rest=np.array([0.5, 0.0, 0.0]))
    with pytest.raises(ContractError):
        DynState(x=np.full(4, np.nan), u=np.array([1.0, 0.0, 0.0, 0.0]),
                 s_rest=np.array([1.0, 0.0, 0.0]))


def test_lorentz_force_directions():
    """An electron at rest in E along z accelerates toward -z."""
    F = tensor_from_EB(np.array([0.0, 0.0, 0.3]), np.zeros(3))
    du = lorentz_force(np.array([1.0, 0.0, 0.0, 0.0]), F)
    np.testing.assert_allclose(du, [0.0, 0.0, 0.0, -0.3], atol=1e-15)
    # and the four-acceleration stays orthogonal to u in general
    rng = np.random.default_rng(61)
    for _ in range(20):
        beta = rng.normal(size=3)
        beta *= rng.uniform(0.0, 0.9) / np.linalg.norm(beta)
        gamma = 1.0 / np.sqrt(1.0 - beta @ beta)
        u = np.concatenate([[gamma], gamma * beta])
        F = tensor_from_EB(rng.normal(size=3), rng.normal(size=3))
        du = lorentz_force(u, F)
        u_lower = u.copy()
        u_lower[1:] *= -1.0
        assert abs(du @ u_lower) < 1e-12


def test_precession_rate_pure_B():
    """Omega = -(q/m) B is +B for the electron charge."""
    F = tensor_from_EB(np.zeros(3), np.array([0.0, 0.0, 2.0]))
    omega = precession_rate(np.array([1.0, 0.0, 0.0, 0.0]), F)
    np.testing.assert_allclose(omega, [0.0, 0.0, 2.0], atol=1e-15)
    flipped = precession_rate(np.array([1.0, 0.0, 0.0, 0.0]), F, Particle(charge=+1.0))
    np.testing.assert_allclose(flipped, [0.0, 0.0, -2.0], atol=1e-15)


def test_rest_spin_precession_in_B():
    """A resting electron spin precesses about B at |B| in proper time."""
    traj = integrate(REST, B_UNIT, ds=0.01, s_max=2.0 * np.pi)
    # velocity untouched: no electric field and beta = 0
    np.testing.assert_allclose(
        traj.u, np.broadcast_to(REST.u, traj.u.shape), atol=1e-13
    )
    expected = np.stack(
        [np.cos(traj.s), np.sin(traj.s), np.zeros_like(traj.s)], axis=1
    )
    np.testing.assert_allclose(traj.s_rest, expected, atol=5e-9)


class _Sampled:
    """The same samples as the wrapped field, but no constant_field: RK4 runs."""

    def __init__(self, inner):
        self.inner = inner

    def sample(self, x):
        return self.inner.sample(x)


ORACLE_FIELDS = {
    "uniform": UniformField(E0=np.array([0.02, 0.0, 0.01]), B0=np.array([0.0, 0.4, 0.9])),
    "crossed": CrossedField(E0=np.array([0.3, 0.0, 0.0]), B0=np.array([0.0, 0.0, 0.7])),
    # |E| = |B| with E perpendicular to B: the generator M is nilpotent
    "null-crossed": CrossedField(E0=np.array([0.5, 0.0, 0.0]), B0=np.array([0.0, 0.5, 0.0])),
}
BOOSTED = DynState(
    x=np.zeros(4),
    u=np.array([np.cosh(0.5), np.sinh(0.5), 0.0, 0.0]),
    s_rest=np.array([0.0, 0.6, 0.8]),
)


def _rows(traj, stride):
    """Every stride-th row of (x, u, s_rest): the samples at the coarsest step's times."""
    return np.hstack([traj.x, traj.u, traj.s_rest])[::stride]


def _assert_rk4_converges_to(exact_provider, rk4_provider, state, s_max):
    """Step halving: RK4 converges at 4th order, and its limit is the exact orbit.

    Whole orbits are compared at the coarse step's times, not only their ends.
    """
    exact = _rows(integrate(state, exact_provider, ds=0.1, s_max=s_max), 1)
    orbits = [_rows(integrate(state, rk4_provider, ds=0.1 / stride, s_max=s_max), stride)
              for stride in (1, 2, 4)]
    assert measured_order(*orbits) == pytest.approx(4.0, abs=0.3)
    errors = [np.max(np.abs(orbit - exact)) for orbit in orbits]
    for coarse, fine in zip(errors, errors[1:]):
        assert np.log2(coarse / fine) == pytest.approx(4.0, abs=0.3)


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_rk4_converges_at_fourth_order_to_exact_propagator(name):
    provider = ORACLE_FIELDS[name]
    _assert_rk4_converges_to(provider, _Sampled(provider), BOOSTED, 4.0)


# phase k.x0 = 1.2 in WAVE, so both the sine and the cosine of it enter the orbit
OFF_AXIS = DynState(x=np.array([0.7, 0.1, -0.4, -0.5]), u=MOVING.u, s_rest=BOOSTED.s_rest)


def test_rk4_converges_at_fourth_order_to_closed_form_plane_wave():
    _assert_rk4_converges_to(WAVE, GAUGED_WAVE, OFF_AXIS, 6.0)


@pytest.mark.parametrize("omega", [1e-7, 0.0])
def test_long_wave_closed_form_matches_fine_rk4(omega):
    """k.u s stays tiny here, where the closed form takes its Taylor branch.

    With k.x of order 1e-7 too, F is about A |k| k.x, so A = 8e12 makes it
    about 0.1, and every term of the integrals of a and a^2 counts.
    """
    wave = PlaneWaveField(wave_vector=omega * np.array([1.0, 0.0, 0.0, 1.0]),
                          polarization=np.array([1.0, 0.0, 0.0]), amplitude=8e12)
    exact = integrate(OFF_AXIS, wave, ds=0.05, n_steps=100)
    fine = integrate(OFF_AXIS, GaugeShiftedProvider(wave, ScalarPolynomial()), ds=0.05 / 8,
                     n_steps=800)
    np.testing.assert_allclose(exact.x, fine.x[::8], rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(exact.u, fine.u[::8], rtol=0.0, atol=1e-11)
    np.testing.assert_allclose(exact.s_rest, fine.s_rest[::8], rtol=0.0, atol=1e-11)
    if omega:
        assert np.ptp(exact.u[:, 1]) > 0.1  # the wave does push the particle


def test_null_crossed_orbit_is_a_polynomial():
    """M^3 = 0 in a null crossed field, so exp(M s) is a quadratic in s."""
    provider = ORACLE_FIELDS["null-crossed"]
    _, F = provider.sample(np.zeros(4))
    M = -F @ np.diag([1.0, -1.0, -1.0, -1.0])  # (q/m) F g for the electron
    assert np.max(np.abs(M @ M)) > 0.1
    np.testing.assert_array_equal(M @ M @ M, 0.0)

    traj = integrate(BOOSTED, provider, ds=0.01, n_steps=600)
    s = traj.s[:, np.newaxis]
    Mu, MMu = M @ BOOSTED.u, M @ M @ BOOSTED.u
    np.testing.assert_allclose(
        traj.u, BOOSTED.u + s * Mu + s**2 / 2 * MMu, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(
        traj.x, s * BOOSTED.u + s**2 / 2 * Mu + s**3 / 6 * MMu, rtol=1e-13, atol=1e-13)
    assert traj.gamma[-1] > 4.0 * traj.gamma[0]  # the orbit is far from rest


def test_one_step_matches_textbook_rk4():
    """One step in a gauge-shifted plane wave equals RK4 assembled from state_derivative."""
    ds = 0.05
    y = [MOVING.x, MOVING.u, MOVING.s_rest]

    def rhs(x, u, s_rest):
        # stages are off the mass shell, so they cannot be DynStates
        return state_derivative(SimpleNamespace(x=x, u=u, s_rest=s_rest), GAUGED_WAVE)

    def advance(scale, k):
        return [a + scale * b for a, b in zip(y, k)]

    k1 = rhs(*y)
    k2 = rhs(*advance(0.5 * ds, k1))
    k3 = rhs(*advance(0.5 * ds, k2))
    k4 = rhs(*advance(ds, k3))
    expected = [a + (ds / 6.0) * (b + 2.0 * c + 2.0 * d + e)
                for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
    traj = integrate(MOVING, GAUGED_WAVE, ds=ds, n_steps=1)
    for got, want in zip((traj.x[1], traj.u[1], traj.s_rest[1]), expected):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


def test_plane_wave_orbit_converges_at_fourth_order():
    """RK4 in the gauge-shifted wave, step halving against a fine-step run: the ratio is 2^4."""

    def final(ds):
        traj = integrate(MOVING, GAUGED_WAVE, ds=ds, s_max=6.0)
        return np.concatenate([traj.x[-1], traj.u[-1], traj.s_rest[-1]])

    reference = final(0.1 / 32)
    errors = [np.max(np.abs(final(ds) - reference)) for ds in (0.1, 0.05, 0.025)]
    for coarse, fine in zip(errors, errors[1:]):
        assert np.log2(coarse / fine) == pytest.approx(4.0, abs=0.3)


def test_plane_wave_conserves_k_dot_u():
    """k.u is a linear invariant of motion in a plane wave, kept to roundoff."""
    traj = integrate(MOVING, WAVE, ds=0.01, n_steps=3000)
    k_lower = WAVE.wave_vector * np.array([1.0, -1.0, -1.0, -1.0])
    k_dot_u = traj.u @ k_lower
    assert np.max(np.abs(k_dot_u - k_dot_u[0])) < 1e-9
    assert np.ptp(traj.u[:, 1]) > 1e-3  # the wave does push the particle


@pytest.mark.parametrize("constant", [False, True])
def test_non_finite_field_sample_is_rejected(constant):
    class Broken:
        constant_field = constant

        def sample(self, x):
            return np.zeros(4), np.full((4, 4), np.nan)

    with pytest.raises(ContractError, match="not finite"):
        integrate(REST, Broken(), ds=0.01, n_steps=5)


def test_energy_conserved_in_pure_B():
    state = DynState(
        x=np.zeros(4),
        u=np.array([np.cosh(0.8), np.sinh(0.8), 0.0, 0.0]),
        s_rest=np.array([0.0, 0.0, 1.0]),
    )
    traj = integrate(state, B_UNIT, ds=1e-3, s_max=20.0)
    np.testing.assert_allclose(traj.gamma, np.cosh(0.8), atol=1e-12)
    assert traj.mass_shell_error() < 1e-12


def test_integrate_argument_contract():
    with pytest.raises(ContractError):
        integrate(REST, B_UNIT, ds=0.01)
    with pytest.raises(ContractError):
        integrate(REST, B_UNIT, ds=0.01, s_max=1.0, n_steps=10)
    with pytest.raises(ContractError):
        integrate(REST, B_UNIT, ds=-0.01, s_max=1.0)


def test_instability_reports_step_index():
    violent = UniformField(E0=np.array([1e6, 0.0, 0.0]))
    with pytest.raises(InstabilityError) as info:
        integrate(REST, violent, ds=10.0, n_steps=50)
    assert info.value.step_index >= 1


def test_rk4_blow_up_raises_at_its_step():
    """A^0 = 50 x^2 pulls a resting electron outward ever harder; RK4 blows up at step 23."""
    well = PolynomialField(terms={0: [(50.0, (0, 2, 0, 0))]})
    start = DynState(x=np.array([0.0, 0.1, 0.0, 0.0]), u=np.array([1.0, 0.0, 0.0, 0.0]),
                     s_rest=np.array([0.0, 0.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstabilityError) as info:
            integrate(start, well, ds=0.01, n_steps=2000)
    assert info.value.step_index == 23


def test_trajectory_views_and_state():
    traj = integrate(REST, B_UNIT, ds=0.1, n_steps=20)
    assert len(traj) == 21
    np.testing.assert_allclose(traj.beta, 0.0, atol=1e-15)
    # every row is a valid state: on the mass shell, with a unit spin
    assert traj.s[7] == pytest.approx(0.7)
    state = DynState(x=traj.x[7], u=traj.u[7], s_rest=traj.s_rest[7])
    np.testing.assert_allclose(state.s_rest, traj.s_rest[7], atol=1e-15)


def test_fit_recovers_synthetic_rotation():
    s = np.linspace(0.0, 30.0, 400)
    omega = 0.73
    vectors = np.stack(
        [np.cos(omega * s), np.sin(omega * s), np.zeros_like(s)], axis=1
    )
    fit = fit_precession_frequency(s, vectors)
    assert fit.omega == pytest.approx(omega, abs=1e-12)
    np.testing.assert_allclose(fit.axis, [0.0, 0.0, 1.0], atol=1e-12)
    assert fit.rms_residual < 1e-12
    assert fit.total_angle == pytest.approx(omega * 30.0, abs=1e-9)
    # a given axis fixes the sign convention by the right-hand rule
    flipped = fit_precession_frequency(s, vectors, axis=np.array([0.0, 0.0, -1.0]))
    assert flipped.omega == pytest.approx(-omega, abs=1e-12)


def test_fit_failure_modes():
    s = np.linspace(0.0, 1.0, 5)
    vectors = np.tile(np.array([1.0, 0.0, 0.0]), (5, 1))
    with pytest.raises(FitError):
        fit_precession_frequency(s, vectors)  # too few samples
    s = np.linspace(0.0, 1.0, 50)
    vectors = np.tile(np.array([1.0, 0.0, 0.0]), (50, 1))
    with pytest.raises(FitError):
        fit_precession_frequency(s, vectors)  # no rotation at all
    omega = 0.5
    short = np.stack([np.cos(omega * s), np.sin(omega * s), np.zeros_like(s)], axis=1)
    with pytest.raises(FitError):
        fit_precession_frequency(s, short)  # covers half a radian, not a period


@pytest.mark.parametrize("axis", [(0.0, 0.0, 0.0), (np.inf, 0.0, 0.0), (np.nan, 0.0, 1.0)],
                         ids=["zero", "infinite", "nan"])
def test_fit_refuses_a_zero_or_non_finite_axis(axis):
    s = np.linspace(0.0, 30.0, 400)
    vectors = np.stack([np.cos(s), np.sin(s), np.zeros_like(s)], axis=1)
    with pytest.raises(ContractError, match="axis must be finite and nonzero"):
        fit_precession_frequency(s, vectors, axis=np.array(axis))


def test_state_derivative_composition():
    provider = UniformField(E0=np.array([0.1, 0.0, 0.0]), B0=np.array([0.0, 0.0, 0.5]))
    dx, du, dspin = state_derivative(REST, provider)
    np.testing.assert_array_equal(dx, REST.u)
    _, F = provider.sample(REST.x)
    np.testing.assert_array_equal(du, lorentz_force(REST.u, F))
    np.testing.assert_array_equal(
        dspin, np.cross(precession_rate(REST.u, F), REST.s_rest)
    )


@settings(max_examples=40)
@given(st.data())
def test_exact_orbit_invariants(data):
    """Random uniform B and E, beta <= 0.6 and spin: invariants of the exact path."""
    draw = data.draw
    B0 = draw(st.floats(0.1, 2.0)) * draw_unit(draw)
    E0 = draw(st.floats(0.0, 0.5)) * draw_unit(draw)
    beta = draw(st.floats(0.05, 0.6)) * draw_unit(draw)
    gamma = 1.0 / np.sqrt(1.0 - beta @ beta)
    state = DynState(x=np.zeros(4), u=gamma * np.concatenate([[1.0], beta]),
                     s_rest=draw_unit(draw))

    # nothing renormalises the spin here, so |s_rest| = 1 is the propagator's
    traj = integrate(state, UniformField(E0=E0, B0=B0), ds=0.01, n_steps=300)
    assert traj.mass_shell_error() < 1e-12
    assert np.max(np.abs(np.linalg.norm(traj.s_rest, axis=1) - 1.0)) < 1e-12

    # g = 2 in pure B: spin and velocity turn together
    traj = integrate(state, UniformField(B0=B0), ds=0.01, n_steps=300)
    beta_hat = traj.beta / np.linalg.norm(traj.beta, axis=1, keepdims=True)
    angle = np.arctan2(np.linalg.norm(np.cross(traj.s_rest, beta_hat), axis=1),
                       np.einsum("ni,ni->n", traj.s_rest, beta_hat))
    assert np.max(np.abs(angle - angle[0])) < 1e-9

    violent = UniformField(E0=draw(st.floats(1e3, 1e8)) * draw_unit(draw), B0=B0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstabilityError) as info:
            integrate(state, violent, ds=10.0, n_steps=50)
    assert info.value.step_index >= 1


@settings(max_examples=40)
@given(st.data())
def test_plane_wave_closed_form_invariants(data):
    """Random waves (k = 0 and |k| <= 1e-7 included), beta <= 0.6, spin and kind."""
    draw = data.draw
    omega = draw(st.one_of(st.just(0.0), st.floats(1e-12, 1e-7), st.floats(0.1, 3.0)))
    n = draw_unit(draw)
    k = omega * np.concatenate([[1.0], n])
    wave = PlaneWaveField(wave_vector=k, polarization=draw_transverse_unit(draw, n),
                          amplitude=draw(st.floats(-1.0, 1.0)))
    beta = draw(st.floats(0.0, 0.6)) * draw_unit(draw)
    gamma = 1.0 / np.sqrt(1.0 - beta @ beta)
    state = DynState(x=np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4))),
                     u=gamma * np.concatenate([[1.0], beta]), s_rest=draw_unit(draw))
    particle = Particle(charge=draw(st.sampled_from([-1.0, 1.0])))

    traj = integrate(state, wave, ds=draw(st.floats(0.01, 0.1)), n_steps=300, particle=particle)
    np.testing.assert_array_equal(np.concatenate([traj.x[0], traj.u[0], traj.s_rest[0]]),
                                  np.concatenate([state.x, state.u, state.s_rest]))
    assert traj.mass_shell_error() < 1e-12
    assert np.max(np.abs(np.linalg.norm(traj.s_rest, axis=1) - 1.0)) < 1e-12
    k_lower = k * np.array([1.0, -1.0, -1.0, -1.0])
    kappa = k_lower @ state.u
    assert np.max(np.abs(traj.u @ k_lower - kappa)) < 1e-12
    # the phase advances linearly in proper time
    scale = 1.0 + np.max(np.abs(k)) * np.max(np.abs(traj.x))
    phase = traj.x @ k_lower
    assert np.max(np.abs(phase - (k_lower @ state.x + kappa * traj.s))) < 1e-12 * scale


def test_zero_wave_vector_is_free_motion():
    wave = PlaneWaveField(wave_vector=np.zeros(4), polarization=np.array([0.0, 1.0, 0.0]),
                          amplitude=1e8)
    state = DynState(x=np.array([0.5, -1.0, 2.0, 0.25]), u=BOOSTED.u, s_rest=BOOSTED.s_rest)
    traj = integrate(state, wave, ds=0.7, n_steps=400)
    np.testing.assert_array_equal(traj.x, state.x + traj.s[:, np.newaxis] * state.u)
    np.testing.assert_array_equal(traj.u, np.broadcast_to(state.u, traj.u.shape))
    # the rest spin only makes the round trip to the lab frame and back
    np.testing.assert_allclose(traj.s_rest, np.broadcast_to(state.s_rest, traj.s_rest.shape),
                               rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("amplitude", [1e8, 1e300])
def test_overflowing_plane_wave_raises_at_the_first_bad_row(amplitude):
    """From rest in k = (1, 0, 0, 1): u^0 = 1 + a^2 / 2 with a = A (1 - cos s)."""
    wave = PlaneWaveField(amplitude=amplitude)
    ds = 0.01
    s = ds * np.arange(200)
    # u^0 >= 1e12 written without squaring a, which overflows at 1e300
    first_bad = int(np.argmax(amplitude * (1.0 - np.cos(s)) >= np.sqrt(2.0 * (1e12 - 1.0))))
    assert first_bad >= 1
    with pytest.raises(InstabilityError) as info:
        integrate(REST, wave, ds=ds, n_steps=199)
    assert info.value.step_index == first_bad
    if first_bad > 1:
        integrate(REST, wave, ds=ds, n_steps=first_bad - 1)
