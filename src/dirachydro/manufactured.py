"""Reference field configurations for exercising the residual evaluators.

Three families are provided:

* exact plane waves, annihilated by every evaluator up to roundoff and
  stencil noise, for absolute accuracy tests;
* seeded "manufactured" configurations, constants plus small quadratic
  perturbations, which are deliberately not solutions: every term of the
  quantum Hamilton-Jacobi expression is switched on, and independent
  evaluators must agree on the same nonzero residual fields;
* perturbed plane waves, close to a solution, for functional-derivative
  checks where the residuals act as the gradient of the action.

The quadratic perturbations are polynomials in grid-normalized coordinates
xi = (x - center) / half_extent per active axis.  Central differences are
exact on quadratics, so the only stencil error left in a comparison is the
one committed inside non-polynomial compositions (spinor components,
1/gamma and the like), which scales as amplitude^2 h^2.  The default
amplitude keeps that mismatch comfortably below 1e-6 on a 33-point,
h = 0.01 grid while the residuals themselves stay of order 0.1.
"""

from __future__ import annotations

import numpy as np

from .clifford import lower_index
from .errors import ContractError
from .fields import ELECTRON
from .hydro import HydroFieldSet
from .spinors import KinematicParams, four_velocity, species_sign

__all__ = [
    "plane_wave_fields",
    "seeded_manufactured_fields",
    "perturbed_plane_wave_fields",
    "smooth_angle_params",
    "DEFAULT_BASE_PARAMS",
]

# Base point for the seeded families; chosen well inside the validity
# domain (chi > 0, both polar angles away from 0 and pi).
DEFAULT_BASE_PARAMS = {
    "chi": 0.4,
    "theta_u": 1.1,
    "phi": 0.7,
    "theta": 0.5,
    "eta0": 0.3,
}

_PARAM_NAMES = ("chi", "theta_u", "phi", "theta", "eta0")
_FIELD_ORDER = _PARAM_NAMES + ("rho", "S")


def _grid_params(spec, values):
    return KinematicParams(
        **{name: np.full(spec.shape, float(values[name])) for name in _PARAM_NAMES}
    )


def _phase_dot(points, u):
    """u_mu x^mu on the grid points, with u given upper-index."""
    return np.einsum("...m,m->...", points, lower_index(u))


def plane_wave_fields(
    spec,
    chi=0.8,
    theta_u=np.pi / 2,
    phi=0.0,
    theta=0.5,
    eta0=0.3,
    rho_value=1.3,
    kind="particle",
    particle=ELECTRON,
):
    """Exact free plane wave sampled on a grid.

    The defaults point the velocity along +x so a (t, x) grid resolves
    every nonzero phase gradient.  Velocity components along inactive grid
    axes are rejected: the grid cannot represent their phase dependence and
    the configuration would silently stop being a solution.

    Particle phases run as S = -m u.x, antiparticle phases as S = +m u.x.
    """
    scalars = KinematicParams(
        chi=float(chi), theta_u=float(theta_u), phi=float(phi),
        theta=float(theta), eta0=float(eta0),
    )
    u = four_velocity(scalars)
    for axis in range(1, 4):
        if axis not in spec.active_axes and abs(u[axis]) > 1e-12:
            raise ContractError(
                f"plane-wave velocity has u[{axis}] = {u[axis]:.3e} along an "
                "inactive grid axis; choose theta_u/phi in the active plane"
            )
    S = -species_sign(kind) * particle.mass * _phase_dot(spec.points(), u)
    params = _grid_params(spec, {
        "chi": chi, "theta_u": theta_u, "phi": phi, "theta": theta, "eta0": eta0,
    })
    rho = np.full(spec.shape, float(rho_value))
    return HydroFieldSet(spec=spec, rho=rho, S=S, params=params, kind=kind)


def _normalized_coordinates(spec):
    points = spec.points()
    coords = []
    for axis in spec.active_axes:
        n = spec.shape[spec.active_axes.index(axis)]
        h = spec.spacing[spec.active_axes.index(axis)]
        half = 0.5 * (n - 1) * h
        center = spec.origin[axis] + half
        coords.append((points[..., axis] - center) / half)
    return coords


def _seeded_quadratic(rng, coords):
    """c0 + sum c_a xi_a + sum_{a<=b} c_ab xi_a xi_b with N(0,1) draws.

    The draw count depends only on the number of active axes, so the same
    seed reproduces the same continuum field on any refinement of a fixed
    physical extent.
    """
    d = len(coords)
    c0 = rng.normal()
    lin = rng.normal(size=d)
    quad = rng.normal(size=(d * (d + 1)) // 2)
    out = np.full_like(coords[0], c0)
    for a in range(d):
        out += lin[a] * coords[a]
    k = 0
    for a in range(d):
        for b in range(a, d):
            out += quad[k] * coords[a] * coords[b]
            k += 1
    return out


def seeded_manufactured_fields(
    spec,
    seed,
    amplitude=5e-5,
    base=None,
    rho_base=1.0,
    kind="particle",
    particle=ELECTRON,
):
    """Non-solution configuration: base constants plus seeded quadratics.

    Fields are perturbed in the fixed order chi, theta_u, phi, theta, eta0,
    rho, S, one quadratic each, so a seed identifies a configuration
    independently of grid resolution.  The phase baseline is the plane-wave
    phase of the base velocity; the perturbations put gradients into every
    parameter, which makes all closed-form terms of the expanded evaluator
    nonzero at once.
    """
    if base is None:
        base = DEFAULT_BASE_PARAMS
    rng = np.random.default_rng(seed)
    coords = _normalized_coordinates(spec)
    bumps = {name: amplitude * _seeded_quadratic(rng, coords) for name in _FIELD_ORDER}

    params = KinematicParams(
        **{name: float(base[name]) + bumps[name] for name in _PARAM_NAMES}
    )
    u_base = four_velocity(KinematicParams(**{k: float(v) for k, v in base.items()}))
    S = -species_sign(kind) * particle.mass * _phase_dot(spec.points(), u_base) + bumps["S"]
    rho = float(rho_base) + bumps["rho"]
    if np.any(rho <= 0.0):
        raise ContractError("amplitude too large: manufactured rho crossed zero")
    return HydroFieldSet(spec=spec, rho=rho, S=S, params=params, kind=kind)


def perturbed_plane_wave_fields(
    spec,
    seed,
    amplitude=1e-3,
    kind="particle",
    particle=ELECTRON,
    **plane_kwargs,
):
    """Plane wave with small seeded quadratic bumps in rho and S only.

    Near-solution configurations for variational tests: the spinor shape
    stays exact while the density and phase carry independent first-order
    defects, so the residual fields are small but structured.
    """
    fields = plane_wave_fields(spec, kind=kind, particle=particle, **plane_kwargs)
    rng = np.random.default_rng(seed)
    coords = _normalized_coordinates(spec)
    rho = fields.rho * (1.0 + amplitude * _seeded_quadratic(rng, coords))
    S = fields.S + amplitude * _seeded_quadratic(rng, coords)
    if np.any(rho <= 0.0):
        raise ContractError("amplitude too large: perturbed rho crossed zero")
    return HydroFieldSet(spec=spec, rho=rho, S=S, params=fields.params, kind=kind)


def smooth_angle_params(seed, amplitude=0.05, base=None):
    """Analytic spacetime-dependent parameter field for derivative tests.

    Returns a callable mapping an event (..., 4) to KinematicParams whose
    entries are base constants plus single sinusoidal modes with seeded
    wave vectors of magnitude about 0.3.  Everything is smooth and exactly
    differentiable, which makes it suitable for convergence-order studies
    of finite-difference identities.
    """
    if base is None:
        base = DEFAULT_BASE_PARAMS
    rng = np.random.default_rng(seed)
    modes = {}
    for name in _PARAM_NAMES:
        k = rng.normal(scale=0.3, size=4)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        modes[name] = (k, phase)

    def params_of(x):
        x = np.asarray(x, dtype=np.float64)
        values = {}
        for name in _PARAM_NAMES:
            k, phase = modes[name]
            arg = np.einsum("...m,m->...", x, k) + phase
            values[name] = float(base[name]) + amplitude * np.sin(arg)
        return KinematicParams(**values)

    return params_of
