"""Unit Dirac spinors parametrized by boost rapidity and spin orientation.

A state is fixed by five real parameters: rapidity chi >= 0 of the boost,
polar angle theta_u of the velocity, shared azimuth phi of velocity and spin,
polar angle theta of the rest-frame spin, and a global phase eta0. The
derived angle kappa = 2 theta_u - theta shows up in the lower (particle) or
upper (antiparticle) two-spinor block.

All factory functions accept scalar or array-valued parameters and broadcast,
returning spinor components along the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import clifford
from .errors import ContractError, DegenerateSpinorError

__all__ = [
    "species_sign",
    "KinematicParams",
    "make_particle_spinor",
    "make_antiparticle_spinor",
    "particle_spinor_u_form",
    "recover_velocity",
    "sigma_component_table",
    "four_velocity",
    "rest_spin",
]

_KINDS = ("particle", "antiparticle")
_ANGLE_TOL = 1e-9
# arccosh of the largest float64: cosh(chi) overflows from here up
_CHI_OVERFLOW = float(np.arccosh(np.finfo(np.float64).max))


def species_sign(kind):
    """+1.0 for "particle", -1.0 for "antiparticle"; any other kind is refused."""
    if kind not in _KINDS:
        raise ContractError(f"kind must be one of {_KINDS}, got {kind!r}")
    return 1.0 if kind == "particle" else -1.0


@dataclass(frozen=True)
class KinematicParams:
    """Rapidity and orientation angles of a single-particle state.

    chi is nonnegative and below arccosh of the largest float64 (about
    710.48), theta_u and theta live in [0, pi].
    phi and eta0 are unrestricted so fields built from these parameters can
    track azimuths continuously instead of mod 2 pi.
    """

    chi: np.ndarray = 0.0
    theta_u: np.ndarray = 0.0
    phi: np.ndarray = 0.0
    theta: np.ndarray = 0.0
    eta0: np.ndarray = 0.0

    def __post_init__(self):
        for name in _PARAM_NAMES:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if np.any(self.chi < -_ANGLE_TOL):
            raise ContractError("chi must be nonnegative")
        if np.any(self.chi >= _CHI_OVERFLOW):
            raise ContractError(
                f"chi must be below {_CHI_OVERFLOW:.2f}, where cosh(chi) overflows"
            )
        for name in ("theta_u", "theta"):
            value = getattr(self, name)
            if np.any(value < -_ANGLE_TOL) or np.any(value > np.pi + _ANGLE_TOL):
                raise ContractError(f"{name} must lie in [0, pi]")

    @property
    def kappa(self):
        return 2.0 * self.theta_u - self.theta

    @property
    def gamma(self):
        return np.cosh(self.chi)

    @property
    def u_perp(self):
        return np.sin(self.theta_u) * np.sinh(self.chi)


# The names of the five shape parameters, in field order; seeded draws of
# the parameter fields follow this order.
_PARAM_NAMES = tuple(field.name for field in fields(KinematicParams))


def four_velocity(params):
    """Contravariant u^mu = (cosh chi, n_u sinh chi) with the shared azimuth."""
    sh = np.sinh(params.chi)
    return np.stack(
        [
            np.cosh(params.chi),
            np.cos(params.phi) * np.sin(params.theta_u) * sh,
            np.sin(params.phi) * np.sin(params.theta_u) * sh,
            np.cos(params.theta_u) * sh,
        ],
        axis=-1,
    )


def rest_spin(params):
    """Unit rest-frame spin direction (sin theta cos phi, sin theta sin phi, cos theta)."""
    st = np.sin(params.theta)
    return np.stack(
        [st * np.cos(params.phi), st * np.sin(params.phi), np.cos(params.theta)],
        axis=-1,
    )


def _phase_over_sqrt_gamma(params):
    return np.exp(1j * params.eta0) / np.sqrt(np.cosh(params.chi))


def make_particle_spinor(params):
    """Positive-energy unit spinor in the half-angle hyperbolic form."""
    ch = np.cosh(params.chi / 2.0)
    sh = np.sinh(params.chi / 2.0)
    eip = np.exp(1j * params.phi)
    pref = _phase_over_sqrt_gamma(params)
    return np.stack(
        [
            pref * np.cos(params.theta / 2.0) * ch,
            pref * np.sin(params.theta / 2.0) * eip * ch,
            pref * np.cos(params.kappa / 2.0) * sh,
            pref * np.sin(params.kappa / 2.0) * eip * sh,
        ],
        axis=-1,
    )


def make_antiparticle_spinor(params):
    """Negative-energy unit spinor: the particle form with the 2-blocks swapped."""
    e = make_particle_spinor(params)
    return np.concatenate([e[..., 2:4], e[..., 0:2]], axis=-1)


def particle_spinor_u_form(params):
    """Same state written with explicit velocity components.

    Algebraically identical to make_particle_spinor; kept as an independent
    construction so the two printed forms can be cross-checked numerically.
    """
    gamma = np.cosh(params.chi)
    u = four_velocity(params)
    u3 = u[..., 3]
    uperp = params.u_perp
    eip = np.exp(1j * params.phi)
    pref = np.sqrt((gamma + 1.0) / (2.0 * gamma)) * np.exp(1j * params.eta0)
    ca = np.cos(params.theta / 2.0)
    sa = np.sin(params.theta / 2.0)
    gp1 = gamma + 1.0
    return np.stack(
        [
            pref * ca,
            pref * sa * eip,
            pref * (ca * u3 + sa * uperp) / gp1,
            pref * eip * (ca * uperp - sa * u3) / gp1,
        ],
        axis=-1,
    )


def recover_velocity(e):
    """Four-velocity u^mu = Gamma^mu / (e-bar e) of a particle spinor (field).

    This is the guiding relation of the particle form. Raises
    DegenerateSpinorError when |e-bar e| < 1e-12.
    """
    b = clifford.bilinears(e)
    scalar = np.asarray(b.scalar)
    if np.any(np.abs(scalar) < 1e-12):
        raise DegenerateSpinorError("e-bar e vanishes; direction is lightlike")
    return b.vector / scalar[..., np.newaxis]


def _sigma_components(params):
    """The six closed-form components Sigma^{mu nu}, mu < nu, keyed by (mu, nu).

    The azimuthal ratios u^1/u_perp and u^2/u_perp are written as cos phi
    and sin phi, so the components stay finite on the axis u_perp -> 0
    where those ratios would otherwise be 0/0.
    """
    gamma = np.cosh(params.chi)
    sh = np.sinh(params.chi)
    u3 = np.cos(params.theta_u) * sh
    uperp = np.sin(params.theta_u) * sh
    cphi = np.cos(params.phi)
    sphi = np.sin(params.phi)
    ct = np.cos(params.theta)
    st = np.sin(params.theta)
    gp1 = gamma + 1.0

    boost_plane = uperp * ct - u3 * st
    tilt = ct * u3 * uperp / gp1 - st * (1.0 + u3**2 / gp1)
    return {
        (0, 1): sphi * boost_plane,
        (0, 2): -cphi * boost_plane,
        (0, 3): np.zeros_like(gamma),
        (1, 2): -(ct * (1.0 + uperp**2 / gp1) - st * u3 * uperp / gp1),
        (1, 3): -sphi * tilt,
        (2, 3): cphi * tilt,
    }


def sigma_component_table(params):
    """Closed-form spin tensor components for the particle parametrization.

    Returns the full antisymmetric 4x4 array Sigma^{mu nu}, assembled from
    the six components above the diagonal.
    """
    components = _sigma_components(params)
    shape = np.broadcast(*components.values()).shape
    table = np.zeros(shape + (4, 4))
    for (m, n), value in components.items():
        table[..., m, n] = value
        table[..., n, m] = -value
    return table
