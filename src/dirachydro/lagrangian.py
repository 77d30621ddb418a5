"""First-order Lagrangians for the electron and positron point pictures.

The particle Lagrangian splits into a mass term, a minimal-coupling term,
a global-phase rate, a spin-azimuth rate weighted by the 12-component of
the polarization tensor, and a rest-spin vorticity coupling. The
antiparticle Lagrangian keeps the mass term and flips every other sign, so
the two always sum to -2m. Everything beyond the mass and coupling terms
is linear in hbar; tests exercise that scaling directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import lower_both, minkowski_dot, sigma_from_u_s
from .fields import ELECTRON, ZERO_FIELD
from .kinematics import (
    acceleration_tensor,
    beta_from_u,
    spin_to_lab,
    vorticity_to_rest,
)
from .spinors import four_velocity, rest_spin, sigma_component_table, species_sign

__all__ = [
    "LagrangianBreakdown",
    "sigma12_of",
    "lagrangian_terms",
    "alternative_spin_terms",
    "spin_azimuth_rate",
    "identity_residuals",
]


@dataclass(frozen=True)
class LagrangianBreakdown:
    """Term-by-term values; fields broadcast together, total is their sum."""

    mass: np.ndarray
    coupling: np.ndarray
    phase: np.ndarray
    sigma12: np.ndarray
    spin_vorticity: np.ndarray

    @property
    def total(self):
        return self.mass + self.coupling + self.phase + self.sigma12 + self.spin_vorticity


def sigma12_of(u, s_rest):
    """12-component of the polarization tensor for a state (u, s_rest)."""
    u = np.asarray(u, dtype=np.float64)
    s_lab = spin_to_lab(s_rest, beta_from_u(u))
    return sigma_from_u_s(u, s_lab)[..., 1, 2]


def lagrangian_terms(
    x,
    u,
    s_rest,
    phi_rate,
    eta_rate,
    omega_prime,
    provider=ZERO_FIELD,
    particle=ELECTRON,
    kind="particle",
):
    """Evaluate the first-order Lagrangian split at given state and rates.

    phi_rate and eta_rate are proper-time derivatives of the spin azimuth
    and of the global phase; omega_prime is the rest-frame vorticity felt
    by the spin. kind selects the particle or antiparticle sign pattern.
    """
    sign = species_sign(kind)
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    s_rest = np.asarray(s_rest, dtype=np.float64)
    phi_rate = np.asarray(phi_rate, dtype=np.float64)
    eta_rate = np.asarray(eta_rate, dtype=np.float64)
    omega_prime = np.asarray(omega_prime, dtype=np.float64)

    A, _ = provider.sample(x)
    hbar = particle.hbar

    coupling = -particle.charge * minkowski_dot(A, u)
    phase = -hbar * eta_rate
    sigma12 = -0.5 * hbar * sigma12_of(u, s_rest) * phi_rate
    spin_vorticity = -0.5 * hbar * np.einsum("...i,...i->...", omega_prime, s_rest)
    shape = np.broadcast(coupling, phase, sigma12, spin_vorticity).shape
    return LagrangianBreakdown(
        mass=np.broadcast_to(np.float64(-particle.mass), shape).copy(),
        coupling=sign * coupling,
        phase=sign * phase,
        sigma12=sign * sigma12,
        spin_vorticity=sign * spin_vorticity,
    )


def alternative_spin_terms(u, s_rest, phi_rate, omega_prime, bh_rate, particle=ELECTRON):
    """Spin part of the particle Lagrangian in its second, equivalent form.

    (hbar/2) cos(theta) phi_rate - (hbar/2) [omega' - (gamma-1) beta_hat x
    d(beta_hat)/ds] . s', where theta is the rest-spin polar angle. Along
    any motion the difference from the primary form's spin part vanishes.
    """
    u = np.asarray(u, dtype=np.float64)
    s_rest = np.asarray(s_rest, dtype=np.float64)
    gamma = u[..., 0]
    beta = beta_from_u(u)
    beta_norm = np.linalg.norm(beta, axis=-1)
    beta_hat = np.where(
        beta_norm[..., np.newaxis] > 1e-300, beta / np.maximum(beta_norm, 1e-300)[..., np.newaxis], 0.0
    )
    cos_theta = s_rest[..., 2] / np.linalg.norm(s_rest, axis=-1)
    thomas = (gamma - 1.0)[..., np.newaxis] * np.cross(beta_hat, bh_rate)
    hbar = particle.hbar
    return 0.5 * hbar * cos_theta * phi_rate - 0.5 * hbar * np.einsum(
        "...i,...i->...", omega_prime - thomas, s_rest
    )


def _azimuth_rate(s, vectors, floor=1e-9):
    perp = np.hypot(vectors[:, 0], vectors[:, 1])
    if np.min(perp) <= floor:
        return None
    phi = np.unwrap(np.arctan2(vectors[:, 1], vectors[:, 0]))
    return np.gradient(phi, s, edge_order=2)


def spin_azimuth_rate(s, s_rest, u=None):
    """Proper-time rate of the shared azimuth angle along a trajectory.

    Uses the rest-spin azimuth when the spin stays away from the poles,
    else the velocity azimuth (the two coincide in the spinor
    parametrization); zero when both are undefined.
    """
    s = np.asarray(s, dtype=np.float64)
    s_rest = np.asarray(s_rest, dtype=np.float64)
    rate = _azimuth_rate(s, s_rest)
    if rate is None and u is not None:
        rate = _azimuth_rate(s, np.asarray(u, dtype=np.float64)[:, 1:4])
    if rate is None:
        rate = np.zeros(s.shape[0])
    return rate


def identity_residuals(params_of, x, h=1e-3):
    """Residuals of the two spin-transport identities at a point.

    For a smooth field of spinor parameters, u_mu d_tau Sigma^{tau mu},
    -(1/2) Sigma^{mu tau} Omega_{mu tau} and -omega' . s' are equal. Both
    derivative quantities are formed with central differences of step h, so
    each residual shrinks at second order. Returns a dict with the three
    values and the two pairwise residuals.
    """
    x = np.asarray(x, dtype=np.float64).reshape(4)

    def u_field(points):
        return four_velocity(params_of(points))

    params0 = params_of(x)
    u0 = u_field(x)
    s_prime = rest_spin(params0)
    beta = beta_from_u(u0)

    div = np.zeros(4)
    for alpha in range(4):
        step = np.zeros(4)
        step[alpha] = h
        sig_plus = sigma_component_table(params_of(x + step))
        sig_minus = sigma_component_table(params_of(x - step))
        div += (sig_plus[alpha] - sig_minus[alpha]) / (2.0 * h)

    lhs = float(minkowski_dot(u0, div))

    accel = acceleration_tensor(u_field, x, h=h)
    omega_lower = lower_both(accel.omega)
    sigma0 = sigma_component_table(params0)
    contraction = -0.5 * float(np.einsum("mt,mt->", sigma0, omega_lower))

    omega_prime = vorticity_to_rest(accel.vorticity, accel.accel, beta)
    rhs = -float(np.dot(omega_prime, s_prime))

    return {
        "divergence": lhs,
        "contraction": contraction,
        "vorticity": rhs,
        "divergence_vs_contraction": abs(lhs - contraction),
        "divergence_vs_vorticity": abs(lhs - rhs),
    }
