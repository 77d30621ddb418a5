"""Residual evaluators for the hydrodynamic form of the Dirac equation.

A solution is carried as three grid fields: the density ``rho`` (the
probability density, positive), the phase action ``S``, and the pointwise
spinor-shape parameters.  The wave function is reconstructed as

    psi = sqrt(rho) * exp(i S / hbar) * e(params)

with ``e`` the unit-norm spinor from :mod:`dirachydro.spinors`.  Three
independent evaluators measure how far such a configuration is from solving
the field equations:

* :func:`first_order_residuals` checks the continuity law for the Dirac
  current together with the phase-transport equation that generalises the
  classical Hamilton-Jacobi relation.
* :func:`second_order_residuals_bilinear` evaluates the quantum
  Hamilton-Jacobi relation obtained from the squared Dirac operator, with
  every spinor-dependent piece computed from bilinears of the numerically
  differentiated spinor field.
* :func:`second_order_residuals_expanded` evaluates the same relation with
  the spinor-gradient pieces replaced by closed-form expressions in the
  shape parameters.  The coefficients of those closed-form terms are frozen
  module constants; ``demos/calibrate_expanded_coefficients.py`` measures
  them against the bilinear evaluator and records the result.

:func:`squared_dirac_residual` applies the squared operator directly to the
reconstructed ``psi`` and serves as the oracle the formula evaluators are
tested against.

The first-order and bilinear evaluators share the spinor data cached on the
field set; their formulas stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clifford import (GAMMA, _GAMMA_PAIR, _adjoint, bilinears, lower_both, lower_index,
                       minkowski_dot, raise_index)
from .errors import ContractError
from .fields import ELECTRON, electric_field, magnetic_field, rest_frame_B
from .grids import GridSpec
from .spinors import (
    KinematicParams,
    four_velocity,
    make_antiparticle_spinor,
    make_particle_spinor,
    rest_spin,
    sigma_component_table,
    species_sign,
)

__all__ = [
    "HydroFieldSet",
    "FirstOrderResiduals",
    "SecondOrderResiduals",
    "first_order_residuals",
    "quantum_potential",
    "second_order_residuals_bilinear",
    "second_order_residuals_expanded",
    "squared_dirac_residual",
    "THETA_TERM_COEFF",
    "KAPPA_TERM_COEFF",
    "CHI_TERM_COEFF",
    "PHI_TERM_COEFF",
    "QP_TERM_COEFF",
    "BPRIME_TERM_COEFF",
    "DENSITY_FLOOR",
]

# Frozen coefficients of the expanded quantum Hamilton-Jacobi relation.
# Each multiplies the bracketed structure named next to it; the calibration
# script fits these against the bilinear evaluator and must reproduce them.
THETA_TERM_COEFF = 0.25     # x hbar^2 (gamma + 1)/2 (d theta)^2
KAPPA_TERM_COEFF = -0.25    # x hbar^2 (gamma - 1)/2 (d kappa)^2
CHI_TERM_COEFF = -0.25      # x hbar^2 (d chi)^2
PHI_TERM_COEFF = 0.25       # x hbar^2 (1 - Sigma12^2) (d phi)^2
QP_TERM_COEFF = 2.0         # x quantum_potential
BPRIME_TERM_COEFF = 1.0     # x hbar e B'.s'

# Densities at or below this are treated as vacuum: the quantum potential
# divides by sqrt(rho0) and is reported masked there instead of raising.
DENSITY_FLOOR = 1e-300


@dataclass(frozen=True)
class HydroFieldSet:
    """Grid-sampled density, phase action and spinor-shape parameters.

    ``rho`` is the probability density psi^dag psi; the rest density that
    enters the hydrodynamic equations is ``rho0 = rho / gamma``.  All
    parameter arrays must be full grid fields so they can be differenced.
    """

    spec: GridSpec
    rho: np.ndarray
    S: np.ndarray
    params: KinematicParams
    kind: str = "particle"

    def __post_init__(self):
        species_sign(self.kind)  # refuses an unknown kind
        rho = np.asarray(self.rho, dtype=np.float64)
        S = np.asarray(self.S, dtype=np.float64)
        if rho.shape != self.spec.shape or S.shape != self.spec.shape:
            raise ContractError(
                "rho and S must be sampled on the grid "
                f"{self.spec.shape}, got {rho.shape} and {S.shape}"
            )
        if not np.all(np.isfinite(rho)) or not np.all(np.isfinite(S)):
            raise ContractError("rho and S must be finite")
        if np.any(rho < 0.0):
            raise ContractError("rho must be non-negative")
        for name in ("chi", "theta_u", "phi", "theta", "eta0"):
            arr = np.asarray(getattr(self.params, name), dtype=np.float64)
            if arr.shape != self.spec.shape:
                raise ContractError(
                    f"params.{name} must be a full grid field of shape "
                    f"{self.spec.shape}, got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ContractError(f"params.{name} must be finite")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "S", S)

    @property
    def gamma(self):
        return self.params.gamma

    @property
    def rho0(self):
        return self.rho / self.gamma

    def spinors(self):
        """Unit-norm spinor field e(params), shape grid + (4,)."""
        if self.kind == "particle":
            return make_particle_spinor(self.params)
        return make_antiparticle_spinor(self.params)

    @cached_property
    def _spinor_data(self):
        """(e, ebar, d_mu e, bilinears(e)), computed once: params must not change."""
        e = self.spinors()
        return e, _adjoint(e), _spinor_partials(self.spec, e), bilinears(e)

    def psi(self, hbar=1.0):
        """Reconstructed wave function sqrt(rho) exp(iS/hbar) e."""
        amplitude = np.sqrt(self.rho) * np.exp(1j * self.S / float(hbar))
        return amplitude[..., np.newaxis] * self.spinors()


@dataclass(frozen=True)
class FirstOrderResiduals:
    """Pointwise defects of the first-order hydrodynamic equations."""

    continuity: np.ndarray
    hamilton_jacobi: np.ndarray


@dataclass(frozen=True)
class SecondOrderResiduals:
    """Pointwise defects of the second-order (squared-operator) equations.

    ``qhj_imag`` collects the parts of the quantum Hamilton-Jacobi
    expression that are analytically real but numerically complex; it is
    reported so tests can confirm it sits at the discretisation floor.
    """

    continuity: np.ndarray
    qhj: np.ndarray
    qhj_imag: np.ndarray


def _spinor_partials(spec, e):
    """Lower-index gradient of a spinor field: shape grid + (4 mu, 4 comp)."""
    out = np.empty(e.shape[:-1] + (4,) + e.shape[-1:], dtype=np.complex128)
    for axis in range(4):
        out[..., axis, :] = spec.partial(e, axis)
    return out


def _sample_potential(provider, points):
    A, F = provider.sample(points)
    return A, lower_index(A), F


def first_order_residuals(fields, provider, particle=ELECTRON):
    """Continuity and phase-transport defects of a field configuration.

    The continuity residual is the four-divergence of rho times the Dirac
    current direction Gamma^mu = ebar gamma^mu e.  The phase-transport
    residual divides the current by the scalar density ebar e (so it reads
    +/- u^mu) and contracts with the gauge-covariant phase gradient:

        (Gamma^mu / ebar e) d_mu S + m + q A_mu Gamma^mu / ebar e
            + hbar Im{ebar gamma^mu d_mu e} / ebar e

    which vanishes on solutions.  Antiparticle configurations satisfy the
    same displayed equation with their own phase convention (a free
    antiparticle plane wave carries S = + m u.x).
    """
    spec = fields.spec
    # sampled before the spinor data is built, so their temporaries never overlap
    A_lower = _sample_potential(provider, spec.points())[1]

    _, ebar, de_lower, bil = fields._spinor_data
    scalar = bil.scalar
    current = bil.vector

    continuity = spec.divergence(fields.rho[..., np.newaxis] * current)

    ratio = current / scalar[..., np.newaxis]
    dS_lower = spec.gradient_lower(fields.S)
    convective = np.einsum("...m,...m->...", ratio, dS_lower)

    coupling = particle.charge * np.einsum("...m,...m->...", ratio, A_lower)

    slashed = np.einsum("...a,mab,...mb->...", ebar, GAMMA, de_lower)
    spinor_term = particle.hbar * np.imag(slashed) / scalar

    hj = convective + particle.mass + coupling + spinor_term
    return FirstOrderResiduals(continuity=continuity, hamilton_jacobi=hj)


def _dilate_mask(mask, radius):
    # Invalid points poison every stencil that reads them; extend the mask
    # far enough to cover the widest (one-sided, 4-point) formula. Shifts
    # stop at the grid edge: the grid is not periodic.
    out = mask.copy()
    for axis in range(mask.ndim):
        grown = np.moveaxis(mask.copy(), axis, 0)
        for _ in range(radius):
            previous = grown.copy()
            grown[1:] |= previous[:-1]
            grown[:-1] |= previous[1:]
        out |= np.moveaxis(grown, 0, axis)
    return out


def quantum_potential(spec, rho0, hbar=1.0):
    """Q = -(hbar^2/2) box(sqrt(rho0)) / sqrt(rho0), masked where vacuous.

    Points with rho0 <= DENSITY_FLOOR (and any point whose finite-difference
    stencil reaches one) are returned masked rather than raising: vanishing
    density is a legitimate state of the fluid, not an input error.
    """
    rho0 = np.asarray(rho0, dtype=np.float64)
    if rho0.shape != spec.shape:
        raise ContractError(f"rho0 must have grid shape {spec.shape}, got {rho0.shape}")
    invalid = ~(rho0 > DENSITY_FLOOR)
    safe = np.where(invalid, 1.0, rho0)
    root = np.sqrt(safe)
    q = -(0.5 * float(hbar) ** 2) * spec.dalembertian(root) / root
    if np.any(invalid):
        mask = _dilate_mask(invalid, radius=3)
        return np.ma.MaskedArray(q, mask=mask)
    return np.ma.MaskedArray(q, mask=np.zeros_like(invalid))


def second_order_residuals_bilinear(fields, provider, particle=ELECTRON):
    """Quantum Hamilton-Jacobi defect with spinor terms from bilinears.

    Every spinor-dependent structure (the internal-phase current in the
    momentum bracket, the field-strength coupling, the gradient-squared
    correction) is evaluated by differencing the spinor field itself, with
    no use of the closed-form parameter expressions.  This is the reference
    the expanded evaluator is calibrated against.

    Each term with a (grid, 4, 4) temporary is built in a helper of its own,
    so those temporaries are freed as soon as the term is formed.
    """
    spec = fields.spec
    hbar = particle.hbar
    q = particle.charge
    m = particle.mass

    e, ebar, de_lower, bil = fields._spinor_data
    scalar = bil.scalar
    rho0 = fields.rho0

    # ebar d_mu e, read by the momentum bracket and the gradient correction
    e_de = np.einsum("...a,...ma->...m", ebar, de_lower)
    combo = _spinor_gradient_correction(e, de_lower, e_de, scalar)
    rho_terms, vacuum = _density_terms(spec, rho0, hbar)

    A_lower, F = _sample_potential(provider, spec.points())[1:]
    cterm = _field_coupling(e, ebar, scalar, F, hbar, q)

    # momentum bracket B_mu = d_mu S + q A_mu + hbar Im{ebar d_mu e}/(ebar e)
    internal = np.imag(e_de) / scalar[..., np.newaxis]
    bracket_lower = spec.gradient_lower(fields.S) + q * A_lower + hbar * internal
    bracket_upper = raise_index(bracket_lower)

    continuity = spec.divergence(rho0[..., np.newaxis] * bracket_upper)

    bb = np.einsum("...m,...m->...", bracket_upper, bracket_lower)

    qhj = bb - m**2 + np.real(cterm) + rho_terms + hbar**2 * np.real(combo)
    qhj[_dilate_mask(vacuum, radius=3)] = np.nan
    qhj_imag = np.imag(cterm) + hbar**2 * np.imag(combo)
    return SecondOrderResiduals(continuity=continuity, qhj=qhj, qhj_imag=qhj_imag)


def _field_coupling(e, ebar, scalar, F, hbar, q):
    """Field-strength coupling -(i hbar q / 2)(ebar g^mu g^nu e) F_{mu nu}/(ebar e)."""
    F_lower = lower_both(F)
    pair = np.einsum("...a,mnab,...b->...mn", ebar, _GAMMA_PAIR, e)
    return (-0.5j * hbar * q) * np.einsum("...mn,...mn->...", pair, F_lower) / scalar


def _density_terms(spec, rho0, hbar):
    """Density terms in the displayed quarter/half form, and the vacuum points.

    Vacuum is where rho0 <= DENSITY_FLOOR; the caller masks it as in Q.
    """
    vacuum = ~(rho0 > DENSITY_FLOOR)
    safe = np.where(vacuum, 1.0, rho0)
    # the normalised gradient d_mu rho0 / rho0 is contracted, so no tiny
    # density is ever squared (rho0**2 flushes to zero below about 1e-162)
    drho_norm = spec.gradient_lower(rho0) / safe[..., np.newaxis]
    drho_sq = np.einsum("...m,...m->...", raise_index(drho_norm), drho_norm)
    box_rho = spec.dalembertian(rho0)
    return hbar**2 * (0.25 * drho_sq - 0.5 * box_rho / safe), vacuum


def _spinor_gradient_correction(e, de_lower, e_de, scalar):
    """Spinor-gradient correction, complex, from the differenced spinor field:

    d^mu ebar d_mu e / ebar e - (d_mu ebar e)(ebar d^mu e) / (ebar e)^2
    """
    debar_lower = _adjoint(de_lower)
    de_bar_e = np.einsum("...ma,...a->...m", debar_lower, e)
    cross = np.einsum("...m,...m->...", raise_index(de_bar_e), e_de)
    # raised in place: debar_lower has no reader left
    debar_upper = debar_lower
    debar_upper[..., 1:4, :] *= -1.0
    grad_sq = np.einsum("...ma,...ma->...", debar_upper, de_lower)
    return grad_sq / scalar - cross / scalar**2


def _metric_square(spec, field):
    """d^mu f d_mu f of a grid field, contracted with the Minkowski metric."""
    g_lower = spec.gradient_lower(np.asarray(field, dtype=np.float64))
    return np.einsum("...m,...m->...", raise_index(g_lower), g_lower)


def _expanded_core(fields, provider, particle):
    """Shared closed-form pieces of the expanded evaluator.

    Returns a dict with the momentum bracket (both index placements), its
    square ``bb``, the rest-frame field coupling, and the parameter-gradient
    quadratic form.  Everything except the density terms of the quantum
    Hamilton-Jacobi expression; reused by the action functional, whose
    lagrangian density is exactly these pieces.
    """
    spec = fields.spec
    hbar = particle.hbar
    q = particle.charge
    params = fields.params
    gamma = np.asarray(fields.gamma, dtype=np.float64)

    A_lower, F = _sample_potential(provider, spec.points())[1:]

    # a copy, so the (grid, 4, 4) table is freed at once
    sigma12 = sigma_component_table(params)[..., 1, 2].copy()

    bracket_lower = _expanded_bracket(fields, A_lower, sigma12, hbar, q)
    bracket_upper = raise_index(bracket_lower)

    bb = np.einsum("...m,...m->...", bracket_upper, bracket_lower)

    coupling = _rest_frame_coupling(params, gamma, F, hbar, q)

    shape_terms = hbar**2 * (
        THETA_TERM_COEFF * 0.5 * (gamma + 1.0) * _metric_square(spec, params.theta)
        + KAPPA_TERM_COEFF * 0.5 * (gamma - 1.0) * _metric_square(spec, params.kappa)
        + CHI_TERM_COEFF * _metric_square(spec, params.chi)
        + PHI_TERM_COEFF * (1.0 - sigma12**2) * _metric_square(spec, params.phi)
    )

    return {
        "bracket_lower": bracket_lower,
        "bracket_upper": bracket_upper,
        "bb": bb,
        "coupling": coupling,
        "shape_terms": shape_terms,
    }


def _expanded_bracket(fields, A_lower, sigma12, hbar, q):
    """Momentum bracket d_mu S + q A_mu + hbar (d_mu eta0 + W d_mu phi), lower index."""
    spec = fields.spec
    params = fields.params
    weight = 0.5 * (1.0 + sigma12)
    dS_lower = spec.gradient_lower(fields.S)
    dphi_lower = spec.gradient_lower(np.asarray(params.phi, dtype=np.float64))
    deta0_lower = spec.gradient_lower(np.asarray(params.eta0, dtype=np.float64))
    internal = deta0_lower + weight[..., np.newaxis] * dphi_lower
    return dS_lower + q * A_lower + hbar * internal


def _rest_frame_coupling(params, gamma, F, hbar, q):
    """Field coupling hbar q B'.s' in the instantaneous rest frame."""
    u = four_velocity(params)
    beta = u[..., 1:4] / gamma[..., np.newaxis]
    b_prime = rest_frame_B(electric_field(F), magnetic_field(F), beta)
    s_prime = rest_spin(params)
    return BPRIME_TERM_COEFF * hbar * q * np.einsum(
        "...i,...i->...", b_prime, s_prime
    )


def second_order_residuals_expanded(fields, provider, particle=ELECTRON):
    """Quantum Hamilton-Jacobi defect with closed-form parameter terms.

    The spinor-gradient pieces of the bilinear evaluator are replaced by
    their resolved expressions in the shape parameters: the internal-phase
    current becomes hbar (d eta0 + W d phi) with the spin weight
    W = (1 + Sigma12)/2, the field coupling becomes hbar q B'.s' in the
    instantaneous rest frame, and the gradient-squared correction becomes
    the frozen quadratic form in (d theta, d kappa, d chi, d phi).  The
    imaginary part is identically zero here, so ``qhj_imag`` is returned as
    a zero grid.
    """
    spec = fields.spec
    m = particle.mass
    rho0 = fields.rho0

    core = _expanded_core(fields, provider, particle)

    continuity = spec.divergence(rho0[..., np.newaxis] * core["bracket_upper"])

    qp = quantum_potential(spec, rho0, hbar=particle.hbar)
    qp_term = QP_TERM_COEFF * np.ma.filled(qp, np.nan)

    qhj = core["bb"] - m**2 + core["coupling"] + qp_term + core["shape_terms"]
    return SecondOrderResiduals(
        continuity=continuity, qhj=qhj, qhj_imag=np.zeros(spec.shape)
    )


def squared_dirac_residual(fields, provider, particle=ELECTRON):
    """psibar (squared Dirac operator) psi on the reconstructed wave function.

    The operator is

        hbar^2 D^mu D_mu + m^2 + (i hbar q / 2) gamma^mu gamma^nu F_{mu nu}

    with D_mu = d_mu + i (q/hbar) A_mu, which annihilates every solution of
    the first-order equation.  All derivatives act on psi itself by finite
    differences, making this evaluator independent of both formula
    evaluators.  Returns the complex grid psibar Op psi; dividing its real
    part by the signed scalar density psibar psi reproduces the quantum
    Hamilton-Jacobi defect, and its imaginary part is hbar times the
    continuity defect.
    """
    spec = fields.spec
    hbar = particle.hbar
    q = particle.charge
    m = particle.mass

    psi = fields.psi(hbar=hbar)
    A, A_lower, F = _sample_potential(provider, spec.points())

    box_psi = spec.dalembertian(psi)
    div_A = spec.divergence(A)
    dpsi_lower = _spinor_partials(spec, psi)
    A_dot_dpsi = np.einsum("...m,...mc->...c", A, dpsi_lower)
    A_sq = minkowski_dot(A, A)

    covariant = (
        box_psi
        + 1j * (q / hbar) * (div_A[..., np.newaxis] * psi + 2.0 * A_dot_dpsi)
        - (q / hbar) ** 2 * A_sq[..., np.newaxis] * psi
    )

    F_lower = lower_both(F)
    matrix = np.einsum("mnab,...mn->...ab", _GAMMA_PAIR, F_lower)
    op_psi = (
        hbar**2 * covariant
        + m**2 * psi
        + (0.5j * hbar * q) * np.einsum("...ab,...b->...a", matrix, psi)
    )
    return np.einsum("...a,...a->...", _adjoint(psi), op_psi)
