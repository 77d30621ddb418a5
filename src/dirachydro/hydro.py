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
  shape parameters.  :func:`expanded_terms` computes those terms without
  their coefficients, which are frozen in ``TERM_COEFFS``;
  ``demos/calibrate_expanded_coefficients.py`` fits the coefficients to the
  bilinear evaluator on the grids of that same function and records the
  result.

:func:`squared_dirac_residual` applies the squared operator directly to the
reconstructed ``psi`` and serves as the oracle the formula evaluators are
tested against.

The first-order and bilinear evaluators share the spinor data cached on the
field set; their formulas stay independent.  Their gamma-matrix sandwiches
(ebar gamma^mu d_mu e, and ebar gamma^mu gamma^nu e against F) take
gamma^mu e and gamma^mu gamma^nu e from the monomial index tables of
:mod:`dirachydro.clifford`.  :func:`squared_dirac_residual`, like
``clifford.spin_tensor``, keeps the dense product table: it is the oracle
of that code.

The expanded evaluator's quantum Hamilton-Jacobi residual is
L + TERM_COEFFS["quantum_potential"] * Q, with L the classical lagrangian
density that the action functional of :mod:`dirachydro.fisher` integrates;
one private function sums the terms into L for both.

Q and the density terms divide by rho0, so they are undefined where it
vanishes.  :func:`quantum_potential` and both second-order evaluators
refuse a grid with a vacuum point (rho0 at or below ``DENSITY_FLOOR``)
with a ContractError that counts the vacuum points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clifford import (_GAMMA_COEFF, _GAMMA_PAIR, _GAMMA_PERM, _PAIR_COEFF, _PAIR_LOWER,
                       _PAIR_PERM, _PAIRS, _adjoint, bilinears, lower_both, lower_index,
                       minkowski_dot, raise_index)
from .errors import ContractError
from .fields import ELECTRON, electric_field, magnetic_field, rest_frame_B
from .grids import GridSpec
from .spinors import (
    _PARAM_NAMES,
    KinematicParams,
    _sigma_components,
    four_velocity,
    make_antiparticle_spinor,
    make_particle_spinor,
    rest_spin,
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
    "expanded_terms",
    "TERM_COEFFS",
    "DENSITY_FLOOR",
]

# Frozen coefficients of the expanded quantum Hamilton-Jacobi relation,
# keyed by the terms of expanded_terms they multiply, and by
# quantum_potential.  The calibration demo fits them against the bilinear
# evaluator and must reproduce them.
TERM_COEFFS = {
    "magnetic": 1.0,
    "theta_gradient": 0.25,
    "kappa_gradient": -0.25,
    "chi_gradient": -0.25,
    "phi_gradient": 0.25,
    "quantum_potential": 2.0,
}

# Densities at or below this are vacuum: the quantum potential divides by
# sqrt(rho0) and the density terms by rho0, so a vacuum point is refused.
DENSITY_FLOOR = 1e-300
# samples every stencil of a residual reaches from its point along an axis,
# the halo a slab of rows reads
_STENCIL_REACH = 2
# points of the spinor-gradient correction evaluated at a time
_CORRECTION_POINTS = 1 << 14


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
        for name in _PARAM_NAMES:
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
        return e, _adjoint(e), self.spec.gradient_lower(e), bilinears(e)

    def slab(self, lo, hi):
        """The field set on rows lo..hi-1 along the first active axis (views, no copies)."""
        params = KinematicParams(**{name: getattr(self.params, name)[lo:hi]
                                    for name in _PARAM_NAMES})
        return HydroFieldSet(self.spec.slab(lo, hi), self.rho[lo:hi], self.S[lo:hi], params,
                             self.kind)

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
    convective = np.einsum("...m,...m->...", ratio[..., spec.active_slots], dS_lower)

    coupling = particle.charge * np.einsum("...m,...m->...", ratio, A_lower)

    spinor_term = particle.hbar * np.imag(_slashed(ebar, de_lower, spec.active_axes)) / scalar

    hj = convective + particle.mass + coupling + spinor_term
    return FirstOrderResiduals(continuity=continuity, hamilton_jacobi=hj)


def _slashed(ebar, de_lower, axes):
    """ebar gamma^mu d_mu e over the active axes, gamma^mu d_mu e summed from the index tables.

    Slot k of de_lower is the derivative along spacetime axis axes[k].
    """
    slashed_e = np.zeros(ebar.shape, dtype=np.complex128)
    for k, mu in enumerate(axes):
        # one component at a time: no temporary larger than one grid
        for a, (b, c) in enumerate(zip(_GAMMA_PERM[mu], _GAMMA_COEFF[mu])):
            slashed_e[..., a] += c * de_lower[..., k, b]
    return np.einsum("...a,...a->...", ebar, slashed_e)


def _is_vacuum(rho0):
    """Where rho0 <= DENSITY_FLOOR, or is not a number."""
    return ~(rho0 > DENSITY_FLOOR)


def _refuse_vacuum(rho0):
    """Raise ContractError if rho0 has a vacuum point, naming how many."""
    vacuum = np.count_nonzero(_is_vacuum(rho0))
    if vacuum:
        raise ContractError(
            f"rho0 is at or below the density floor at {vacuum} of {rho0.size} grid points,"
            " where the quantum potential is undefined")


def quantum_potential(spec, rho0, hbar=1.0):
    """Q = -(hbar^2/2) box(sqrt(rho0)) / sqrt(rho0).

    Q divides by sqrt(rho0), so a grid with a vacuum point (rho0 at or
    below the density floor) is refused with ContractError.
    """
    rho0 = np.asarray(rho0, dtype=np.float64)
    if rho0.shape != spec.shape:
        raise ContractError(f"rho0 must have grid shape {spec.shape}, got {rho0.shape}")
    _refuse_vacuum(rho0)
    root = np.sqrt(rho0)
    hbar = float(hbar)
    return -(0.5 * (hbar * hbar)) * spec.dalembertian(root) / root


def second_order_residuals_bilinear(fields, provider, particle=ELECTRON):
    """Quantum Hamilton-Jacobi defect with spinor terms from bilinears.

    Every spinor-dependent structure (the internal-phase current in the
    momentum bracket, the field-strength coupling, the gradient-squared
    correction) is evaluated by differencing the spinor field itself, with
    no use of the closed-form parameter expressions.  This is the reference
    the expanded evaluator is calibrated against.

    Each term with a (grid, ndim, 4) temporary is built in a helper of its own,
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
    combo = _spinor_gradient_correction(spec, e, de_lower, e_de, scalar)
    rho_terms = _density_terms(spec, rho0, hbar)

    A_lower, F = _sample_potential(provider, spec.points())[1:]
    cterm = _field_coupling(e, ebar, scalar, F, hbar, q)

    # momentum bracket B_mu = d_mu S + q A_mu + hbar Im{ebar d_mu e}/(ebar e); the
    # gradients add into the active slots, the inactive ones hold q A_mu
    internal = np.imag(e_de) / scalar[..., np.newaxis]
    bracket_lower = q * A_lower
    bracket_lower[..., spec.active_slots] += spec.gradient_lower(fields.S)
    bracket_lower[..., spec.active_slots] += hbar * internal
    bracket_upper = raise_index(bracket_lower)

    continuity = spec.divergence(rho0[..., np.newaxis] * bracket_upper)

    bb = np.einsum("...m,...m->...", bracket_upper, bracket_lower)

    qhj = bb - m * m + np.real(cterm) + rho_terms + hbar * hbar * np.real(combo)
    qhj_imag = np.imag(cterm) + hbar * hbar * np.imag(combo)
    return SecondOrderResiduals(continuity=continuity, qhj=qhj, qhj_imag=qhj_imag)


def _field_coupling(e, ebar, scalar, F, hbar, q):
    """Field-strength coupling -(i hbar q / 2)(ebar g^mu g^nu e) F_{mu nu}/(ebar e).

    F_lower is antisymmetric and g^m g^n = -g^n g^m for m != n, so the sum
    over mu, nu is the sum of 2 F_mn ebar g^m g^n e over the six pairs m < n,
    each g^m g^n e taken from the index tables.  Only those six entries of
    F are read, each lowered by its sign in the pair table.
    """
    total = 0.0
    for (m, n), lower, perm, coeff in zip(_PAIRS, _PAIR_LOWER, _PAIR_PERM, _PAIR_COEFF):
        pair = np.einsum("...a,...a->...", ebar, e[..., perm] * coeff)
        total = total + ((2.0 * lower) * F[..., m, n]) * pair
    return (-0.5j * hbar * q) * total / scalar


def _density_terms(spec, rho0, hbar):
    """Density terms in the displayed quarter/half form, refused at a vacuum point."""
    _refuse_vacuum(rho0)
    # the normalised gradient d_mu rho0 / rho0 is contracted, so no tiny
    # density is ever squared (rho0**2 flushes to zero below about 1e-162)
    drho_norm = spec.gradient_lower(rho0) / rho0[..., np.newaxis]
    drho_sq = np.einsum("...m,...m->...", spec.raise_gradient(drho_norm), drho_norm)
    box_rho = spec.dalembertian(rho0)
    return hbar * hbar * (0.25 * drho_sq - 0.5 * box_rho / rho0)


def _spinor_gradient_correction(spec, e, de_lower, e_de, scalar):
    """Spinor-gradient correction, complex, from the differenced spinor field:

    d^mu ebar d_mu e / ebar e - (d_mu ebar e)(ebar d^mu e) / (ebar e)^2

    summed over the active axes, the slots of de_lower and e_de.  Every term
    is pointwise, so it is evaluated a block of whole rows along the first
    axis at a time, at most ``_CORRECTION_POINTS`` points (one row where a
    row holds more): the adjoint gradient, as large as de_lower, is never
    held for the whole grid.
    """
    step = max(1, _CORRECTION_POINTS // math.prod(spec.shape[1:]))
    out = np.empty(spec.shape, dtype=np.complex128)
    for lo in range(0, spec.shape[0], step):
        rows = slice(lo, lo + step)
        out[rows] = _correction_block(spec, e[rows], de_lower[rows], e_de[rows], scalar[rows])
    return out


def _correction_block(spec, e, de_lower, e_de, scalar):
    """The spinor-gradient correction on a block of rows."""
    debar_lower = _adjoint(de_lower)
    de_bar_e = np.einsum("...ma,...a->...m", debar_lower, e)
    cross = np.einsum("...m,...m->...", spec.raise_gradient(de_bar_e), e_de)
    # raised in place: debar_lower has no reader left
    debar_upper = debar_lower
    debar_upper[..., spec.spatial_slots, :] *= -1.0
    grad_sq = np.einsum("...ma,...ma->...", debar_upper, de_lower)
    return grad_sq / scalar - cross / scalar**2


def _metric_square(spec, field):
    """d^mu f d_mu f of a grid field, contracted with the Minkowski metric."""
    g_lower = spec.gradient_lower(field)
    return np.einsum("...m,...m->...", spec.raise_gradient(g_lower), g_lower)


def expanded_terms(fields, provider, particle=ELECTRON):
    """Lower-index momentum bracket and the coefficient-free terms of L.

    The momentum bracket is

        B_mu = d_mu S + q A_mu + hbar (d_mu eta0 + W d_mu phi)

    with the spin weight W = (1 + Sigma12)/2.  The terms are grids keyed as
    in the calibration report:

    * ``momentum``: B^mu B_mu - m^2;
    * ``magnetic``: hbar q B'.s' in the instantaneous rest frame;
    * ``theta_gradient``: hbar^2 (gamma + 1)/2 (d theta)^2;
    * ``kappa_gradient``: hbar^2 (gamma - 1)/2 (d kappa)^2;
    * ``chi_gradient``: hbar^2 (d chi)^2;
    * ``phi_gradient``: hbar^2 (1 - Sigma12^2) (d phi)^2.

    L is ``momentum`` plus every other term times its frozen coefficient
    in TERM_COEFFS; the expanded evaluator adds the quantum potential times
    its own.  ``demos/calibrate_expanded_coefficients.py`` fits those
    coefficients against these same grids.
    """
    spec = fields.spec
    hbar = particle.hbar
    params = fields.params
    gamma = np.asarray(fields.gamma, dtype=np.float64)
    h2 = hbar * hbar

    bracket_lower, F, sigma12 = _expanded_bracket(fields, provider, particle)
    bb = np.einsum("...m,...m->...", raise_index(bracket_lower), bracket_lower)
    terms = {
        "momentum": bb - particle.mass * particle.mass,
        "magnetic": _rest_frame_coupling(params, gamma, F, hbar, particle.charge),
        "theta_gradient": h2 * 0.5 * (gamma + 1.0) * _metric_square(spec, params.theta),
        "kappa_gradient": h2 * 0.5 * (gamma - 1.0) * _metric_square(spec, params.kappa),
        "chi_gradient": h2 * _metric_square(spec, params.chi),
        "phi_gradient": h2 * (1.0 - sigma12**2) * _metric_square(spec, params.phi),
    }
    return bracket_lower, terms


def _expanded_lagrangian(fields, provider, particle):
    """Momentum bracket (lower index) and the classical lagrangian density L.

    L sums the terms of :func:`expanded_terms` with their frozen
    coefficients: the expanded quantum Hamilton-Jacobi expression without
    its density terms.  The action functional integrates rho0 L.
    """
    bracket_lower, terms = expanded_terms(fields, provider, particle)
    momentum = terms.pop("momentum")
    magnetic = TERM_COEFFS["magnetic"] * terms.pop("magnetic")
    # the four shape terms are left; their order in expanded_terms fixes how L rounds
    shape = sum(TERM_COEFFS[name] * grid for name, grid in terms.items())
    return bracket_lower, momentum + magnetic + shape


def _expanded_bracket(fields, provider, particle):
    """Momentum bracket of :func:`expanded_terms`, lower index.

    Also returns the samples of F and Sigma12 that the other terms of L
    read, so neither is computed twice.
    """
    spec = fields.spec
    params = fields.params
    A_lower, F = _sample_potential(provider, spec.points())[1:]
    sigma12 = _sigma_components(params)[1, 2]
    weight = 0.5 * (1.0 + sigma12)
    dS_lower = spec.gradient_lower(fields.S)
    dphi_lower = spec.gradient_lower(np.asarray(params.phi, dtype=np.float64))
    deta0_lower = spec.gradient_lower(np.asarray(params.eta0, dtype=np.float64))
    internal = deta0_lower + weight[..., np.newaxis] * dphi_lower
    # the gradients add into the active slots; the inactive ones hold q A_mu
    bracket_lower = particle.charge * A_lower
    bracket_lower[..., spec.active_slots] += dS_lower
    bracket_lower[..., spec.active_slots] += particle.hbar * internal
    return bracket_lower, F, sigma12


def _rest_frame_coupling(params, gamma, F, hbar, q):
    """The ``magnetic`` term of :func:`expanded_terms`."""
    u = four_velocity(params)
    beta = u[..., 1:4] / gamma[..., np.newaxis]
    b_prime = rest_frame_B(electric_field(F), magnetic_field(F), beta)
    return hbar * q * np.einsum("...i,...i->...", b_prime, rest_spin(params))


def second_order_residuals_expanded(fields, provider, particle=ELECTRON):
    """Quantum Hamilton-Jacobi defect with closed-form parameter terms.

    The spinor-gradient pieces of the bilinear evaluator are replaced by
    their resolved expressions in the shape parameters, the terms of
    :func:`expanded_terms`: the internal-phase current enters the momentum
    bracket, the field coupling becomes the rest-frame magnetic term, and
    the gradient-squared correction becomes the frozen quadratic form in
    the shape-parameter gradients.  The imaginary part is identically zero
    here, so ``qhj_imag`` is returned as a zero grid.
    """
    spec = fields.spec
    rho0 = fields.rho0

    bracket_lower, lagrangian = _expanded_lagrangian(fields, provider, particle)

    continuity = spec.divergence(rho0[..., np.newaxis] * raise_index(bracket_lower))

    qp = quantum_potential(spec, rho0, particle.hbar)
    qhj = lagrangian + TERM_COEFFS["quantum_potential"] * qp
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
    dpsi_lower = spec.gradient_lower(psi)
    A_dot_dpsi = np.einsum("...m,...mc->...c", A[..., spec.active_slots], dpsi_lower)
    A_sq = minkowski_dot(A, A)

    covariant = (
        box_psi
        + 1j * (q / hbar) * (div_A[..., np.newaxis] * psi + 2.0 * A_dot_dpsi)
        - (q / hbar) * (q / hbar) * A_sq[..., np.newaxis] * psi
    )

    F_lower = lower_both(F)
    matrix = np.einsum("mnab,...mn->...ab", _GAMMA_PAIR, F_lower)
    op_psi = (
        hbar * hbar * covariant
        + m * m * psi
        + (0.5j * hbar * q) * np.einsum("...ab,...b->...a", matrix, psi)
    )
    return np.einsum("...a,...a->...", _adjoint(psi), op_psi)
