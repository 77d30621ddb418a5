"""Fisher information and the variational form of the hydrodynamic system.

The action functional is

    A = integral rho0 [ L + (hbar^2/4) (d rho0)^2 / rho0^2 ] dOmega

with L the classical part of the lagrangian density (momentum bracket
squared minus mass squared, field coupling, and the parameter-gradient
quadratic form).  L comes from the code of the expanded evaluator of
:mod:`dirachydro.hydro`, whose residual is
L + TERM_COEFFS["quantum_potential"] Q: it is exactly that evaluator with
the density terms removed, summed from the same coefficient-free terms
(``hydro.expanded_terms``) that the calibration demo fits.  Only the
momentum bracket depends on the phase action, so the derivative with
respect to S builds the bracket and no other term of L.

Varying A with respect to the phase action reproduces the continuity
residual; varying with respect to rho0 reproduces the quantum
Hamilton-Jacobi residual including the density terms that emerge from the
Fisher piece by parts.  Both functional
derivatives here are numerical (complex-step derivatives of the action
integrand): the point is to check the variational claim against the
independently coded continuity residual and quantum potential, so a
symbolic derivation would share bugs with the thing under test.  The
integrand is holomorphic in the varied field, so an imaginary step of
1e-30 gives its derivative with nothing subtracted, exact to roundoff at
any step size, and no step needs scaling or checking.  The derivatives
weight the integrand over the depth-1 trusted interior, where samples
three apart along every axis do not share a weighted stencil, so the grid
is coloured with stride 3 and all samples of a colour are stepped at once:
3^d complex integrand grids per derivative, whatever the sample count.

Sign conventions: gradients contract with the Minkowski metric, so the
Fisher information of a static profile is negative (the spatial axes carry
the metric's minus sign).  The signed value is reported as is.

The antiparticle functional is the negated particle functional evaluated
on the same fields; reports carry the sign on every term so that
``total = fisher_term + lagrangian_term`` holds for both kinds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import raise_index
from .errors import ContractError
from .fields import ELECTRON, magnetic_field
from .hydro import (_expanded_bracket, _expanded_lagrangian, _is_vacuum, _metric_square,
                    _sample_potential)
from .spinors import rest_spin, species_sign

__all__ = [
    "FunctionalReport",
    "fisher_information",
    "action_functional",
    "functional_derivative",
    "lagrangian_density",
    "pauli_limit_density",
    "CONTINUITY_FACTOR",
    "QHJ_FACTOR",
]

# Proportionality between the numerical functional derivatives and the
# expanded residual grids.  The values follow from the quadratic structure
# of the functional; they were measured on a reference perturbed plane
# wave, checked stable across seeds, and frozen here.
CONTINUITY_FACTOR = -2.0   # d A / d S = CONTINUITY_FACTOR * continuity residual
QHJ_FACTOR = 1.0           # d A / d rho0 = QHJ_FACTOR * qhj residual


@dataclass(frozen=True)
class FunctionalReport:
    """Evaluated action functional, split into its two integrand pieces.

    ``fisher_information`` is the bare integral I that the Fisher term
    scales: ``fisher_term = sign * hbar**2 * fisher_information``.
    """

    fisher_term: float
    lagrangian_term: float
    total: float
    volume_element: float
    fisher_information: float


def fisher_information(spec, rho, depth=1):
    """I = (1/4) integral rho (d^mu rho d_mu rho) / rho^2 over the interior.

    The contraction is Minkowski-signed: time-axis gradients enter with a
    plus, spatial ones with a minus, so static profiles yield a negative
    number (a normalized 1D Gaussian of width sigma gives -1/(4 sigma^2)).
    """
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != spec.shape:
        raise ContractError(f"rho must have grid shape {spec.shape}, got {rho.shape}")
    return spec.integrate(_fisher_density(spec, rho, spec.interior(depth)), depth=depth)


def _fisher_density(spec, rho, interior):
    """(1/4) d^mu rho d_mu rho / rho, refused at a vacuum point of the interior.

    ``hydro._is_vacuum`` names the vacuum points, as for Q.  No integral
    reads the density outside the interior, where a rho <= 0 divides as 1.
    A complex rho (a complex step) is tested on its real part.
    """
    if np.any(_is_vacuum(rho.real[interior])):
        raise ContractError("rho must be above the density floor on the trusted interior")
    return 0.25 * _metric_square(spec, rho) / np.where(rho.real > 0.0, rho, 1.0)


def lagrangian_density(fields, provider, particle=ELECTRON):
    """Classical lagrangian density L of the particle-form functional.

    Momentum bracket squared minus mass squared, plus the rest-frame field
    coupling and the parameter-gradient quadratic form; no density terms.
    The terms are those of ``hydro.expanded_terms``, the grids that
    ``demos/calibrate_expanded_coefficients.py`` fits, summed with the
    frozen coefficients of the expanded residual evaluator, whose quantum
    Hamilton-Jacobi residual is this L plus TERM_COEFFS["quantum_potential"]
    times the quantum potential.
    """
    return _expanded_lagrangian(fields, provider, particle)[1]


def pauli_limit_density(fields, provider, particle=ELECTRON):
    """Non-relativistic limit of the lagrangian density.

    Written independently of :func:`lagrangian_density` as a comparison
    target: the spin weight Sigma12 degenerates to -cos(theta), the
    (gamma + 1)/2 and (gamma - 1)/2 factors go to 1 and 0, and the phase
    weight becomes sin^2(theta/2).  At chi of order 1e-3 the two densities
    agree to the square of the boost parameter.
    """
    spec = fields.spec
    hbar = particle.hbar
    q = particle.charge
    params = fields.params

    A_lower, F = _sample_potential(provider, spec.points())[1:]
    theta = np.asarray(params.theta, dtype=np.float64)

    weight = np.sin(0.5 * theta) ** 2
    internal = (
        spec.gradient_lower(np.asarray(params.eta0, dtype=np.float64))
        + weight[..., np.newaxis]
        * spec.gradient_lower(np.asarray(params.phi, dtype=np.float64))
    )
    # the gradients add into the active slots; the inactive ones hold q A_mu
    bracket_lower = q * A_lower
    bracket_lower[..., spec.active_slots] += spec.gradient_lower(fields.S)
    bracket_lower[..., spec.active_slots] += hbar * internal
    bb = np.einsum(
        "...m,...m->...", raise_index(bracket_lower), bracket_lower
    )

    # at rest the rest-frame field is B itself
    coupling = hbar * q * np.einsum("...i,...i->...", magnetic_field(F), rest_spin(params))

    shape_terms = hbar * hbar * (
        0.25 * _metric_square(spec, theta)
        - 0.25 * _metric_square(spec, params.chi)
        + 0.25 * np.sin(theta) ** 2 * _metric_square(spec, params.phi)
    )
    return bb - particle.mass * particle.mass + coupling + shape_terms


def action_functional(fields, provider, particle=ELECTRON, kind=None, depth=1):
    """Evaluate the functional; antiparticle kind negates every term.

    ``kind`` defaults to the field set's own kind; passing it explicitly
    evaluates the other species' functional on the same field data, which
    is how the antisymmetry A_ap = -A_p is exercised.
    """
    sign = species_sign(fields.kind if kind is None else kind)
    spec = fields.spec
    rho0 = fields.rho0
    information = fisher_information(spec, rho0, depth=depth)
    fisher_term = sign * (particle.hbar * particle.hbar) * information
    lagr_integrand = rho0 * lagrangian_density(fields, provider, particle)
    lagrangian_term = sign * spec.integrate(lagr_integrand, depth=depth)
    volume = float(np.prod(spec.spacing))
    return FunctionalReport(
        fisher_term=fisher_term,
        lagrangian_term=lagrangian_term,
        total=fisher_term + lagrangian_term,
        volume_element=volume,
        fisher_information=information,
    )


# The derivatives weight the integrand with the trapezoid rule over the
# interior of this depth.
_DEPTH = 1
# Reach of the weighted integrand: the change at a sample of nonzero weight
# reads samples at most this many steps away along each axis (the central
# stencil of np.gradient).  The one-sided edge_order=2 formulas reach two
# steps, but only at edge samples, which weigh zero at depth 1.
_REACH = 1
_STRIDE = 2 * _REACH + 1
# Imaginary step of the complex-step derivative.  Nothing is subtracted, so
# roundoff sets no lower bound on it.
_STEP = 1e-30


def _integrand(fields, provider, particle, wrt):
    """The varied field and the action integrand as a function of it.

    The integrand drops every term that does not depend on the varied field
    and leaves out the kind's sign; its trapezoid integral over the
    trusted interior is the action up to that constant and sign.
    """
    spec = fields.spec
    hbar = particle.hbar
    rho0_base = fields.rho0

    if wrt == "S":
        # only the momentum bracket depends on S, so no other term of L is built
        base_lower = _expanded_bracket(fields, provider, particle)[0]
        base_lower[..., spec.active_slots] -= spec.gradient_lower(fields.S)

        def integrand(field):
            d_field = spec.gradient_lower(field)
            bracket = base_lower.astype(d_field.dtype)  # complex for a stepped field
            bracket[..., spec.active_slots] += d_field
            return rho0_base * np.einsum("...m,...m->...", raise_index(bracket), bracket)

        return np.array(fields.S, copy=True), integrand

    lagrangian = _expanded_lagrangian(fields, provider, particle)[1]
    interior = spec.interior(_DEPTH)

    def integrand(field):
        # L is independent of rho0
        return field * lagrangian + hbar * hbar * _fisher_density(spec, field, interior)

    return np.array(rho0_base, copy=True), integrand


def _box_sums(values, offsets):
    """Sum of values over the stride-wide box centred on each sample of a colour.

    The colour holds the samples whose index along every axis is its offset
    plus a multiple of the stride; their boxes are disjoint.  The sum is
    separable: stride shifted adds per axis, each shrinking that axis to
    the colour's sample count.
    """
    out = np.pad(values, _REACH)
    for axis, (offset, n) in enumerate(zip(offsets, values.shape)):
        count = len(range(offset, n, _STRIDE))
        total = 0.0
        for shift in range(_STRIDE):
            index = [slice(None)] * out.ndim
            start = offset + shift
            index[axis] = slice(start, start + count * _STRIDE, _STRIDE)
            total = total + out[tuple(index)]
        out = total
    return out


def functional_derivative(fields, provider, particle=ELECTRON, wrt="S"):
    """Numerical dA/df(x) per grid point, f one of the phase action or rho0.

    Each sample is stepped to f + i h, h = 1e-30.  The imaginary part of
    the action integrand, trapezoid-weighted over the depth-1 trusted
    interior, is summed and divided by h times the volume element (Squire
    & Trapp, SIAM Review 40, 1998): the integrand is holomorphic in f, so
    no difference is taken and the result does not depend on h.  That
    normalization identifies the derivative with the residual density at
    points whose trapezoid weight is the plain volume element; the
    outermost samples carry edge weights and are reported as computed.

    A weighted integrand sample reads samples at most one step away (the
    one-sided formulas that read two steps run only at edge samples, which
    weigh zero), so samples three apart along every axis cannot see each
    other's steps.  The grid is coloured with stride 3 per active axis:
    each of the 3^d colours is stepped all at once, one complex integrand
    grid per colour, and the weighted imaginary part is summed over the
    3^d box around each of its samples.  The cost is 3^d integrand
    evaluations, whatever the sample count.

    The derivative with respect to rho0 treats the rest density as the
    independent field at fixed spinor shape, matching the variational
    statement; the stored ``rho`` is gamma times rho0.
    """
    if wrt not in ("S", "rho0"):
        raise ContractError(f"wrt must be 'S' or 'rho0', got {wrt!r}")
    spec = fields.spec
    sign = species_sign(fields.kind)
    volume = float(np.prod(spec.spacing))
    interior = spec.interior(_DEPTH)
    weights = spec.trapezoid_weights(_DEPTH)[interior]
    base_field, integrand = _integrand(fields, provider, particle, wrt)
    field = base_field.astype(np.complex128)

    change = np.zeros(spec.shape)
    out = np.zeros(spec.shape)
    for offsets in np.ndindex(*(_STRIDE,) * spec.ndim):
        colour = tuple(slice(c, None, _STRIDE) for c in offsets)
        field[colour] += 1j * _STEP
        change[interior] = weights * integrand(field)[interior].imag
        field[colour] = base_field[colour]
        out[colour] = _box_sums(change, offsets)
    out *= sign / (_STEP * volume)
    return out
