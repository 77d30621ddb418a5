"""Fisher information and the variational form of the hydrodynamic system.

The action functional is

    A = integral rho0 [ L + (hbar^2/4) (d rho0)^2 / rho0^2 ] dOmega

with L the classical part of the lagrangian density (momentum bracket
squared minus mass squared, field coupling, and the parameter-gradient
quadratic form; exactly the expanded evaluator of :mod:`dirachydro.hydro`
with the density terms removed).  Varying A with respect to the phase
action reproduces the continuity residual; varying with respect to rho0
reproduces the quantum Hamilton-Jacobi residual including the density
terms that emerge from the Fisher piece by parts.  Both functional
derivatives here are numerical (central differences of the action
integrand): the point is to check the variational claim against
independently coded residuals, so a symbolic derivation would share bugs
with the thing under test.  Samples five apart along every axis do not
share an integrand stencil, so the grid is coloured with stride 5 and all
samples of a colour are perturbed at once: 5^d pairs of integrand grids
per derivative, whatever the sample count.

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
from .errors import ContractError, InsufficientInteriorError, StepSizeError
from .fields import ELECTRON, electric_field, magnetic_field, rest_frame_B
from .hydro import _expanded_core, _metric_square, _sample_potential
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
    """Evaluated action functional, split into its two integrand pieces."""

    fisher_term: float
    lagrangian_term: float
    total: float
    volume_element: float


def fisher_information(spec, rho, depth=1):
    """I = (1/4) integral rho (d^mu rho d_mu rho) / rho^2 over the interior.

    The contraction is Minkowski-signed: time-axis gradients enter with a
    plus, spatial ones with a minus, so static profiles yield a negative
    number (a normalized 1D Gaussian of width sigma gives -1/(4 sigma^2)).
    """
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != spec.shape:
        raise ContractError(f"rho must have grid shape {spec.shape}, got {rho.shape}")
    if np.any(rho[spec.interior(depth)] <= 0.0):
        raise ContractError("rho must be positive on the trusted interior")
    integrand = 0.25 * _metric_square(spec, rho) / rho
    return spec.integrate(integrand, depth=depth)


def lagrangian_density(fields, provider, particle=ELECTRON):
    """Classical lagrangian density L of the particle-form functional.

    Momentum bracket squared minus mass squared, plus the rest-frame field
    coupling and the parameter-gradient quadratic form; no density terms.
    The same frozen coefficients as the expanded residual evaluator.
    """
    core = _expanded_core(fields, provider, particle)
    return (
        core["bb"] - particle.mass**2 + core["coupling"] + core["shape_terms"]
    )


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

    A, A_lower, F = _sample_potential(provider, spec.points())
    theta = np.asarray(params.theta, dtype=np.float64)

    weight = np.sin(0.5 * theta) ** 2
    internal = (
        spec.gradient_lower(np.asarray(params.eta0, dtype=np.float64))
        + weight[..., np.newaxis]
        * spec.gradient_lower(np.asarray(params.phi, dtype=np.float64))
    )
    bracket_lower = spec.gradient_lower(fields.S) + q * A_lower + hbar * internal
    bb = np.einsum(
        "...m,...m->...", raise_index(bracket_lower), bracket_lower
    )

    beta = np.zeros(spec.shape + (3,))
    b_prime = rest_frame_B(electric_field(F), magnetic_field(F), beta)
    coupling = hbar * q * np.einsum("...i,...i->...", b_prime, rest_spin(params))

    shape_terms = hbar**2 * (
        0.25 * _metric_square(spec, theta)
        - 0.25 * _metric_square(spec, params.chi)
        + 0.25 * np.sin(theta) ** 2 * _metric_square(spec, params.phi)
    )
    return bb - particle.mass**2 + coupling + shape_terms


def action_functional(fields, provider, particle=ELECTRON, kind=None, depth=1):
    """Evaluate the functional; antiparticle kind negates every term.

    ``kind`` defaults to the field set's own kind; passing it explicitly
    evaluates the other species' functional on the same field data, which
    is how the antisymmetry A_ap = -A_p is exercised.
    """
    sign = species_sign(fields.kind if kind is None else kind)
    spec = fields.spec
    rho0 = fields.rho0
    if np.any(rho0[spec.interior(depth)] <= 0.0):
        raise ContractError("rho0 must be positive on the trusted interior")

    hbar = particle.hbar
    fisher_integrand = 0.25 * hbar**2 * _metric_square(spec, rho0) / rho0
    lagr_integrand = rho0 * lagrangian_density(fields, provider, particle)

    fisher_term = sign * spec.integrate(fisher_integrand, depth=depth)
    lagrangian_term = sign * spec.integrate(lagr_integrand, depth=depth)
    volume = float(np.prod(spec.spacing))
    return FunctionalReport(
        fisher_term=fisher_term,
        lagrangian_term=lagrangian_term,
        total=fisher_term + lagrangian_term,
        volume_element=volume,
    )


# interior points at which the Richardson probe repeats the difference
_PROBE_POINTS = 8


def _probe_indices(spec):
    # deterministic spread of interior points for the step-size check
    try:
        interior = spec.interior(3)
    except InsufficientInteriorError:
        interior = spec.interior(1)
    sizes = [s.stop - s.start for s in interior]
    total = int(np.prod(sizes))
    picks = np.linspace(0, total - 1, min(_PROBE_POINTS, total)).astype(int)
    return [
        tuple(int(i) + s.start for i, s in zip(np.unravel_index(flat, sizes), interior))
        for flat in picks
    ]


# Reach of the integrand: the value at a sample reads samples at most this
# many steps away along each axis (np.gradient's one-sided edge_order=2
# formulas at the boundary; the central stencil inside reaches one step).
_REACH = 2
_STRIDE = 2 * _REACH + 1


def _integrand(fields, provider, particle, wrt, depth):
    """The varied field and the action integrand as a function of it.

    The integrand drops every term that does not depend on the varied field
    and leaves out the kind's sign; its trapezoid integral over the
    trusted interior is the action up to that constant and sign.
    """
    spec = fields.spec
    hbar = particle.hbar
    core = _expanded_core(fields, provider, particle)
    rho0_base = fields.rho0

    if wrt == "S":
        base_lower = core["bracket_lower"] - spec.gradient_lower(fields.S)

        def integrand(field):
            bracket_lower = base_lower + spec.gradient_lower(field)
            bb = np.einsum(
                "...m,...m->...", raise_index(bracket_lower), bracket_lower
            )
            return rho0_base * bb

        return np.array(fields.S, copy=True), integrand

    rest_density = core["coupling"] + core["shape_terms"] - particle.mass**2
    density = core["bb"] + rest_density  # independent of rho0
    interior = spec.interior(depth)

    def integrand(field):
        if np.any(field[interior] <= 0.0):
            raise ContractError("rho0 perturbation crossed zero on the interior")
        return field * density + 0.25 * hbar**2 * _metric_square(spec, field) / field

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


def functional_derivative(
    fields,
    provider,
    particle=ELECTRON,
    wrt="S",
    epsilon=1e-6,
    depth=1,
):
    """Numerical dA/df(x) per grid point, f one of the phase action or rho0.

    Each sample is perturbed by +/- eps (eps = epsilon times the field's
    scale), and the central difference of the trapezoid-weighted action
    integrand is summed and divided by 2 eps times the volume element.
    That normalization identifies the derivative with the residual density
    at points whose trapezoid weight is the plain volume element; the
    outermost samples carry edge weights and are reported as computed.

    The integrand at a sample reads samples at most two steps away, so
    samples five apart along every axis cannot see each other's changes.
    The grid is coloured with stride 5 per active axis: each of the 5^d
    colours is perturbed all at once, one pair of integrand grids per
    colour, and the weighted change is summed over the 5^d box around
    each of its samples.  The cost is 2 * 5^d integrand evaluations plus
    the probe, independent of the sample count, and no difference is taken
    between two large action totals.

    A Richardson probe repeats the difference with eps/2 at up to eight
    interior points; disagreement beyond ten percent (relative, with an
    absolute floor) means the step is roundoff-dominated and raises
    StepSizeError.
    So does a probe point whose perturbation leaves the integrand around
    it bitwise unchanged, which would report a derivative of zero.

    The derivative with respect to rho0 treats the rest density as the
    independent field at fixed spinor shape, matching the variational
    statement; the stored ``rho`` is gamma times rho0.
    """
    if wrt not in ("S", "rho0"):
        raise ContractError(f"wrt must be 'S' or 'rho0', got {wrt!r}")
    spec = fields.spec
    sign = species_sign(fields.kind)
    volume = float(np.prod(spec.spacing))
    interior = spec.interior(depth)
    weights = spec.trapezoid_weights(depth)[interior]
    base_field, integrand = _integrand(fields, provider, particle, wrt, depth)

    largest = float(np.max(np.abs(base_field)))
    eps = float(epsilon) * max(1.0, largest)
    if largest + eps == largest:
        raise StepSizeError(
            f"epsilon={epsilon:g} perturbs below float64 resolution of the "
            "field; the difference would be identically zero"
        )

    probes = _probe_indices(spec)

    def weighted_change(where, step, windows):
        # trapezoid-weighted integrand change under base_field[where] +/- step
        saved = np.array(base_field[where], copy=True)
        base_field[where] = saved + step
        plus = integrand(base_field)
        base_field[where] = saved - step
        minus = integrand(base_field)
        base_field[where] = saved
        for window in windows:
            if np.array_equal(plus[window], minus[window]):
                raise StepSizeError(
                    f"epsilon={epsilon:g} leaves the integrand unchanged around a "
                    "probe point; the derivative there would be identically zero"
                )
        change = np.zeros(spec.shape)
        change[interior] = weights * (plus - minus)[interior]
        return change

    def window(index):
        return tuple(slice(max(i - _REACH, 0), i + _REACH + 1) for i in index)

    out = np.zeros(spec.shape)
    for offsets in np.ndindex(*(_STRIDE,) * spec.ndim):
        colour = tuple(slice(c, None, _STRIDE) for c in offsets)
        windows = [
            window(p) for p in probes
            if all(i % _STRIDE == c for i, c in zip(p, offsets))
        ]
        change = weighted_change(colour, eps, windows)
        out[colour] = _box_sums(change, offsets)
    out *= sign / (2.0 * eps * volume)

    # Absolute floor keeps stationary configurations (derivative is pure
    # noise) and zero crossings from tripping the check; a genuinely
    # roundoff-dominated step produces large mutually inconsistent values
    # and is still caught by the relative comparison.
    floor = max(1e-7, 1e-6 * float(np.max(np.abs(out))))
    for index in probes:
        d1 = out[index]
        half = 0.5 * eps
        d2 = sign * float(np.sum(weighted_change(index, half, [window(index)])))
        d2 /= 2.0 * half * volume
        denom = max(abs(d1), abs(d2), floor)
        if abs(d1 - d2) > 0.1 * denom:
            raise StepSizeError(
                f"functional derivative at {index} changes by "
                f"{abs(d1 - d2) / denom:.2%} under eps/2; epsilon={epsilon:g} "
                "is roundoff-dominated"
            )
    return out
