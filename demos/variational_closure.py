"""The action functional knows the equations of motion.

A perturbed plane wave is close to a solution, so the two second-order
residual grids (continuity and quantum Hamilton-Jacobi) are small but
structured.  This script re-derives both grids without ever calling the
residual evaluators: it steps every grid sample of the action integrand
by an imaginary 1e-30 and reads the derivative off the imaginary part, a
complex-step derivative with nothing subtracted (the samples of one of
2d + 1 colours are stepped together, since their weighted stencils do not
overlap).  Up to the measured proportionality constants the numerical
functional derivatives land on the independently coded residuals, which
is the variational claim made concrete.

Also shown: the antiparticle functional is the exact negation of the
particle one, and the Fisher information of a normalized Gaussian matches
its closed form.
"""

import numpy as np

from dirachydro.fields import UniformField
from dirachydro.fisher import (
    CONTINUITY_FACTOR,
    QHJ_FACTOR,
    action_functional,
    fisher_information,
    functional_derivative,
)
from dirachydro.grids import GridSpec
from dirachydro.hydro import second_order_residuals_expanded
from dirachydro.manufactured import perturbed_plane_wave_fields


def derivative_vs_residuals():
    print("1. Functional derivatives against residual grids")
    spec = GridSpec(active_axes=(0, 1), shape=(33, 33), spacing=(0.02, 0.02))
    provider = UniformField(E0=np.array([0.0, 0.03, 0.0]),
                            B0=np.array([0.0, 0.0, 0.1]))
    fields = perturbed_plane_wave_fields(spec, seed=5, amplitude=1e-3)

    residuals = second_order_residuals_expanded(fields, provider)
    interior = spec.trusted_mask(depth=3)

    dS = functional_derivative(fields, provider, wrt="S")
    diff_s = np.max(np.abs((dS - CONTINUITY_FACTOR * residuals.continuity)[interior]))
    print(f"   dA/dS vs {CONTINUITY_FACTOR:+.0f} x continuity residual:"
          f" sup difference {diff_s:.3e}")

    drho = functional_derivative(fields, provider, wrt="rho0")
    diff_r = np.max(np.abs((drho - QHJ_FACTOR * residuals.qhj)[interior]))
    print(f"   dA/drho0 vs {QHJ_FACTOR:+.0f} x qhj residual:"
          f"        sup difference {diff_r:.3e}")
    print()
    return spec, provider, fields


def antisymmetry(spec, provider, fields):
    print("2. Particle and antiparticle functionals")
    p = action_functional(fields, provider, kind="particle")
    ap = action_functional(fields, provider, kind="antiparticle")
    print(f"   particle total:     {p.total:+.12e}")
    print(f"   antiparticle total: {ap.total:+.12e}")
    print(f"   |A_ap + A_p| = {abs(ap.total + p.total):.3e}")
    print()


def gaussian_information():
    print("3. Fisher information of a normalized Gaussian")
    for sigma in (1.0, 2.0):
        half = 8.0 * sigma
        n = 1601
        spec = GridSpec(active_axes=(1,), shape=(n,), spacing=(2 * half / (n - 1),),
                        origin=(0.0, -half, 0.0, 0.0))
        x = spec.axis_coordinates()[0]
        rho = np.exp(-0.5 * (x / sigma) ** 2) / (sigma * np.sqrt(2.0 * np.pi))
        value = fisher_information(spec, rho)
        exact = -1.0 / (4.0 * sigma**2)
        print(f"   sigma = {sigma:g}: computed {value:+.9f}, closed form {exact:+.9f}"
              f" (difference {abs(value - exact):.3e})")
    print()


if __name__ == "__main__":
    spec, provider, fields = derivative_vs_residuals()
    antisymmetry(spec, provider, fields)
    gaussian_information()
