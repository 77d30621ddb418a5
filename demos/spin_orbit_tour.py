"""Guided tour of the semi-classical spin dynamics.

Three numerical experiments on the point-particle layer, printed as a
short narrative: the rest-frame Larmor frequency in a uniform magnetic
field, the equivalence of the two ways of writing the instantaneous
precession vector on a relativistic orbit (the Thomas combination), and
the conservation of the angle between rest spin and velocity that makes
a gyromagnetic ratio of exactly two special.
"""

import numpy as np

from dirachydro.dynamics import (
    DynState,
    fit_precession_frequency,
    integrate,
    precession_rate,
)
from dirachydro.fields import CrossedField, UniformField, rest_frame_B, tensor_from_EB
from dirachydro.kinematics import beta_hat_rate


def larmor():
    print("1. Larmor precession at rest")
    print("   A rest electron in B = (0, 0, 1), natural units, should precess")
    print("   at exactly the cyclotron frequency, here 1.")
    provider = UniformField(B0=np.array([0.0, 0.0, 1.0]))
    state = DynState(x=np.zeros(4), u=np.array([1.0, 0.0, 0.0, 0.0]),
                     s_rest=np.array([1.0, 0.0, 0.0]))
    traj = integrate(state, provider, ds=0.01, s_max=20.0 * np.pi)
    fit = fit_precession_frequency(traj.s, traj.s_rest, axis=np.array([0.0, 0.0, 1.0]))
    print(f"   fitted frequency over 10 periods: {fit.omega:.12f}")
    print(f"   fit rms residual: {fit.rms_residual:.3e}")

    doubled = UniformField(B0=np.array([0.0, 0.0, 2.0]))
    traj2 = integrate(state, doubled, ds=0.005, s_max=10.0 * np.pi)
    fit2 = fit_precession_frequency(traj2.s, traj2.s_rest, axis=np.array([0.0, 0.0, 1.0]))
    print(f"   doubling B:  {fit2.omega:.12f}  (ratio {fit2.omega / fit.omega:.9f})")
    print()


def thomas():
    print("2. Two faces of the precession vector")
    print("   On a gamma ~ 2 orbit in crossed fields, the rest-frame magnetic")
    print("   field plus the Thomas term -(gamma-1) beta_hat x d beta_hat/ds")
    print("   must reproduce the closed combination -(q/m)[B - g/(g+1) beta x E].")
    E0 = np.array([0.05, 0.0, 0.0])
    B0 = np.array([0.0, 0.0, 0.8])
    provider = CrossedField(E0=E0, B0=B0)
    chi = np.arccosh(2.0)
    state = DynState(
        x=np.zeros(4),
        u=np.array([np.cosh(chi), np.sinh(chi), 0.0, 0.0]),
        s_rest=np.array([0.0, np.sqrt(0.5), np.sqrt(0.5)]),
    )
    traj = integrate(state, provider, ds=2e-4, n_steps=20000)

    F = tensor_from_EB(E0, B0)
    closed = precession_rate(traj.u, F)

    gamma = traj.gamma
    beta = traj.beta
    b_prime = rest_frame_B(np.broadcast_to(E0, beta.shape),
                           np.broadcast_to(B0, beta.shape), beta)
    du = np.gradient(traj.u, traj.s, axis=0, edge_order=2)
    bhat = beta / np.linalg.norm(beta, axis=1, keepdims=True)
    thomas_term = (gamma - 1.0)[:, None] * np.cross(bhat, beta_hat_rate(traj.u, du))
    # charge q = -1 folds the overall sign into the b_prime piece
    assembled = b_prime - thomas_term

    interior = slice(5, -5)
    rel = np.max(np.linalg.norm((assembled - closed)[interior], axis=1)) / np.max(
        np.linalg.norm(closed[interior], axis=1)
    )
    print(f"   gamma along orbit: {gamma.min():.4f} .. {gamma.max():.4f}")
    print(f"   worst relative mismatch: {rel:.3e}")
    print()


def angle_conservation():
    print("3. The g = 2 coincidence")
    print("   For a gyromagnetic ratio of exactly two, spin and velocity precess")
    print("   together in a pure magnetic field: their angle is a constant of")
    print("   the motion, here tracked over 100 cyclotron periods.")
    provider = UniformField(B0=np.array([0.0, 0.0, 1.0]))
    chi = 0.8
    state = DynState(
        x=np.zeros(4),
        u=np.array([np.cosh(chi), np.sinh(chi), 0.0, 0.0]),
        s_rest=np.array([np.sqrt(0.5), 0.0, np.sqrt(0.5)]),
    )
    gamma0 = np.cosh(chi)
    period = 2.0 * np.pi * gamma0  # proper-time cyclotron period / gamma factor
    traj = integrate(state, provider, ds=period / 4000.0, s_max=100.0 * period)

    beta_hat = traj.beta / np.linalg.norm(traj.beta, axis=1, keepdims=True)
    cosine = np.einsum("ni,ni->n", traj.s_rest, beta_hat)
    print(f"   angle drift (max |cos - cos_0|): {np.max(np.abs(cosine - cosine[0])):.3e}")
    print(f"   mass-shell drift |u.u - 1|:      {traj.mass_shell_error():.3e}")
    print()


if __name__ == "__main__":
    larmor()
    thomas()
    angle_conservation()
