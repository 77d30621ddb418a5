"""Boost kinematics: lab-frame spin, rest-frame vorticity, the curl of a four-vector field.

Four-vectors are plain (..., 4) float arrays with contravariant components in
the (+, -, -, -) signature; three-vectors are (..., 3) arrays. Everything
broadcasts over leading axes.

The combination (gamma - 1)(v . beta_hat) beta_hat that appears in all the
boost formulas is evaluated as gamma^2 (v . beta) beta / (gamma + 1), which
is algebraically identical and smooth through beta = 0.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

__all__ = [
    "gamma_of_beta",
    "boost_matrix",
    "spin_to_lab",
    "vorticity_to_rest",
    "acceleration_tensor",
    "beta_from_u",
    "beta_hat_rate",
]


def _dot3(a, b):
    return np.einsum("...i,...i->...", a, b)


def gamma_of_beta(beta):
    beta = np.asarray(beta, dtype=np.float64)
    b2 = _dot3(beta, beta)
    if np.any(b2 >= 1.0):
        raise ContractError("|beta| must be < 1")
    return 1.0 / np.sqrt(1.0 - b2)


def boost_matrix(beta):
    """Pure boost Lambda taking lab components to the frame moving with beta.

    Acts on contravariant components: v'_frame = Lambda @ v_lab.
    """
    beta = np.asarray(beta, dtype=np.float64)
    gamma = gamma_of_beta(beta)
    lam = np.zeros(np.shape(gamma) + (4, 4))
    lam[..., 0, 0] = gamma
    for i in range(3):
        lam[..., 0, i + 1] = -gamma * beta[..., i]
        lam[..., i + 1, 0] = -gamma * beta[..., i]
    # delta_ij + (gamma - 1) beta_i beta_j / beta^2, regular form
    proj = gamma**2 / (gamma + 1.0)
    for i in range(3):
        for j in range(3):
            lam[..., i + 1, j + 1] = (i == j) + proj * beta[..., i] * beta[..., j]
    return lam


def spin_to_lab(s_rest, beta):
    """Boost a unit rest-frame spin direction to the lab-frame four-spin.

    s^0 = gamma beta . s' and the spatial part grows only along beta. The
    result satisfies s.s = -1 and u.s = 0 for u = gamma (1, beta).
    """
    s_rest = np.asarray(s_rest, dtype=np.float64)
    norm = _dot3(s_rest, s_rest)
    if np.any(np.abs(norm - 1.0) > 1e-9):
        raise ContractError("s_rest must be a unit three-vector")
    beta = np.asarray(beta, dtype=np.float64)
    gamma = gamma_of_beta(beta)
    sdotb = _dot3(s_rest, beta)
    s0 = gamma * sdotb
    stretch = gamma**2 / (gamma + 1.0)
    spatial = s_rest + (stretch * sdotb)[..., np.newaxis] * beta
    return np.concatenate([s0[..., np.newaxis], spatial], axis=-1)


def vorticity_to_rest(omega, accel, beta):
    """Vorticity seen in the instantaneous rest frame.

    omega' = gamma (omega - beta x accel) - (gamma - 1)(omega . beta_hat) beta_hat.
    """
    omega = np.asarray(omega, dtype=np.float64)
    accel = np.asarray(accel, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    gamma = gamma_of_beta(beta)
    stretch = gamma**2 / (gamma + 1.0)
    return (
        gamma[..., np.newaxis] * (omega - np.cross(beta, accel))
        - (stretch * _dot3(omega, beta))[..., np.newaxis] * beta
    )


def acceleration_tensor(f, x, h=1e-4):
    """Central-difference curl Omega^{mu nu} = d^mu f^nu - d^nu f^mu of a four-vector field.

    f maps points of shape (..., 4) to four-vectors of the same shape; x
    holds the points. Derivatives are taken along all four axes with step h
    and raised with the metric, so the result, of shape (..., 4, 4), is
    O(h^2) accurate (exact on fields linear in the coordinates).

    The tensor splits as the field tensor does: for a four-velocity field
    f = u, fields.electric_field(Omega) is the acceleration a
    (Omega^{0i} = -a_i) and fields.magnetic_field(Omega) is the vorticity
    omega (Omega^{jk} = -eps_{jki} omega_i); for a potential f = A the
    result is F.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] != 4:
        raise ContractError("x must hold spacetime points of shape (..., 4)")
    if not h > 0:
        raise ContractError("step h must be positive")
    d_upper = np.empty(x.shape + (4,))  # d^alpha f^nu as [..., alpha, nu]
    for alpha in range(4):
        step = np.zeros(4)
        step[alpha] = h
        d_upper[..., alpha, :] = (np.asarray(f(x + step)) - np.asarray(f(x - step))) / (2.0 * h)
    # raise the derivative index: d^0 = d_t, d^i = -d_i
    d_upper[..., 1:4, :] *= -1.0
    return d_upper - np.swapaxes(d_upper, -1, -2)


def beta_from_u(u):
    u = np.asarray(u, dtype=np.float64)
    return u[..., 1:4] / u[..., 0:1]


def beta_hat_rate(u, du_ds):
    """d(beta_hat)/ds from a four-velocity and its proper-time rate.

    Undefined at beta = 0; callers in that regime multiply by (gamma - 1),
    which vanishes there, so zero is returned below |beta| = 1e-12.
    """
    u = np.asarray(u, dtype=np.float64)
    du_ds = np.asarray(du_ds, dtype=np.float64)
    beta = beta_from_u(u)
    bmag = np.sqrt(_dot3(beta, beta))
    safe = np.maximum(bmag, 1e-300)
    dbeta = du_ds[..., 1:4] / u[..., 0:1] - u[..., 1:4] * (du_ds[..., 0] / u[..., 0] ** 2)[..., np.newaxis]
    bhat = beta / safe[..., np.newaxis]
    radial = _dot3(bhat, dbeta)
    rate = (dbeta - radial[..., np.newaxis] * bhat) / safe[..., np.newaxis]
    return np.where((bmag > 1e-12)[..., np.newaxis], rate, 0.0)
