"""Boost kinematics: lab-frame spin, rest-frame vorticity, acceleration tensor.

Four-vectors are plain (..., 4) float arrays with contravariant components in
the (+, -, -, -) signature; three-vectors are (..., 3) arrays. Everything
broadcasts over leading axes.

The combination (gamma - 1)(v . beta_hat) beta_hat that appears in all the
boost formulas is evaluated as gamma^2 (v . beta) beta / (gamma + 1), which
is algebraically identical and smooth through beta = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

__all__ = [
    "gamma_of_beta",
    "boost_matrix",
    "spin_to_lab",
    "vorticity_to_rest",
    "AccelTensor",
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


@dataclass(frozen=True)
class AccelTensor:
    """Antisymmetric acceleration tensor Omega^{mu nu} = d^mu u^nu - d^nu u^mu.

    The named views use the decomposition Omega^{0i} = -a_i and
    Omega^{jk} = -eps_{jki} omega_i, so accel is the local three-acceleration
    field a = du/dt-like part and vorticity is curl u of the spatial flow.
    """

    omega: np.ndarray

    @property
    def accel(self):
        return -self.omega[..., 0, 1:4]

    @property
    def vorticity(self):
        o = self.omega
        return np.stack(
            [
                -o[..., 2, 3],
                -o[..., 3, 1],
                -o[..., 1, 2],
            ],
            axis=-1,
        )


def acceleration_tensor(u_field, x, h=1e-4):
    """Central-difference Omega^{mu nu} of a four-velocity field at a point.

    u_field maps a (4,) spacetime point to a (4,) four-velocity. Derivatives
    are taken along all four axes with step h and raised with the metric, so
    the result is O(h^2) accurate (exact on fields linear in the coordinates).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (4,):
        raise ContractError("x must be a single (4,) spacetime point")
    if not h > 0:
        raise ContractError("step h must be positive")
    d_lower = np.empty((4, 4))
    for alpha in range(4):
        step = np.zeros(4)
        step[alpha] = h
        d_lower[alpha] = (np.asarray(u_field(x + step)) - np.asarray(u_field(x - step))) / (2.0 * h)
    # raise the derivative index: d^0 = d_t, d^i = -d_i
    d_upper = d_lower.copy()
    d_upper[1:4] *= -1.0
    return AccelTensor(omega=d_upper - d_upper.T)


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
