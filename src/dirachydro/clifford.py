"""Dirac-basis gamma matrices and the bilinear densities built from a spinor.

Metric signature is (+, -, -, -), fixed here for the whole package: code
moves an index with lower_index, raise_index or lower_both, and only the
oracles that check that code flip signs by hand. The matrices are built from
exact integer and unit-imaginary entries, so algebraic identities among them
hold without floating error. Bilinears accept a single spinor (shape (4,)) or
a whole field of spinors (shape (..., 4)) and broadcast over the leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import ContractError

__all__ = [
    "METRIC",
    "GAMMA",
    "GAMMA5",
    "LEVI_CIVITA",
    "BilinearSet",
    "bilinears",
    "spin_tensor",
    "sigma_from_u_s",
    "minkowski_dot",
    "lower_index",
    "raise_index",
    "lower_both",
]

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_ZERO2 = np.zeros((2, 2), dtype=np.complex128)
_ID2 = np.eye(2, dtype=np.complex128)


def _block(a, b, c, d):
    return np.block([[a, b], [c, d]])


_GAMMA0 = _block(_ID2, _ZERO2, _ZERO2, -_ID2)
_GAMMA1 = _block(_ZERO2, _SIGMA_X, -_SIGMA_X, _ZERO2)
_GAMMA2 = _block(_ZERO2, _SIGMA_Y, -_SIGMA_Y, _ZERO2)
_GAMMA3 = _block(_ZERO2, _SIGMA_Z, -_SIGMA_Z, _ZERO2)
_GAMMA5 = _block(_ZERO2, _ID2, _ID2, _ZERO2)

GAMMA = np.stack([_GAMMA0, _GAMMA1, _GAMMA2, _GAMMA3])
GAMMA5 = _GAMMA5

# Product tables built once: gamma^mu gamma^nu [mu, nu, a, b] and its commutator.
_GAMMA_PAIR = np.einsum("mab,nbc->mnac", GAMMA, GAMMA)
_GAMMA_COMMUTATOR = _GAMMA_PAIR - _GAMMA_PAIR.swapaxes(0, 1)

for _m in (GAMMA, GAMMA5, METRIC, _GAMMA_PAIR, _GAMMA_COMMUTATOR):
    _m.setflags(write=False)


def _build_levi_civita():
    eps = np.zeros((4, 4, 4, 4), dtype=np.int64)
    for perm in permutations(range(4)):
        inversions = sum(
            1
            for i in range(4)
            for j in range(i + 1, 4)
            if perm[i] > perm[j]
        )
        eps[perm] = 1 if inversions % 2 == 0 else -1
    eps.setflags(write=False)
    return eps


# Totally antisymmetric symbol with eps[0,1,2,3] = +1 (contravariant orientation).
LEVI_CIVITA = _build_levi_civita()


def minkowski_dot(a, b):
    """a_mu b^mu for contravariant components, broadcasting over leading axes."""
    a = np.asarray(a)
    b = np.asarray(b)
    return (
        a[..., 0] * b[..., 0]
        - a[..., 1] * b[..., 1]
        - a[..., 2] * b[..., 2]
        - a[..., 3] * b[..., 3]
    )


def lower_index(v):
    """Contravariant -> covariant components of the last axis."""
    v = np.asarray(v)
    out = v.copy()
    out[..., 1:] = -out[..., 1:]
    return out


# Raising is the same sign flip in this signature.
raise_index = lower_index


def lower_both(T):
    """T^{mu nu} -> T_{mu nu} on the last two axes: one sign flip per spatial index."""
    out = np.array(T, dtype=np.float64, copy=True)
    out[..., 0, 1:] = -out[..., 0, 1:]
    out[..., 1:, 0] = -out[..., 1:, 0]
    return out


def _adjoint(e):
    """Dirac adjoint row spinor: e-bar = e^dagger gamma^0."""
    return np.conj(e) @ GAMMA[0]


@dataclass(frozen=True)
class BilinearSet:
    """Real bilinear densities of one spinor.

    scalar : e-bar e
    vector : current direction, e-bar gamma^mu e (contravariant)

    Leading axes follow the input spinor field.
    """

    scalar: np.ndarray
    vector: np.ndarray


_IMAG_TOL = 1e-11


def _take_real(value, what):
    value = np.asarray(value)
    scale = 1.0 + np.max(np.abs(value))
    if np.max(np.abs(value.imag)) > _IMAG_TOL * scale:
        raise ContractError(f"{what} bilinear has a non-negligible imaginary part")
    return value.real


def _spinor_field(e):
    e = np.asarray(e, dtype=np.complex128)
    if e.shape[-1] != 4:
        raise ContractError("spinor must have 4 components along the last axis")
    if not np.all(np.isfinite(e)):
        raise ContractError("spinor has non-finite components")
    return e


def bilinears(e):
    """Scalar and vector densities of a spinor (field)."""
    e = _spinor_field(e)
    ebar = _adjoint(e)
    scalar = _take_real(np.einsum("...a,...a->...", ebar, e), "scalar")
    vector = _take_real(np.einsum("...a,mab,...b->...m", ebar, GAMMA, e), "vector")
    return BilinearSet(scalar=scalar, vector=vector)


def spin_tensor(e):
    """Spin tensor -i e-bar [gamma^mu, gamma^nu] e / 2 (contravariant) of a spinor (field)."""
    e = _spinor_field(e)
    return _take_real(
        np.einsum("...a,mnab,...b->...mn", _adjoint(e), _GAMMA_COMMUTATOR, e) * (-0.5j), "tensor"
    )


def sigma_from_u_s(u, s):
    """Spin tensor from four-velocity and four-spin.

    Sigma^{mu nu} = eps^{mu nu sigma tau} u_sigma s_tau with the +1
    orientation of eps^{0123}. Both inputs are contravariant and must satisfy
    u.u = 1 and u.s = 0 within 1e-9.
    """
    u = np.asarray(u, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    norm = minkowski_dot(u, u)
    if np.any(np.abs(norm - 1.0) > 1e-9):
        raise ContractError("u must be unit timelike (u.u = 1 within 1e-9)")
    ortho = minkowski_dot(u, s)
    if np.any(np.abs(ortho) > 1e-9 * (1.0 + np.max(np.abs(s)))):
        raise ContractError("s must be orthogonal to u (u.s = 0 within 1e-9)")
    return np.einsum(
        "mnst,...s,...t->...mn", LEVI_CIVITA.astype(np.float64), lower_index(u), lower_index(s)
    )
