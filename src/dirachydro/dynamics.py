"""Semi-classical point dynamics: Lorentz force plus rest-spin precession.

The state is (x, u, s_rest): lab position, four-velocity, and the spin unit
vector in the instantaneous rest frame, all evolved in proper time. The
spin precesses about -(q/m)[B - (gamma/(gamma+1)) beta x E], the rest-frame
form that needs no beta-hat rate estimate; the equivalent form with an
explicit Thomas term is checked diagnostically from stored trajectories.
With a gyromagnetic ratio of exactly two, spin and velocity precess at the
same proper-time rate in a pure magnetic field, so the angle between them
is an invariant of the motion.

``integrate`` takes one of two paths, chosen by the provider's
``constant_field`` attribute.

Constant fields are propagated exactly. For g = 2 the lab-frame spin
four-vector S obeys dS/ds = M S with the generator M = (q/m) F g of
du/ds = M u (Bargmann, Michel & Telegdi 1959), so (x, u, S) evolves under
one constant 12 x 12 generator and every step is the same matrix
P = exp(G ds), computed by scaling and squaring. The orbit is built from
blocks of powers of P, and S is mapped back to the rest frame row by row.
There is no step error: this path suits million-step drift studies, and
its remaining drift is roundoff.

Sampled fields use fixed-step classical RK4, not an adaptive scheme:
acceptance runs need bitwise-reproducible trajectories and the systems
exercised are non-stiff. One scalar loop reads the field as plain floats
(M, (q/m) E and (q/m) B) at each stage's own position. Neither u nor the
spin is projected back: the drift of u.u and of |s_rest| from 1 is RK4's
own error, and both are reported. ``state_derivative`` stays the NumPy
reference for one right-hand side.

An antiparticle is the particle with the opposite charge: callers pass a
``Particle`` whose charge is negated, and nothing here takes a species.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import lower_index
from .errors import ContractError, FitError, InstabilityError
from .fields import ELECTRON, electric_field, magnetic_field
from .kinematics import spin_to_lab

__all__ = [
    "DynState",
    "Trajectory",
    "PrecessionFit",
    "lorentz_force",
    "precession_rate",
    "state_derivative",
    "integrate",
    "fit_precession_frequency",
]

_BLOWUP_LIMIT = 1e12
# rows per block of the exact propagator: P^0 ... P^(B-1) are built once
_BLOCK = 256


@dataclass(frozen=True)
class DynState:
    """Instantaneous state: position, four-velocity, rest spin, proper time."""

    x: np.ndarray
    u: np.ndarray
    s_rest: np.ndarray
    s_proper: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64).reshape(4)
        u = np.asarray(self.u, dtype=np.float64).reshape(4)
        s_rest = np.asarray(self.s_rest, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u)) and np.all(np.isfinite(s_rest))):
            raise ContractError("state must be finite")
        uu = u[0] ** 2 - np.dot(u[1:], u[1:])
        if abs(uu - 1.0) > 1e-8:
            raise ContractError(f"u is off the mass shell by {uu - 1.0:.3e}")
        norm = np.linalg.norm(s_rest)
        if abs(norm - 1.0) > 1e-8:
            raise ContractError("s_rest must be a unit vector")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "s_rest", s_rest / norm)
        object.__setattr__(self, "s_proper", float(self.s_proper))


def lorentz_force(u, F, particle=ELECTRON):
    """du/ds = (q/m) F^{mu nu} u_nu."""
    u_lower = lower_index(np.asarray(u, dtype=np.float64))
    return (particle.charge / particle.mass) * np.einsum(
        "...mn,...n->...m", np.asarray(F, dtype=np.float64), u_lower
    )


def precession_rate(u, F, particle=ELECTRON):
    """Rest-spin angular velocity for a gyromagnetic ratio of exactly two.

    Omega = -(q/m) [B - (gamma/(gamma+1)) beta x E]; ds'/ds = Omega x s'.
    """
    u = np.asarray(u, dtype=np.float64)
    E = electric_field(F)
    B = magnetic_field(F)
    gamma = u[..., 0]
    beta = u[..., 1:4] / gamma[..., np.newaxis]
    factor = (gamma / (gamma + 1.0))[..., np.newaxis]
    return -(particle.charge / particle.mass) * (B - factor * np.cross(beta, E))


def state_derivative(state, provider, particle=ELECTRON):
    """Right-hand side (dx/ds, du/ds, ds'/ds) with fields sampled at x."""
    _, F = provider.sample(state.x)
    if not np.all(np.isfinite(F)):
        raise ContractError("field sample is not finite")
    du = lorentz_force(state.u, F, particle)
    ds_rest = np.cross(precession_rate(state.u, F, particle), state.s_rest)
    return state.u, du, ds_rest


@dataclass(frozen=True)
class Trajectory:
    """Sampled orbit: arrays share the leading axis, s counts proper time."""

    s: np.ndarray
    x: np.ndarray
    u: np.ndarray
    s_rest: np.ndarray

    def __len__(self):
        return self.s.shape[0]

    @property
    def gamma(self):
        return self.u[:, 0]

    @property
    def beta(self):
        return self.u[:, 1:4] / self.u[:, :1]

    def mass_shell_error(self):
        """Max deviation of u.u from 1 along the orbit, an integrator diagnostic."""
        uu = self.u[:, 0] ** 2 - np.sum(self.u[:, 1:4] ** 2, axis=1)
        return float(np.max(np.abs(uu - 1.0)))


def _steps_from(ds, s_max, n_steps):
    ds = float(ds)
    if not (ds > 0.0 and np.isfinite(ds)):
        raise ContractError("ds must be positive and finite")
    if (s_max is None) == (n_steps is None):
        raise ContractError("give exactly one of s_max and n_steps")
    if n_steps is None:
        s_max = float(s_max)
        if s_max < ds:
            raise ContractError("s_max must be at least ds")
        n_steps = int(round(s_max / ds))
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ContractError("n_steps must be at least 1")
    return ds, n_steps


def _coefficients(F, qm):
    """M = (q/m) F^{mu nu} g_nu row by row, then (q/m) E and (q/m) B, as floats."""
    M = lower_index(qm * np.asarray(F, dtype=np.float64))
    E, B = qm * electric_field(F), qm * magnetic_field(F)
    return (*M.ravel().tolist(), *E.tolist(), *B.tolist())


def _rk4(y, field_at, ds, n_steps, out):
    """Classical RK4 on the flat state y = (x^mu, u^mu, s_rest), one row of out per step.

    field_at(y) returns the _coefficients at the position y[:4].
    """

    def rhs(stage):
        (m00, m01, m02, m03, m10, m11, m12, m13, m20, m21, m22, m23, m30, m31, m32, m33,
         ex, ey, ez, bx, by, bz) = field_at(stage)
        _, _, _, _, u0, u1, u2, u3, sx, sy, sz = stage
        # Omega = -(q/m) [B - (gamma/(gamma+1)) beta x E], then Omega x s;
        # (gamma/(gamma+1)) beta x E written as (u x E)/(gamma+1)
        f = 1.0 / (u0 + 1.0)
        ox = (u2 * ez - u3 * ey) * f - bx
        oy = (u3 * ex - u1 * ez) * f - by
        oz = (u1 * ey - u2 * ex) * f - bz
        return (
            u0, u1, u2, u3,
            m00 * u0 + m01 * u1 + m02 * u2 + m03 * u3,
            m10 * u0 + m11 * u1 + m12 * u2 + m13 * u3,
            m20 * u0 + m21 * u1 + m22 * u2 + m23 * u3,
            m30 * u0 + m31 * u1 + m32 * u2 + m33 * u3,
            oy * sz - oz * sy, oz * sx - ox * sz, ox * sy - oy * sx,
        )

    half = 0.5 * ds
    sixth = ds / 6.0
    for step in range(1, n_steps + 1):
        k1 = rhs(y)
        k2 = rhs([a + half * b for a, b in zip(y, k1)])
        k3 = rhs([a + half * b for a, b in zip(y, k2)])
        k4 = rhs([a + ds * b for a, b in zip(y, k3)])
        y = [a + sixth * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
        if not all(abs(v) < _BLOWUP_LIMIT for v in y):  # also catches nan
            raise InstabilityError(step)
        out[step] = y


def _expm(A):
    """exp(A) by scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005).

    A is halved until its 1-norm is below 1/2, where the Taylor series of
    degree 18 is exact to far below roundoff, and the result is squared
    back. Nilpotent generators (null crossed fields) need no special case,
    unlike an eigendecomposition. A non-finite A gives a non-finite result.
    """
    _, exponent = np.frexp(np.max(np.sum(np.abs(A), axis=0)))
    squarings = max(int(exponent) + 1, 0)
    A = np.ldexp(A, -squarings)
    term = result = np.eye(A.shape[0])
    for k in range(1, 19):
        term = term @ A / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def _propagate(M, ds, n_steps, out):
    """Exact orbit in a constant field, one row of out per step after row 0.

    The state z = (x, u, S) with the lab spin S evolves under
    G = [[0, I, 0], [0, M, 0], [0, 0, M]], so row k is P^k z0 with
    P = exp(G ds). Each block of _BLOCK rows is P^0 ... P^(B-1) applied to
    the block's first state, and the next block starts P^B further on.
    The rows are written as the propagator gives them, unrescaled.
    """
    generator = np.zeros((12, 12))
    generator[0:4, 4:8] = np.eye(4)
    generator[4:8, 4:8] = generator[8:12, 8:12] = M
    step = _expm(generator * ds)
    # powers[c, k] is row c of P^k, so one product per block yields each
    # state component as a contiguous series over the block
    powers = np.empty((12, _BLOCK, 12))
    powers[:, 0] = np.eye(12)
    for k in range(1, _BLOCK):
        powers[:, k] = step @ powers[:, k - 1]
    # P^B straight from exp(G B ds): a product of B factors would carry
    # their roundoff into every later block
    leap = _expm(generator * (ds * _BLOCK))
    powers = powers.reshape(12 * _BLOCK, 12)

    u0 = out[0, 4:8]
    z = step @ np.concatenate([out[0, :8], spin_to_lab(out[0, 8:], u0[1:] / u0[0])])
    for first in range(1, n_steps + 1, _BLOCK):
        rows = min(_BLOCK, n_steps + 1 - first)
        block = (powers @ z).reshape(12, _BLOCK)[:, :rows]
        z = leap @ z
        u, S = block[4:8], block[8:]
        # rest spin s = S_vec - S^0 u_vec / (u^0 + 1), the inverse of spin_to_lab
        view = out[first:first + rows]
        view[:, :8] = block[:8].T
        view[:, 8:] = (S[1:] - (S[0] / (u[0] + 1.0)) * u[1:]).T
        if not np.abs(view).max() < _BLOWUP_LIMIT:  # also catches nan
            bad = ~np.all(np.abs(view) < _BLOWUP_LIMIT, axis=1)
            raise InstabilityError(first + int(np.argmax(bad)))


def integrate(
    initial,
    provider,
    ds,
    s_max=None,
    n_steps=None,
    particle=ELECTRON,
):
    """Orbit over proper time in fixed steps ds; give s_max or n_steps, not both.

    A provider with ``constant_field`` set is sampled once and its orbit is
    the exact propagator exp(G ds) applied step after step: no RK4 runs,
    and the rows are returned as computed, so the drift of u.u and of
    |s_rest| from 1 is the propagator's roundoff. Any other provider is
    sampled at every stage of a classical RK4 step; neither u nor s_rest
    is projected, so their drifts are RK4's error. An antiparticle orbit is
    the orbit of ``particle`` with its charge negated.

    Returns a Trajectory including the initial sample. A non-finite field
    sample raises ContractError. Any state component exceeding 1e12 in
    magnitude (or going non-finite) aborts with InstabilityError carrying
    the offending step index.
    """
    if not isinstance(initial, DynState):
        raise ContractError("initial must be a DynState")
    ds, n_steps = _steps_from(ds, s_max, n_steps)

    qm = particle.charge / particle.mass

    def sampled(y):
        _, F = provider.sample(np.array(y[:4]))
        if not np.all(np.isfinite(F)):
            raise ContractError("field sample is not finite")
        return _coefficients(F, qm)

    out = np.empty((n_steps + 1, 11))
    out[0, :4], out[0, 4:8], out[0, 8:] = initial.x, initial.u, initial.s_rest
    if getattr(provider, "constant_field", False):
        M = np.reshape(sampled(initial.x)[:16], (4, 4))
        with np.errstate(over="ignore", invalid="ignore"):
            _propagate(M, ds, n_steps, out)
    else:
        _rk4(out[0].tolist(), sampled, ds, n_steps, out)

    return Trajectory(
        s=initial.s_proper + ds * np.arange(n_steps + 1),
        x=out[:, :4].copy(),
        u=out[:, 4:8].copy(),
        s_rest=out[:, 8:].copy(),
    )


@dataclass(frozen=True)
class PrecessionFit:
    """Least-squares rotation rate of a vector series about a fixed axis."""

    omega: float
    axis: np.ndarray
    rms_residual: float
    total_angle: float


def fit_precession_frequency(s, vectors, axis=None):
    """Fit the uniform rotation rate of a vector series about a fixed axis.

    s holds the n sample times and vectors the (n, 3) series, for instance
    a Trajectory's s and s_rest. With axis=None the axis is estimated from
    consecutive cross products and the returned omega is nonnegative; with
    a given axis the sign follows the right-hand rule about it. The series
    must resolve the rotation (tens of samples per period; phases are
    unwrapped) and cover at least one full period, otherwise FitError.
    """
    s = np.asarray(s, dtype=np.float64)
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != 3 or s.shape != (vectors.shape[0],):
        raise ContractError("expected s of shape (n,) and vectors of shape (n, 3)")
    n = s.shape[0]
    if n < 10:
        raise FitError(f"need at least 10 samples, got {n}")

    if axis is None:
        crosses = np.cross(vectors[:-1], vectors[1:])
        total = crosses.sum(axis=0)
        scale = np.sum(np.linalg.norm(vectors[:-1], axis=1) * np.linalg.norm(vectors[1:], axis=1))
        if np.linalg.norm(total) < 1e-12 * max(scale, 1e-300):
            raise FitError("no rotation detected; axis estimate degenerate")
        axis = total / np.linalg.norm(total)
    else:
        axis = np.asarray(axis, dtype=np.float64).reshape(3)
        norm = np.linalg.norm(axis)
        if norm < 1e-300:
            raise FitError("axis must be nonzero")
        axis = axis / norm

    in_plane = vectors[0] - np.dot(vectors[0], axis) * axis
    if np.linalg.norm(in_plane) < 1e-9 * max(np.linalg.norm(vectors[0]), 1e-300):
        raise FitError("first vector is parallel to the rotation axis")
    e1 = in_plane / np.linalg.norm(in_plane)
    e2 = np.cross(axis, e1)

    theta = np.unwrap(np.arctan2(vectors @ e2, vectors @ e1))
    total_angle = float(theta[-1] - theta[0])
    if abs(total_angle) < 2.0 * np.pi * (1.0 - 1e-9):
        raise FitError(f"series covers {abs(total_angle):.3f} rad, need a full period")

    design = np.column_stack([s, np.ones(n)])
    coeffs, _, _, _ = np.linalg.lstsq(design, theta, rcond=None)
    residual = theta - design @ coeffs
    return PrecessionFit(
        omega=float(coeffs[0]),
        axis=axis,
        rms_residual=float(np.sqrt(np.mean(residual**2))),
        total_angle=total_angle,
    )
