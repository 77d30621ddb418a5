"""Electromagnetic field providers and frame transforms.

Conventions, fixed here for the whole package: natural units hbar = c = 1
with configurable mass and charge, the default particle being the electron
with charge = -1. The field tensor stores F^{mu nu} with E_i = F^{i0} and
B_i = -(1/2) eps_{ijk} F^{jk}, which reproduces the textbook fields of the
potential A^mu = (A^0, A) via F = d^mu A^nu - d^nu A^mu.

Every provider returns the pair (A, F) at a point and broadcasts over a
batch of points, x with shape (..., 4). Potentials and tensors are exact
(no differencing); the finite-difference consistency residual is exposed so
tests can confirm F really is the curl of A.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .clifford import minkowski_dot, raise_index
from .errors import ContractError
from .kinematics import acceleration_tensor, boost_matrix, vorticity_to_rest

__all__ = [
    "Particle",
    "ELECTRON",
    "UniformField",
    "CrossedField",
    "PlaneWaveField",
    "PolynomialField",
    "ZERO_FIELD",
    "ScalarPolynomial",
    "GaugeShiftedProvider",
    "tensor_from_EB",
    "electric_field",
    "magnetic_field",
    "rest_frame_B",
    "boost_field_tensor",
    "field_consistency_residual",
    "provider_from_config",
]


class Particle(Record):
    """Mass, signed charge and hbar in natural units (c = 1)."""

    mass: float = 1.0
    charge: float = -1.0
    hbar: float = 1.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not (np.isfinite(self.mass) and self.mass > 0):
            raise ContractError("mass must be positive and finite")
        if not np.isfinite(self.charge) or not np.isfinite(self.hbar):
            raise ContractError("charge and hbar must be finite")


ELECTRON = Particle()


def tensor_from_EB(E, B):
    """Assemble F^{mu nu} from constant or pointwise E and B arrays."""
    E = np.asarray(E, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    shape = np.broadcast(E[..., 0], B[..., 0]).shape
    F = np.zeros(shape + (4, 4))
    for i in range(3):
        F[..., i + 1, 0] = E[..., i]
        F[..., 0, i + 1] = -E[..., i]
    F[..., 1, 2] = -B[..., 2]
    F[..., 2, 1] = B[..., 2]
    F[..., 2, 3] = -B[..., 0]
    F[..., 3, 2] = B[..., 0]
    F[..., 3, 1] = -B[..., 1]
    F[..., 1, 3] = B[..., 1]
    return F


def electric_field(F):
    F = np.asarray(F)
    return np.stack([F[..., 1, 0], F[..., 2, 0], F[..., 3, 0]], axis=-1)


def magnetic_field(F):
    F = np.asarray(F)
    return np.stack([F[..., 3, 2], F[..., 1, 3], F[..., 2, 1]], axis=-1)


def _as_points(x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != 4:
        raise ContractError("spacetime points must have 4 components on the last axis")
    return x


def _check_finite(name, value):
    value = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(value)):
        raise ContractError(f"{name} must be finite")
    return value


class UniformField(Record):
    """Constant E and B everywhere.

    Gauge choice: A^0 = -E . r (electrostatic potential) and A = B x r / 2
    (symmetric gauge).
    """

    E0: np.ndarray = (0.0, 0.0, 0.0)
    B0: np.ndarray = (0.0, 0.0, 0.0)

    constant_field = True  # integrators may sample once and reuse F

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "E0", _check_finite("E0", self.E0))
        object.__setattr__(self, "B0", _check_finite("B0", self.B0))

    def sample(self, x):
        x = _as_points(x)
        r = x[..., 1:4]
        A = np.zeros(x.shape)
        A[..., 0] = -np.einsum("...i,i->...", r, self.E0)
        A[..., 1:4] = 0.5 * np.cross(np.broadcast_to(self.B0, r.shape), r)
        F = np.broadcast_to(tensor_from_EB(self.E0, self.B0), x.shape[:-1] + (4, 4))
        return A, F


ZERO_FIELD = UniformField()


class CrossedField(UniformField):
    """Uniform fields with E perpendicular to B, the drift-frame workhorse."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        scale = max(float(np.linalg.norm(self.E0) * np.linalg.norm(self.B0)), 1.0)
        if abs(float(np.dot(self.E0, self.B0))) > 1e-10 * scale:
            raise ContractError("crossed fields require E0 . B0 = 0")


class PlaneWaveField(Record):
    """Vacuum plane wave in temporal gauge, A = (0, pol * amplitude * cos(k.x)).

    The wave vector must be lightlike and the polarization transverse to its
    spatial part; both are validated at construction.
    """

    wave_vector: np.ndarray = (1.0, 0.0, 0.0, 1.0)
    polarization: np.ndarray = (1.0, 0.0, 0.0)
    amplitude: float = 1.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        k = _check_finite("wave_vector", self.wave_vector)
        pol = _check_finite("polarization", self.polarization)
        object.__setattr__(self, "wave_vector", k)
        object.__setattr__(self, "amplitude", float(self.amplitude))
        if not np.isfinite(self.amplitude):
            raise ContractError("amplitude must be finite")
        k2 = float(minkowski_dot(k, k))
        scale = float(np.dot(k, k)) + 1e-300
        if abs(k2) > 1e-10 * scale:
            raise ContractError("wave_vector must be lightlike (k.k = 0)")
        if abs(float(np.dot(pol, k[1:4]))) > 1e-10 * (np.linalg.norm(pol) * np.linalg.norm(k[1:4]) + 1e-300):
            raise ContractError("polarization must be transverse to the spatial wave vector")
        norm = np.linalg.norm(pol)
        if norm < 1e-300:
            raise ContractError("polarization must be nonzero")
        object.__setattr__(self, "polarization", pol / norm)
        eps4 = np.zeros(4)
        eps4[1:4] = self.polarization
        # k^mu eps^nu - eps^mu k^nu of the normalised polarization, not a field:
        # it is neither compared nor shown
        antisym = np.einsum("m,n->mn", k, eps4) - np.einsum("m,n->mn", eps4, k)
        object.__setattr__(self, "_antisym", antisym)

    def sample(self, x):
        x = _as_points(x)
        phase = minkowski_dot(self.wave_vector, x)
        A = np.zeros(x.shape)
        A[..., 1:4] = self.amplitude * np.cos(phase)[..., np.newaxis] * self.polarization
        F = -self.amplitude * np.sin(phase)[..., np.newaxis, np.newaxis] * self._antisym
        return A, F


def _monomial(x, powers):
    out = np.ones(x.shape[:-1])
    for axis, p in enumerate(powers):
        if p:
            out = out * x[..., axis] ** p
    return out


class ScalarPolynomial(Record):
    """Polynomial in (t, x, y, z) with exact gradient, degree capped at 3.

    terms lists (coefficient, powers) pairs with powers = (pt, px, py, pz).
    The cap does not make grid differences exact: the second-order stencils
    are exact only for terms whose power in each coordinate is at most 2
    (t^2 or t x^2, not t^3).  A gauge function built from such terms shifts
    the phase by a field the grid differentiates exactly, so gauge
    covariance can be checked to roundoff rather than to stencil error.
    """

    terms: tuple = ()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        rows = []
        for coeff, powers in self.terms:
            powers = tuple(int(p) for p in powers)
            if len(powers) != 4 or any(p < 0 for p in powers):
                raise ContractError("powers must be four nonnegative integers")
            if sum(powers) > 3:
                raise ContractError("polynomial degree is limited to 3")
            rows.append((float(coeff), powers))
        object.__setattr__(self, "terms", tuple(rows))

    def value(self, x):
        x = _as_points(x)
        out = np.zeros(x.shape[:-1])
        for coeff, powers in self.terms:
            out += coeff * _monomial(x, powers)
        return out

    def gradient_lower(self, x):
        x = _as_points(x)
        out = np.zeros(x.shape)
        for coeff, powers in self.terms:
            for alpha in range(4):
                if powers[alpha]:
                    dp = list(powers)
                    dp[alpha] -= 1
                    out[..., alpha] += coeff * powers[alpha] * _monomial(x, tuple(dp))
        return out


class PolynomialField(Record):
    """Potential with polynomial components, for manufactured configurations.

    terms maps a component index mu to a list of (coefficient, powers) pairs
    where powers = (pt, px, py, pz) with total degree at most 3; each
    component is a ScalarPolynomial, and the tensor comes from its exact
    gradient.
    """

    terms: dict = {}  # only read: __init__ stores a new dict

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        components = {}
        for mu, entries in self.terms.items():
            mu = int(mu)
            if mu not in (0, 1, 2, 3):
                raise ContractError("potential component index must be 0..3")
            components[mu] = ScalarPolynomial(tuple(entries))
        object.__setattr__(self, "terms", components)

    def sample(self, x):
        x = _as_points(x)
        A = np.zeros(x.shape)
        d_lower = np.zeros(x.shape + (4,))  # d_alpha A^mu as [..., mu, alpha]
        for mu, component in self.terms.items():
            A[..., mu] = component.value(x)
            d_lower[..., mu, :] = component.gradient_lower(x)
        d_upper = raise_index(d_lower)  # d^alpha A^mu
        F = np.swapaxes(d_upper, -1, -2) - d_upper
        return A, F


class GaugeShiftedProvider(Record):
    """Wraps a provider with A^mu -> A^mu + d^mu(Lambda); F is untouched.

    This is the package's one way to shift a gauge; a Lambda linear in the
    coordinates gives a constant shift of A.
    """

    base: object
    gauge_function: ScalarPolynomial

    def sample(self, x):
        A, F = self.base.sample(x)
        return A + raise_index(self.gauge_function.gradient_lower(x)), F


def rest_frame_B(E, B, beta):
    """Magnetic field in the frame comoving with velocity beta.

    B' = gamma (B - beta x E) - (gamma - 1)(B . beta_hat) beta_hat.  Spin
    couples to vorticity as it couples to B, so this is the rest-frame
    vorticity transform with B for the vorticity and E for the acceleration.
    """
    return vorticity_to_rest(B, E, beta)


def boost_field_tensor(F, beta):
    """Tensor transform F' = Lambda F Lambda^T into the frame moving with beta."""
    lam = boost_matrix(beta)
    return np.einsum("...ma,...ab,...nb->...mn", lam, np.asarray(F, dtype=np.float64), lam)


def field_consistency_residual(provider, x, h=1e-4):
    """Max |F - (dA)_fd| at points x, the provider self-consistency check."""
    x = _as_points(x)
    _, F = provider.sample(x)
    F_fd = acceleration_tensor(lambda y: provider.sample(y)[0], x, h)
    return float(np.max(np.abs(F - F_fd)))


# per kind: the provider class and the config keys it takes, under their field names
_PROVIDER_KINDS = {
    "uniform": (UniformField, ("E0", "B0")),
    "crossed": (CrossedField, ("E0", "B0")),
    "plane-wave": (PlaneWaveField, ("wave_vector", "polarization", "amplitude")),
    "custom-polynomial": (PolynomialField, ()),
}


def provider_from_config(config):
    """Build a provider from a plain config mapping (see config_schema.json).

    Only the keys the config gives are passed on; an absent one takes the
    provider's own default.
    """
    if "kind" not in config:
        raise ContractError("field config needs a 'kind' key")
    kind = config["kind"]
    if kind not in _PROVIDER_KINDS:
        raise ContractError(f"unknown field kind {kind!r}")
    cls, keys = _PROVIDER_KINDS[kind]
    kwargs = {key: config[key] for key in keys if key in config}
    if kind == "custom-polynomial" and "coefficients" in config:
        kwargs["terms"] = {
            int(mu): [(entry["c"], tuple(entry["powers"])) for entry in entries]
            for mu, entries in config["coefficients"].items()
        }
    return cls(**kwargs)
