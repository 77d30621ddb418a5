"""Rectangular spacetime grids with second-order differencing.

A GridSpec activates a subset of the four coordinate axes; fields vary
only along active axes and derivatives along inactive ones are identically
zero. Interior stencils are central and the boundary layer uses one-sided
second-order formulas, but boundary values are still less trustworthy in
compounded expressions, so every consumer states a trusted interior depth
and reductions respect it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InsufficientInteriorError

__all__ = ["GridSpec"]


_AXIS_NAMES = ("t", "x", "y", "z")


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned grid over a subset of (t, x, y, z).

    active_axes lists spacetime axis indices in increasing order; shape and
    spacing give the sample count and step along each, and origin pins all
    four coordinates of the first grid point.
    """

    active_axes: tuple
    shape: tuple
    spacing: tuple
    origin: tuple = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        axes = tuple(int(a) for a in self.active_axes)
        if not axes or any(a not in (0, 1, 2, 3) for a in axes):
            raise ContractError("active_axes must be a nonempty subset of 0..3")
        if list(axes) != sorted(set(axes)):
            raise ContractError("active_axes must be strictly increasing")
        shape = tuple(int(n) for n in self.shape)
        spacing = tuple(float(h) for h in self.spacing)
        if len(shape) != len(axes) or len(spacing) != len(axes):
            raise ContractError("shape and spacing must match active_axes in length")
        if any(n < 5 for n in shape):
            raise ContractError("need at least 5 samples per active axis")
        if any(not (h > 0 and np.isfinite(h)) for h in spacing):
            raise ContractError("spacing must be positive and finite")
        origin = tuple(float(c) for c in self.origin)
        if len(origin) != 4 or any(not np.isfinite(c) for c in origin):
            raise ContractError("origin must be 4 finite coordinates")
        object.__setattr__(self, "active_axes", axes)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def ndim(self):
        return len(self.active_axes)

    @property
    def axis_names(self):
        return tuple(_AXIS_NAMES[a] for a in self.active_axes)

    def axis_coordinates(self):
        """1-d coordinate arrays along each active axis."""
        return [
            self.origin[a] + h * np.arange(n)
            for a, n, h in zip(self.active_axes, self.shape, self.spacing)
        ]

    def points(self):
        """All grid points as an array of shape self.shape + (4,)."""
        coords = np.meshgrid(*self.axis_coordinates(), indexing="ij")
        out = np.empty(self.shape + (4,))
        for a in range(4):
            if a in self.active_axes:
                out[..., a] = coords[self.active_axes.index(a)]
            else:
                out[..., a] = self.origin[a]
        return out

    def _grid_axis(self, spacetime_axis):
        if spacetime_axis in self.active_axes:
            return self.active_axes.index(spacetime_axis)
        return None

    def _check_field(self, values):
        values = np.asarray(values)
        if not np.iscomplexobj(values):
            values = values.astype(np.float64, copy=False)
        if values.shape[: self.ndim] != self.shape:
            raise ContractError(
                f"field shape {values.shape} does not start with grid shape {self.shape}"
            )
        return values

    def partial(self, values, spacetime_axis):
        """d/dx^mu with the plain coordinate derivative (no metric sign)."""
        values = self._check_field(values)
        ga = self._grid_axis(spacetime_axis)
        if ga is None:
            return np.zeros_like(values)
        return np.gradient(values, self.spacing[ga], axis=ga, edge_order=2)

    def second_partial(self, values, spacetime_axis):
        """Second coordinate derivative, central inside, one-sided at edges."""
        values = self._check_field(values)
        ga = self._grid_axis(spacetime_axis)
        if ga is None:
            return np.zeros_like(values)
        h = self.spacing[ga]
        v = np.moveaxis(values, ga, 0)
        out = np.empty_like(v)
        out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
        return np.moveaxis(out, 0, ga)

    def gradient_lower(self, values):
        """All four derivatives d_mu f stacked on a trailing axis."""
        values = self._check_field(values)
        return np.stack([self.partial(values, a) for a in range(4)], axis=-1)

    def divergence(self, vec_upper):
        """d_mu V^mu for a field of contravariant four-vectors (..., 4)."""
        vec_upper = np.asarray(vec_upper, dtype=np.float64)
        if vec_upper.shape[-1] != 4:
            raise ContractError("vector field must have 4 components on the last axis")
        out = np.zeros(vec_upper.shape[:-1])
        for a in self.active_axes:
            out += self.partial(vec_upper[..., a], a)
        return out

    def dalembertian(self, values):
        """Wave operator d_mu d^mu f = d_t^2 f - laplacian f."""
        values = self._check_field(values)
        out = np.zeros_like(values)
        for a in self.active_axes:
            term = self.second_partial(values, a)
            out += term if a == 0 else -term
        return out

    def interior(self, depth=1):
        """Slices of the trusted interior: depth samples dropped from every edge."""
        depth = int(depth)
        if depth < 0:
            raise ContractError("depth must be nonnegative")
        for n in self.shape:
            if 2 * depth >= n:
                raise InsufficientInteriorError(
                    f"depth {depth} leaves no interior on an axis of {n} samples"
                )
        return tuple(slice(depth, n - depth) for n in self.shape)

    def trusted_mask(self, depth=1):
        """True where every active axis is at least depth points from its edge."""
        mask = np.zeros(self.shape, dtype=bool)
        mask[self.interior(depth)] = True
        return mask

    def sup_norm(self, values, depth=1):
        """Max |values| over the trusted interior."""
        values = self._check_field(values)
        return float(np.max(np.abs(values[self.interior(depth)])))

    def integrate(self, values, depth=0):
        """Trapezoid integral over the active coordinate volume.

        With depth > 0 the integral runs over the trusted-interior
        rectangle only, dropping depth samples from every edge.
        """
        values = self._check_field(values)[self.interior(depth)]
        for ga in reversed(range(self.ndim)):
            values = np.trapezoid(values, dx=self.spacing[ga], axis=ga)
        return values if values.ndim else float(values)

    def trapezoid_weights(self, depth=0):
        """Tensor-product trapezoid weights including the volume element.

        The weights are those of ``integrate(values, depth)``: the
        trusted-interior rectangle carries the trapezoid weights and every
        sample outside it weighs zero, so ``sum(w * f)`` is that integral.
        """
        w = np.ones(self.shape)
        for ga, (n, h, keep) in enumerate(zip(self.shape, self.spacing, self.interior(depth))):
            line = np.zeros(n)
            if keep.stop - keep.start > 1:  # a single sample spans no length
                line[keep] = h
                line[keep.start] = line[keep.stop - 1] = 0.5 * h
            shape = [1] * self.ndim
            shape[ga] = n
            w = w * line.reshape(shape)
        return w
