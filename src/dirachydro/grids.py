"""Rectangular spacetime grids with second-order differencing.

A GridSpec activates a subset of the four coordinate axes; fields vary
only along active axes, so derivatives exist only along them: a gradient
has one slot per active axis, in active_axes order, and none is formed for
an inactive axis. Interior stencils are central and the boundary layer
uses one-sided second-order formulas, but boundary values are still less
trustworthy in compounded expressions, so every consumer states a trusted
interior depth and reductions respect it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InsufficientInteriorError

__all__ = ["GridSpec"]


_AXIS_NAMES = ("t", "x", "y", "z")
# fewest samples an active axis may have; a slab of rows is held to it too
_MIN_SAMPLES = 5


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned grid over a subset of (t, x, y, z).

    active_axes lists spacetime axis indices in increasing order; shape and
    spacing give the sample count and step along each, and origin pins all
    four coordinates of the first grid point.  A slab of rows cut from a
    grid (see ``slab``) keeps that grid's origin and counts its rows from
    ``start``, so its coordinates are the grid's to the last bit.
    """

    active_axes: tuple
    shape: tuple
    spacing: tuple
    origin: tuple = (0.0, 0.0, 0.0, 0.0)
    start: int = 0

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
        if any(n < _MIN_SAMPLES for n in shape):
            raise ContractError(f"need at least {_MIN_SAMPLES} samples per active axis")
        if any(not (h > 0 and np.isfinite(h)) for h in spacing):
            raise ContractError("spacing must be positive and finite")
        origin = tuple(float(c) for c in self.origin)
        if len(origin) != 4 or any(not np.isfinite(c) for c in origin):
            raise ContractError("origin must be 4 finite coordinates")
        start = int(self.start)
        if start < 0:
            raise ContractError("start must be nonnegative")
        object.__setattr__(self, "active_axes", axes)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "start", start)

    @property
    def ndim(self):
        return len(self.active_axes)

    @property
    def axis_names(self):
        return tuple(_AXIS_NAMES[a] for a in self.active_axes)

    def axis_coordinates(self):
        """1-d coordinate arrays along each active axis."""
        firsts = (self.start,) + (0,) * (self.ndim - 1)
        return [
            self.origin[a] + h * np.arange(first, first + n)
            for a, n, h, first in zip(self.active_axes, self.shape, self.spacing, firsts)
        ]

    def slab(self, lo, hi):
        """The grid of rows lo..hi-1 along the first active axis.

        Its coordinates, and so its points, are bitwise those rows of this
        grid: origin + h * k for the same row index k, not a shifted origin.
        """
        if not 0 <= lo < hi <= self.shape[0]:
            raise ContractError(f"rows {lo} to {hi} are not within {self.shape[0]}")
        return GridSpec(self.active_axes, (hi - lo,) + self.shape[1:], self.spacing,
                        self.origin, self.start + lo)

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
        if spacetime_axis not in self.active_axes:
            raise ContractError(f"axis {spacetime_axis} is not active on this grid")
        return self.active_axes.index(spacetime_axis)

    def _check_field(self, values):
        values = np.asarray(values)
        if not np.iscomplexobj(values):
            values = values.astype(np.float64, copy=False)
        if values.shape[: self.ndim] != self.shape:
            raise ContractError(
                f"field shape {values.shape} does not start with grid shape {self.shape}"
            )
        return values

    @property
    def active_slots(self):
        """Index of the active axes' components on a four-vector's last axis.

        A basic slice (indexing with it gives a view) when the active axes
        are contiguous, else their list.  Gradient slot k pairs with
        four-vector component active_axes[k].
        """
        first, last = self.active_axes[0], self.active_axes[-1]
        if last - first + 1 == self.ndim:
            return slice(first, last + 1)
        return list(self.active_axes)

    @property
    def spatial_slots(self):
        """The gradient slots that the Minkowski metric negates, as a slice.

        t is the only axis with a plus sign, and when active it is slot 0,
        so the spatial axes are the slots after it.
        """
        return slice(1 if self.active_axes[0] == 0 else 0, None)

    def raise_gradient(self, g_lower):
        """d^mu f from d_mu f: a copy with the spatial slots (grid axis ndim) negated."""
        out = np.array(g_lower, copy=True)
        index = (slice(None),) * self.ndim + (self.spatial_slots,)
        out[index] = -out[index]
        return out

    def partial(self, values, spacetime_axis):
        """d/dx^mu along an active axis, the plain coordinate derivative (no metric sign)."""
        values = self._check_field(values)
        ga = self._grid_axis(spacetime_axis)
        return np.gradient(values, self.spacing[ga], axis=ga, edge_order=2)

    def second_partial(self, values, spacetime_axis):
        """Second coordinate derivative along an active axis, central inside, one-sided at edges."""
        values = self._check_field(values)
        ga = self._grid_axis(spacetime_axis)
        h = self.spacing[ga]
        v = np.moveaxis(values, ga, 0)
        out = np.empty_like(v)
        out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (h * h)
        return np.moveaxis(out, 0, ga)

    def gradient_lower(self, values):
        """d_mu f along each active axis, on a new axis after the grid axes.

        The slots follow active_axes, so a scalar field's gradient is
        grid + (ndim,) and a spinor's grid + (ndim, 4).
        """
        values = self._check_field(values)
        return np.stack(
            [np.gradient(values, h, axis=ga, edge_order=2) for ga, h in enumerate(self.spacing)],
            axis=self.ndim,
        )

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
