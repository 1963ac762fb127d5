"""Model domains and Hartogs lifts.

All domains are open; boundary points test negative.  Values are immutable
after construction and safe to share across integration workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "Ball",
    "Polydisc",
    "HartogsLift",
    "as_point",
    "sq_norm",
]


def as_point(coords, ambient_dim=None):
    """Coerce to a complex vector, checking finiteness and length."""
    p = np.asarray(coords, dtype=complex).ravel()
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    if ambient_dim is not None and p.size != ambient_dim:
        raise DimensionMismatchError(
            f"point has {p.size} coordinates, domain is {ambient_dim}-dimensional"
        )
    return p


def sq_norm(pts):
    """|z|^2 of each row of an (N, m) array whose last axis is contiguous.

    The sum of the squares of the real and imaginary parts, taken on the
    float64 view without a temporary; it can differ from
    np.sum(np.abs(pts) ** 2, axis=1) in the last few bits, so it serves
    where the result is only compared.
    """
    v = np.asarray(pts, dtype=complex).view(np.float64)
    return np.einsum("ij,ij->i", v, v)


class _Domain:
    """Scalar membership through the batch test of the concrete domain."""

    def contains(self, p):
        return bool(self.contains_batch(as_point(p, self.ambient_dim)[None, :])[0])


@dataclass(frozen=True)
class Ball(_Domain):
    """Open ball of given radius centered at the origin of C^dim."""

    radius: float
    dim: int

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")

    @property
    def ambient_dim(self):
        return self.dim

    def contains_batch(self, pts):
        return sq_norm(pts) < self.radius**2

    def bounding_radii(self):
        return np.full(self.dim, self.radius)


@dataclass(frozen=True)
class Polydisc(_Domain):
    """Product of discs |z_i| < r_i."""

    radii: tuple

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if len(self.radii) < 1 or any(r <= 0 for r in self.radii):
            raise ValueError("radii must be a nonempty tuple of positive reals")

    @property
    def ambient_dim(self):
        return len(self.radii)

    def contains_batch(self, pts):
        return np.all(np.abs(pts) < np.asarray(self.radii), axis=1)

    def bounding_radii(self):
        return np.asarray(self.radii)


@dataclass(frozen=True)
class HartogsLift(_Domain):
    """Lift {(z, w) : z in base, |w|^2 < e^(-phi(z)/k)} with fiber w in C^k.

    The weight is evaluated lazily per membership query.  Every catalog
    weight satisfies phi >= 0, so |w|^2 < e^(-phi/k) <= 1 and the fiber
    lies in the unit ball of C^k.
    """

    base: Ball | Polydisc
    weight: object
    fiber_dim: int

    def __post_init__(self):
        if self.fiber_dim < 1:
            raise ValueError("fiber dimension k must be >= 1")

    @property
    def ambient_dim(self):
        return self.base.ambient_dim + self.fiber_dim

    def contains_batch(self, pts):
        nb = self.base.ambient_dim
        mask = self.base.contains_batch(pts[:, :nb])
        out = np.zeros(len(pts), dtype=bool)
        if mask.any():
            sel = np.compress(mask, pts, axis=0)
            phi = self.weight.value_batch(sel[:, :nb])
            out[mask] = sq_norm(sel[:, nb:]) < np.exp(-phi / self.fiber_dim)
        return out

    def bounding_radii(self):
        """Base box times the unit fiber box; valid because phi >= 0."""
        return np.concatenate([self.base.bounding_radii(), np.ones(self.fiber_dim)])
