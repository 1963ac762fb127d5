"""Model domains, linear coordinate subvarieties, and Hartogs lifts.

All domains are open; boundary points test negative.  Values are immutable
after construction and safe to share across integration workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "Ball",
    "Polydisc",
    "HartogsLift",
    "SubvarietySpec",
    "as_point",
    "lift_generators",
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
        return np.sum(np.abs(pts) ** 2, axis=1) < self.radius**2

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

    The weight is evaluated lazily per membership query; the fiber radius is
    bounded by e^(-inf(phi)/(2k)), which is 1 for the normalized weights in
    the catalog.
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
            phi = self.weight.value_batch(pts[mask, :nb])
            w2 = np.sum(np.abs(pts[mask, nb:]) ** 2, axis=1)
            out[mask] = w2 < np.exp(-phi / self.fiber_dim)
        return out

    def bounding_radii(self):
        fiber_radius = np.exp(-self.weight.lower_bound / (2.0 * self.fiber_dim))
        return np.concatenate(
            [self.base.bounding_radii(), np.full(self.fiber_dim, fiber_radius)]
        )


@dataclass(frozen=True)
class SubvarietySpec:
    """V = {z_1 = ... = z_k = 0} with generators psi_i(z) = z_i.

    The generators are linear coordinates, so their Jacobian is identically 1
    and the generator tuple of a lifted copy ignores the fiber variables.
    """

    codim: int
    ambient_dim: int
    lifted: bool = False
    jacobian: float = field(default=1.0, init=False)

    def __post_init__(self):
        if self.codim < 1 or self.codim > self.ambient_dim:
            raise ValueError("codimension must satisfy 1 <= k <= ambient_dim")

    def generator_values(self, p):
        p = as_point(p, self.ambient_dim)
        return p[: self.codim]

    def generator_norm(self, p):
        return float(np.linalg.norm(self.generator_values(p)))

    def contains(self, p):
        return self.generator_norm(p) == 0.0


def lift_generators(v: SubvarietySpec) -> SubvarietySpec:
    """Lifted subvariety: same codimension, generators independent of w."""
    return SubvarietySpec(
        codim=v.codim, ambient_dim=v.ambient_dim + v.codim, lifted=True
    )
