"""Model domains and Hartogs lifts.

All domains are open; boundary points test negative.  Values are immutable
after construction and safe to share across integration workers.  Every
domain is Reinhardt, so its batch test ``contains_batch`` takes an (N, m)
array of squared moduli x_i = |z_i|^2, as the Monte Carlo kernel draws them
(``integrate._shard_blocks``); the scalar ``contains`` takes a complex point.

Each domain names its Monte Carlo proposal with ``bounding_balls()``: a
product of centred balls that holds it, as (k, r) pairs, one per ball of
radius r in C^k over consecutive coordinates.  A ball is its own proposal,
so every draw for it hits; a polydisc is a product of discs (k = 1); a
Hartogs lift is its base's proposal times the unit ball of its fiber.
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
    "sq_moduli",
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


def sq_moduli(pts):
    """|z_i|^2 of every coordinate of a complex point or array of points."""
    p = np.asarray(pts, dtype=complex)
    return p.real * p.real + p.imag * p.imag


class _Domain:
    """Scalar membership through the batch test of the concrete domain."""

    def contains(self, p):
        x = sq_moduli(as_point(p, self.ambient_dim))
        return bool(self.contains_batch(x[None, :])[0])


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

    def contains_batch(self, x):
        return x.sum(axis=1) < self.radius**2

    def bounding_balls(self):
        return ((self.dim, self.radius),)


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

    def contains_batch(self, x):
        return np.all(x < np.square(self.radii), axis=1)

    def bounding_balls(self):
        return tuple((1, r) for r in self.radii)


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

    def contains_batch(self, x):
        """The fiber test and the base test, each on every row.

        The proposal's draws lie in the base already, so the weight runs on
        the whole block with nothing copied; the base test stays for rows
        drawn from any other proposal.
        """
        nb = self.base.ambient_dim
        phi = self.weight.value_batch(x[:, :nb])
        inside = x[:, nb:].sum(axis=1) < np.exp(-phi / self.fiber_dim)
        inside &= self.base.contains_batch(x[:, :nb])
        return inside

    def bounding_balls(self):
        """The base's balls, then the unit ball of the fiber; valid because phi >= 0."""
        return self.base.bounding_balls() + ((self.fiber_dim, 1.0),)
