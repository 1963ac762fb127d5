"""Model domains and Hartogs lifts.

All domains are open; boundary points test negative.  Values are immutable
after construction and safe to share across integration workers.

Each domain names its Monte Carlo proposal with ``bounding_balls()``: a
product of centred balls that holds it, as (k, r) pairs, one per ball of
radius r in C^k over consecutive coordinates.  A ball is its own proposal,
so every draw for it hits; a polydisc is a product of discs (k = 1); a
Hartogs lift is its base's proposal times the unit ball of its fiber, with
a base ball split in two where the weight's block z' ends inside it.

Every domain is Reinhardt and, in its proposal's balls, depends on a point
only through the squared radius |z|^2 of each ball.  So its batch test
``contains_batch`` takes an (N, balls) array of those squared radii, one
column per ball of ``bounding_balls()``, as the Monte Carlo kernel draws
them (``integrate._shard_blocks``), and raises DimensionMismatchError on
any other number of columns.  ``ball_sums`` turns (N, m) squared moduli
x_i = |z_i|^2 into that layout, and ``contains_moduli`` tests them through
it; the scalar ``contains`` takes a complex point.
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
    "ball_sums",
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


def ball_sums(x, dims):
    """The squared radii of (N, m) squared moduli ``x`` over consecutive balls
    of dims[j] coordinates, from the first: a new (N, len(dims)) array with
    contiguous columns.  Each column adds its coordinates' columns in order,
    with no axis=1 reduction.  That has the bits of x[:, a:b].sum(axis=1) on
    the kernel's column-contiguous blocks, and on C-ordered rows of at most
    seven coordinates (numpy sums eight or more pairwise).  Balls of equal
    size add coordinate i of every ball at once, on strided rows: fewer
    numpy calls, which the shard pool's threads pay for most."""
    cols, k = x.T, dims[0]
    if all(d == k for d in dims):  # every ball at once: coordinate i of each, in turn
        end = k * len(dims)
        if k == 1:
            return np.array(cols[:end], order="C").T
        out = np.add(cols[0:end:k], cols[1:end:k], order="C")
        for i in range(2, k):
            out += cols[i:end:k]
        return out.T
    out, lo = np.empty((len(dims), len(x))), 0
    for row, k in zip(out, dims):
        if k == 1:
            row[:] = cols[lo]
        else:
            np.add(cols[lo], cols[lo + 1], out=row)
        for i in range(lo + 2, lo + k):
            row += cols[i]
        lo += k
    return out.T


class _Domain:
    """Membership of a complex point and of squared moduli, through the batch
    test of the concrete domain on the squared radii of its balls."""

    def contains(self, p):
        x = sq_moduli(as_point(p, self.ambient_dim))
        return bool(self.contains_moduli(x[None, :])[0])

    def contains_moduli(self, x):
        """The mask of (N, ambient_dim) squared moduli."""
        return self.contains_batch(ball_sums(x, [k for k, _ in self.bounding_balls()]))

    def _check_radii(self, t):
        """Raise unless ``t`` has one column per ball of the proposal, so that
        per-coordinate moduli, which belong to ``contains_moduli``, fail here."""
        if t.shape[1] != len(self.bounding_balls()):
            raise DimensionMismatchError(
                f"contains_batch takes one squared radius per ball of {self.bounding_balls()}, "
                f"got an array of shape {t.shape}"
            )


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

    def contains_batch(self, t):
        self._check_radii(t)
        return t[:, 0] < self.radius**2

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

    def contains_batch(self, t):
        self._check_radii(t)
        return np.all(t < np.square(self.radii), axis=1)

    def bounding_balls(self):
        return tuple((1, r) for r in self.radii)


@dataclass(frozen=True)
class HartogsLift(_Domain):
    """Lift {(z, w) : z in base, |w|^2 < e^(-phi(z)/k)} with fiber w in C^k.

    The weight is evaluated lazily per membership query.  Every catalog
    weight satisfies phi >= 0, so |w|^2 < e^(-phi/k) <= 1 and the fiber
    lies in the unit ball of C^k.  The weight's ``block`` is the length of
    the leading coordinates z' that it reads apart from the rest (None for
    none); z' must fit in the base.
    """

    base: Ball | Polydisc
    weight: object
    fiber_dim: int

    def __post_init__(self):
        if self.fiber_dim < 1:
            raise ValueError("fiber dimension k must be >= 1")
        block = self.weight.block
        if block is not None and block > self.base.ambient_dim:
            raise DimensionMismatchError(
                f"the weight reads {block} leading coordinates, the base has "
                f"{self.base.ambient_dim}"
            )
        # a base ball in which z' ends is drawn as B^k x B^(n-k)
        split = isinstance(self.base, Ball) and block is not None and block < self.base.dim
        if split:
            r = self.base.radius
            balls = ((block, r), (self.base.dim - block, r))
        else:
            balls = self.base.bounding_balls()
        object.__setattr__(self, "_split", split)
        object.__setattr__(self, "_balls", balls + ((self.fiber_dim, 1.0),))

    @property
    def ambient_dim(self):
        return self.base.ambient_dim + self.fiber_dim

    def contains_batch(self, t):
        """The fiber test and the base test, each on every row.

        The fiber's column is compared with the weight's ``fiber_bound`` of
        the base columns (for a radial weight, its profile's ``factor``).
        The proposal's draws lie in the base already, so nothing is copied;
        the base test, one compare for a ball, stays for rows drawn from any
        other proposal.
        """
        self._check_radii(t)
        inside = t[:, -1] < self.weight.fiber_bound(t[:, :-1], self._balls[:-1], self.fiber_dim)
        base = t[:, :-1]
        if self._split:
            base = (t[:, 0] + t[:, 1])[:, None]
        inside &= self.base.contains_batch(base)
        return inside

    def bounding_balls(self):
        """The base's balls, then the unit ball of the fiber; valid because
        phi >= 0.  A base ball in which the weight's block z' ends is split
        into B^k x B^(n-k), so that |z'|^2 is a column of its own."""
        return self._balls
