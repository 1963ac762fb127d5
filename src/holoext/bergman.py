"""Truncated weighted Bergman spaces on model domains.

A truncated space is spanned by monomials z^alpha with |alpha| <= d.  The
Gram matrix of the weighted inner product

    <z^alpha, z^beta> = integral_Omega z^alpha conj(z^beta) e^(-phi) dV

is assembled either exactly (for weights invariant under the diagonal torus
the matrix is diagonal, and each diagonal entry reduces to a 1D radial
integral against exact angular moments) or by shared-sample Monte Carlo.
The radial integral depends on alpha only through (|alpha'|, |alpha''|), so
an exact assembly runs one quadrature per distinct pair.  Those quadratures
meet the same node arrays (the rungs of one Gauss–Jacobi ladder for every
catalog profile; bisection's subintervals for a profile that declares no
exponents), so within one assembly the weight's radial factor is evaluated
once per node array.

Monomial values are built as a product chain: each z^alpha is its parent
z^(alpha - e_j), j the last nonzero coordinate, times z_j, so one complex
multiplication per monomial and point.  The Monte Carlo assembly reduces each
sampler block with two real SYRKs (v @ v.T on one buffer).  For the first
moments the chain starts from e^(-phi/2), so the rows are e^(-phi/2) z^alpha,
and v stacks their real parts over their imaginary parts; Re G and Im G are
sums and differences of its four blocks.  For the second moments,
|z^alpha|^2 = x^alpha with x the squared moduli, so a real chain over x
started from e^(-phi) gives the rows e^(-phi) |z^alpha|^2 directly.  OpenBLAS
splits a SYRK's output across its threads and never a sum, so the Gram's bits
do not depend on the BLAS thread count.

The least-norm extension of boundary data f living on V = {z' = 0} minimizes
c^H G c subject to pinning every pole-free coefficient of F to the matching
coefficient of f.  The constraint fixes coordinates, so the pinned block is
eliminated and the free block solves G_ff c_f = -G_fp b by Cholesky.  On an
exactly diagonal G, such as every radial Gram, G_fp = 0 and c_f = 0 with no
factorisation.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    GramConditioningError,
    InfeasibleConstraintError,
)
from .geometry import Ball
from .integrate import (
    _ball_moment, _box_volume, _disc_radii, _shard_blocks, _shards, _Z99, radial_integrate
)
from .weights import RadialWeight

__all__ = [
    "MultiIndexBasis",
    "GramMatrix",
    "ExtensionResult",
    "monomial_values",
    "gram_matrix",
    "min_norm_extension",
    "kernel_diag_at",
]


@dataclass(frozen=True)
class MultiIndexBasis:
    """Monomial multi-indices of total degree <= d in C^ambient_dim.

    ``pole_dim`` records how many leading coordinates form the pole block z';
    restriction to V = {z' = 0} kills every index with a nonzero entry there.
    """

    ambient_dim: int
    degree: int
    pole_dim: int
    indices: tuple = field(init=False)

    def __post_init__(self):
        if self.ambient_dim < 1 or self.degree < 0:
            raise ValueError("need ambient_dim >= 1 and degree >= 0")
        if not 1 <= self.pole_dim <= self.ambient_dim:
            raise ValueError("pole_dim must satisfy 1 <= k <= ambient_dim")
        idx = sorted(
            a
            for a in product(range(self.degree + 1), repeat=self.ambient_dim)
            if sum(a) <= self.degree
        )
        object.__setattr__(self, "indices", tuple(idx))

    def __len__(self):
        return len(self.indices)

    def is_pole_free(self, alpha):
        return all(a == 0 for a in alpha[: self.pole_dim])

    def pole_free_positions(self):
        return [i for i, a in enumerate(self.indices) if self.is_pole_free(a)]

    def restriction_index(self, alpha):
        """z''-part of a pole-free index."""
        return tuple(alpha[self.pole_dim :])

    def without(self, positions):
        """Copy of the basis with the given positions dropped."""
        drop = set(positions)
        clone = MultiIndexBasis(self.ambient_dim, self.degree, self.pole_dim)
        kept = tuple(a for i, a in enumerate(self.indices) if i not in drop)
        object.__setattr__(clone, "indices", kept)
        return clone


@lru_cache(maxsize=16)
def _product_chain(ambient_dim, degree):
    """Steps (parent position, coordinate) that build the rows of z^alpha
    over the full basis of C^ambient_dim up to ``degree``, and the position
    of each index in it.

    The parent of z^alpha is z^(alpha - e_j), j the last nonzero coordinate
    of alpha; it is lexicographically smaller, so in the sorted full basis
    every parent comes first.  The constant monomial has no parent (-1).  A
    basis with holes (``MultiIndexBasis.without``) takes its rows from this
    chain, so its missing parents are still computed.
    """
    full = MultiIndexBasis(ambient_dim, degree, 1).indices
    pos = {alpha: i for i, alpha in enumerate(full)}
    steps = [(-1, 0)]
    for alpha in full[1:]:
        j = max(i for i, a in enumerate(alpha) if a)
        steps.append((pos[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]], j))
    return tuple(steps), pos


def _chain_rows(basis: MultiIndexBasis, coords, first) -> np.ndarray:
    """Rows first * c^alpha, one per basis index, over the columns of the
    C-ordered (ambient_dim, N) array ``coords``, in its dtype.

    Each row is its parent's row times one coordinate (see
    ``_product_chain``): one multiplication per monomial and point.  The
    constant row is ``first``, a scalar or one value per column.
    """
    steps, pos = _product_chain(basis.ambient_dim, basis.degree)
    rows = np.empty((len(steps), coords.shape[1]), dtype=coords.dtype)
    for i, (parent, j) in enumerate(steps):
        if parent < 0:
            rows[i] = first
        else:
            np.multiply(rows[parent], coords[j], out=rows[i])
    if len(basis) < len(steps):
        rows = rows[[pos[a] for a in basis.indices]]
    return rows


def monomial_values(basis: MultiIndexBasis, pts) -> np.ndarray:
    """Matrix of monomial values, one row per point and one column per basis
    index.

    The columns come from ``_chain_rows`` over the coordinates, read as the
    rows of ``pts.T`` and copied only if those are not contiguous.  The
    result is the transpose of a C-ordered (width, N) array, so
    ``monomial_values(...).T`` gives contiguous rows, one per monomial.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=complex))
    if pts.ndim != 2 or pts.shape[1] != basis.ambient_dim:
        raise DimensionMismatchError(
            f"points of shape {pts.shape} for a basis of C^{basis.ambient_dim}"
        )
    return _chain_rows(basis, np.ascontiguousarray(pts.T), 1.0).T


def _cholesky(matrix):
    """Lower Cholesky factor L, L L^H = matrix; GramConditioningError when
    the matrix is not positive definite."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise GramConditioningError(str(exc))


@dataclass
class GramMatrix:
    """Hermitian positive definite Gram matrix over a monomial basis."""

    basis: MultiIndexBasis
    matrix: np.ndarray
    domain: object
    half_widths: np.ndarray | None = None
    excluded: tuple = ()
    _chol: np.ndarray | None = field(default=None, repr=False)

    def cholesky_factor(self):
        if self._chol is None:
            self._chol = _cholesky(self.matrix)
        return self._chol

    def norm_squared(self, coeffs):
        c = np.asarray(coeffs, dtype=complex)
        return float(np.real(np.vdot(c, self.matrix @ c)))


def _radial_reduction(weight):
    """Radial factor e^(-k u(log r^2)) and Gram exponents (edge, power) of a
    ``RadialWeight``, the exponents None if its profile declares none.  For
    the profile's (c, gamma) the edge is k c and the power max(gamma, 1): at
    power 1, r^(2 |alpha'|) stays a polynomial and e^(-k u) ~
    1 - k C r^(2/gamma) is smooth enough in r, where power gamma < 1 makes
    neither smooth in the rule's variable."""
    if not isinstance(weight, RadialWeight):
        raise ValueError(f"no radial reduction for weight {type(weight).__name__}")
    prof, k = weight.profile, weight.k

    def factor(r):
        t = np.log(r * r)
        out = np.zeros_like(r)
        ok = t < 0.0
        if ok.any():
            out[ok] = np.exp(-k * prof.value(t[ok]))
        return out

    exps = prof.exponents
    return factor, None if exps is None else (k * exps[0], max(exps[1], 1.0))


def _once_per_node_array(factor):
    """``factor`` evaluated once per distinct node array; the results are shared
    and must not be written to."""
    seen = {}

    def memoised(r):
        key = r.tobytes()
        if key not in seen:
            seen[key] = factor(r)
        return seen[key]

    return memoised


def _diag_entry(n, kb, radial_factor, exponents, alpha, quads):
    """Exact diagonal Gram entry by angular moments and 1D quadrature; the
    quadrature is kept in ``quads`` per (|alpha'|, |alpha''|).

    (1 - r^2)^(nk + m2) vanishes to the integer order nk + m2 at r = 1 on top
    of the factor's own edge, so every pair runs on the factor's rule.
    """
    a1, a2 = alpha[:kb], alpha[kb:]
    m1, m2 = sum(a1), sum(a2)
    nk = n - kb
    angular = (
        math.factorial(kb - 1)
        * math.prod(math.factorial(a) for a in a1)
        / math.factorial(kb - 1 + m1)
    )
    slice_moment = _ball_moment(nk, a2, 0)
    if (m1, m2) not in quads:

        def g(r):
            return r ** (2 * m1) * (1.0 - r * r) ** (nk + m2) * radial_factor(r)

        quads[m1, m2] = radial_integrate(g, kb, exponents=exponents, vanishing=nk + m2)
    quad = quads[m1, m2]
    return angular * slice_moment * quad.value, quad


def gram_matrix(
    domain,
    weight,
    basis: MultiIndexBasis,
    method: str = "radial_exact",
    samples: int = 500_000,
    seed: int = 0,
) -> GramMatrix:
    """Assemble the Gram matrix of the truncated weighted Bergman space.

    ``radial_exact`` applies to a ``RadialWeight`` on the unit ball: the
    matrix is exactly diagonal and each entry is an exact angular moment times
    a 1D radial quadrature, run once per distinct (|alpha'|, |alpha''|) within
    the call, which also evaluates the weight's radial factor once per node
    array.  Monomials whose quadrature is non-integrable, diverges or fails to
    converge are excluded and reported, each with its reason.  ``monte_carlo``
    estimates the full matrix from shared samples and records per-entry 99%
    half-widths; the first and second moments are accumulated block by block
    of the sampler, so memory stays at one block of points and monomial values
    whatever ``samples``.
    """
    n = basis.ambient_dim
    if domain.ambient_dim != n:
        raise ValueError("basis and domain dimensions disagree")
    if method == "radial_exact":
        if not (isinstance(domain, Ball) and domain.radius == 1.0):
            raise ValueError("radial_exact requires the unit ball")
        radial_factor, exponents = _radial_reduction(weight)
        radial_factor = _once_per_node_array(radial_factor)
        quads = {}
        diag = np.zeros(len(basis))
        bad, reasons = [], []
        for i, alpha in enumerate(basis.indices):
            value, quad = _diag_entry(n, weight.k, radial_factor, exponents, alpha, quads)
            if quad.converged and np.isfinite(value) and value > 0.0:
                diag[i] = value
            else:
                bad.append(i)
                why = quad.note or "non-finite or non-positive value"
                reasons.append(f"radial quadrature: {why}")
        return GramMatrix(
            basis=basis.without(bad),
            matrix=np.diag(np.delete(diag, bad)).astype(complex),
            domain=domain,
            excluded=tuple((basis.indices[i], why) for i, why in zip(bad, reasons)),
        )
    if method != "monte_carlo":
        raise ValueError("method must be 'radial_exact' or 'monte_carlo'")
    if samples < 1:
        raise ValueError("samples must be >= 1")

    radii = _disc_radii(domain.bounding_balls())
    boxvol = _box_volume(radii)
    m, width = len(radii), len(basis)
    centre = np.concatenate([radii, radii]).reshape(2 * m, 1)
    acc = np.zeros((2 * width, 2 * width))
    acc2 = np.zeros((width, width))
    # one thread, shards in order: see the integrate module docstring
    for shard, size in _shards(samples):
        for _, u in _shard_blocks([1] * (2 * m), [2.0 * centre], seed, shard, size):
            parts = u.T  # (2m, b): the real parts, then the imaginary parts
            parts -= centre
            x = np.square(parts[:m])
            x += np.square(parts[m:])
            mask = domain.contains_moduli(x.T)
            if mask.any():
                sel = np.compress(mask, parts, axis=1)
                xs = np.compress(mask, x, axis=1)
                z = np.empty((m, sel.shape[1]), dtype=complex)
                z.real, z.imag = sel[:m], sel[m:]
                wts = np.exp(-weight.value_batch(xs.T))
                rows = _chain_rows(basis, z, np.sqrt(wts))
                v = np.concatenate([rows.real, rows.imag])
                acc += v @ v.T
                q = _chain_rows(basis, xs, wts)
                acc2 += q @ q.T
    # acc holds [[ReRe, ReIm], [ImRe, ImIm]]; mean[a, b] is the sample mean
    # of e^(-phi) conj(z^a) z^b (zero outside the domain)
    re, im = acc[:width], acc[width:]
    mean = (re[:, :width] + im[:, width:] + 1j * (re[:, width:] - im[:, :width])) / samples
    gram = boxvol * 0.5 * (mean + mean.conj().T)
    var = np.maximum(acc2 / samples - np.abs(mean) ** 2, 0.0)
    half = _Z99 * boxvol * np.sqrt(var / samples)
    result = GramMatrix(basis=basis, matrix=gram, domain=domain, half_widths=half)
    try:
        result.cholesky_factor()
    except GramConditioningError:
        raise GramConditioningError(
            "sampled Gram matrix is not positive definite; increase samples"
        )
    return result


@dataclass
class ExtensionResult:
    """Least-norm extension: coefficients, norm, and constraint residual."""

    coefficients: np.ndarray
    basis: MultiIndexBasis
    norm_squared: float
    constraint_residual: float

    @property
    def max_pole_coefficient(self):
        """Largest coefficient magnitude on monomials with a z' factor."""
        mags = [
            abs(self.coefficients[i])
            for i, a in enumerate(self.basis.indices)
            if not self.basis.is_pole_free(a)
        ]
        return max(mags, default=0.0)

    def restriction_coefficients(self):
        """Coefficients of the restriction to V, keyed by z''-index."""
        return {
            self.basis.restriction_index(a): complex(self.coefficients[i])
            for i, a in enumerate(self.basis.indices)
            if self.basis.is_pole_free(a)
        }


def _check_data(f_coeffs, length):
    """Reject boundary data before any solve or quadrature: every index must be
    ``length`` non-negative ints, every coefficient a finite number (no bools)."""
    for key, coeff in f_coeffs.items():
        key = tuple(key)
        if len(key) != length or not all(
            isinstance(a, (int, np.integer)) and not isinstance(a, bool) and a >= 0 for a in key
        ):
            raise InfeasibleConstraintError(
                f"f index {key!r} must be {length} non-negative integer(s)"
            )
        if not isinstance(coeff, numbers.Number) or isinstance(coeff, bool):
            raise InfeasibleConstraintError(
                f"f coefficient at {key} must be a number, got {coeff!r}"
            )
        if not cmath.isfinite(coeff):
            raise InfeasibleConstraintError(f"f coefficient at {key} must be finite, got {coeff}")


def min_norm_extension(f_coeffs, gram: GramMatrix) -> ExtensionResult:
    """Minimize c^H G c subject to the restriction to V matching f.

    ``f_coeffs`` maps z''-multi-indices (tuples of length ambient_dim - k) to
    finite coefficients; ``_check_data`` rejects anything else before any solve.
    Each pole-free basis monomial's coefficient is pinned to the matching
    coefficient of f (zero when f has none).  With the pinned values b fixed,
    the free coefficients minimize the quadratic form exactly when
    G_ff c_f = -G_fp b, solved through the Cholesky factor of the free block.
    When G is exactly diagonal, G_fp = 0 and c_f = 0 with no factorisation;
    the free diagonal entries must still be real, finite and positive.  Data
    outside the truncated basis is rejected with the needed degree, and data
    on a monomial the Gram matrix excluded as non-integrable without one.
    """
    basis = gram.basis
    _check_data(f_coeffs, basis.ambient_dim - basis.pole_dim)
    pinned = basis.pole_free_positions()
    keys = [basis.restriction_index(basis.indices[i]) for i in pinned]
    for key, coeff in f_coeffs.items():
        key = tuple(key)
        if key in keys or coeff == 0:
            continue
        if sum(key) <= basis.degree:
            raise InfeasibleConstraintError(
                f"monomial {key} of f was excluded from the basis as "
                "non-integrable; no truncation degree represents it",
                needed_degree=None,
            )
        raise InfeasibleConstraintError(
            f"monomial {key} of f exceeds the truncation degree "
            f"{basis.degree}; need degree >= {sum(key)}",
            needed_degree=sum(key),
        )

    b = np.array([f_coeffs.get(key, 0.0) for key in keys], dtype=complex)
    free = np.setdiff1d(np.arange(len(basis)), pinned)
    g = gram.matrix
    coeffs = np.zeros(len(basis), dtype=complex)
    coeffs[pinned] = b
    if np.count_nonzero(g) == np.count_nonzero(np.diagonal(g)):
        d = np.diagonal(g)[free]
        if not np.all(np.isfinite(d) & (d.imag == 0.0) & (d.real > 0.0)):
            raise GramConditioningError(
                "the free block of the diagonal Gram matrix is not positive definite"
            )
    else:
        factor = _cholesky(g[np.ix_(free, free)])
        y = np.linalg.solve(factor, g[np.ix_(free, pinned)] @ b)
        coeffs[free] = -np.linalg.solve(factor.conj().T, y)
    residual = float(np.max(np.abs(coeffs[pinned] - b))) if pinned else 0.0
    return ExtensionResult(
        coefficients=coeffs,
        basis=basis,
        norm_squared=gram.norm_squared(coeffs),
        constraint_residual=residual,
    )


def kernel_diag_at(gram: GramMatrix, p) -> float:
    """Diagonal of the reproducing kernel, K(p, p), at an interior point.

    Computed as |L^(-1) v(p)|^2 from the Cholesky factor; the reciprocal is
    the least norm-squared among elements with value 1 at p.
    """
    p = np.asarray(p, dtype=complex).ravel()
    if not gram.domain.contains(p):
        raise DomainError("kernel evaluation point must be interior")
    v = monomial_values(gram.basis, p[None, :])[0]
    y = np.linalg.solve(gram.cholesky_factor(), v)
    return float(np.sum(np.abs(y) ** 2))
