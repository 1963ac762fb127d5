import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import ZeroProfile

from holoext import integrate
from holoext.bergman import (
    GramMatrix,
    MultiIndexBasis,
    gram_matrix,
    kernel_diag_at,
    min_norm_extension,
    monomial_values,
)
from holoext.errors import (
    DimensionMismatchError,
    DomainError,
    GramConditioningError,
    InfeasibleConstraintError,
)
from holoext.geometry import Ball, sq_moduli
from holoext.integrate import _BLOCK, _box_volume, _disc_radii, _Z99, rng_stream
from holoext.weights import (
    BallStandardWeight,
    EpsilonRegularizedProfile,
    EpsilonRegularizedWeight,
    LogSingularProfile,
    RadialProfile,
    RadialWeight,
    ScaledLogProfile,
    TrivialWeight,
)

PI = math.pi
DISC = Ball(1.0, 1)
BALL2 = Ball(1.0, 2)
U = LogSingularProfile()


def comb(n, k):
    return math.comb(n, k)


def test_basis_size_and_order():
    basis = MultiIndexBasis(ambient_dim=2, degree=4, pole_dim=1)
    assert len(basis) == comb(2 + 4, 4)
    assert list(basis.indices) == sorted(basis.indices)


def test_basis_pole_split():
    basis = MultiIndexBasis(ambient_dim=3, degree=2, pole_dim=2)
    assert basis.is_pole_free((0, 0, 2))
    assert not basis.is_pole_free((1, 0, 1))
    assert basis.restriction_index((0, 0, 2)) == (2,)


def _power_prod_values(basis, pts):
    """Reference monomial values: each column a power-and-product."""
    return np.stack([np.prod(pts ** np.asarray(a), axis=1) for a in basis.indices], axis=1)


def test_monomial_values():
    basis = MultiIndexBasis(ambient_dim=2, degree=2, pole_dim=1)
    pts = np.array([[0.5, 2.0j]])
    vals = monomial_values(basis, pts)[0]
    by_index = dict(zip(basis.indices, vals))
    assert by_index[(0, 0)] == 1.0
    assert by_index[(1, 1)] == 0.5 * 2.0j
    assert by_index[(0, 2)] == (2.0j) ** 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_monomial_values_match_power_products(n):
    rng = np.random.default_rng(n)
    pts = (rng.uniform(-1, 1, (64, n)) + 1j * rng.uniform(-1, 1, (64, n))) / math.sqrt(n)
    for d in (0, 1, 8, 20):
        basis = MultiIndexBasis(n, d, 1)
        ref = _power_prod_values(basis, pts)
        got = monomial_values(basis, pts)
        assert got.shape == (len(pts), len(basis))
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
        at_zero = monomial_values(basis, np.zeros((1, n)))[0]
        assert at_zero[0] == 1.0 and not np.any(at_zero[1:])


def test_monomial_values_on_a_basis_with_holes():
    # z^1 is dropped, so z^2 has no parent in the basis
    basis = MultiIndexBasis(1, 4, 1).without([1])
    pts = np.array([[0.5 - 0.25j], [-0.7j]])
    np.testing.assert_allclose(
        monomial_values(basis, pts), _power_prod_values(basis, pts), rtol=1e-15, atol=0.0
    )
    holes = MultiIndexBasis(3, 6, 2).without([1, 4, 5, 30])
    pts = np.array([[0.3 + 0.1j, -0.2j, 0.4]])
    got = monomial_values(holes, pts)
    assert got.shape == (1, len(holes))
    np.testing.assert_allclose(got, _power_prod_values(holes, pts), rtol=1e-14, atol=0.0)


def test_monomial_values_rejects_points_of_another_dimension():
    with pytest.raises(DimensionMismatchError):
        monomial_values(MultiIndexBasis(2, 2, 1), np.ones((2, 1)))
    with pytest.raises(DimensionMismatchError):
        monomial_values(MultiIndexBasis(1, 2, 1), np.ones((1, 3)))


def test_gram_weighted_disc_monomial_norms():
    basis = MultiIndexBasis(1, 8, 1)
    g = gram_matrix(DISC, RadialWeight(U, 1), basis)
    assert g.matrix[0, 0].real == pytest.approx(PI / 2, rel=1e-10)
    assert g.matrix[1, 1].real == pytest.approx(PI / 6, rel=1e-10)


def test_gram_trivial_disc_monomial_norms():
    basis = MultiIndexBasis(1, 8, 1)
    g = gram_matrix(DISC, RadialWeight(ZeroProfile(), 1), basis)
    for m in range(9):
        assert g.matrix[m, m].real == pytest.approx(PI / (m + 1), rel=1e-10)


@pytest.mark.parametrize(
    "weight",
    [
        TrivialWeight(),
        BallStandardWeight(1),
        EpsilonRegularizedWeight(RadialWeight(U, 1), eps=0.1),
        EpsilonRegularizedWeight(TrivialWeight(), eps=0.1),
    ],
    ids=["trivial", "ball_standard", "regularized_radial", "regularized_trivial"],
)
def test_radial_gram_takes_only_radial_weights(weight):
    # the legacy weights have a RadialWeight equivalent and no radial reduction
    # of their own; their Monte Carlo Gram still runs
    with pytest.raises(ValueError, match="no radial reduction"):
        gram_matrix(DISC, weight, MultiIndexBasis(1, 2, 1))
    sampled = gram_matrix(DISC, weight, MultiIndexBasis(1, 2, 1), "monte_carlo", 20_000, 1)
    assert np.all(sampled.matrix.diagonal().real > 0.0)


def test_gram_radial_weight_is_exactly_diagonal():
    basis = MultiIndexBasis(2, 5, 1)
    g = gram_matrix(BALL2, RadialWeight(U, 1), basis)
    off = g.matrix - np.diag(np.diag(g.matrix))
    assert np.all(off == 0.0)


@pytest.mark.parametrize(
    "weight, basis",
    [
        # eps over the whole ball of C^3 is eps / 3 on the profile of the pole block z' = z
        (RadialWeight(EpsilonRegularizedProfile(ScaledLogProfile(0.5), 0.1 / 3), 3), (3, 6, 3)),
        (RadialWeight(EpsilonRegularizedProfile(ScaledLogProfile(0.5), 0.1), 2), (3, 6, 2)),
        (RadialWeight(U, 2), (2, 8, 2)),
    ],
    ids=["regularized_weight", "mixed_profile", "ball_standard"],
)
def test_radial_gram_off_diagonal_is_exactly_zero(weight, basis):
    g = gram_matrix(Ball(1.0, basis[0]), weight, MultiIndexBasis(*basis))
    assert len(g.basis) == len(MultiIndexBasis(*basis))
    off = ~np.eye(len(g.basis), dtype=bool)
    assert np.all(g.matrix[off] == 0.0)
    assert np.all(g.matrix.diagonal().real > 0.0)


class _RecordingProfile(RadialProfile):
    """The log-singular profile, recording every array it is evaluated on."""

    exponents = (1.0, 1.0)  # those of the log-singular profile

    def __init__(self):
        self.seen = []

    def value(self, t):
        self.seen.append(np.asarray(t, dtype=float).tobytes())
        return U.value(t)


def test_radial_gram_evaluates_the_weight_once_per_node_array():
    profile = _RecordingProfile()
    weight = RadialWeight(profile, 3)
    first = gram_matrix(Ball(1.0, 3), weight, MultiIndexBasis(3, 8, 3))
    calls = len(profile.seen)
    # one evaluation on each rung's nodes, 16 and 32 of them, shared by the ladders
    # of all 9 degree pairs
    assert [len(t) // 8 for t in profile.seen] == list(integrate._LADDER[:calls])
    assert calls == 2
    # nothing is kept across calls: a second assembly evaluates every rung again
    second = gram_matrix(Ball(1.0, 3), weight, MultiIndexBasis(3, 8, 3))
    assert profile.seen[calls:] == profile.seen[:calls]
    assert np.array_equal(first.matrix, second.matrix)
    plain = gram_matrix(Ball(1.0, 3), RadialWeight(U, 3), MultiIndexBasis(3, 8, 3))
    assert np.array_equal(first.matrix, plain.matrix)


def test_gram_is_hermitian_positive_definite():
    for weight in (RadialWeight(ZeroProfile(), 2), RadialWeight(U, 2)):
        g = gram_matrix(BALL2, weight, MultiIndexBasis(2, 6, 2))
        assert np.allclose(g.matrix, g.matrix.conj().T)
        assert np.all(np.linalg.eigvalsh(g.matrix) > 0)


def test_gram_monte_carlo_agrees_with_exact():
    basis = MultiIndexBasis(1, 3, 1)
    exact = gram_matrix(DISC, RadialWeight(U, 1), basis)
    sampled = gram_matrix(
        DISC, RadialWeight(U, 1), basis, method="monte_carlo", samples=400_000, seed=5
    )
    diff = np.abs(sampled.matrix - exact.matrix)
    assert np.all(diff <= 3.0 * sampled.half_widths + 1e-12)


def _whole_shard_gram(domain, weight, basis, samples, seed):
    """Reference Monte Carlo Gram: each shard's blocks drawn as
    rng.random((2m, b)), the real parts first, joined and reduced in one GEMM."""
    radii = _disc_radii(domain.bounding_balls())
    m, width = len(radii), len(basis)
    acc = np.zeros((width, width), dtype=complex)
    acc2 = np.zeros((width, width))
    for shard, done in enumerate(range(0, samples, integrate._SHARD_SIZE)):
        size = min(integrate._SHARD_SIZE, samples - done)
        rng = rng_stream(seed, shard)
        blocks = [rng.random((2 * m, min(_BLOCK, size - lo))) for lo in range(0, size, _BLOCK)]
        u = 2.0 * np.concatenate(blocks, axis=1) - 1.0
        pts = (u[:m] + 1j * u[m:]).T * radii
        inside = pts[domain.contains_moduli(sq_moduli(pts))]
        vals = _power_prod_values(basis, inside)
        wts = np.exp(-weight.value_batch(sq_moduli(inside)))
        acc += (vals * wts[:, None]).conj().T @ vals
        p2 = np.abs(vals) ** 2
        acc2 += (p2 * (wts**2)[:, None]).T @ p2
    boxvol = _box_volume(radii)
    mean = acc / samples
    var = np.maximum(acc2 / samples - np.abs(mean) ** 2, 0.0)
    return boxvol * 0.5 * (mean + mean.conj().T), _Z99 * boxvol * np.sqrt(var / samples)


def test_gram_monte_carlo_matches_whole_shard_reference(monkeypatch):
    # a short shard puts shard boundaries and ragged blocks in a small budget
    monkeypatch.setattr(integrate, "_SHARD_SIZE", 2 * _BLOCK + 3)
    basis, weight = MultiIndexBasis(2, 8, 2), RadialWeight(U, 2)
    samples = 5 * _BLOCK + 11
    got = gram_matrix(BALL2, weight, basis, method="monte_carlo", samples=samples, seed=9)
    matrix, half = _whole_shard_gram(BALL2, weight, basis, samples, 9)
    scale = np.max(np.abs(matrix))
    assert np.max(np.abs(got.matrix - matrix)) <= 1e-13 * scale
    np.testing.assert_allclose(got.half_widths, half, rtol=1e-13, atol=0.0)
    assert np.all(np.diag(got.cholesky_factor()).real > 0)


def test_gram_monte_carlo_memory_is_one_block():
    basis, weight = MultiIndexBasis(2, 8, 2), RadialWeight(U, 2)
    tracemalloc.start()
    try:
        gram_matrix(BALL2, weight, basis, method="monte_carlo", samples=500_000, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_gram_monte_carlo_rank_deficient_raises():
    # four interior samples cannot span a nine-dimensional monomial space
    with pytest.raises(GramConditioningError, match="samples"):
        gram_matrix(
            DISC,
            TrivialWeight(),
            MultiIndexBasis(1, 8, 1),
            method="monte_carlo",
            samples=5,
            seed=0,
        )


def test_gram_rejects_unknown_method_and_domain():
    basis = MultiIndexBasis(1, 2, 1)
    with pytest.raises(ValueError):
        gram_matrix(DISC, TrivialWeight(), basis, method="exact")
    with pytest.raises(ValueError):
        gram_matrix(Ball(0.5, 1), TrivialWeight(), basis)
    with pytest.raises(ValueError):
        gram_matrix(BALL2, TrivialWeight(), basis)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            gram_matrix(DISC, TrivialWeight(), basis, method="monte_carlo", samples=samples)


class _DivergentProfile(RadialProfile):
    """u = 2 log(1 - e^t): decreasing, makes e^(-phi) non-integrable."""

    exponents = (-2.0, 1.0)  # u ~ 2 log(-t) at t -> 0-, and u ~ -2 e^t at t -> -inf

    def value(self, t):
        with np.errstate(divide="ignore"):
            return 2.0 * np.log(-np.expm1(np.asarray(t, dtype=float)))

    def derivative(self, t):
        return -2.0 / np.expm1(-np.asarray(t, dtype=float))

    def inverse(self, s):
        raise NotImplementedError


def test_gram_excludes_non_integrable_monomials():
    g = gram_matrix(DISC, RadialWeight(_DivergentProfile(), 1), MultiIndexBasis(1, 2, 1))
    assert len(g.excluded) == 3
    assert len(g.basis) == 0
    assert all("quadrature" in reason for _, reason in g.excluded)
    # data on an excluded pole-free monomial is not a truncation problem
    with pytest.raises(InfeasibleConstraintError, match="non-integrable") as err:
        min_norm_extension({(): 1.0}, g)
    assert err.value.needed_degree is None


def test_min_norm_disc_constant_data():
    g = gram_matrix(DISC, RadialWeight(U, 1), MultiIndexBasis(1, 8, 1))
    res = min_norm_extension({(): 1.0}, g)
    assert res.norm_squared == pytest.approx(PI / 2, rel=1e-10)
    assert res.max_pole_coefficient < 1e-10
    assert res.constraint_residual <= 1e-10


def test_min_norm_ball_constant_data():
    g = gram_matrix(BALL2, RadialWeight(U, 2), MultiIndexBasis(2, 8, 2))
    res = min_norm_extension({(): 1.0}, g)
    assert res.norm_squared == pytest.approx(PI**2 / 12, rel=1e-10)
    assert res.max_pole_coefficient < 1e-10


def test_min_norm_split_variable_data():
    # V = {z_1 = 0} in the ball of C^2 with a weight radial in z_1:
    # the flat extension of f(z_2) = z_2 is optimal
    g = gram_matrix(BALL2, RadialWeight(U, 1), MultiIndexBasis(2, 8, 1))
    res = min_norm_extension({(1,): 1.0}, g)
    assert res.max_pole_coefficient < 1e-10
    expected = g.matrix[g.basis.indices.index((0, 1)), g.basis.indices.index((0, 1))]
    assert res.norm_squared == pytest.approx(expected.real, rel=1e-10)
    assert res.norm_squared == pytest.approx(PI**2 / 8, rel=1e-10)


def test_min_norm_norm_matches_quadratic_form():
    g = gram_matrix(BALL2, RadialWeight(U, 1), MultiIndexBasis(2, 6, 1))
    res = min_norm_extension({(0,): 1.0, (2,): 0.25j}, g)
    c = res.coefficients
    direct = float(np.real(np.vdot(c, g.matrix @ c)))
    assert res.norm_squared == pytest.approx(direct, rel=1e-12)


def test_min_norm_restriction_matches_data():
    g = gram_matrix(BALL2, RadialWeight(U, 1), MultiIndexBasis(2, 6, 1))
    data = {(0,): 2.0, (1,): -1.0j}
    res = min_norm_extension(data, g)
    restriction = res.restriction_coefficients()
    assert restriction[(0,)] == pytest.approx(2.0)
    assert restriction[(1,)] == pytest.approx(-1.0j)
    assert restriction[(3,)] == pytest.approx(0.0, abs=1e-12)


def test_min_norm_infeasible_degree_reports_requirement():
    g = gram_matrix(BALL2, RadialWeight(U, 1), MultiIndexBasis(2, 4, 1))
    with pytest.raises(InfeasibleConstraintError) as err:
        min_norm_extension({(6,): 1.0}, g)
    assert err.value.needed_degree == 6


def test_min_norm_rejects_wrong_index_length():
    g = gram_matrix(DISC, RadialWeight(ZeroProfile(), 1), MultiIndexBasis(1, 4, 1))
    with pytest.raises(InfeasibleConstraintError):
        min_norm_extension({(1,): 1.0}, g)


def test_min_norm_optimality_against_feasible_perturbations():
    g = gram_matrix(BALL2, RadialWeight(U, 2), MultiIndexBasis(2, 6, 2))
    res = min_norm_extension({(): 1.0}, g)
    c = res.coefficients
    base = res.norm_squared
    free = [i for i, a in enumerate(g.basis.indices) if not g.basis.is_pole_free(a)]
    rng = np.random.default_rng(17)
    for _ in range(20):
        delta = np.zeros(len(c), dtype=complex)
        delta[free] = 0.1 * (rng.normal(size=len(free)) + 1j * rng.normal(size=len(free)))
        perturbed = c + delta
        assert g.norm_squared(perturbed) >= base - 1e-10


def test_duality_with_kernel_diagonal():
    g = gram_matrix(DISC, RadialWeight(U, 1), MultiIndexBasis(1, 8, 1))
    res = min_norm_extension({(): 1.0}, g)
    k00 = kernel_diag_at(g, [0.0])
    assert res.norm_squared == pytest.approx(1.0 / k00, rel=1e-10)
    assert k00 == pytest.approx(2.0 / PI, rel=1e-10)


def test_kernel_diag_classical_value():
    g = gram_matrix(DISC, RadialWeight(ZeroProfile(), 1), MultiIndexBasis(1, 8, 1))
    assert kernel_diag_at(g, [0.0]) == pytest.approx(1.0 / PI, rel=1e-12)


def test_kernel_diag_monotone_in_degree():
    for p in ([0.0], [0.4], [0.3 + 0.2j]):
        values = [
            kernel_diag_at(
                gram_matrix(DISC, RadialWeight(U, 1), MultiIndexBasis(1, d, 1)), p
            )
            for d in (4, 6, 8)
        ]
        assert values[0] <= values[1] + 1e-12
        assert values[1] <= values[2] + 1e-12


def test_kernel_diag_requires_interior_point():
    g = gram_matrix(DISC, RadialWeight(ZeroProfile(), 1), MultiIndexBasis(1, 4, 1))
    with pytest.raises(DomainError):
        kernel_diag_at(g, [1.0])


def test_norm_convergence_in_degree_for_radial_data():
    # radial scenarios are exactly representable: degree 6 and 8 agree
    norms = []
    for d in (6, 8):
        g = gram_matrix(BALL2, RadialWeight(U, 2), MultiIndexBasis(2, d, 2))
        norms.append(min_norm_extension({(): 1.0}, g).norm_squared)
    assert norms[0] == pytest.approx(norms[1], rel=1e-6)


def test_regularized_weight_keeps_flat_minimizer():
    # eps = 0.5 over the whole ball of C^2 is eps / 2 on the profile
    weight = RadialWeight(EpsilonRegularizedProfile(U, 0.5 / 2), 2)
    g = gram_matrix(BALL2, weight, MultiIndexBasis(2, 6, 2))
    res = min_norm_extension({(): 1.0}, g)
    assert res.max_pole_coefficient < 1e-8
    # the heavier weight shrinks e^(-phi), hence the weighted norm
    plain = min_norm_extension(
        {(): 1.0}, gram_matrix(BALL2, RadialWeight(U, 2), MultiIndexBasis(2, 6, 2))
    )
    assert res.norm_squared < plain.norm_squared


def _kkt_reference(f_coeffs, gram):
    """Coefficients from the dense Lagrange-multiplier (KKT) system."""
    basis = gram.basis
    pinned = basis.pole_free_positions()
    size, m = len(basis), len(pinned)
    sel = np.zeros((m, size))
    sel[np.arange(m), pinned] = 1.0
    b = [f_coeffs.get(basis.restriction_index(basis.indices[i]), 0.0) for i in pinned]
    kkt = np.block([[gram.matrix, sel.T], [sel, np.zeros((m, m))]])
    rhs = np.concatenate([np.zeros(size), b])
    return np.linalg.solve(kkt, rhs)[:size]


@pytest.mark.parametrize(
    "make_gram, data",
    [
        (
            lambda: gram_matrix(
                BALL2,
                RadialWeight(U, 1),
                MultiIndexBasis(2, 6, 1),
                method="monte_carlo",
                samples=200_000,
                seed=3,
            ),
            {(0,): 1.0, (2,): 0.5 - 0.2j},
        ),
        # degree 0: every coefficient is pinned and the free block is empty
        (lambda: gram_matrix(BALL2, RadialWeight(U, 2), MultiIndexBasis(2, 0, 2)), {(): 1.0}),
        (
            lambda: gram_matrix(BALL2, RadialWeight(U, 1), MultiIndexBasis(2, 6, 1)),
            {(0,): 1.0, (2,): 0.5 - 0.2j},
        ),
    ],
    ids=["monte_carlo", "degree0", "radial"],
)
def test_min_norm_matches_kkt_reference(make_gram, data):
    g = make_gram()
    res = min_norm_extension(data, g)
    ref = _kkt_reference(data, g)
    assert np.allclose(res.coefficients, ref, rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))
    assert res.norm_squared == pytest.approx(g.norm_squared(ref), rel=1e-12)
    assert res.constraint_residual == 0.0
    if not np.any(g.matrix - np.diag(np.diag(g.matrix))):
        # a diagonal Gram couples nothing to the pinned block: flat extension
        assert res.max_pole_coefficient == 0.0


def test_min_norm_indefinite_free_block_raises():
    basis = MultiIndexBasis(1, 1, 1)
    g = GramMatrix(basis=basis, matrix=np.diag([1.0, -1.0]).astype(complex), domain=DISC)
    with pytest.raises(GramConditioningError):
        min_norm_extension({(): 1.0}, g)


def test_min_norm_on_a_diagonal_gram_needs_no_factorisation(monkeypatch):
    import holoext.bergman as bergman

    # built before counting: its own positive-definiteness check factors it
    sampled = gram_matrix(
        BALL2, RadialWeight(U, 1), MultiIndexBasis(2, 2, 1), method="monte_carlo", samples=20_000, seed=1
    )
    factored = []
    inner = bergman._cholesky

    def counted(*args, **kwargs):
        factored.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(bergman, "_cholesky", counted)
    g = gram_matrix(BALL2, RadialWeight(U, 1), MultiIndexBasis(2, 6, 1))
    data = {(0,): 1.0, (2,): 0.5 - 0.2j}
    res = min_norm_extension(data, g)
    assert factored == []
    free = [i for i, a in enumerate(g.basis.indices) if not g.basis.is_pole_free(a)]
    assert np.all(res.coefficients[free] == 0.0)
    assert res.restriction_coefficients()[(2,)] == 0.5 - 0.2j
    assert res.constraint_residual == 0.0
    # a sampled Gram couples the blocks and is still solved by Cholesky
    min_norm_extension(data, sampled)
    assert len(factored) == 1


@pytest.mark.parametrize("entry", [0.0, -2.0, np.nan, np.inf, 1.0 + 1e-3j])
def test_min_norm_diagonal_gram_rejects_a_bad_free_entry(entry):
    # basis z^0, z^1, z^2 on the disc: z^0 is pinned, z^1 and z^2 are free
    g = GramMatrix(
        basis=MultiIndexBasis(1, 2, 1),
        matrix=np.diag([1.0, entry, 0.5]).astype(complex),
        domain=DISC,
    )
    with pytest.raises(GramConditioningError):
        min_norm_extension({(): 1.0}, g)


@pytest.mark.parametrize(
    "coeff", [np.nan, np.inf, complex(1.0, np.nan), "2", True, None], ids=repr
)
@pytest.mark.parametrize("method", ["radial_exact", "monte_carlo"])
def test_min_norm_rejects_data_that_is_not_a_finite_number(method, coeff):
    # the radial Gram is diagonal, the sampled one dense
    g = gram_matrix(
        BALL2, RadialWeight(U, 1), MultiIndexBasis(2, 4, 1), method=method, samples=20_000, seed=1
    )
    with pytest.raises(ValueError, match=r"f coefficient at \(0,\)"):
        min_norm_extension({(0,): coeff}, g)


@pytest.mark.parametrize("index", [(-1,), (1.0,), (0.5,), (True,)], ids=repr)
def test_min_norm_rejects_a_bad_multi_index(index):
    # not blamed on the basis: the index itself is named before any solve
    g = gram_matrix(BALL2, RadialWeight(U, 1), MultiIndexBasis(2, 4, 1))
    message = re.escape(repr(index)) + " must be 1 non-negative integer"
    with pytest.raises(InfeasibleConstraintError, match=message):
        min_norm_extension({index: 1.0}, g)


def _beta(a, b):
    return Fraction(math.factorial(a - 1) * math.factorial(b - 1), math.factorial(a + b - 1))


@pytest.mark.parametrize("n, d, k", [(3, 6, 1), (3, 6, 2), (2, 8, 1), (3, 10, 3)])
def test_radial_gram_entries_closed_form(n, d, k):
    # log-singular weight: e^(-phi) = (1 - |z'|^2)^k, so each entry is
    # angular * slice * (mu_k / 2) B(|a'| + k, n - k + |a''| + k + 1)
    basis = MultiIndexBasis(n, d, k)
    g = gram_matrix(Ball(1.0, n), RadialWeight(U, k), basis)
    assert g.basis.indices == basis.indices
    mu_k = 2.0 * PI**k / math.factorial(k - 1)
    for i, alpha in enumerate(basis.indices):
        a1, a2 = alpha[:k], alpha[k:]
        m1, m2 = sum(a1), sum(a2)
        angular = Fraction(
            math.factorial(k - 1) * math.prod(math.factorial(a) for a in a1),
            math.factorial(k - 1 + m1),
        )
        slice_moment = Fraction(
            math.prod(math.factorial(a) for a in a2), math.factorial(n - k + m2)
        )
        exact = (
            float(angular * slice_moment * _beta(m1 + k, n - k + m2 + k + 1))
            * PI ** (n - k)
            * mu_k
            / 2.0
        )
        assert g.matrix[i, i].real == pytest.approx(exact, rel=1e-12), alpha


@pytest.mark.parametrize("n, d, k, calls", [(3, 12, 3, 13), (3, 6, 1, 28)])
def test_radial_gram_one_quadrature_per_degree_pair(monkeypatch, n, d, k, calls):
    import holoext.bergman as bergman

    seen = []
    inner = bergman.radial_integrate

    def counted(*args, **kwargs):
        quad = inner(*args, **kwargs)
        seen.append(quad.method)
        return quad

    monkeypatch.setattr(bergman, "radial_integrate", counted)
    g = gram_matrix(Ball(1.0, n), RadialWeight(U, k), MultiIndexBasis(n, d, k))
    # one quadrature per distinct (|alpha'|, |alpha''|), each on the Gauss–Jacobi ladder
    assert seen == ["gauss-jacobi"] * calls
    assert len(g.basis) == math.comb(n + d, d)


class _AdaptiveScaledLog(ScaledLogProfile):
    """The scaled profile without its exponents, so its radial Gram runs the
    adaptive rule alone: the reference for the fallback."""

    exponents = None


class _WrongEdgeScaledLog(ScaledLogProfile):
    """The scaled profile at a = 0.3 declaring the boundary exponent 0.05
    instead of 0.3, so the ladder's weight misses the factor (1 - r)^0.25."""

    exponents = (0.05, 0.3)


def test_radial_gram_falls_back_to_the_adaptive_rule(monkeypatch):
    # no catalog profile falls back, so a wrong declared edge forces it: none
    # of the seven degree pairs converges on the ladder
    import holoext.bergman as bergman

    fallbacks = []
    inner = bergman.radial_integrate

    def recorded(*args, **kwargs):
        quad = inner(*args, **kwargs)
        if quad.method == "adaptive-quadrature":
            fallbacks.append(quad.value)
        return quad

    basis = MultiIndexBasis(1, 6, 1)
    reference = gram_matrix(DISC, RadialWeight(_AdaptiveScaledLog(0.3), 1), basis)
    monkeypatch.setattr(bergman, "radial_integrate", recorded)
    g = gram_matrix(DISC, RadialWeight(_WrongEdgeScaledLog(0.3), 1), basis)
    assert len(fallbacks) == len(basis)
    assert g.excluded == reference.excluded == ()
    assert g.basis.indices == reference.basis.indices
    diag, ref = g.matrix.diagonal().real, reference.matrix.diagonal().real
    np.testing.assert_allclose(diag, ref, rtol=1e-12, atol=0.0)
    # on the disc an entry is its radial quadrature: each fallback keeps its bits
    assert all(v in diag and v in ref for v in fallbacks)
