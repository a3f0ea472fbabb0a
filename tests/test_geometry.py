import numpy as np
import pytest

from lpsubsel import (ErrParams, ExperimentSpec, InputError, MixtureWeights, ParameterError,
                      PointSet, SamplerConfig, SubsetBasis, adaptive_distribution,
                      brute_force_candidate_err, draw_mixture_pool, err_p,
                      exact_adaptive_sample, exact_walk_distribution, extend_basis,
                      gamma_bound, mixture_distribution, run_experiment,
                      squared_length_sample, theorem_params, transition_matrix)
from lpsubsel.geometry import CHUNK_ROWS

from helpers import basis_from, peak_traced_bytes

_SMALL = PointSet(np.random.default_rng(71).standard_normal((12, 3)))
_PIVOT = extend_basis(SubsetBasis.empty(3), 0, _SMALL)
_TAKES_P = {
    "ErrParams": lambda p: ErrParams(p=p, k=1),
    "err_p": lambda p: err_p(_SMALL, _PIVOT, p),
    "MixtureWeights": lambda p: MixtureWeights(p=p),
    "mixture_distribution": lambda p: mixture_distribution(_SMALL, p),
    "adaptive_distribution": lambda p: adaptive_distribution(_SMALL, _PIVOT, p),
    "transition_matrix": lambda p: transition_matrix(_SMALL, _PIVOT, p),
    "exact_walk_distribution": lambda p: exact_walk_distribution(_SMALL, _PIVOT, None, p, 3),
    "gamma_bound": lambda p: gamma_bound(_SMALL, _PIVOT, None, p, 3),
    "brute_force_candidate_err": lambda p: brute_force_candidate_err(_SMALL, 1, p),
    "SamplerConfig": lambda p: SamplerConfig(k=1, p=p, delta=0.5, epsilon=0.125, epsilon1=0.1,
                                             epsilon2=0.01, m=3, t=1, l=1, repetitions=1),
    "theorem_params": lambda p: theorem_params(1, p, 0.5, t_override=2),
    "draw_mixture_pool": lambda p: draw_mixture_pool(iter(_SMALL.points), p, 10,
                                                     np.random.default_rng(72)),
    "squared_length_sample": lambda p: squared_length_sample(_SMALL.points, p, 3,
                                                             np.random.default_rng(73)),
    "exact_adaptive_sample": lambda p: exact_adaptive_sample(_SMALL.points, p, 2, 1,
                                                             np.random.default_rng(74)),
    "run_experiment": lambda p: run_experiment(ExperimentSpec(input=_SMALL.points, p=p, t=2)),
}


def test_pointset_rejects_nonfinite_and_degenerate():
    with pytest.raises(InputError):
        PointSet(np.array([[1.0, np.nan]]))
    with pytest.raises(InputError):
        PointSet(np.array([[np.inf, 0.0]]))
    with pytest.raises(InputError):
        PointSet(np.empty((0, 3)))
    with pytest.raises(InputError):
        PointSet(np.array([1.0, 2.0]))  # not 2-d


@pytest.mark.parametrize("p", [0.5, np.nan, np.inf], ids=["half", "nan", "inf"])
@pytest.mark.parametrize("call", list(_TAKES_P.values()), ids=list(_TAKES_P))
def test_every_function_that_takes_p_rejects_a_bad_one(call, p):
    # a parameter fault, named as one: not an answer, a numpy error or a row
    with pytest.raises(ParameterError, match="^p must be a finite real >= 1, got "):
        call(p)


def test_extend_normalizes_first_point():
    X = PointSet(np.array([[3.0, 0.0, 0.0]]))
    basis = extend_basis(SubsetBasis.empty(3), 0, X)
    assert basis.rank == 1
    assert basis.member_indices == (0,)
    np.testing.assert_allclose(basis.basis[0], [1.0, 0.0, 0.0])


def test_extend_dependent_point_keeps_rank():
    X = PointSet(np.array([[1.0, 0.0, 0.0], [5.0, 0.0, 0.0]]))
    basis = basis_from(X, [0, 1])
    assert basis.rank == 1
    assert basis.member_indices == (0, 1)


def test_extend_gram_schmidt_on_axis_aligned_data():
    X = PointSet(np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
    basis = basis_from(X, [0, 1])
    assert basis.rank == 2
    np.testing.assert_allclose(basis.basis[1], [0.0, 1.0, 0.0], atol=1e-12)


def test_extend_rejects_bad_index_and_nonfinite():
    X = PointSet(np.array([[1.0, 0.0]]))
    with pytest.raises(InputError):
        extend_basis(SubsetBasis.empty(2), 3, X)
    with pytest.raises(InputError):
        SubsetBasis.empty(2).extended(0, np.array([np.nan, 1.0]))


def test_dist_to_span_examples():
    basis = SubsetBasis.empty(3).extended(0, np.array([1.0, 0.0, 0.0]))
    assert basis.distance(np.array([1.0, 1.0, 0.0])) == pytest.approx(1.0)
    assert basis.distance(np.array([2.5, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-8 * 2.5)
    assert SubsetBasis.empty(2).distance(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_dist_to_span_dimension_mismatch():
    basis = SubsetBasis.empty(3)
    with pytest.raises(InputError):
        basis.distance(np.array([1.0, 2.0]))


def test_err_p_examples():
    X = PointSet(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert err_p(X, SubsetBasis.empty(2), 2.0) == pytest.approx(5.0)
    X2 = PointSet(np.array([[3.0, 4.0]]))
    basis = SubsetBasis.empty(2).extended(0, np.array([1.0, 0.0]))
    assert err_p(X2, basis, 1.0) == pytest.approx(4.0)


def test_err_p_empty_basis_equals_squared_frobenius_norm():
    # independent oracle: direct summation of the squared entries
    rng = np.random.default_rng(2024)
    A = rng.standard_normal((20, 5))
    X = PointSet(A)
    expected = float((A * A).sum())
    assert err_p(X, SubsetBasis.empty(5), 2.0) == pytest.approx(expected, rel=1e-12)


def test_err_p_rejects_p_below_one():
    X = PointSet(np.array([[1.0, 0.0]]))
    with pytest.raises(InputError):
        err_p(X, SubsetBasis.empty(2), 0.5)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_err_monotone_under_extension(p):
    rng = np.random.default_rng(7)
    X = PointSet(rng.standard_normal((15, 5)))
    basis = SubsetBasis.empty(5)
    prev = err_p(X, basis, p)
    for idx in rng.permutation(15)[:6]:
        basis = extend_basis(basis, int(idx), X)
        cur = err_p(X, basis, p)
        assert cur <= prev + 1e-9
        prev = cur


def test_dist_nonincreasing_under_extension():
    rng = np.random.default_rng(8)
    X = PointSet(rng.standard_normal((10, 4)))
    probe = rng.standard_normal(4)
    basis = SubsetBasis.empty(4)
    prev = basis.distance(probe)
    for idx in range(6):
        basis = extend_basis(basis, idx, X)
        cur = basis.distance(probe)
        assert cur <= prev + 1e-9
        prev = cur


def test_full_rank_basis_gives_zero_error():
    rng = np.random.default_rng(9)
    X = PointSet(rng.standard_normal((8, 3)))
    basis = basis_from(X, range(8))
    assert basis.rank == 3
    assert err_p(X, basis, 2.0) == pytest.approx(0.0, abs=1e-16)


def test_orthonormality_invariant_random_sequences():
    # random extension sequences, including near-duplicates and rescaled points
    rng = np.random.default_rng(10)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(3, 12))
        rows = rng.standard_normal((n, d))
        rows[rng.integers(0, n)] = rows[0] * 3.0  # force a dependent insertion
        X = PointSet(rows)
        basis = SubsetBasis.empty(d)
        for idx in rng.integers(0, n, size=n):
            basis = extend_basis(basis, int(idx), X)
        gram = basis.basis @ basis.basis.T
        assert np.abs(gram - np.eye(basis.rank)).max() <= 1e-8
        assert basis.rank <= min(len(basis.member_indices), d)
        for idx in basis.member_indices:
            nrm = np.linalg.norm(X.points[idx])
            assert basis.distance(X.points[idx]) <= 1e-8 * max(nrm, 1e-30)


def test_err_params_validation():
    ErrParams(p=1.5, k=2).check_dimension(3)
    with pytest.raises(InputError):
        ErrParams(p=0.9, k=2)
    with pytest.raises(InputError):
        ErrParams(p=2.0, k=0)
    with pytest.raises(InputError):
        ErrParams(p=2.0, k=4).check_dimension(3)


def _unchunked_distances(rows, basis):
    # the formula of `SubsetBasis.distances`, over the whole input at once
    return np.linalg.norm(rows - (rows @ basis.basis.T) @ basis.basis, axis=-1)


@pytest.mark.parametrize("rank", [0, 3, 6], ids=["empty", "rank3", "full_rank"])
@pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 5000])
def test_distances_match_the_unchunked_formula(n, rank):
    rng = np.random.default_rng(11)
    rows = rng.lognormal(size=(n, 1)) * rng.standard_normal((n, 6))
    basis = basis_from(PointSet(rng.standard_normal((rank, 6))), range(rank)) \
        if rank else SubsetBasis.empty(6)
    assert basis.rank == rank
    got = basis.distances(rows)
    assert got.shape == (n,)
    # each CHUNK_ROWS slice is scored by the unchanged formula ...
    want = np.concatenate([_unchunked_distances(rows[start:start + CHUNK_ROWS], basis)
                           for start in range(0, n, CHUNK_ROWS)] or [np.empty(0)])
    assert got.tobytes() == want.tobytes()
    # ... which a single whole-array product matches bit for bit within one
    # chunk, and to rounding beyond it, where BLAS may pick another kernel
    whole = _unchunked_distances(rows, basis)
    if n <= CHUNK_ROWS:
        assert got.tobytes() == whole.tobytes()
    norms = np.linalg.norm(rows, axis=1)
    assert np.all(np.abs(got - whole) <= 1e-14 * norms)


def test_distances_of_a_vector_is_the_unchunked_formula():
    basis = basis_from(PointSet(np.random.default_rng(12).standard_normal((3, 6))), range(3))
    v = np.random.default_rng(13).standard_normal(6)
    got = basis.distances(v)
    assert got.shape == () and got.tobytes() == _unchunked_distances(v, basis).tobytes()


def test_err_p_scores_in_chunks_without_copying_the_dataset():
    # three (n, d) temporaries at once before scoring went chunk by chunk
    rng = np.random.default_rng(14)
    X = PointSet(rng.standard_normal((20_000, 32)))
    basis = basis_from(X, range(3))
    assert peak_traced_bytes(lambda: err_p(X, basis, 2.0)) <= 0.25 * X.points.nbytes
