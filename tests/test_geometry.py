import math
import re

import numpy as np
import pytest

from lpsubsel import (RANK_TOLERANCE, ExperimentSpec, InputError, MixtureWeights,
                      ParameterError, PointSet, SamplerConfig, SubsetBasis, adaptive_distribution,
                      brute_force_candidate_err, draw_mixture_pool, err_p,
                      exact_adaptive_sample, exact_walk_distribution,
                      gamma_bound, mixture_distribution, run_experiment,
                      squared_length_sample, theorem_params, transition_matrix)
from lpsubsel.geometry import CHUNK_ROWS

from helpers import basis_from, gram_schmidt_growth, peak_traced_bytes, residual_norms

_SMALL = PointSet(np.random.default_rng(71).standard_normal((12, 3)))
_PIVOT = SubsetBasis.empty(3).extended(0, _SMALL[0])
_TAKES_P = {
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
    "draw_mixture_pool": lambda p: draw_mixture_pool(_SMALL, p, 10,
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


@pytest.mark.parametrize("points", [
    np.array([[1 + 2j, 3], [0, 1j]]), [[1 + 2j, 3.0]], [np.array([1, 2j]), np.array([0, 1])],
    np.array([[np.complex128(1 + 2j), 3.0]], dtype=object),
    np.array([[1.0, 3.0], [np.complex64(1j), 2.0]], dtype=object),
    np.array([[1 + 2j, 3.0]], dtype=object),
], ids=["ndarray", "list", "complex_rows", "object_numpy_complex", "object_complex64",
        "object_python_complex"])
def test_pointset_refuses_complex_values(points):
    # a cast would keep the real parts only: [[1, 3], [0, 0]] for the first,
    # and [[1, 3]] for the numpy complex scalar in an object array
    with pytest.raises(InputError, match="^points have complex values"):
        PointSet(points)


def test_pointset_takes_booleans_as_zero_and_one():
    assert PointSet(np.array([[True, False], [False, True]])).points.tolist() == [[1, 0], [0, 1]]


@pytest.mark.parametrize("p", [0.5, np.nan, np.inf], ids=["half", "nan", "inf"])
@pytest.mark.parametrize("call", list(_TAKES_P.values()), ids=list(_TAKES_P))
def test_every_function_that_takes_p_rejects_a_bad_one(call, p):
    # a parameter fault, named as one: not an answer, a numpy error or a row
    with pytest.raises(ParameterError, match="^p must be a finite real >= 1, got "):
        call(p)


def test_extend_normalizes_first_point():
    X = PointSet(np.array([[3.0, 0.0, 0.0]]))
    basis = SubsetBasis.empty(3).extended(0, X[0])
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


def test_extend_rejects_wrong_dimension_and_nonfinite():
    with pytest.raises(InputError, match="^expected 1 vectors of dimension 2, got shape"):
        SubsetBasis.empty(2).extended(0, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(InputError):
        SubsetBasis.empty(2).extended(0, np.array([np.nan, 1.0]))


def test_extended_many_equals_one_by_one_growth_bit_for_bit():
    # rows of every kind in one block: independent, nearly dependent on
    # earlier rows (residuals around the rank tolerance), exactly
    # dependent, zero, and of wildly different scales
    rng = np.random.default_rng(12)
    for case in range(60):
        d = int(rng.integers(1, 12))
        n = int(rng.integers(1, 16))
        rows = rng.standard_normal((n, d)) * np.exp(4.0 * rng.standard_normal((n, 1)))
        for i in range(2, n, 3):
            mix = rng.standard_normal(2) @ rows[:2]
            rows[i] = mix + 10.0 ** -rng.uniform(6, 14) * np.linalg.norm(mix) * \
                rng.standard_normal(d)
        rows[rng.integers(0, n)] = 0.0
        start = int(rng.integers(0, n))
        one_by_one = basis_from(PointSet(rows), range(start))
        block = one_by_one.extended_many(range(start, n), rows[start:])
        for i in range(start, n):
            one_by_one = one_by_one.extended(i, rows[i])
        assert block.member_indices == one_by_one.member_indices == tuple(range(n))
        assert block.basis.shape == one_by_one.basis.shape
        assert block.basis.tobytes() == one_by_one.basis.tobytes(), case


def test_extended_many_past_rank_d_appends_members_and_keeps_the_basis():
    # the first d rows span R^d; the loop stops there, and the rows after
    # it only join the member list, as in a chain of one-row extensions
    # and in the reference loop, which scores every row
    rng = np.random.default_rng(19)
    d, n = 6, 30
    rows = rng.standard_normal((n, d)) * np.exp(4.0 * rng.standard_normal((n, 1)))
    rows[d + 3] = rows[0]
    indices = range(100, 100 + n)
    got = SubsetBasis.empty(d).extended_many(indices, rows)
    chain = SubsetBasis.empty(d)
    for i, row in zip(indices, rows):
        chain = chain.extended(i, row)
    spanned = SubsetBasis.empty(d).extended_many(indices[:d], rows[:d])
    want = gram_schmidt_growth(SubsetBasis.empty(d), indices, rows)
    assert spanned.rank == got.rank == d
    assert got.member_indices == chain.member_indices == want.member_indices == tuple(indices)
    for other in (chain, spanned, want):
        assert got.basis.tobytes() == other.basis.tobytes()
    more = got.extended_many(range(5), rows[:5])  # already at rank d
    assert more.member_indices == tuple(indices) + tuple(range(5))
    assert more.basis.tobytes() == got.basis.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_extended_many_checks_every_row_before_growing(bad):
    basis = SubsetBasis.empty(3).extended(0, np.array([1.0, 0.0, 0.0]))
    rows = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, bad, 0.0]])
    with pytest.raises(InputError, match="^vector contains NaN or Inf coordinates$"):
        basis.extended_many([1, 2, 3], rows)
    assert basis.member_indices == (0,) and basis.rank == 1
    with pytest.raises(InputError, match="dimension 3"):
        basis.extended_many([1, 2], rows)  # one index short of the rows


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("shape", [(2, 5), (5,), (2, 2)], ids=["rows", "one_row", "narrow"])
def test_distances_reject_rows_of_another_width(rank, shape):
    # an empty basis would return the rows' own norms, and a grown one
    # would raise numpy's matmul error
    basis = SubsetBasis.empty(3).extended_many(range(rank), np.eye(3)[:rank])
    named = re.escape(f"expected rows of dimension 3, got shape {shape}")
    with pytest.raises(InputError, match=f"^{named}$"):
        basis.distances(np.ones(shape))


def test_a_row_whose_squared_norm_underflows_adds_no_direction():
    # 1.5e-162 squared underflows to 0, so the row's norm is 0, but its
    # residual off this basis keeps a square of about 5e-324: the direction
    # it would add has norm 0.91, not 1
    basis = SubsetBasis.empty(2).extended(0, np.array([-2.0, 1.0]))
    grown = basis.extended_many([1], np.full((1, 2), 1.5e-162))
    assert grown.member_indices == (0, 1)
    assert grown.basis.tobytes() == basis.basis.tobytes()


def test_dist_to_span_examples():
    # one row (1-d) and rows (2-d) take the one path
    basis = SubsetBasis.empty(3).extended(0, np.array([1.0, 0.0, 0.0]))
    assert basis.distances(np.array([1.0, 1.0, 0.0])) == pytest.approx(1.0)
    assert basis.distances(np.array([2.5, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-8 * 2.5)
    assert SubsetBasis.empty(2).distances(np.array([3.0, 4.0])) == pytest.approx(5.0)
    many = basis.distances(np.array([[1.0, 1.0, 0.0], [2.5, 0.0, 0.0], [0.0, 3.0, 4.0]]))
    np.testing.assert_allclose(many, [1.0, 0.0, 5.0], atol=1e-8 * 2.5)


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
        basis = basis.extended(int(idx), X[idx])
        cur = err_p(X, basis, p)
        assert cur <= prev + 1e-9
        prev = cur


def test_dist_nonincreasing_under_extension():
    rng = np.random.default_rng(8)
    X = PointSet(rng.standard_normal((10, 4)))
    probe = rng.standard_normal(4)
    basis = SubsetBasis.empty(4)
    prev = basis.distances(probe)
    for idx in range(6):
        basis = basis.extended(idx, X[idx])
        cur = basis.distances(probe)
        assert cur <= prev + 1e-9
        prev = cur


def test_full_rank_basis_gives_zero_error():
    rng = np.random.default_rng(9)
    X = PointSet(rng.standard_normal((8, 3)))
    basis = basis_from(X, range(8))
    assert basis.rank == 3
    assert err_p(X, basis, 2.0) == pytest.approx(0.0, abs=1e-16)


@pytest.mark.parametrize("c", [1e-160, 1e-161, 2e-162, 1e-200, 5e-324])
def test_a_subnormal_residual_adds_no_direction(c):
    # the residual of (c, c) against (-2, 1) has a subnormal squared norm,
    # whose root has lost the digits a unit direction needs
    basis = SubsetBasis.empty(2).extended(0, [-2.0, 1.0])
    grown = basis.extended(1, [c, c])
    assert grown.rank == 1 and grown.member_indices == (0, 1)
    assert np.array_equal(grown.basis, basis.basis)
    gram = grown.basis @ grown.basis.T
    assert np.abs(gram - np.eye(grown.rank)).max() <= 1e-12
    # a residual whose squared norm is normal still adds its direction
    wider = basis.extended(1, [1e-150, 1e-150])
    assert wider.rank == 2
    assert np.abs(wider.basis @ wider.basis.T - np.eye(2)).max() <= 1e-12


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
            basis = basis.extended(int(idx), X[idx])
        gram = basis.basis @ basis.basis.T
        assert np.abs(gram - np.eye(basis.rank)).max() <= 1e-8
        assert basis.rank <= min(len(basis.member_indices), d)
        for idx in basis.member_indices:
            nrm = np.linalg.norm(X.points[idx])
            assert basis.distances(X.points[idx]) <= 1e-8 * max(nrm, 1e-30)


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
    want = np.concatenate([residual_norms(rows[start:start + CHUNK_ROWS], basis)
                           for start in range(0, n, CHUNK_ROWS)] or [np.empty(0)])
    assert got.tobytes() == want.tobytes()
    # ... which a single whole-array product matches bit for bit within one
    # chunk, and to rounding beyond it, where BLAS may pick another kernel
    whole = residual_norms(rows, basis)
    if n <= CHUNK_ROWS:
        assert got.tobytes() == whole.tobytes()
    norms = np.linalg.norm(rows, axis=1)
    assert np.all(np.abs(got - whole) <= 1e-14 * norms)


def test_distances_of_a_vector_is_the_unchunked_formula():
    basis = basis_from(PointSet(np.random.default_rng(12).standard_normal((3, 6))), range(3))
    v = np.random.default_rng(13).standard_normal(6)
    got = basis.distances(v)
    assert got.shape == () and got.tobytes() == residual_norms(v, basis).tobytes()


def _laid_out(rows, layout):
    """`rows` as a C-ordered, F-ordered, or row- and column-strided array."""
    if layout == "F":
        return np.asfortranarray(rows)
    if layout == "strided":
        buf = np.zeros((2 * rows.shape[0], 2 * rows.shape[1]))
        buf[::2, ::2] = rows
        return buf[::2, ::2]
    return rows


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("rank", [0, 1, 17, 40])
def test_distances_are_the_norm_formula_bit_for_bit(rank, layout):
    # d = 40: from d >= 32 squares reduced in F order sum in another order
    d = 40
    rng = np.random.default_rng(15)
    rows = rng.lognormal(size=(CHUNK_ROWS + 300, 1)) * rng.standard_normal((CHUNK_ROWS + 300, d))
    rows[:5] = -0.0
    rows[5:10, ::3] = -0.0
    rows[10:20] *= 1e150
    rows[20:30] *= 1e-150
    rows[30:40, ::2] *= 1e150
    rows[30:40, 1::2] *= 1e-150
    basis = basis_from(PointSet(rng.standard_normal((rank, d))), range(rank)) \
        if rank else SubsetBasis.empty(d)
    assert basis.rank == rank
    view = _laid_out(rows, layout)
    want = np.concatenate([residual_norms(view[start:start + CHUNK_ROWS], basis)
                           for start in range(0, len(view), CHUNK_ROWS)])
    assert basis.distances(view).tobytes() == want.tobytes()
    for i in (0, 7, 15, 25, 35, 200):
        # a 1-D row, strided in the F and strided layouts
        assert basis.distances(view[i]).tobytes() == residual_norms(view[i], basis).tobytes()


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_extended_many_is_the_gram_schmidt_loop_bit_for_bit(layout):
    # rows of every kind: independent, nearly dependent on earlier rows
    # (residuals around the rank tolerance), exactly dependent, zero, -0.0,
    # and of wildly different scales, grown from bases of any rank
    rng = np.random.default_rng(16)
    grew = 0
    for case in range(80):
        d = int(rng.integers(1, 48))
        n = int(rng.integers(1, 20))
        rows = rng.standard_normal((n, d)) * np.exp(4.0 * rng.standard_normal((n, 1)))
        for i in range(2, n, 3):
            mix = rng.standard_normal(2) @ rows[:2]
            rows[i] = mix + 10.0 ** -rng.uniform(6, 14) * np.linalg.norm(mix) * \
                rng.standard_normal(d)
        rows[rng.integers(0, n)] = 0.0
        rows[rng.integers(0, n)] = -0.0
        rows[rng.integers(0, n), ::2] *= 1e140
        rank = int(rng.integers(0, d + 1))
        start = basis_from(PointSet(rng.standard_normal((max(rank, 1), d))), range(rank)) \
            if rank else SubsetBasis.empty(d)
        view = _laid_out(rows, layout)
        got = start.extended_many(range(n), view)
        want = gram_schmidt_growth(start, range(n), view)
        assert got.member_indices == want.member_indices
        assert got.basis.shape == want.basis.shape
        assert got.basis.tobytes() == want.basis.tobytes(), case
        grew += got.rank > rank
    assert grew


def test_extended_many_takes_a_strided_row_norm_as_the_gram_schmidt_loop():
    # Rows against the first 30 axes, each strided in its buffer, whose one
    # residual coordinate is RANK_TOLERANCE times the larger of two
    # roundings of the row norm: a strided dot and np.linalg.norm's
    # contiguous one. Where the two differ, the row joins the basis under
    # one rounding only.
    d, r = 40, 30
    rng = np.random.default_rng(17)
    basis = SubsetBasis((), np.eye(d)[:r], d)
    split = 0
    for _ in range(100):
        buf = np.zeros((1, 2 * d))
        buf[0, :2 * r:2] = rng.standard_normal(r)
        rows = buf[:, ::2]
        norms = (math.sqrt(rows[0].dot(rows[0])), float(np.linalg.norm(rows[0])))
        buf[0, 2 * r] = RANK_TOLERANCE * max(norms)
        got = basis.extended_many([0], rows)
        want = gram_schmidt_growth(basis, [0], rows)
        assert got.rank == want.rank and got.basis.tobytes() == want.basis.tobytes()
        split += norms[0] != norms[1]
    assert split


def test_err_p_scores_in_chunks_without_copying_the_dataset():
    # three (n, d) temporaries at once before scoring went chunk by chunk
    rng = np.random.default_rng(14)
    X = PointSet(rng.standard_normal((20_000, 32)))
    basis = basis_from(X, range(3))
    assert peak_traced_bytes(lambda: err_p(X, basis, 2.0)) <= 0.25 * X.points.nbytes
