import itertools
import math

import numpy as np
import pytest

from lpsubsel import (DistributionTable, GuardError, InputError, PointSet,
                      SubsetBasis, adaptive_distribution,
                      brute_force_candidate_err, err_p, exact_walk_distribution, extend_basis,
                      gamma_bound, mixture_distribution, svd_optimal_err2,
                      transition_matrix, tv_distance)

from helpers import basis_from, random_instance, random_nontrivial_subset


def test_distribution_table_validation():
    DistributionTable(np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        DistributionTable(np.array([0.7, 0.4]))
    with pytest.raises(InputError):
        DistributionTable(np.array([-0.1, 1.1]))


_NINE = PointSet(np.random.default_rng(5).standard_normal((9, 3)))
_NINE_PIVOT = extend_basis(SubsetBasis.empty(3), 0, _NINE)


@pytest.mark.parametrize("call, message", [
    (lambda: DistributionTable(np.full((2, 2), 0.25)), "masses must be a vector"),
    (lambda: exact_walk_distribution(_NINE, _NINE_PIVOT, None, 2.0, -1), "m must be >= 0"),
    (lambda: gamma_bound(_NINE, _NINE_PIVOT, None, 2.0, 0), "m must be >= 1"),
    (lambda: svd_optimal_err2(_NINE, 0), "need 1 <= k <= d=3, got k=0"),
    (lambda: svd_optimal_err2(_NINE, 4), "need 1 <= k <= d=3, got k=4"),
    (lambda: brute_force_candidate_err(_NINE, 0, 2.0), "k must be >= 1"),
], ids=["table_not_a_vector", "walk_m_negative", "gamma_m_zero", "svd_k_zero", "svd_k_above_d",
        "brute_force_k_zero"])
def test_oracles_reject_an_argument_out_of_range(call, message):
    # each call would otherwise return an answer
    with pytest.raises(InputError, match=f"^{message}"):
        call()


def test_tv_distance_examples():
    a = np.array([0.5, 0.5])
    assert tv_distance(a, a) == 0.0
    assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert tv_distance(a, np.array([0.75, 0.25])) == pytest.approx(0.25)
    with pytest.raises(InputError):
        tv_distance(a, np.array([1.0]))


def test_svd_optimal_err2_standard_basis():
    X = PointSet(np.eye(3))
    assert svd_optimal_err2(X, 2) == pytest.approx(1.0)


def test_svd_optimal_err2_low_rank_is_zero():
    rng = np.random.default_rng(0)
    X = PointSet(rng.standard_normal((10, 2)) @ rng.standard_normal((2, 5)))
    assert svd_optimal_err2(X, 2) == pytest.approx(0.0, abs=1e-18)
    assert svd_optimal_err2(X, 5) == pytest.approx(0.0, abs=1e-18)


def test_svd_optimum_below_every_candidate_span():
    # oracle cross-check: V* beats the span of every 3-subset of the points
    rng = np.random.default_rng(1)
    X = PointSet(rng.standard_normal((15, 6)))
    opt = svd_optimal_err2(X, 3)
    for subset in itertools.combinations(range(15), 3):
        assert opt <= err_p(X, basis_from(X, subset), 2.0) + 1e-9


def test_brute_force_standard_basis():
    X = PointSet(np.eye(3))
    assert brute_force_candidate_err(X, 2, 1.0) == pytest.approx(1.0)


def test_brute_force_low_rank_is_zero():
    rng = np.random.default_rng(2)
    X = PointSet(rng.standard_normal((8, 2)) @ rng.standard_normal((2, 4)))
    assert brute_force_candidate_err(X, 2, 1.5) == pytest.approx(0.0, abs=1e-12)


def test_brute_force_with_fewer_points_than_k_takes_them_all():
    # no k-subset exists; the span of every point leaves no error
    X = PointSet(np.random.default_rng(5).standard_normal((2, 4)))
    assert brute_force_candidate_err(X, 3, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_brute_force_guards():
    rng = np.random.default_rng(3)
    with pytest.raises(GuardError):
        brute_force_candidate_err(PointSet(rng.standard_normal((19, 3))), 2, 1.0)
    with pytest.raises(GuardError):
        brute_force_candidate_err(PointSet(rng.standard_normal((10, 5))), 4, 1.0)


def test_brute_force_matches_independent_enumeration():
    # independent re-enumeration via LAPACK QR projectors instead of the
    # package's incremental Gram-Schmidt
    rng = np.random.default_rng(4)
    A = rng.standard_normal((10, 4))
    X = PointSet(A)
    p, k = 1.5, 2
    best = np.inf
    for subset in itertools.combinations(range(10), k):
        Q, _ = np.linalg.qr(A[list(subset)].T)
        resid = A - (A @ Q) @ Q.T
        best = min(best, float(np.sum(np.linalg.norm(resid, axis=1) ** p)))
    assert brute_force_candidate_err(X, k, p) == pytest.approx(best, rel=1e-9)


@pytest.mark.parametrize("n, d, k, p", [(18, 4, 3, 1.0), (12, 3, 2, 3.0), (7, 5, 1, 1.5),
                                        (10, 2, 3, 2.0)])
def test_brute_force_is_the_per_index_extension_minimum(n, d, k, p):
    # each candidate span grows in one block, bit for bit the span grown
    # one index at a time; repeated and zero rows make some candidates
    # rank-deficient, and with d = 2 every 3-subset is
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, d)) * np.exp(2.0 * rng.standard_normal((n, 1)))
    A[3] = A[1]
    A[5] = 0.0
    X = PointSet(A)
    best = np.inf
    for subset in itertools.combinations(range(n), k):
        basis = SubsetBasis.empty(d)
        for idx in subset:
            basis = extend_basis(basis, idx, X)
        best = min(best, err_p(X, basis, p))
    assert brute_force_candidate_err(X, k, p) == float(best)


def test_transition_matrix_is_stochastic():
    rng = np.random.default_rng(5)
    X = random_instance(rng)
    basis = random_nontrivial_subset(X, rng, 2.0)
    P = transition_matrix(X, basis, 2.0)
    assert (P >= -1e-15).all()
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)


def test_transition_matrix_guard():
    rng = np.random.default_rng(6)
    X = PointSet(rng.standard_normal((65, 2)))
    with pytest.raises(GuardError):
        transition_matrix(X, SubsetBasis.empty(2), 2.0)


def test_walk_distribution_zero_steps_is_q():
    rng = np.random.default_rng(7)
    X = random_instance(rng)
    basis = random_nontrivial_subset(X, rng, 2.0)
    table = exact_walk_distribution(X, basis, None, 2.0, 0)
    np.testing.assert_allclose(table.masses, mixture_distribution(X, 2.0).masses)


def test_stationarity_of_adaptive_target():
    rng = np.random.default_rng(8)
    for _ in range(10):
        X = random_instance(rng)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        basis = random_nontrivial_subset(X, rng, p)
        P = transition_matrix(X, basis, p)
        target = adaptive_distribution(X, basis, p).masses
        assert np.abs(target @ P - target).sum() <= 1e-12


def test_walk_distribution_converges_to_target():
    rng = np.random.default_rng(9)
    X = random_instance(rng)
    p = 2.0
    basis = random_nontrivial_subset(X, rng, p)
    target = adaptive_distribution(X, basis, p).masses
    q = mixture_distribution(X, p).masses
    gamma = float((target / q).max())
    m = math.ceil(10.0 * gamma * math.log(1e9))
    table = exact_walk_distribution(X, basis, None, p, m)
    assert tv_distance(table, adaptive_distribution(X, basis, p)) <= 1e-8


def test_six_point_walk_respects_mixing_bound():
    X = PointSet(np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                           [3.0, 4.0], [0.5, 0.5], [-2.0, 1.0]]))
    basis = basis_from(X, [0])
    for m in (2, 5, 10):
        report = gamma_bound(X, basis, None, 2.0, m=m)
        assert report.tv <= report.mixing_bound + 1e-12


def test_gamma_is_one_for_equal_norm_points():
    # equal norms: the empty-subset target and the mixture are both uniform
    X = PointSet(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
    report = gamma_bound(X, SubsetBasis.empty(2), None, 2.0, m=5)
    assert report.gamma == pytest.approx(1.0)
    assert report.tv == pytest.approx(0.0, abs=1e-12)
    assert report.mixing_bound == pytest.approx(0.0)


def test_gamma_bound_engineered_instance():
    # err_p(X, S) close to 0.9 err_p(X, empty) with epsilon1 = 0.5:
    # the worst-case ratio must stay below 2/epsilon1 = 4
    X = PointSet(np.array([[1.0, 0.0, 0.3], [0.0, 1.0, -0.3],
                           [1.0, 1.0, 0.2], [0.0, 0.0, 0.5]]))
    basis = basis_from(X, [3])  # spans e3, removing only the small z components
    ratio = err_p(X, basis, 2.0) / err_p(X, SubsetBasis.empty(3), 2.0)
    assert 0.5 < ratio < 1.0
    report = gamma_bound(X, basis, None, 2.0, m=10, epsilon1=0.5)
    assert report.gamma_within_lemma_bound is True
    assert report.gamma <= 4.0


def test_gamma_at_least_one_and_bound_monotone():
    rng = np.random.default_rng(10)
    for _ in range(8):
        X = random_instance(rng)
        p = float(rng.choice([1.0, 2.0, 3.0]))
        basis = random_nontrivial_subset(X, rng, p)
        report = gamma_bound(X, basis, None, p, m=6)
        assert report.gamma >= 1.0 - 1e-12
        assert 0.0 <= report.mixing_bound <= 1.0
        assert report.tv <= report.mixing_bound + 1e-12


def test_oracles_reject_covering_subsets():
    X = PointSet(np.array([[1.0, 0.0], [2.0, 0.0]]))
    covering = basis_from(X, [0])
    with pytest.raises(InputError):
        adaptive_distribution(X, covering, 2.0)
    with pytest.raises(InputError):
        transition_matrix(X, covering, 2.0)
