import numpy as np
import pytest

from lpsubsel import (RANK_TOLERANCE, InputError, PointSet, SubsetBasis,
                      adaptive_distribution, as_source, exact_adaptive_sample,
                      squared_length_sample, tv_distance)

SIX_POINTS = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                       [3.0, 4.0], [0.5, 0.5], [-2.0, 1.0]])


def test_exact_adaptive_first_pick_probability():
    # X = {(1,0),(0,2)}, p=2: point 2 carries 4/5 of the mass
    X = np.array([[1.0, 0.0], [0.0, 2.0]])
    hits = 0
    runs = 10_000
    for seed in range(runs):
        basis = exact_adaptive_sample(X, 2.0, t=1, l=1,
                                      rng=np.random.default_rng(seed))
        hits += basis.member_indices[0] == 1
    assert hits / runs == pytest.approx(0.8, abs=0.02)


def test_exact_adaptive_round_one_matches_exact_distribution():
    # empirical round-1 pick frequencies against the exact normalization oracle
    X = PointSet(SIX_POINTS)
    target = adaptive_distribution(X, SubsetBasis.empty(2), 2.0).masses
    counts = np.zeros(X.n)
    runs = 20_000
    for seed in range(runs):
        basis = exact_adaptive_sample(X, 2.0, t=1, l=1,
                                      rng=np.random.default_rng(seed))
        counts[basis.member_indices[0]] += 1
    assert tv_distance(counts / runs, target) <= 0.02


def test_exact_adaptive_degenerate_repeated_point():
    X = np.tile([[2.0, 1.0]], (8, 1))
    src = as_source(X)
    basis = exact_adaptive_sample(src, 2.0, t=3, l=4,
                                  rng=np.random.default_rng(0))
    assert len(basis.member_indices) <= 3
    assert basis.rank == 1
    # the first round covers everything, so later rounds never stream
    assert src.auditor.selection_passes == 1


def test_exact_adaptive_consumes_l_selection_passes():
    rng = np.random.default_rng(5)
    src = as_source(rng.standard_normal((20, 6)))
    exact_adaptive_sample(src, 1.5, t=2, l=3, rng=np.random.default_rng(1))
    assert src.auditor.selection_passes == 3


def test_squared_length_frequencies():
    # norms (1, 2) at p=2: probabilities (0.2, 0.8)
    X = np.array([[1.0, 0.0], [0.0, 2.0]])
    basis = squared_length_sample(X, 2.0, count=100_000,
                                  rng=np.random.default_rng(2))
    share = np.mean([idx == 1 for idx in basis.member_indices])
    assert share == pytest.approx(0.8, abs=0.01)


def test_squared_length_keeps_duplicates():
    X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    basis = squared_length_sample(X, 2.0, count=5, rng=np.random.default_rng(3))
    assert len(basis.member_indices) == 5
    assert basis.rank <= 3


def test_squared_length_rejects_all_zero_data():
    with pytest.raises(InputError):
        squared_length_sample(np.zeros((4, 2)), 2.0, count=2,
                              rng=np.random.default_rng(4))


def test_squared_length_one_pass():
    src = as_source(SIX_POINTS)
    squared_length_sample(src, 2.0, count=10, rng=np.random.default_rng(5))
    assert src.auditor.selection_passes == 1


def _span_draw_by_draw(indices, points, d):
    """Reference span assembly: every draw scored on its own copy of its row."""
    tracker = SubsetBasis.empty(d)
    norms = np.maximum(np.linalg.norm(points, axis=1), 1e-300)
    blocked = np.zeros(len(points), dtype=bool)
    while tracker.rank < d:
        outside = ~blocked & (tracker.distances(points) > RANK_TOLERANCE * norms)
        candidates = np.flatnonzero(outside)
        if candidates.size == 0:
            break
        j = int(candidates[0])
        grown = tracker.extended(int(indices[j]), points[j])
        if grown.rank == tracker.rank:
            blocked[j] = True
            continue
        tracker = grown
    return tracker


# members recorded before the bank kept each drawn row once
@pytest.mark.parametrize("d, p, seed, members", [
    (5, 2.0, 8, [14, 24, 12, 11, 23, 30, 23, 14, 33, 24, 23, 23,
                 9, 39, 23, 6, 29, 30, 14, 6, 19, 11, 12, 6]),
    (5, 3.0, 9, [6, 30, 30, 23, 30, 23, 11, 30, 30, 28, 23, 28,
                 30, 14, 23, 23, 35, 19, 23, 14, 11, 8, 23, 23]),
    (30, 2.0, 8, None),  # 24 draws in d = 30: the span stays short of R^d
], ids=["d5_p2", "d5_p3", "d30_p2"])
def test_squared_length_fixed_seed_matches_draw_by_draw_span(d, p, seed, members):
    rng = np.random.default_rng(31)
    X = rng.standard_normal((40, d)) * np.exp(rng.standard_normal((40, 1)))
    basis = squared_length_sample(X, p, 24, np.random.default_rng(seed))
    if members is not None:
        assert list(basis.member_indices) == members
    drawn = list(basis.member_indices)
    want = _span_draw_by_draw(drawn, X[drawn], d)
    assert basis.rank == want.rank <= len(set(drawn))
    np.testing.assert_array_equal(basis.basis, want.basis)
