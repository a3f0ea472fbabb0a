import numpy as np
import pytest

from lpsubsel import (RANK_TOLERANCE, GuardError, InputError, PointSet, SubsetBasis,
                      adaptive_distribution, as_source, exact_adaptive_sample, experiment,
                      open_csv, squared_length_sample, theorem_params, tv_distance)
from lpsubsel.stream import _BLOCK_ROWS

from helpers import loadtxt_calls, peak_traced_bytes

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
    assert src.selection_passes == 1


def test_exact_adaptive_consumes_l_selection_passes():
    rng = np.random.default_rng(5)
    src = as_source(rng.standard_normal((20, 6)))
    exact_adaptive_sample(src, 1.5, t=2, l=3, rng=np.random.default_rng(1))
    assert src.selection_passes == 3


def test_exact_adaptive_stops_once_its_span_is_the_whole_space():
    # t * l = 50 > d = 4: once four rounds span R^4 every weight is
    # rounding noise, and a further round would add a member and a pass
    # for no rank
    src = as_source(np.random.default_rng(6).standard_normal((50, 4)))
    basis = exact_adaptive_sample(src, 2.0, t=1, l=50, rng=np.random.default_rng(7))
    assert basis.rank == 4 and len(basis.member_indices) == 4
    assert src.selection_passes == 4


@pytest.mark.parametrize("from_file", [False, True], ids=["array", "csv"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_exact_adaptive_stops_once_no_row_can_grow_its_span(tmp_path, r, from_file):
    # rank r < d: the span never reaches R^5, and the weights of rows it
    # covers are rounding noise, so only the span floor can end the rounds
    rng = np.random.default_rng(40 + r)
    X = rng.standard_normal((40, r)) @ rng.standard_normal((r, 5))
    if from_file:
        path = str(tmp_path / "points.csv")
        np.savetxt(path, X, delimiter=",", fmt="%.17g")
        src = open_csv(path)
    else:
        src = as_source(X)
    basis = exact_adaptive_sample(src, 2.0, t=2, l=10**20, rng=np.random.default_rng(r))
    assert basis.rank == r
    assert src.selection_passes <= r + 1


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
    assert src.selection_passes == 1


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


# members recorded when the bank began settling the rows before its store
# fills in one draw
@pytest.mark.parametrize("d, p, seed, members", [
    (5, 2.0, 8, [30, 39, 23, 6, 14, 6, 14, 30, 9, 30, 38, 19,
                 9, 30, 35, 28, 38, 23, 1, 28, 30, 14, 23, 30]),
    (5, 3.0, 9, [23, 6, 23, 9, 14, 23, 6, 19, 30, 30, 23, 14,
                 14, 9, 6, 23, 6, 23, 23, 30, 22, 28, 14, 23]),
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


@pytest.mark.parametrize("rank", [3, None], ids=["exactly_rank3", "spans_r_d"])
def test_squared_length_many_draws_match_both_growth_references(rank):
    # 5,000 draws from 60 rows: most draws repeat a row. The span is grown
    # over each drawn row once; it equals the span scanned draw by draw,
    # and a chain over every draw, repeats included
    rng = np.random.default_rng(36)
    n, d = 60, 8
    if rank is None:
        X = rng.standard_normal((n, d)) * np.exp(rng.standard_normal((n, 1)))
    else:
        X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    basis = squared_length_sample(X, 2.0, 5000, np.random.default_rng(37))
    drawn = list(basis.member_indices)
    assert len(drawn) == 5000 and len(set(drawn)) <= n
    scanned = _span_draw_by_draw(drawn, X[drawn], d)
    chained = SubsetBasis.empty(d).extended_many(drawn, X[drawn])
    assert basis.rank == scanned.rank == chained.rank == (rank or d)
    assert chained.member_indices == basis.member_indices
    assert basis.basis.tobytes() == scanned.basis.tobytes() == chained.basis.tobytes()


# members recorded before distances were scored in CHUNK_ROWS-row chunks;
# n = 3000 spans three chunks, the last one partial
@pytest.mark.parametrize("p, members", [
    (1.0, (2360, 1825, 2148, 283, 1889, 2952, 1251, 344, 2879)),
    (2.0, (2420, 1888, 2212, 356, 1976, 2966, 1306, 456, 2823)),
    (3.0, (2508, 1889, 2258, 356, 1799, 2954, 1210, 493, 2796)),
], ids=["p1", "p2", "p3"])
@pytest.mark.parametrize("from_file", [False, True], ids=["array", "file"])
def test_exact_adaptive_fixed_seed_members(tmp_path, p, members, from_file):
    rng = np.random.default_rng(31)
    X = rng.lognormal(size=(3000, 1)) * rng.standard_normal((3000, 12))
    data = X
    if from_file:
        path = tmp_path / "points.csv"
        path.write_text("\n".join(",".join(str(v) for v in row) for row in X) + "\n",
                        encoding="utf-8")
        data = open_csv(str(path))
    basis = exact_adaptive_sample(data, p, t=3, l=3, rng=np.random.default_rng(21))
    assert basis.member_indices == members
    want = SubsetBasis.empty(12)
    for idx in members:
        want = want.extended(idx, X[idx])
    assert basis.basis.tobytes() == want.basis.tobytes()


def test_exact_adaptive_peak_memory_is_its_row_buffer():
    # one (n, d) buffer; scoring it in one product held three more like it
    X = np.random.default_rng(32).standard_normal((20_000, 32))
    peak = peak_traced_bytes(
        lambda: exact_adaptive_sample(X, 2.0, t=3, l=2, rng=np.random.default_rng(0)))
    assert peak <= 1.5 * X.nbytes


def test_exact_adaptive_parses_its_file_once(tmp_path, monkeypatch):
    # later rounds and the evaluation pass replay the rows the first pass kept
    rows = 5 * _BLOCK_ROWS + 9
    path = tmp_path / "points.csv"
    np.savetxt(path, np.random.default_rng(33).standard_normal((rows, 6)), delimiter=",")
    src = open_csv(str(path))
    calls = loadtxt_calls(monkeypatch)
    exact_adaptive_sample(src, 2.0, t=2, l=3, rng=np.random.default_rng(3))
    list(src.iterate_once("evaluation"))
    assert len(calls) == -(-rows // _BLOCK_ROWS)
    assert (src.selection_passes, src.evaluation_passes) == (3, 1)


def test_exact_adaptive_scores_an_array_input_in_place():
    X = np.random.default_rng(34).standard_normal((20_000, 32))
    peak = peak_traced_bytes(
        lambda: exact_adaptive_sample(X, 2.0, t=3, l=2, rng=np.random.default_rng(0)))
    assert peak < 0.25 * X.nbytes


@pytest.mark.parametrize("n, d, from_file", [(200_000, 1, False), (6_250, 32, False),
                                             (20_000, 8, True)])
def test_exact_adaptive_peak_is_within_the_memory_guard(tmp_path, monkeypatch, n, d, from_file):
    X = np.random.default_rng(35).standard_normal((n, d))
    path = str(tmp_path / "points.csv")
    if from_file:
        np.savetxt(path, X, delimiter=",")
    config = theorem_params(k=1, p=2.0, delta=0.5, t_override=3, l_override=2, seed=0)

    def source():
        return open_csv(path) if from_file else as_source(X)

    src = source()
    peak = peak_traced_bytes(lambda: exact_adaptive_sample(
        src, 2.0, config.t, config.l, rng=np.random.default_rng(0)))
    monkeypatch.setattr(experiment, "_physical_memory", lambda: peak - 1)
    with pytest.raises(GuardError):
        experiment._memory_guard("exact-adaptive", config, source())
