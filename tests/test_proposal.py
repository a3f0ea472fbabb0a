import math

import numpy as np
import pytest

from lpsubsel import (DistributionTable, InputError, MixtureWeights, ParameterError,
                      PointSet, SubsetBasis, _kernels, adaptive_distribution, as_source,
                      draw_mixture_pool, extend_basis, gamma_bound, mixture_distribution,
                      open_unit, squared_length_sample, transition_matrix, tv_distance)
from lpsubsel.proposal import _draw_banks, _norm_weights

SIX_POINTS = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                       [3.0, 4.0], [0.0, 0.0], [-2.0, 1.0]])


def _stream(rows):
    return iter(np.asarray(rows, dtype=np.float64))


def _reservoir_draws(rows, weight_fn, count, rng):
    """`count` i.i.d. (point, weight) draws, P(x) proportional to weight_fn(x), in one pass."""
    drawn, _, weights, bank, _ = _draw_banks(
        _stream(rows), lambda block: [weight_fn(x) for x in block], count, 0, rng)
    return [(drawn[r], float(weights[r])) for r in bank.win.tolist()]


def test_open_unit_stays_inside_the_interval():
    rng = np.random.default_rng(0)
    u = open_unit(rng, 10000)
    assert u.min() > 0.0 and u.max() < 1.0


def test_mixture_masses_equal_norms():
    X = PointSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    q = MixtureWeights(p=2.0).masses(X)
    np.testing.assert_allclose(q, [0.5, 0.5])


def test_mixture_masses_three_to_one():
    # ||x1||^p = 3, ||x2||^p = 1 at p=2
    X = PointSet(np.array([[np.sqrt(3.0), 0.0], [0.0, 1.0]]))
    q = MixtureWeights(p=2.0).masses(X)
    assert q[0] == pytest.approx(0.625)
    assert q[1] == pytest.approx(0.375)


def test_mixture_floor_covers_zero_vector():
    X = PointSet(np.vstack([SIX_POINTS, [0.0, 0.0]]))
    q = MixtureWeights(p=2.0).masses(X)
    assert (q >= 1.0 / (2 * X.n) - 1e-15).all()
    assert q.sum() == pytest.approx(1.0, abs=1e-12)


def test_mixture_with_pivot_subset():
    X = PointSet(np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]))
    pivot = extend_basis(SubsetBasis.empty(2), 0, X)
    q = MixtureWeights(p=2.0, pivot=pivot).masses(X)
    # distances to span(e1): 0, 2, 1 -> squared weights 0, 4, 1
    np.testing.assert_allclose(q, [1 / 6, 0.5 * 4 / 5 + 1 / 6, 0.5 / 5 + 1 / 6])


def test_mixture_undefined_when_pivot_spans_data():
    X = PointSet(np.array([[1.0, 0.0], [2.0, 0.0]]))
    pivot = extend_basis(SubsetBasis.empty(2), 0, X)
    with pytest.raises(InputError):
        MixtureWeights(p=2.0, pivot=pivot).masses(X)


_OVERFLOWING = PointSet(np.array([[1e200, 1.0], [1.0, 2.0], [2.0, 1.0]]))
_EMPTY = SubsetBasis.empty(2)
_ROW_1 = "^data row 1: its weight overflows"


@pytest.mark.parametrize("exact, message", [
    (lambda: MixtureWeights(p=2.0).masses(_OVERFLOWING), _ROW_1),
    (lambda: mixture_distribution(_OVERFLOWING, 2.0), _ROW_1),
    (lambda: adaptive_distribution(_OVERFLOWING, _EMPTY, 2.0), _ROW_1),
    (lambda: transition_matrix(_OVERFLOWING, _EMPTY, 2.0), _ROW_1),
    (lambda: gamma_bound(_OVERFLOWING, _EMPTY, None, 2.0, 3), _ROW_1),
    (lambda: DistributionTable(np.array([np.nan, 0.0, 0.0])), "non-finite"),
], ids=["masses", "mixture_distribution", "adaptive_distribution",
        "transition_matrix", "gamma_bound", "nan_table"])
def test_exact_distributions_reject_overflowing_weights(exact, message):
    # ||row 1||^2 overflows: an InputError naming the row, never NaN masses
    with pytest.raises(InputError, match=message):
        exact()


def _raw_weight(x, p):
    """||x||^p as numpy's norm and a float power give it, inf where the power overflows."""
    try:
        return float(np.linalg.norm(x)) ** p
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 120.0])
@pytest.mark.parametrize("d", [1, 2, 7, 32, 64])
def test_block_weights_are_bit_identical_to_raw_weight(p, d):
    # the pass's block weights against each row's own norm power
    rng = np.random.default_rng(18)
    block = rng.standard_normal((130, d)) * np.exp(3.0 * rng.standard_normal((130, 1)))
    block[[0, 64]] = 0.0
    block[7] = 0.0
    block[7, 0] = 1e200  # the squared norm overflows
    block[100] = 0.0
    block[100, -1] = 1e103  # a finite norm whose cube overflows
    got = _norm_weights(block, p)
    assert got[0] == got[64] == 0.0 and got[7] == math.inf
    assert (got[100] == math.inf) == (p >= 3.0)
    with np.errstate(over="ignore"):  # the per-row dot product warns where it overflows
        assert got == [_raw_weight(x, p) for x in block]


def test_reservoir_uniform_weights():
    rows = np.eye(4)
    rng = np.random.default_rng(1)
    draws = _reservoir_draws(rows, lambda x: 1.0, 100_000, rng)
    freq = np.zeros(4)
    for point, _ in draws:
        freq[int(np.argmax(point))] += 1
    freq /= len(draws)
    np.testing.assert_allclose(freq, 0.25, atol=0.01)


@pytest.mark.parametrize("rows", [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]],
                         ids=["heavy_first", "heavy_last"])
def test_reservoir_three_to_one_weights(rows):
    # an off-by-one in the running total biases draws by stream position
    rows = np.array(rows)
    rng = np.random.default_rng(2)
    draws = _reservoir_draws(rows, lambda x: 3.0 if x[0] else 1.0, 100_000, rng)
    share = sum(1 for point, _ in draws if point[0]) / len(draws)
    assert share == pytest.approx(0.75, abs=0.01)


def test_reservoir_norm_power_weights_match_exact_normalization():
    # oracle: exact normalization of the same six weights
    p = 2.0
    weights = np.linalg.norm(SIX_POINTS, axis=1) ** p
    exact = weights / weights.sum()
    rng = np.random.default_rng(3)
    draws = _reservoir_draws(SIX_POINTS, lambda x: float(np.linalg.norm(x)) ** p,
                             100_000, rng)
    counts = np.zeros(len(SIX_POINTS))
    lookup = {tuple(row): i for i, row in enumerate(SIX_POINTS)}
    for point, _ in draws:
        counts[lookup[tuple(point)]] += 1
    assert tv_distance(counts / counts.sum(), exact) <= 0.02


def test_reservoir_exact_across_store_compaction():
    # 20,000 rows into 500 slots: the bank's row store fills and drops rows
    # no slot holds many times over. Row i is (i, w_i), with w = 1 on the
    # first half and 3 on the second, so each draw names its stream position.
    n = 20_000
    rows = np.column_stack([np.arange(n), np.where(np.arange(n) < n // 2, 1.0, 3.0)])
    rng = np.random.default_rng(13)
    draws = _reservoir_draws(rows, lambda x: x[1], 500, rng)
    positions = np.array([int(point[0]) for point, _ in draws])
    assert all((point == rows[int(point[0])]).all() and weight == point[1]
               for point, weight in draws)
    late = positions >= n // 2
    assert late.mean() == pytest.approx(0.75, abs=0.06)  # 3 sigma
    # positions are uniform inside each half: each mean within 3 sigma of its middle
    assert positions[late].mean() == pytest.approx(1.5 * n // 2, abs=450)
    assert positions[~late].mean() == pytest.approx(0.5 * n // 2, abs=800)


def test_reservoir_fixed_seed_draws():
    # recorded when the banks began settling the rows before the store fills
    # in one draw, which uses the generator differently from row-by-row thinning
    rng = np.random.default_rng(31)
    X = rng.standard_normal((40, 5)) * np.exp(rng.standard_normal((40, 1)))
    rows = np.column_stack([np.arange(40), X])
    draws = _reservoir_draws(rows, lambda x: float(x[1:].dot(x[1:])), 16,
                             np.random.default_rng(10))
    assert [int(point[0]) for point, _ in draws] == [
        6, 9, 9, 30, 23, 9, 39, 23, 14, 19, 2, 15, 23, 14, 9, 0]
    assert all(weight == float(X[int(point[0])].dot(X[int(point[0])]))
               for point, weight in draws)


def test_reservoir_errors():
    rng = np.random.default_rng(4)
    with pytest.raises(InputError, match="empty stream"):
        _reservoir_draws(np.empty((0, 2)), lambda x: 1.0, 3, rng)
    with pytest.raises(InputError):
        _reservoir_draws(np.ones((3, 2)), lambda x: 0.0, 3, rng)
    with pytest.raises(InputError):
        _reservoir_draws(np.ones((3, 2)), lambda x: -1.0, 3, rng)
    with pytest.raises(ParameterError):
        squared_length_sample(np.ones((3, 2)), 2.0, 0, rng)


def test_pool_uniform_for_equal_norm_points():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    pool = draw_mixture_pool(_stream(rows), 2.0, 50_000, np.random.default_rng(5))
    share = float(np.mean(pool.indices == 0))
    assert share == pytest.approx(0.5, abs=0.015)
    np.testing.assert_allclose(pool.qmass, 0.5)


def test_pool_qmass_floor_and_zero_vector_reachable():
    pool = draw_mixture_pool(_stream(SIX_POINTS), 2.0, 50_000,
                             np.random.default_rng(6))
    n = len(SIX_POINTS)
    assert pool.qmass.min() >= 1.0 / (2 * n) - 1e-15
    zero_idx = 4
    assert (pool.indices == zero_idx).any()
    assert pool.qmass[pool.indices == zero_idx].max() == pytest.approx(1.0 / (2 * n))


def test_pool_matches_exact_mixture_small_n():
    p = 2.0
    X = PointSet(SIX_POINTS)
    exact = MixtureWeights(p=p).masses(X)
    pool = draw_mixture_pool(_stream(SIX_POINTS), p, 100_000,
                             np.random.default_rng(7))
    counts = np.bincount(pool.indices, minlength=X.n).astype(float)
    freq = counts / counts.sum()
    assert tv_distance(freq, exact) <= 0.02
    # chi-square sanity at 3 sigma
    expected = exact * pool.size
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    df = X.n - 1
    assert chi2 <= df + 3.0 * np.sqrt(2.0 * df)


def test_pool_slots_pairwise_independent():
    # chi-square contingency test on adjacent slot pairs of one pool: slots
    # that shared a thinning decision would show up as dependence
    pool = draw_mixture_pool(_stream(SIX_POINTS), 2.0, 100_000,
                             np.random.default_rng(12))
    n = len(SIX_POINTS)
    table = np.zeros((n, n))
    np.add.at(table, (pool.indices[0::2], pool.indices[1::2]), 1.0)
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    chi2 = float(((table - expected) ** 2 / expected).sum())
    df = (n - 1) ** 2
    assert chi2 <= df + 3.0 * np.sqrt(2.0 * df)


def test_pool_exact_across_store_compaction():
    # 20,000 zero rows, then 20,000 rows, into 500 slots: the shared row
    # store fills and is compacted while the distance bank has seen no
    # positive weight yet, and many times after. Norms are 1 on the first
    # half of the nonzero rows and sqrt(3) on the second.
    zeros, n = 20_000, 20_000
    norms = np.where(np.arange(n) < n // 2, 1.0, np.sqrt(3.0))
    X = PointSet(np.vstack([np.zeros((zeros, 2)), np.column_stack([norms, np.zeros(n)])]))
    exact = MixtureWeights(p=2.0).masses(X)
    pool = draw_mixture_pool(iter(X.points), 2.0, 500, np.random.default_rng(14))
    np.testing.assert_array_equal(pool.rows[pool.row_of], X.points[pool.indices])
    np.testing.assert_allclose(pool.qmass, exact[pool.indices], rtol=1e-12)
    positions = pool.indices - zeros
    late = positions >= n // 2
    share = exact[zeros + n // 2:].sum()
    assert late.mean() == pytest.approx(share, abs=3.0 * np.sqrt(share * (1 - share) / 500))
    # positions are uniform inside each half: each mean within 3 sigma of its middle
    for half, middle in ((late, 1.5 * n / 2), ((positions >= 0) & ~late, 0.5 * n / 2)):
        sigma = (n / 2) / np.sqrt(12.0 * half.sum())
        assert positions[half].mean() == pytest.approx(middle, abs=3.0 * sigma)


def test_pool_consumes_exactly_one_selection_pass():
    src = as_source(SIX_POINTS)
    draw_mixture_pool(src.iterate_once("selection"), 2.0, 1234,
                      np.random.default_rng(8))
    assert src.auditor.selection_passes == 1


def test_pool_deterministic_for_fixed_seed():
    a = draw_mixture_pool(_stream(SIX_POINTS), 1.5, 500, np.random.default_rng(9))
    b = draw_mixture_pool(_stream(SIX_POINTS), 1.5, 500, np.random.default_rng(9))
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.rows[a.row_of], b.rows[b.row_of])
    np.testing.assert_array_equal(a.qmass, b.qmass)


def test_pool_rejects_degenerate_inputs():
    rng = np.random.default_rng(10)
    with pytest.raises(ParameterError):
        draw_mixture_pool(_stream(SIX_POINTS), 2.0, 0, rng)
    with pytest.raises(InputError):
        draw_mixture_pool(_stream(np.empty((0, 2))), 2.0, 4, rng)
    with pytest.raises(InputError):
        draw_mixture_pool(_stream(np.zeros((3, 2))), 2.0, 4, rng)
    # nonzero norms whose p-th powers underflow: the weights are zero, not the norms
    with pytest.raises(InputError, match="all distance weights are zero"):
        draw_mixture_pool(_stream(1e-4 * SIX_POINTS[:4]), 120.0, 4, rng)


def test_pool_slot_triples():
    pool = draw_mixture_pool(_stream(SIX_POINTS), 2.0, 16, np.random.default_rng(11))
    point, index, qmass = pool.rows[pool.row_of[3]], int(pool.indices[3]), float(pool.qmass[3])
    assert point.shape == (2,)
    assert 0 <= index < len(SIX_POINTS)
    np.testing.assert_array_equal(point, SIX_POINTS[index])
    assert 1.0 / 12 - 1e-15 <= qmass <= 1.0
    assert pool.size == 16


def _assert_rows_held_once(rows, row_of, positions, X, slots):
    """Each drawn row is held once, every held row is some slot's draw, and
    slot j's draw is the stream's row at positions[j]."""
    assert len(rows) <= min(len(X), slots) and len(row_of) == slots
    np.testing.assert_array_equal(np.unique(row_of), np.arange(len(rows)))
    # column 0 of row i is i: the held rows are distinct stream positions
    assert len(np.unique(rows[:, 0])) == len(rows)
    np.testing.assert_array_equal(rows[row_of], X[positions])


@pytest.mark.parametrize("n, slots", [(40, 3000), (20_000, 500)],
                         ids=["n_below_pool", "store_compacts"])
def test_pool_and_bank_hold_each_drawn_row_once(n, slots):
    # with 20,000 rows into 500 slots the row store fills and is compacted
    # many times before the pass ends
    X = np.column_stack([np.arange(n, dtype=float), 1.0 + np.arange(n) % 7])
    pool = draw_mixture_pool(_stream(X), 2.0, slots, np.random.default_rng(15))
    _assert_rows_held_once(pool.rows, pool.row_of, pool.indices, X, slots)
    rows, row_index, weights, bank, _ = _draw_banks(_stream(X), lambda block: block[:, 1], slots, 0,
                                                    np.random.default_rng(16))
    _assert_rows_held_once(rows, bank.win, row_index[bank.win], X, slots)
    np.testing.assert_array_equal(weights, X[row_index, 1])


def _chi2_passes(counts, probs):
    """Chi-square goodness of fit of counts to probs, at 3 sigma like the gates above."""
    expected = probs * counts.sum()
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    df = len(counts) - 1
    return chi2 <= df + 3.0 * np.sqrt(2.0 * df)


def test_banks_settled_at_pass_end_follow_their_laws():
    # 40 rows into 3000 + 3000 slots: the store never fills, so both banks
    # settle once, after the last row. Row i is (i, w_i), weights 1 then 3,
    # with zero-weight rows first, in the middle and last.
    n = 40
    w = np.where(np.arange(n) < n // 2, 1.0, 3.0)
    w[[0, 1, 19, 20, 38, 39]] = 0.0
    rows = np.column_stack([np.arange(n), w])
    _, positions, _, weighted, uniform = _draw_banks(
        _stream(rows), lambda block: block[:, 1], 3000, 3000, np.random.default_rng(41))
    heavy = np.bincount(positions[weighted.win], minlength=n)
    assert heavy[w == 0.0].sum() == 0
    assert _chi2_passes(heavy[w > 0.0], w[w > 0.0] / w.sum())
    assert _chi2_passes(np.bincount(positions[uniform.win], minlength=n), np.full(n, 1.0 / n))
    assert weighted.total == w.sum() and uniform.total == n


@pytest.mark.parametrize("extra", [-3, 0, 1, 5], ids=["before", "at", "one_after", "after"])
def test_banks_settled_mid_stream_follow_their_laws(extra):
    # 60 + 60 slots: the store fills and settles at row 240 unless the
    # stream ends first. Weights go from 1 to 3 at row 237, so the change
    # straddles the settle row, and rows after it are thinned one at a time.
    # Positions are pooled over independent passes.
    slots, passes = 60, 100
    n = 4 * slots + extra
    w = np.where(np.arange(n) < 4 * slots - 3, 1.0, 3.0)
    w[[0, n // 2]] = 0.0
    rows = np.column_stack([np.arange(n), w])
    heavy = np.zeros(n)
    light = np.zeros(n)
    for seed in range(passes):
        _, positions, _, weighted, uniform = _draw_banks(
            _stream(rows), lambda block: block[:, 1], slots, slots, np.random.default_rng(seed))
        heavy += np.bincount(positions[weighted.win], minlength=n)
        light += np.bincount(positions[uniform.win], minlength=n)
    assert heavy[w == 0.0].sum() == 0
    assert _chi2_passes(heavy[w > 0.0], w[w > 0.0] / w.sum())
    assert _chi2_passes(light, np.full(n, 1.0 / n))


@pytest.mark.parametrize("extra", [-3, 0, 5], ids=["before", "at", "after"])
def test_pool_settled_mid_stream_matches_exact_mixture(extra):
    # a pool of 120 settles at row 240, around the step in the row norms
    pool_size, passes = 120, 100
    n = 2 * pool_size + extra
    norms = np.where(np.arange(n) < 2 * pool_size - 3, 1.0, np.sqrt(3.0))
    norms[[0, n // 2]] = 0.0
    X = PointSet(np.column_stack([norms, np.zeros(n)]))
    exact = MixtureWeights(p=2.0).masses(X)
    counts = np.zeros(n)
    for seed in range(passes):
        pool = draw_mixture_pool(iter(X.points), 2.0, pool_size, np.random.default_rng(seed))
        np.testing.assert_allclose(pool.qmass, exact[pool.indices], rtol=1e-12)
        counts += np.bincount(pool.indices, minlength=n)
    assert _chi2_passes(counts, exact)


def _counting(monkeypatch, name):
    calls = []
    kernel = getattr(_kernels, name)

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(_kernels, name, counted)
    return calls


@pytest.mark.parametrize("n, crossings", [(1000, False), (2000, False), (3000, True)],
                         ids=["room", "fills_at_last_row", "fills"])
def test_passes_update_each_bank_once_per_row_and_cross_only_after_settling(
        monkeypatch, n, crossings):
    # a pool of 1000 and 1000 squared-length draws: a store of 2000 rows.
    # After it fills, rows are thinned one at a time, and among 1000 more
    # rows some cross (each bank misses all of them with P < 1e-80).
    X = np.random.default_rng(42).standard_normal((n, 3))
    updates = _counting(monkeypatch, "update_bank")
    crossed = _counting(monkeypatch, "_cross")
    draw_mixture_pool(iter(X), 2.0, 1000, np.random.default_rng(43))
    assert len(updates) == 2 * n
    assert bool(crossed) == crossings
    updates.clear()
    crossed.clear()
    squared_length_sample(X, 2.0, 1000, np.random.default_rng(44))
    assert len(updates) == 2 * n
    assert bool(crossed) == crossings


def _thousand_rows():
    rng = np.random.default_rng(51)
    return rng.standard_normal((1000, 5)) * np.exp(rng.standard_normal((1000, 1)))


def test_pool_and_squared_length_fixed_seed_draws_past_the_settle():
    # recorded before the pass took its rows a block at a time: a pool of
    # 100 and 100 squared-length draws fill their 200-row store inside the
    # second 128-row block, and rows after it are thinned one at a time
    X = _thousand_rows()
    pool = draw_mixture_pool(iter(X), 3.0, 100, np.random.default_rng(52))
    assert pool.indices.tolist() == [
        711, 270, 981, 91, 901, 435, 802, 10, 510, 236, 226, 10, 10, 385, 316, 20, 91,
        603, 647, 10, 91, 752, 928, 268, 226, 10, 197, 91, 405, 123, 799, 790, 91, 593,
        10, 457, 780, 10, 10, 91, 725, 716, 603, 10, 587, 91, 885, 60, 832, 197, 524,
        306, 91, 91, 558, 10, 10, 328, 681, 934, 91, 285, 34, 604, 10, 621, 728, 20, 51,
        91, 169, 24, 91, 271, 655, 820, 91, 424, 270, 835, 520, 10, 867, 634, 10, 514,
        10, 10, 680, 10, 749, 10, 91, 950, 661, 10, 675, 749, 10, 706]
    basis = squared_length_sample(X, 2.0, 100, np.random.default_rng(53))
    assert list(basis.member_indices) == [
        231, 754, 979, 390, 843, 424, 725, 522, 579, 169, 542, 879, 366, 961, 634, 788,
        391, 91, 539, 91, 32, 433, 554, 10, 169, 644, 318, 125, 10, 432, 957, 366, 10, 8,
        744, 494, 534, 10, 182, 169, 908, 802, 601, 225, 221, 169, 961, 950, 706, 741,
        943, 961, 186, 10, 16, 231, 10, 788, 392, 10, 424, 872, 634, 815, 725, 10, 603,
        169, 16, 10, 5, 634, 634, 91, 715, 304, 91, 434, 682, 10, 847, 10, 91, 91, 863,
        91, 896, 10, 749, 91, 432, 10, 197, 908, 333, 682, 826, 318, 91, 10]


@pytest.mark.parametrize("big, cause", [
    ([1e200], "its weight overflows to inf"),
    ([np.sqrt(1.5e308), 1e154], "its weight 1e\\+308 makes the running weight total overflow"),
], ids=["weight_overflows", "total_overflows"])
def test_pool_overflow_past_the_first_block_names_the_row(big, cause):
    # the store settles at row 200, and row 300's weight makes the total
    # overflow, alone or on top of row 299's
    X = _thousand_rows()
    X[300 - len(big):300] = 0.0
    X[300 - len(big):300, 0] = big
    with pytest.raises(InputError, match=f"^data row 300: {cause}"):
        draw_mixture_pool(iter(X), 2.0, 100, np.random.default_rng(54))


def test_pool_rejects_rows_of_different_lengths():
    rows = list(_thousand_rows()[:128])
    # a final block of rows of lengths 2 and 4, which one concatenation
    # would have reshaped into two rows of 3
    with pytest.raises(ValueError):
        draw_mixture_pool(iter(rows + [np.ones(2), np.ones(4)]), 2.0, 10, np.random.default_rng(55))
    # a later block whose rows agree with each other but not with the first row
    with pytest.raises(InputError, match="^data rows 129-130: a row does not have the first row's 5 values"):
        draw_mixture_pool(iter(rows + [np.ones(2), np.ones(2)]), 2.0, 10, np.random.default_rng(55))
