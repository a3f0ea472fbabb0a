import hashlib
import math

import numpy as np
import pytest

from lpsubsel import (DistributionTable, InputError, MixtureWeights, ParameterError,
                      PointSet, SubsetBasis, _kernels, adaptive_distribution, as_source,
                      draw_mixture_pool, gamma_bound, mixture_distribution,
                      open_unit, squared_length_sample, transition_matrix, tv_distance)
from lpsubsel import proposal
from lpsubsel.proposal import _distance_weights, _draw_banks, _norm_weights, _running_total
from lpsubsel.stream import _BLOCK_ROWS

from helpers import peak_traced_bytes

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
    pivot = SubsetBasis.empty(2).extended(0, X[0])
    q = MixtureWeights(p=2.0, pivot=pivot).masses(X)
    # distances to span(e1): 0, 2, 1 -> squared weights 0, 4, 1
    np.testing.assert_allclose(q, [1 / 6, 0.5 * 4 / 5 + 1 / 6, 0.5 / 5 + 1 / 6])


def test_mixture_undefined_when_pivot_spans_data():
    X = PointSet(np.array([[1.0, 0.0], [2.0, 0.0]]))
    pivot = SubsetBasis.empty(2).extended(0, X[0])
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


def test_running_total_stays_finite_where_only_the_pairwise_sum_overflows():
    # numpy's pairwise sum adds the two 2^969 together and reaches inf; the
    # running total, the one the banks keep, rounds each of them away and
    # stays at the float max
    big = np.finfo(float).max
    weights = np.array([big, 0.0, 2.0 ** 969, 2.0 ** 969, 0.0, 0.0, 0.0, 0.0])
    with np.errstate(over="ignore"):
        assert weights.sum() == math.inf
    assert _running_total(0.0, weights) == big
    # rows whose squared norms do the same, so the exact q is defined
    X = np.zeros((16, 2))
    X[0, 0] = np.sqrt(big)  # its weight is one ulp short of the float max
    X[1] = 2.0 ** 485  # one ulp and a little more: the running total is the max
    X[2:, 0] = 1.25 * 2.0 ** 484  # each under half an ulp; the 14 sum to over two
    w, total = _distance_weights(SubsetBasis.empty(2), X, 2.0)
    with np.errstate(over="ignore"):
        assert w.sum() == math.inf
    assert total == big
    q = MixtureWeights(p=2.0).masses(PointSet(X))
    assert q.tobytes() == (0.5 * w / big + 0.5 / 16).tobytes()


def _raw_weight(x, p):
    """||x||^p as numpy's norm and a float power give it, inf where the power overflows."""
    try:
        return float(np.linalg.norm(x)) ** p
    except OverflowError:
        return math.inf


def _mixture_raw_weights(rows, p):
    """The exact mixture's unnormalised weights with the empty pivot: the
    distance path `_distance_weights` takes, without its overflow check."""
    with np.errstate(over="ignore"):  # a square or a power that overflows gives inf
        return SubsetBasis.empty(rows.shape[1]).distances(rows) ** p


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 120.0])
@pytest.mark.parametrize("d", [1, 2, 7, 32, 64])
def test_block_weights_are_bit_identical_to_raw_weight(p, d):
    # the pass's block weights against the exact mixture's raw weights,
    # bit for bit, and against each row's own norm power within rounding
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
    assert got.tobytes() == _mixture_raw_weights(block, p).tobytes()
    with np.errstate(over="ignore"):  # the per-row dot product warns where it overflows
        raw = [_raw_weight(x, p) for x in block]
    np.testing.assert_allclose(got, raw, rtol=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 120.0])
@pytest.mark.parametrize("d", [1, 2, 7, 32, 64])
def test_the_pass_weighs_every_kept_row_as_the_exact_mixture(p, d):
    # 700 rows, so several blocks, into a store of 100 + 1,024 rows. The
    # pass's kept weights equal the exact mixture's whole-array weights bit
    # for bit.
    rng = np.random.default_rng(57)
    scale = np.exp((3.0 if p < 100 else 0.3) * rng.standard_normal((700, 1)))
    X = rng.standard_normal((700, d)) * scale
    X[[0, 5, 129, 130, 400]] = 0.0
    rows, index, weights, _, _ = _draw_banks(
        iter(X), lambda block: _norm_weights(block, p), 50, 50, np.random.default_rng(58))
    exact, _ = _distance_weights(SubsetBasis.empty(d), X, p)
    assert len(index) >= 40 and (index > 256).any()
    assert weights.tobytes() == exact[index].tobytes()
    assert rows.tobytes() == X[index].tobytes()


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
    # recorded when the banks began merging a store-full of rows at a time:
    # the 40 rows fit in the store, so the pass ends in one merge
    rng = np.random.default_rng(31)
    X = rng.standard_normal((40, 5)) * np.exp(rng.standard_normal((40, 1)))
    rows = np.column_stack([np.arange(40), X])
    draws = _reservoir_draws(rows, lambda x: float(x[1:].dot(x[1:])), 16,
                             np.random.default_rng(10))
    assert [int(point[0]) for point, _ in draws] == [
        6, 9, 9, 30, 23, 9, 6, 30, 14, 23, 2, 19, 23, 15, 14, 0]
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
    share = float(np.mean(pool.row_index[pool.row_of] == 0))
    assert share == pytest.approx(0.5, abs=0.015)
    np.testing.assert_allclose(pool.row_qmass[pool.row_of], 0.5)


def test_pool_qmass_floor_and_zero_vector_reachable():
    pool = draw_mixture_pool(_stream(SIX_POINTS), 2.0, 50_000,
                             np.random.default_rng(6))
    n = len(SIX_POINTS)
    qmass, positions = pool.row_qmass[pool.row_of], pool.row_index[pool.row_of]
    assert qmass.min() >= 1.0 / (2 * n) - 1e-15
    zero_idx = 4
    assert (positions == zero_idx).any()
    assert qmass[positions == zero_idx].max() == pytest.approx(1.0 / (2 * n))


def test_pool_matches_exact_mixture_small_n():
    p = 2.0
    X = PointSet(SIX_POINTS)
    exact = MixtureWeights(p=p).masses(X)
    pool = draw_mixture_pool(_stream(SIX_POINTS), p, 100_000,
                             np.random.default_rng(7))
    counts = np.bincount(pool.row_index[pool.row_of], minlength=X.n).astype(float)
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
    positions = pool.row_index[pool.row_of]
    np.add.at(table, (positions[0::2], positions[1::2]), 1.0)
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
    drawn = pool.row_index[pool.row_of]
    np.testing.assert_array_equal(pool.rows[pool.row_of], X.points[drawn])
    np.testing.assert_array_equal(pool.row_qmass[pool.row_of], exact[drawn])
    positions = drawn - zeros
    late = positions >= n // 2
    share = exact[zeros + n // 2:].sum()
    assert late.mean() == pytest.approx(share, abs=3.0 * np.sqrt(share * (1 - share) / 500))
    # positions are uniform inside each half: each mean within 3 sigma of its middle
    for half, middle in ((late, 1.5 * n / 2), ((positions >= 0) & ~late, 0.5 * n / 2)):
        sigma = (n / 2) / np.sqrt(12.0 * half.sum())
        assert positions[half].mean() == pytest.approx(middle, abs=3.0 * sigma)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_pool_qmass_is_the_exact_q_bit_for_bit(p):
    # lognormal row norms over 2,000 x 64: the pass's total and the exact
    # q's add the same weights in the same order, so every recorded mass
    # is the exact one
    rng = np.random.default_rng(99)
    X = PointSet(rng.lognormal(size=(2000, 1)) * rng.standard_normal((2000, 64)))
    pool = draw_mixture_pool(iter(X.points), p, 5000, np.random.default_rng(100))
    exact = MixtureWeights(p=p).masses(X)
    assert pool.row_qmass.tobytes() == exact[pool.row_index].tobytes()


def test_pool_consumes_exactly_one_selection_pass():
    src = as_source(SIX_POINTS)
    draw_mixture_pool(src.iterate_once("selection"), 2.0, 1234,
                      np.random.default_rng(8))
    assert src.selection_passes == 1


def test_pool_deterministic_for_fixed_seed():
    a = draw_mixture_pool(_stream(SIX_POINTS), 1.5, 500, np.random.default_rng(9))
    b = draw_mixture_pool(_stream(SIX_POINTS), 1.5, 500, np.random.default_rng(9))
    np.testing.assert_array_equal(a.row_index[a.row_of], b.row_index[b.row_of])
    np.testing.assert_array_equal(a.rows[a.row_of], b.rows[b.row_of])
    np.testing.assert_array_equal(a.row_qmass[a.row_of], b.row_qmass[b.row_of])


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
    slot = pool.row_of[3]
    point, index, qmass = pool.rows[slot], int(pool.row_index[slot]), float(pool.row_qmass[slot])
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
    _assert_rows_held_once(pool.rows, pool.row_of, pool.row_index[pool.row_of], X, slots)
    rows, row_index, weights, bank, _ = _draw_banks(_stream(X), lambda block: block[:, 1], slots, 0,
                                                    np.random.default_rng(16))
    _assert_rows_held_once(rows, bank.win, row_index[bank.win], X, slots)
    np.testing.assert_array_equal(weights, X[row_index, 1])


def test_pool_pass_allocates_by_the_rows_it_keeps():
    # pool-deep's shape: 38,496 slots over 2,000 rows of 64. The store's
    # room is 76,992 rows (39.4 MB), but the pass keeps at most 2,000 rows
    # and the pool each held row's position and q-mass once
    rng = np.random.default_rng(64)
    X = rng.standard_normal((2000, 64)) * np.exp(rng.standard_normal((2000, 1)))
    peak = peak_traced_bytes(lambda: draw_mixture_pool(iter(X), 3.0, 38_496,
                                                       np.random.default_rng(65)))
    assert peak < 4 * X.nbytes


def test_pool_and_squared_length_fixed_seed_draws_across_store_growth(monkeypatch):
    # recorded while the store allocated its whole room at once: a pool of
    # 5,000 and 5,000 squared-length draws each have a room of 10,000
    # rows, so the store's arrays grow 2,048 -> 4,096 -> 8,192 -> 10,000
    # rows before the first merge, and the 20,000 rows merge three times
    rng = np.random.default_rng(61)
    X = rng.standard_normal((20_000, 3)) * np.exp(rng.standard_normal((20_000, 1)))
    merges = _counting(monkeypatch, proposal._RowStore, "_merge")
    allocated = []
    keep_block = proposal._RowStore.keep_block

    def recorded(store, *args):
        keep_block(store, *args)
        if not allocated or allocated[-1] != len(store.index):
            allocated.append(len(store.index))

    monkeypatch.setattr(proposal._RowStore, "keep_block", recorded)
    pool = draw_mixture_pool(iter(X), 3.0, 5000, np.random.default_rng(62))
    assert allocated == [2048, 4096, 8192, 10_000] and len(merges) == 3
    digest = hashlib.sha256()
    for values in (pool.rows[pool.row_of].astype("<f8"),
                   pool.row_index[pool.row_of].astype("<i8"),
                   pool.row_qmass[pool.row_of].astype("<f8")):
        digest.update(values.tobytes())
    assert digest.hexdigest() == "b59c9b42e3b5313627eae97412fb4fb6e4b249fe7ede15c87e204de49ee5d30b"
    merges.clear()
    basis = squared_length_sample(X, 2.0, 5000, np.random.default_rng(63))
    assert len(merges) == 3
    members = np.asarray(basis.member_indices, dtype="<i8").tobytes()
    assert hashlib.sha256(members).hexdigest() == (
        "dbdb44a9380eb6cc56b19b0c7219d9dfd54c03b2bda22793f5ae1e2e8d24a516")


def _chi2_passes(counts, probs):
    """Chi-square goodness of fit of counts to probs, at 3 sigma like the gates above."""
    expected = probs * counts.sum()
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    df = len(counts) - 1
    return chi2 <= df + 3.0 * np.sqrt(2.0 * df)


def test_banks_settled_at_pass_end_follow_their_laws():
    # 40 rows into 3000 + 3000 slots: the store never fills, so both banks
    # merge once, after the last row. Row i is (i, w_i), weights 1 then 3,
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
    # 60 + 60 slots, once a store of 240 rows that filled at row 240 unless
    # the stream ended first; weights go from 1 to 3 at row 237. The store
    # now has room for 120 + 1,024 rows, so each pass ends in one merge
    # (`test_banks_merged_many_times_follow_their_laws` merges mid-stream).
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


def _regime_rows(n):
    """Rows (i, w_i) whose weight changes regime every 1,104 rows, with
    zero, NaN and negative weights scattered through every regime; and
    each row's share of the weight total, 0 for the rows that add nothing.

    1,104 rows fill the store of 40 + 40 slots, so the first change comes
    at the row where that store first fills, inside a block: a merge whose
    totals counted the rest of that block would shift weight to the rows
    before it."""
    i = np.arange(n)
    w = np.array([1.0, 6.0, 0.25, 3.0])[(i // 1104) % 4]
    w[i % 97 == 0] = 0.0
    w[i % 89 == 5] = np.nan
    w[i % 83 == 7] = -2.0
    positive = np.where(w > 0.0, w, 0.0)
    return np.column_stack([i, w]), positive / positive.sum()


def test_banks_merged_many_times_follow_their_laws():
    # 40 + 40 slots over 6,000 rows: the store has room for 40 + 40 + 1,024
    # rows, so it fills five times and the banks merge six times a pass,
    # and the weights change regime between merges. Positions are pooled over
    # independent passes and binned by 250 rows.
    n, slots, passes = 6000, 40, 100
    rows, law = _regime_rows(n)
    heavy = np.zeros(n)
    light = np.zeros(n)
    for seed in range(passes):
        _, positions, _, weighted, uniform = _draw_banks(
            _stream(rows), lambda block: block[:, 1], slots, slots, np.random.default_rng(seed))
        heavy += np.bincount(positions[weighted.win], minlength=n)
        light += np.bincount(positions[uniform.win], minlength=n)
    assert heavy[law == 0.0].sum() == 0
    bins = np.arange(0, n, 250)
    assert _chi2_passes(np.add.reduceat(heavy, bins), np.add.reduceat(law, bins))
    assert _chi2_passes(np.add.reduceat(light, bins), np.full(len(bins), 1.0 / len(bins)))


@pytest.mark.parametrize("bank", ["weighted", "uniform"])
def test_bank_slots_stay_pairwise_independent_across_merges(bank):
    # 40 + 40 slots over 4,000 rows merge four times a pass. Slots 2i and
    # 2i + 1 of a pass make a pair, and the thirds of the stream the two
    # drew follow the product of the one-slot law: a rule that replaced
    # slots together at a merge would draw both from one stretch of rows.
    n, slots, passes = 4000, 40, 100
    rows, law = _regime_rows(n)
    if bank == "uniform":
        law = np.full(n, 1.0 / n)
    third = np.arange(n) * 3 // n
    joint = np.zeros((3, 3))
    for seed in range(passes):
        _, positions, _, weighted, uniform = _draw_banks(
            _stream(rows), lambda block: block[:, 1], slots, slots, np.random.default_rng(seed))
        drawn = third[positions[(weighted if bank == "weighted" else uniform).win]]
        np.add.at(joint, (drawn[0::2], drawn[1::2]), 1)
    marginal = np.bincount(third, weights=law)
    assert _chi2_passes(joint.ravel(), np.outer(marginal, marginal).ravel())


@pytest.mark.parametrize("extra", [-3, 0, 5], ids=["before", "at", "after"])
def test_pool_settled_mid_stream_matches_exact_mixture(extra):
    # a pool of 120 whose store once filled at row 240, around the step in
    # the row norms; its store of 120 + 1,024 rows now merges once
    pool_size, passes = 120, 100
    n = 2 * pool_size + extra
    norms = np.where(np.arange(n) < 2 * pool_size - 3, 1.0, np.sqrt(3.0))
    norms[[0, n // 2]] = 0.0
    X = PointSet(np.column_stack([norms, np.zeros(n)]))
    exact = MixtureWeights(p=2.0).masses(X)
    counts = np.zeros(n)
    for seed in range(passes):
        pool = draw_mixture_pool(iter(X.points), 2.0, pool_size, np.random.default_rng(seed))
        np.testing.assert_array_equal(pool.row_qmass, exact[pool.row_index])
        counts += np.bincount(pool.row_index[pool.row_of], minlength=n)
    assert _chi2_passes(counts, exact)


def _counting(monkeypatch, owner, name):
    calls = []
    kernel = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("n, fills", [(1000, False), (2024, False), (2025, True), (3000, True)],
                         ids=["room", "fills_at_last_row", "one_row_over", "fills"])
def test_passes_feed_each_row_once_and_merge_once_unless_full(monkeypatch, n, fills):
    # each row goes through update_bank once per bank. A pool of 1000 and
    # 1000 squared-length draws each have a store of 1000 + 1024 = 2,024
    # rows, 15 blocks of 128 and 104 rows more. The banks merge once at
    # the end of the pass, and once more before each block that would not
    # fit, when their totals count the rows before that block: 2,024 rows
    # fit, and the 16th block of 2,025 does not.
    X = np.random.default_rng(42).standard_normal((n, 3))
    updates = _counting(monkeypatch, _kernels, "update_bank")
    merges = []  # update_bank calls made when each merge begins
    merge = proposal._RowStore._merge

    def counted(store):
        merges.append(len(updates))
        return merge(store)

    monkeypatch.setattr(proposal._RowStore, "_merge", counted)
    for run in (lambda: draw_mixture_pool(iter(X), 2.0, 1000, np.random.default_rng(43)),
                lambda: squared_length_sample(X, 2.0, 1000, np.random.default_rng(44))):
        updates.clear()
        merges.clear()
        run()
        assert len(updates) == 2 * n
        assert merges[-1] == 2 * n and (len(merges) > 1) == fills
        if fills:
            assert merges[0] == 2 * 15 * _BLOCK_ROWS
        assert all(m % (2 * _BLOCK_ROWS) == 0 for m in merges[:-1])


def _thousand_rows():
    rng = np.random.default_rng(51)
    return rng.standard_normal((1000, 5)) * np.exp(rng.standard_normal((1000, 1)))


def test_pool_and_squared_length_fixed_seed_draws_in_one_merge():
    # recorded when the banks began merging a store-full of rows at a time:
    # a pool of 100 and 100 squared-length draws each have a store of
    # 100 + 1,024 rows, so the 1,000 rows end in one merge
    X = _thousand_rows()
    pool = draw_mixture_pool(iter(X), 3.0, 100, np.random.default_rng(52))
    assert pool.row_index[pool.row_of].tolist() == [
        89, 185, 143, 10, 229, 43, 91, 10, 20, 850, 102, 677, 91, 152, 687, 634, 634, 603,
        218, 835, 10, 81, 10, 738, 636, 10, 221, 91, 417, 10, 458, 91, 20, 10, 91, 126, 468,
        10, 91, 91, 169, 146, 169, 197, 955, 91, 42, 575, 503, 169, 18, 278, 123, 573, 415,
        10, 10, 63, 883, 193, 91, 58, 944, 548, 169, 942, 840, 494, 534, 10, 169, 302, 982,
        828, 673, 514, 802, 908, 669, 91, 781, 10, 3, 91, 10, 784, 10, 10, 253, 10, 101, 51,
        91, 908, 641, 91, 165, 603, 225, 10]
    basis = squared_length_sample(X, 2.0, 100, np.random.default_rng(53))
    assert list(basis.member_indices) == [
        802, 802, 376, 34, 91, 577, 725, 10, 603, 785, 961, 739, 542, 225, 725, 997, 432, 5,
        211, 980, 91, 682, 432, 10, 835, 129, 534, 91, 91, 10, 10, 16, 91, 802, 635, 802, 663,
        169, 28, 169, 91, 908, 950, 10, 817, 534, 497, 543, 10, 634, 494, 810, 564, 10, 802,
        91, 788, 56, 91, 534, 169, 898, 169, 908, 169, 378, 91, 908, 81, 102, 221, 840, 169,
        16, 91, 10, 908, 975, 91, 677, 480, 939, 10, 603, 56, 91, 416, 534, 91, 975, 10, 863,
        908, 802, 225, 761, 8, 10, 634, 603]


def test_pool_and_squared_length_fixed_seed_draws_merged_mid_stream(monkeypatch):
    # recorded when the banks began merging only between blocks: a pool of
    # 40 and 40 squared-length draws each have a store of 40 + 1,024 rows,
    # so the 3,000 rows merge before their 9th block, once more later in
    # the stream, and at its end
    rng = np.random.default_rng(56)
    X = rng.standard_normal((3000, 5)) * np.exp(rng.standard_normal((3000, 1)))
    merges = _counting(monkeypatch, proposal._RowStore, "_merge")
    pool = draw_mixture_pool(iter(X), 3.0, 40, np.random.default_rng(57))
    assert len(merges) == 3
    assert pool.row_index[pool.row_of].tolist() == [
        1337, 104, 2557, 1443, 1443, 874, 320, 1294, 2429, 1353, 1353, 2429, 2572, 2952,
        282, 689, 782, 2209, 363, 2838, 1443, 690, 560, 1944, 1878, 868, 751, 95, 529,
        1243, 960, 1165, 1736, 2111, 2607, 2057, 1273, 69, 387, 576]
    merges.clear()
    basis = squared_length_sample(X, 2.0, 40, np.random.default_rng(58))
    assert len(merges) == 3
    assert list(basis.member_indices) == [
        408, 751, 1552, 2868, 2607, 746, 746, 2209, 2626, 867, 1353, 2533, 1213, 2734,
        609, 820, 535, 2360, 265, 2361, 1284, 1072, 299, 1820, 299, 2514, 2111, 2607,
        216, 1443, 69, 2111, 2209, 1329, 782, 1120, 2393, 2209, 2111, 2209]


_TOTAL_OVERFLOWS = "makes the running weight total overflow"


@pytest.mark.parametrize("big, row, cause, seam", [
    ([1e200], 300, "its weight overflows to inf", False),
    ([np.sqrt(1.5e308), 1e154], 300, f"its weight 1e\\+308 {_TOTAL_OVERFLOWS}", False),
    ([7.1e153] * 4, 340, f"its weight 5.041e\\+307 {_TOTAL_OVERFLOWS}", False),
    ([7.1e153] * 4, 386, f"its weight 5.041e\\+307 {_TOTAL_OVERFLOWS}", False),
    ([1e308, 0.0, np.nan, -1.0, 1e308], 300, f"its weight 1e\\+308 {_TOTAL_OVERFLOWS}", True),
    ([7.1e153] * 4, 2340, f"its weight 5.041e\\+307 {_TOTAL_OVERFLOWS}", False),
], ids=["weight_overflows", "total_overflows", "mid_block", "across_blocks", "zero_and_nan",
        "after_a_merge"])
def test_pool_overflow_past_the_first_block_names_the_row(monkeypatch, big, row, cause, seam):
    # the weight of the last of the `big` rows, which end at `row`, makes
    # the total overflow: alone, on top of rows of its own block (rows
    # 337-340 sit mid-block) or of the block before (rows 383-386 straddle
    # a block boundary). With the seam each row weighs its first
    # coordinate, and the zero, NaN and negative weights before row 300
    # add nothing to the total. Past row 1,000 the rows repeat, and the
    # store of 100 + 1,024 rows has merged before row 2,340's block.
    X = np.tile(_thousand_rows(), (-(-row // 1000), 1))
    X[row - len(big):row] = 0.0
    X[row - len(big):row, 0] = big
    rng = np.random.default_rng(54)
    merges = _counting(monkeypatch, proposal._RowStore, "_merge")
    with pytest.raises(InputError, match=f"^data row {row}: {cause}"):
        if seam:
            _draw_banks(iter(X), lambda block: block[:, 0], 50, 50, rng)
        else:
            draw_mixture_pool(iter(X), 2.0, 100, rng)
    assert bool(merges) == (row > 1000)


def test_pool_rejects_rows_of_different_lengths():
    rows = list(_thousand_rows()[:128])
    # a final block of rows of lengths 2 and 4, which one concatenation
    # would have reshaped into two rows of 3
    with pytest.raises(InputError, match="^data rows 129-130: a row does not have the first row's 5 values"):
        draw_mixture_pool(iter(rows + [np.ones(2), np.ones(4)]), 2.0, 10, np.random.default_rng(55))
    # a first block whose rows differ among themselves
    with pytest.raises(InputError, match="^data rows 1-3: a row does not have the first row's 3 values"):
        draw_mixture_pool(iter([np.ones(3), np.ones(3), np.ones(2)]), 2.0, 10, np.random.default_rng(55))
    # a later block whose rows agree with each other but not with the first row
    with pytest.raises(InputError, match="^data rows 129-130: a row does not have the first row's 5 values"):
        draw_mixture_pool(iter(rows + [np.ones(2), np.ones(2)]), 2.0, 10, np.random.default_rng(55))


def test_pool_rejects_a_nan_row_on_every_seed():
    # the uniform bank draws row 8 on only a few seeds, so a check of the
    # pool's q-masses would catch it by chance
    X = np.random.default_rng(56).standard_normal((50, 3))
    X[7, 1] = np.nan
    for seed in range(40):
        with pytest.raises(InputError, match="^data row 8: a coordinate is NaN$"):
            draw_mixture_pool(iter(X), 2.0, 10, np.random.default_rng(seed))


def test_pool_rejects_a_value_that_is_not_a_number():
    rows = [[1.0, 2.0]] * 200
    # numpy makes a None a NaN
    with pytest.raises(InputError, match="^data row 131: a coordinate is NaN$"):
        draw_mixture_pool(iter(rows[:130] + [[1.0, None]] + rows), 2.0, 10,
                          np.random.default_rng(57))
    for cell in ("x", {}, [1, 2]):
        with pytest.raises(InputError, match="^data rows 129-256: a value is not a number$"):
            draw_mixture_pool(iter(rows[:130] + [[1.0, cell]] + rows), 2.0, 10,
                              np.random.default_rng(57))
    # a row that holds a sequence, which numpy cannot even give a shape
    with pytest.raises(InputError, match="^data rows 1-2: a value is not a number$"):
        draw_mixture_pool(iter([[1.0, 2.0], [1.0, [1, 2]]]), 2.0, 4, np.random.default_rng(0))
    # a test's weight function may still give a finite row a NaN weight,
    # which adds nothing
    _, row_index, _, bank, _ = _draw_banks(_stream(SIX_POINTS), lambda block: [np.nan, 1.0] * 3,
                                           20, 0, np.random.default_rng(58))
    assert set(row_index[bank.win].tolist()) == {1, 3, 5}
