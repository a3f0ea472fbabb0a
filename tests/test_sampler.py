import math

import numpy as np
import pytest

from lpsubsel import (DatasetSource, InputError, ParameterError, PointSet, SamplerConfig,
                      SubsetBasis, adaptive_distribution, as_source, draw_mixture_pool,
                      one_pass_adaptive_sample, open_csv, open_unit, theorem_params,
                      tv_distance)
from lpsubsel import _kernels, sampler
from lpsubsel.geometry import CHUNK_ROWS
from lpsubsel.sampler import pool_rng, walk_rng

from helpers import acceptance_ratio, basis_from, peak_traced_bytes, random_walk

SIX_POINTS = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                       [3.0, 4.0], [0.5, 0.5], [-2.0, 1.0]])


def _draw(point, index=0, qmass=0.25):
    return (np.asarray(point, dtype=np.float64), index, qmass)


# ---------------------------------------------------------------- parameters

def test_theorem_params_k2_p1():
    cfg = theorem_params(k=2, p=1.0, delta=0.5, t_override=5)
    assert cfg.epsilon == pytest.approx(0.125)
    assert cfg.epsilon1 == pytest.approx(0.125)
    assert cfg.m == 7  # ceil(1 + 4 ln 4)
    assert cfg.l == 2
    assert cfg.repetitions == 9  # ceil(4 ln 8)
    assert cfg.epsilon2 == pytest.approx(0.5 / (4 * 5 * 2))


def test_theorem_params_k1_p2():
    cfg = theorem_params(k=1, p=2.0, delta=0.5, t_override=3)
    assert cfg.epsilon1 == pytest.approx(0.03125)
    assert cfg.m == math.ceil(1 + 8 * math.log(1 / 0.25))


def test_theorem_params_default_t():
    cfg = theorem_params(k=1, p=1.0, delta=0.5)
    # ceil((k/eps)^(p+1) ln(2 + k/eps)) with k/eps = 8
    assert cfg.t == 148
    assert cfg.pool_size == cfg.repetitions * cfg.l * cfg.t * (cfg.m + 1)


def test_theorem_params_lemma_walk_length_diagnostic():
    cfg = theorem_params(k=2, p=1.0, delta=0.5, t_override=5)
    want = math.ceil(1 + (2 / cfg.epsilon1) * math.log(1 / cfg.epsilon2))
    assert cfg.lemma_min_walk_length == want
    assert cfg.meets_lemma_walk_length == (cfg.m >= want)
    assert not cfg.meets_lemma_walk_length  # the recipe's m is far smaller


def test_theorem_params_rejects_bad_delta():
    with pytest.raises(ParameterError):
        theorem_params(k=2, p=1.0, delta=0.0)
    with pytest.raises(ParameterError):
        theorem_params(k=2, p=1.0, delta=1.0)


def test_theorem_params_rejects_k_below_1():
    # checked before the recipe, whose walk length takes the log of k
    with pytest.raises(ParameterError, match="^k must be >= 1, got 0$"):
        theorem_params(k=0, p=2.0, delta=0.5)


@pytest.mark.parametrize("t, shown", [(0, "0"), (-1, "-1"), (-10 ** 400, "-1.00e400")],
                         ids=["zero", "minus_one", "minus_1e400"])
def test_theorem_params_rejects_a_t_override_below_1(t, shown):
    # checked before the recipe, whose epsilon2 divides by t and takes its log
    with pytest.raises(ParameterError, match=f"^need t >= 1, got t={shown}$"):
        theorem_params(k=2, p=2.0, delta=0.5, t_override=t)


def test_sampler_config_validation():
    good = dict(k=1, p=2.0, delta=0.5, epsilon=0.125, epsilon1=0.1,
                epsilon2=0.01, m=3, t=1, l=1, repetitions=1, seed=0)
    SamplerConfig(**good)
    for bad in (dict(epsilon=0.0), dict(epsilon1=1.0), dict(t=0),
                dict(repetitions=0), dict(seed=-1), dict(p=0.5), dict(k=0)):
        with pytest.raises(ParameterError):
            SamplerConfig(**{**good, **bad})
    # degenerate m=0 and l=0 are allowed for hand-built configs
    SamplerConfig(**{**good, "m": 0, "l": 0})


# ---------------------------------------------------------- acceptance ratio

def test_acceptance_ratio_self_proposal_is_one():
    basis = SubsetBasis.empty(2)
    x = _draw([1.0, 1.0])
    assert acceptance_ratio(x, x, basis, 2.0) == pytest.approx(1.0)


def test_acceptance_ratio_direct_value():
    basis = SubsetBasis.empty(2)
    x = _draw([1.0, 0.0], qmass=0.3)
    y = _draw([2.0, 0.0], qmass=0.3)
    # d(y)=2, d(x)=1, p=2, equal masses -> ratio 4
    assert acceptance_ratio(x, y, basis, 2.0) == pytest.approx(4.0)


def test_acceptance_ratio_zero_distance_conventions():
    basis = SubsetBasis.empty(2).extended(0, np.array([1.0, 0.0]))
    covered = _draw([3.0, 0.0])
    live = _draw([0.0, 1.0])
    assert acceptance_ratio(covered, live, basis, 2.0) == math.inf
    assert acceptance_ratio(covered, _draw([5.0, 0.0]), basis, 2.0) == pytest.approx(1.0)
    assert acceptance_ratio(live, covered, basis, 2.0) == pytest.approx(0.0)


# ------------------------------------------------------------------- walks

def test_random_walk_zero_steps_returns_start():
    start = _draw([1.0, 2.0], index=3)
    out = random_walk([start], SubsetBasis.empty(2), 2.0, np.empty(0))
    assert out[1] == 3


def test_random_walk_leaves_covered_start():
    basis = SubsetBasis.empty(2).extended(0, np.array([1.0, 0.0]))
    covered = _draw([2.0, 0.0], index=0)
    also_covered = _draw([4.0, 0.0], index=1)
    live = _draw([0.0, 1.0], index=2)
    # every proposal is accepted from a covered point, so the walk leaves
    # immediately and then sticks at the live point
    out = random_walk([covered, also_covered, live, also_covered], basis, 2.0,
                      open_unit(np.random.default_rng(1), 3))
    assert out[1] == 2


def test_random_walk_matches_kernel_backend():
    rng_data = np.random.default_rng(42)
    X = PointSet(rng_data.standard_normal((12, 3)))
    basis = basis_from(X, [0, 5])
    pool = draw_mixture_pool(iter(X.points), 2.0, 9, np.random.default_rng(7))
    draws = [(pool.rows[i], int(pool.row_index[i]), float(pool.row_qmass[i]))
             for i in pool.row_of]

    variates = open_unit(np.random.default_rng(99), (1, 8))
    ref = random_walk(draws, basis, 2.0, variates[0])

    pts = np.vstack([d[0] for d in draws])
    dist_pow = (basis.distances(pts) ** 2.0).reshape(1, -1)
    qmat = np.array([[d[2] for d in draws]])
    out = np.empty(1, dtype=np.intp)
    _kernels.run_walks(dist_pow, qmat, variates, out)
    assert draws[int(out[0])][1] == ref[1]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_run_walks_match_the_scalar_reference_over_many_rounds(p):
    # small integer coordinates against bases of coordinate axes: every
    # distance is exact, so no last-bit difference between the batched
    # and the one-draw scoring can split a tie. Rows 0-9 lie in the span
    # of axes 0 and 1 and row 10 is zero, so covered starts and covered
    # proposals come up in many walks.
    rng = np.random.default_rng(61)
    X = rng.integers(-3, 4, size=(40, 5)).astype(float)
    X[:10, 2:] = 0.0
    X[10] = 0.0
    rounds, t, m = 40, 8, 12
    width = m + 1
    pool = draw_mixture_pool(iter(X), p, rounds * t * width, np.random.default_rng(62))
    axes = np.eye(5)
    finals = np.empty(t, dtype=np.intp)
    covered_starts = covered_proposals = last_accepted = 0
    for rnd in range(rounds):
        basis = SubsetBasis.empty(5)
        for axis in rng.choice(5, size=rnd % 4, replace=False):
            basis = basis.extended(int(axis), axes[axis])
        start = rnd * t * width
        slots = pool.row_of[start:start + t * width]
        dist_pow = (basis.distances(pool.rows[slots]) ** p).reshape(t, width)
        qmat = pool.row_qmass[slots].reshape(t, width)
        variates = open_unit(walk_rng(63, 0, rnd), (t, m))
        _kernels.run_walks(dist_pow, qmat, variates, finals)
        for w in range(t):
            # each draw carries its column in the walk, so the reference
            # names the slot it ends on, not only the row
            draws = [(pool.rows[slots[w * width + j]], j, float(qmat[w, j]))
                     for j in range(width)]
            ref = random_walk(draws, basis, p, variates[w])
            assert int(finals[w]) == ref[1], (rnd, w)
        covered_starts += int(np.count_nonzero(dist_pow[:, 0] == 0.0))
        covered_proposals += int(np.count_nonzero(dist_pow[:, 1:] == 0.0))
        last_accepted += int(np.count_nonzero(finals == m))
    # walks both accept and reject their last proposal
    assert covered_starts and covered_proposals
    assert 0 < last_accepted < rounds * t


# ------------------------------------------------------------ full sampler

def test_one_pass_deterministic_and_bounded():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 5))
    cfg = theorem_params(k=2, p=2.0, delta=0.5, t_override=3, seed=17)
    a = one_pass_adaptive_sample(as_source(X), cfg)
    b = one_pass_adaptive_sample(as_source(X), cfg)
    assert [x.member_indices for x in a] == [y.member_indices for y in b]
    for basis in a:
        assert len(basis.member_indices) <= cfg.t * cfg.l
        assert basis.rank <= min(len(basis.member_indices), 5)
        assert len(set(basis.member_indices)) == len(basis.member_indices)


@pytest.mark.parametrize("from_file", [False, True], ids=["array", "csv"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_one_pass_stops_once_no_pool_row_can_grow_its_span(tmp_path, r, from_file):
    # rank r < d: the span never reaches R^5, and walks over rows it covers
    # pick from rounding noise; without the stop, l = 50 rounds kept
    # adding members that add no direction
    rng = np.random.default_rng(40 + r)
    X = rng.standard_normal((50, r)) @ rng.standard_normal((r, 5))
    if from_file:
        path = str(tmp_path / "points.csv")
        np.savetxt(path, X, delimiter=",", fmt="%.17g")
        src = open_csv(path)
    else:
        src = as_source(X)
    cfg = SamplerConfig(k=1, p=2.0, delta=0.5, epsilon=0.125, epsilon1=0.1,
                        epsilon2=0.01, m=5, t=2, l=50, repetitions=2, seed=3)
    for basis in one_pass_adaptive_sample(src, cfg):
        assert basis.rank == r
        assert len(basis.member_indices) <= cfg.t * (r + 1)


def test_one_pass_runs_no_round_once_the_span_is_all_of_r_d(monkeypatch):
    # rank 3 comes within a few rounds of 2 picks each; a round after it
    # would walk over distances of rounding size and keep more members
    rounds, ranks = [], []
    real_walk_rng, real_extended_many = sampler.walk_rng, SubsetBasis.extended_many

    def walk_rng(seed, repetition, round_index):
        rounds.append(repetition)
        ranks.append(None)
        return real_walk_rng(seed, repetition, round_index)

    def extended_many(self, indices, points):
        grown = real_extended_many(self, indices, points)
        ranks[-1] = grown.rank
        return grown

    monkeypatch.setattr(sampler, "walk_rng", walk_rng)
    monkeypatch.setattr(SubsetBasis, "extended_many", extended_many)
    X = np.random.default_rng(4).standard_normal((30, 3))
    cfg = SamplerConfig(k=1, p=2.0, delta=0.5, epsilon=0.125, epsilon1=0.1,
                        epsilon2=0.01, m=5, t=2, l=6, repetitions=2, seed=4)
    bases = one_pass_adaptive_sample(as_source(X), cfg)
    assert [b.rank for b in bases] == [3, 3]
    for rep in range(cfg.repetitions):
        rep_ranks = [r for rr, r in zip(rounds, ranks) if rr == rep]
        # the last round this repetition ran is the one that reached rank 3
        assert len(rep_ranks) < cfg.l and rep_ranks[-1] == 3 and 3 not in rep_ranks[:-1]


def test_one_pass_zero_rounds_returns_empty_subsets():
    cfg = SamplerConfig(k=1, p=2.0, delta=0.5, epsilon=0.125, epsilon1=0.1,
                        epsilon2=0.01, m=2, t=2, l=0, repetitions=3, seed=0)
    src = as_source(np.eye(3))
    bases = one_pass_adaptive_sample(src, cfg)
    assert len(bases) == 3
    assert all(b.member_indices == () for b in bases)
    assert src.selection_passes == 0  # nothing to sample, no pass


def test_one_pass_needs_the_source_dimension():
    src = DatasetSource(rows=np.eye(3), n=3)  # built without d
    cfg = theorem_params(k=1, p=2.0, delta=0.5, t_override=2)
    with pytest.raises(InputError, match="^source dimension unknown$"):
        one_pass_adaptive_sample(src, cfg)
    assert src.selection_passes == 0


def test_one_pass_timings_split():
    cfg = theorem_params(k=1, p=2.0, delta=0.5, t_override=2, seed=5)
    timings = {}
    one_pass_adaptive_sample(as_source(np.eye(4)), cfg, timings=timings)
    assert set(timings) == {"selection_seconds", "walk_seconds"}
    assert timings["selection_seconds"] >= 0.0


def test_one_pass_single_draw_matches_adaptive_distribution():
    # l=1, t=1, long walk: the selected index should be distributed like the
    # empty-subset adaptive distribution; oracle = exact normalization
    p = 2.0
    X = PointSet(SIX_POINTS)
    target = adaptive_distribution(X, SubsetBasis.empty(2), p).masses
    counts = np.zeros(X.n)
    runs = 10_000
    cfg_base = dict(k=1, p=p, delta=0.5, epsilon=0.125, epsilon1=0.1,
                    epsilon2=0.01, m=200, t=1, l=1, repetitions=1)
    for seed in range(runs):
        cfg = SamplerConfig(seed=seed, **cfg_base)
        basis = one_pass_adaptive_sample(as_source(X), cfg)[0]
        counts[basis.member_indices[0]] += 1
    assert tv_distance(counts / runs, target) <= 0.05


def _lognormal_low_rank(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3)) @ rng.standard_normal((3, d))
    X += 0.3 * rng.standard_normal((n, d))
    return X * np.exp(0.5 * rng.standard_normal((n, 1)))


def _slot_by_slot_members(X, config):
    """Reference sampler: every slot's draw scored on its own gathered copy."""
    pool = draw_mixture_pool(iter(X), config.p, config.pool_size, pool_rng(config.seed))
    points = pool.rows[pool.row_of]
    positions, qmass = pool.row_index[pool.row_of], pool.row_qmass[pool.row_of]
    width = config.m + 1
    block = config.t * width
    finals = np.empty(config.t, dtype=np.intp)
    picked = []
    for rep in range(config.repetitions):
        basis = SubsetBasis.empty(X.shape[1])
        members = []
        for rnd in range(config.l):
            start = (rep * config.l + rnd) * block
            dist_pow = basis.distances(points[start:start + block]) ** config.p
            variates = open_unit(walk_rng(config.seed, rep, rnd), (config.t, config.m))
            _kernels.run_walks(dist_pow.reshape(config.t, width),
                               qmass[start:start + block].reshape(config.t, width),
                               variates, finals)
            for w in range(config.t):
                sel = start + w * width + int(finals[w])
                if int(positions[sel]) not in members:
                    members.append(int(positions[sel]))
                    basis = basis.extended(positions[sel], points[sel])
        picked.append(tuple(members))
    return picked


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("seed", [3, 4])
def test_one_pass_matches_slot_by_slot_scoring(p, seed):
    # pool 1,116 > n = 120, so slots share rows; t * l = 18 < d, so the
    # span never covers R^d and every round runs
    X = _lognormal_low_rank(120, 24, seed)
    config = SamplerConfig(k=3, p=p, delta=0.5, epsilon=0.125, epsilon1=0.1,
                           epsilon2=0.01, m=30, t=6, l=3, repetitions=2, seed=seed)
    bases = one_pass_adaptive_sample(as_source(X), config)
    assert [b.member_indices for b in bases] == _slot_by_slot_members(X, config)


def test_walk_rounds_score_each_distinct_row_once(monkeypatch):
    # n = 50 rows against 168 slots a round: scoring slot by slot would
    # score 168 rows per round
    X = _lognormal_low_rank(50, 32, 5)
    config = SamplerConfig(k=3, p=3.0, delta=0.5, epsilon=0.125, epsilon1=0.1,
                           epsilon2=0.01, m=20, t=8, l=3, repetitions=2, seed=6)
    pools, scored = [], []
    draw, distances = sampler.draw_mixture_pool, SubsetBasis.distances

    def recording_draw(*args, **kwargs):
        pools.append(draw(*args, **kwargs))
        return pools[-1]

    def recording_distances(self, rows):
        scored.append(len(rows))
        return distances(self, rows)

    monkeypatch.setattr(sampler, "draw_mixture_pool", recording_draw)
    monkeypatch.setattr(SubsetBasis, "distances", recording_distances)
    one_pass_adaptive_sample(as_source(X), config)
    (pool,) = pools
    block = config.t * (config.m + 1)
    assert len(scored) == config.repetitions * config.l
    for rnd, rows in enumerate(scored):
        distinct = len(np.unique(pool.row_of[rnd * block:(rnd + 1) * block]))
        assert rows == distinct <= len(pool.rows) < block


def _wide_rounds(monkeypatch):
    """A pool whose rounds each draw over 2 * CHUNK_ROWS distinct rows of
    d = 64, drawn before the call and handed to the sampler."""
    X = _lognormal_low_rank(6000, 64, 7)
    config = SamplerConfig(k=3, p=2.0, delta=0.5, epsilon=0.125, epsilon1=0.1,
                           epsilon2=0.01, m=800, t=8, l=3, repetitions=1, seed=8)
    pool = draw_mixture_pool(iter(X), config.p, config.pool_size, pool_rng(config.seed))
    monkeypatch.setattr(sampler, "draw_mixture_pool", lambda *args: pool)
    block = config.t * (config.m + 1)
    for rnd in range(config.l):
        assert len(np.unique(pool.row_of[rnd * block:(rnd + 1) * block])) > 2 * CHUNK_ROWS
    return as_source(X), config, pool


def test_walk_rounds_gather_one_chunk_of_rows_at_a_time(monkeypatch):
    # beyond the pool, a round holds one gathered chunk and the distance
    # temporaries of one chunk (at most two more at this rank), however
    # many distinct rows it drew; a buffer for all of them would not fit
    source, config, pool = _wide_rounds(monkeypatch)
    chunk_bytes = CHUNK_ROWS * source.d * 8
    assert min(len(pool.rows), config.t * (config.m + 1)) * source.d * 8 > 4 * chunk_bytes
    peak = peak_traced_bytes(lambda: one_pass_adaptive_sample(source, config))
    assert peak < 4 * chunk_bytes


def test_chunked_round_scores_equal_one_distances_call(monkeypatch):
    # the scores the walks see equal one `distances` call on all the
    # round's distinct rows, the last chunk a partial one
    source, config, pool = _wide_rounds(monkeypatch)
    block = config.t * (config.m + 1)
    bases, compared = [], []
    distances, run_walks = SubsetBasis.distances, _kernels.run_walks

    def recording_distances(self, rows):
        bases.append(self)
        return distances(self, rows)

    def checking_run_walks(dist_pow, qmass, variates, out):
        start = len(compared) * block
        picked, where = np.unique(pool.row_of[start:start + block], return_inverse=True)
        assert len(picked) % CHUNK_ROWS
        want = distances(bases[-1], pool.rows[picked]) ** config.p
        compared.append(np.array_equal(dist_pow.reshape(-1), want[where]))
        return run_walks(dist_pow, qmass, variates, out)

    monkeypatch.setattr(SubsetBasis, "distances", recording_distances)
    monkeypatch.setattr(_kernels, "run_walks", checking_run_walks)
    one_pass_adaptive_sample(source, config)
    assert compared == [True] * config.l
    assert bases[-1].rank > 0
