import math
import sys

import numpy as np
import pytest

from lpsubsel import _kernels
from lpsubsel.proposal import _ReservoirBank, open_unit

from helpers import cross_multiplied_walks, ratio_walks


def test_update_bank_zero_weight_never_wins():
    # a weight that is not positive adds nothing to the total, before or
    # after a positive one; the slots are drawn by the row store, not here
    bank = _ReservoirBank(4)
    for weight in (0.0, -1.0, -0.0, math.nan):
        _kernels.update_bank(bank, weight)
    assert bank.total == 0.0 and (bank.win == -1).all()

    _kernels.update_bank(bank, 2.0)
    for weight in (0.0, -3.0, math.nan):
        _kernels.update_bank(bank, weight)
        assert bank.total == 2.0 and (bank.win == -1).all()
    _kernels.update_bank(bank, 0.5)
    assert bank.total == 2.5 and bank.merged == 0.0


def test_run_walks_conventions():
    out = np.empty(1, dtype=np.intp)

    # covered current point always moves, even onto another covered point
    dist_pow = np.array([[0.0, 0.0, 1.0]])
    qmass = np.full((1, 3), 0.25)
    uniforms = np.array([[0.999, 0.999]])
    _kernels.run_walks(dist_pow, qmass, uniforms, out)
    assert out[0] == 2
    _kernels.run_walks(dist_pow[:, :2], qmass[:, :2], uniforms[:, :1], out)
    assert out[0] == 1

    # zero-distance proposal from a live point is never accepted
    dist_pow = np.array([[1.0, 0.0, 0.0]])
    _kernels.run_walks(dist_pow, qmass, np.array([[1e-9, 1e-9]]), out)
    assert out[0] == 0

    # acceptance is strict: ratio must exceed the variate
    qmass = np.full((1, 2), 0.5)
    _kernels.run_walks(np.array([[1.0, 4.0]]), qmass, np.array([[0.9999]]), out)
    assert out[0] == 1  # ratio 4 > any variate below 1
    _kernels.run_walks(np.array([[4.0, 1.0]]), qmass, np.array([[0.2]]), out)
    assert out[0] == 1  # ratio 0.25 > 0.2, move
    _kernels.run_walks(np.array([[4.0, 1.0]]), qmass, np.array([[0.26]]), out)
    assert out[0] == 0  # ratio 0.25 <= 0.26, stay


def test_run_walks_zero_steps_returns_start():
    out = np.empty(2, dtype=np.intp)
    _kernels.run_walks(np.ones((2, 1)), np.ones((2, 1)), np.empty((2, 0)), out)
    assert (out == 0).all()


def _random_round(rng, p, weight_total, n=60, t=24, m=50):
    """A round's arrays as the sampler builds them: n rows with lognormal
    norms, whose p-th powers sum to `weight_total`, the mixture masses
    q = 0.5 w/W + 0.5/n, and t walks of m + 1 slots drawn over the rows.
    A fifth of the rows are covered (distance 0); the others keep a random
    share of their norm as their distance to the span."""
    weights = np.exp(p * rng.standard_normal(n))
    weights *= weight_total / weights.sum()
    q = 0.5 * weights / weights.sum() + 0.5 / n
    dist_pow = weights * rng.uniform(0.05, 1.0, n) ** p
    dist_pow[rng.random(n) < 0.2] = 0.0
    slots = rng.integers(0, n, size=(t, m + 1))
    return dist_pow[slots], q[slots], open_unit(rng, (t, m))


@pytest.mark.parametrize("weight_total", [1.0, 0.75 * sys.float_info.max],
                         ids=["unit", "above_half_the_float_range"])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_run_walks_match_the_cross_multiplied_reference(p, weight_total):
    rng = np.random.default_rng(int(p) * 101)
    got = np.empty(24, dtype=np.intp)
    want = np.empty(24, dtype=np.intp)
    covered_starts = covered_proposals = moved = overflowed = 0
    for rnd in range(45):
        # short walks often end on a move between two covered slots
        dist_pow, qmass, uniforms = _random_round(rng, p, weight_total, m=(1, 3, 50)[rnd % 3])
        _kernels.run_walks(dist_pow, qmass, uniforms, got)
        cross_multiplied_walks(dist_pow, qmass, uniforms, want)
        np.testing.assert_array_equal(got, want)
        covered_starts += int(np.count_nonzero(dist_pow[:, 0] == 0.0))
        covered_proposals += int(np.count_nonzero(dist_pow[:, 1:] == 0.0))
        moved += int(np.count_nonzero(got))
        with np.errstate(over="ignore"):
            overflowed += int(np.count_nonzero(np.isinf(dist_pow / qmass)))
    assert covered_starts and covered_proposals and moved
    # above half the float range, an unhalved importance ratio d^p/q
    # overflows on the heaviest rows
    assert (overflowed > 0) == (weight_total > 1.0)


def _walks_checked(dist_pow, qmass, uniforms):
    """`run_walks` on a round, required to end every walk on the slot that
    both references end it on."""
    t = len(dist_pow)
    got, by_ratio, by_cross = (np.empty(t, dtype=np.intp) for _ in range(3))
    _kernels.run_walks(dist_pow, qmass, uniforms, got)
    ratio_walks(dist_pow, qmass, uniforms, by_ratio)
    cross_multiplied_walks(dist_pow, qmass, uniforms, by_cross)
    np.testing.assert_array_equal(got, by_ratio)
    np.testing.assert_array_equal(got, by_cross)
    return got


def _restarts(dist_pow, qmass, uniforms):
    """The steps whose bar beats every ratio of their walk, covered slots at
    -1: each accepts whatever slot its walk is on."""
    ratio = (0.5 * dist_pow) / qmass
    with np.errstate(over="ignore"):
        bar = ratio[:, 1:] / uniforms
    ratio[dist_pow == 0.0] = -1.0
    return bar > ratio.max(axis=1, keepdims=True)


def _calm_round(rng, t=12, m=30):
    """A round with no restart: each start holds its walk's largest ratio
    (2), every proposal's ratio lies in (0.05, 0.5) and every variate in
    (0.5, 1), so no bar passes 1."""
    qmass = rng.uniform(0.1, 1.0, (t, m + 1))
    dist_pow = qmass * rng.uniform(0.1, 1.0, (t, m + 1))
    dist_pow[:, 0] = 4.0 * qmass[:, 0]
    return dist_pow, qmass, rng.uniform(0.5, 1.0, (t, m))


def _restart_round(case, rng):
    if case == "every_step":
        # equal ratios: each bar is the ratio over a variate below 1
        return np.full((6, 9), 0.3), np.full((6, 9), 0.2), open_unit(rng, (6, 8))
    dist_pow, qmass, uniforms = _calm_round(rng)
    if case == "first_step":
        uniforms[:, 0] = 1e-9
        # half the walks land on a ratio of 1, which no later bar beats
        dist_pow[:6, 1] = 2.0 * qmass[:6, 1]
    elif case == "last_step":
        uniforms[:, -1] = 1e-9
    elif case == "tie":
        # a bar of exactly 2 at step 5, equal to the start's ratio
        dist_pow[:, 5] = 2.0 * qmass[:, 5]
        uniforms[:, 4] = 0.5
    return dist_pow, qmass, uniforms


@pytest.mark.parametrize("case", ["every_step", "first_step", "last_step", "none", "tie"])
def test_run_walks_restart_cases_match_the_references(case):
    dist_pow, qmass, uniforms = _restart_round(case, np.random.default_rng(71))
    restarts = _restarts(dist_pow, qmass, uniforms)
    steps = restarts.shape[1]
    got = _walks_checked(dist_pow, qmass, uniforms)
    if case == "every_step":
        assert restarts.all() and (got == steps).all()
    elif case == "first_step":
        assert restarts[:, 0].all() and not restarts[:, 1:].any()
        # the walks run on from step 1: some stay there, the others move on
        assert (got[:6] == 1).all() and (got[6:] > 1).all()
    elif case == "last_step":
        assert restarts[:, -1].all() and not restarts[:, :-1].any()
        assert (got == steps).all()
    else:
        # no bar beats the start's ratio, the walk's largest, which a tie
        # does not: no walk leaves its start
        assert not restarts.any() and (got == 0).all()


def test_run_walks_covered_slots_match_the_references():
    rng = np.random.default_rng(72)
    dist_pow, qmass, uniforms = _random_round(rng, 3.0, 1.0, t=40, m=20)
    dist_pow[:10, 0] = 0.0         # covered starts
    dist_pow[5:15, 1::3] = 0.0     # covered proposals, some after a covered start
    dist_pow[15] = 0.0             # a walk of covered slots restarts at every step
    got = _walks_checked(dist_pow, qmass, uniforms)
    assert _restarts(dist_pow, qmass, uniforms)[15].all() and got[15] == 20
    assert (got[:10] > 0).all()


def test_run_walks_overflowing_bars_match_the_references():
    rng = np.random.default_rng(73)
    overflowed = 0
    for _ in range(20):
        dist_pow, qmass, uniforms = _random_round(rng, 2.0, 0.75 * sys.float_info.max, m=30)
        _walks_checked(dist_pow, qmass, uniforms)
        with np.errstate(over="ignore"):
            overflowed += int(np.count_nonzero(np.isinf(0.5 * dist_pow[:, 1:] / qmass[:, 1:]
                                                        / uniforms)))
    assert overflowed


@pytest.mark.parametrize("m", [0, 1, 2])
def test_run_walks_short_walks_match_the_references(m):
    rng = np.random.default_rng(74 + m)
    for _ in range(30):
        got = _walks_checked(*_random_round(rng, 2.0, 1.0, m=m))
        assert ((0 <= got) & (got <= m)).all()


def test_run_walks_random_rounds_match_the_references():
    rng = np.random.default_rng(75)
    tails = []
    for rnd in range(300):
        p = (1.0, 1.5, 2.0, 3.0)[rnd % 4]
        weight_total = 10.0 ** rng.uniform(-300, 300)
        dist_pow, qmass, uniforms = _random_round(rng, p, weight_total,
                                                  t=int(rng.integers(1, 30)),
                                                  m=int(rng.integers(0, 60)))
        _walks_checked(dist_pow, qmass, uniforms)
        restarts = _restarts(dist_pow, qmass, uniforms)
        tails.extend((restarts * np.arange(1, restarts.shape[1] + 1)).max(axis=1, initial=0))
    # the sweep holds walks with no restart and walks that restart at
    # various steps
    assert 0 in tails and len(set(tails)) > 20
