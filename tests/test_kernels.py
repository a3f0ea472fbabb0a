import numpy as np

from lpsubsel import _kernels


def test_update_bank_zero_weight_never_wins():
    rng = np.random.default_rng(0)
    total, win = np.zeros(1), np.full(4, -1, dtype=np.intp)
    for value, weight in enumerate((0.0, -1.0, -0.0)):
        assert _kernels.update_bank(weight, value, total, win, rng) == 0
    assert total[0] == 0.0 and (win == -1).all()

    # after a positive row, a nonpositive one still leaves W and the slots alone
    _kernels.update_bank(2.0, 7, total, win, rng)
    for weight in (0.0, -3.0):
        assert _kernels.update_bank(weight, 8, total, win, rng) == 0
        assert total[0] == 2.0 and (win == 7).all()


def test_update_bank_records_winner():
    rng = np.random.default_rng(1)
    total, win = np.zeros(1), np.full(3, -1, dtype=np.intp)
    # the first positive row replaces with probability w/W = 1: every slot
    assert _kernels.update_bank(2.0, 7, total, win, rng) == 3
    assert total[0] == 2.0 and (win == 7).all()


def test_update_bank_returns_slots_written():
    rng = np.random.default_rng(2)
    total, win = np.zeros(1), np.full(200, -1, dtype=np.intp)
    written_total = 0
    for value in range(50):
        before = win.copy()
        written = _kernels.update_bank(1.0 + value % 3, value, total, win, rng)
        assert written == int(np.count_nonzero(win == value))
        # slots not written keep their previous winner
        kept = win != value
        np.testing.assert_array_equal(win[kept], before[kept])
        written_total += written
    assert total[0] == sum(1.0 + v % 3 for v in range(50))
    assert written_total > win.size  # later rows do replace earlier winners


def test_run_walks_conventions():
    out = np.empty(1, dtype=np.intp)

    # covered current point always moves, even onto another covered point
    dist_pow = np.array([[0.0, 0.0, 1.0]])
    qmass = np.full((1, 3), 0.25)
    uniforms = np.array([[0.999, 0.999]])
    _kernels.run_walks(dist_pow, qmass, uniforms, out)
    assert out[0] == 2

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
