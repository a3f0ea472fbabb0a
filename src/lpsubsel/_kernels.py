"""The two hot kernels: weighted reservoir bank updates and Metropolis walk chains.

Both are plain Python over NumPy state. The sampler and the proposal pass
look them up as module attributes at call time, one `update_bank` call
per streamed row per bank and one `run_walks` call per round: the lpbench
tracer times and counts them by patching these attributes, so a caller
that bound them to locals would escape it.

`run_walks` is the library's one walk path, in ratio form. Each slot gets
its importance ratio r = (d^p / 2) / q, and each proposal j its bar
r_j / u_j against the step's variate u_j, all as arrays once per round; a
step then moves iff bar_j > r_cur, one compare in the Python loop. In real
arithmetic this is the Metropolis test d_j^p q_cur > u_j d_cur^p q_j
divided through by the positive u_j q_j q_cur, so the chains' law is the
same; in floats the two forms round differently and can part only where
the test is within a few ulps of a tie. The halving is exact (a power of
two, for every normal float), and it is what keeps every ratio finite: a
pass of weight total W gives each row q >= (norm^p / 2) / W and d <= norm,
so r <= W, where d^p / q alone would reach 2W and overflow once W is past
half the float range. A bar may still overflow to inf, and then it
accepts, as the cross-multiplied test does. After the bars are taken, a
covered slot's (d = 0) ratio is set to -1: a covered current point lies
below every bar, so it always moves, while a covered proposal's bar is 0,
which never beats a live current point.

A walk runs only from its last restart: a step whose bar exceeds every
ratio of its walk accepts from any current point, so after it the walk is
at that step's slot whatever came before, and every walk ends where the
full loop ends it, bit for bit. On pool-deep a walk's last restart is a
median of 3 of its 400 steps from the end. The tests keep the full loop,
the cross-multiplied kernel and a scalar walk, which scores one draw at a
time, as references, and check that each ends every walk on the same slot.

`update_bank` is sequential with-replacement sampling by binomial thinning
(Chao 1982) in skip-ahead form. Thinning replaces each of a bank's s slots
independently with probability w/W as a row of weight w raises the running
total to W. Rows i+1..j then all write nothing with probability
prod (W_{r-1}/W_r)^s = (W_i/W_j)^s, which telescopes, so after a write at
total W_i the bank draws a skip limit L = W_i * U^(-1/s), U uniform on
(0, 1]: rows write nothing exactly while the total stays <= L (the
with-replacement form of the exponential jumps of Li 1994). The row that
crosses L writes Binomial(s, w/W) slots conditioned on at least one, as a
uniform subset, and draws a fresh L. Both steps are the thinning law
itself, so the bank's law is unchanged; a row below the limit costs one
add and one compare and draws no variate.

`proposal._draw_banks` defers its banks until its row store fills or the
pass ends: while a bank is deferred its limit is inf, so `update_bank`
only adds each row's weight to the total, and the store then settles the
bank's slots over the rows so far in one draw and sets its first limit.
"""

import math

import numpy as np

BACKEND = "python"

# Uniform variates a bank draws from its generator per call.
UNIFORM_BLOCK = 256


def run_walks(dist_pow, qmass, uniforms, out):
    """Run one m-step accept/reject chain per row over precomputed arrays.

    Row layout: column 0 is the walk start, columns 1..m are the proposals.
    `dist_pow` holds d(., span S)^p, `qmass` the proposal masses (always
    positive thanks to the mixture floor), `uniforms` the per-step variates
    in (0,1). A proposal is accepted when the acceptance ratio exceeds the
    variate; a zero-distance current point always moves. Writes the final
    column index of each walk into `out` and returns it. The ratio form is
    described in the module docstring.
    """
    ratio = (0.5 * dist_pow) / qmass
    with np.errstate(over="ignore"):  # a bar of inf accepts, as it should
        bar = ratio[:, 1:] / uniforms
    ratio[dist_pow == 0.0] = -1.0
    # each walk's last step whose bar beats every ratio of its walk, so it
    # accepts from any slot; 0 (the start) where there is none, or no step
    restart = bar > ratio.max(axis=1, keepdims=True)
    tail = np.max(restart * np.arange(1, bar.shape[1] + 1), axis=1, initial=0)
    for w, s in enumerate(tail.tolist()):
        # Python floats compare faster than numpy scalars; one walk's lists
        # at a time keep the temporaries small
        r = ratio[w, s:].tolist()
        cur = 0
        rc = r[0]
        for j, b in enumerate(bar[w, s:].tolist(), 1):
            if b > rc:
                cur = j
                rc = r[j]
        out[w] = s + cur
    return out


def update_bank(bank, weight, value):
    """Feed one streamed row to a bank of independent single-slot reservoirs.

    `bank` holds the running total `total` and the skip limit `limit` as
    floats, the slots `win`, its generator `rng` and a list `uniforms` of
    unused variates on (0, 1] (see `proposal._ReservoirBank`). A positive
    `weight` is added to the total; if the total then exceeds the limit,
    the row writes `value` into Binomial(slots, weight/total) slots,
    conditioned on at least one, and the limit is redrawn. The first
    positive row fills every slot. A weight that is not positive (or is
    NaN) writes nothing and leaves the total alone. The caller keeps the
    total finite: a row that would make it overflow must be rejected
    before this call. Returns the number of slots written.
    """
    if weight > 0.0:
        total = bank.total + weight
        bank.total = total
        if total > bank.limit:
            return _cross(bank, weight / total, value)
    return 0


def _uniform(bank):
    """One variate on (0, 1] from the bank's block, refilled when empty."""
    if not bank.uniforms:
        bank.uniforms = (1.0 - bank.rng.random(UNIFORM_BLOCK)).tolist()
    return bank.uniforms.pop()


def _cross(bank, pi, value):
    """Write the row that crossed the skip limit, then draw the next limit.

    The count is Binomial(s, pi) conditioned on >= 1. The bank draws the
    first written slot F from the truncated geometric law, then
    Binomial(s-F-1, pi) more slots after F: the set independent
    Bernoulli(pi) slots give, conditioned on being non-empty, which given
    its size is a uniform subset.
    """
    win, rng = bank.win, bank.rng
    slots = win.shape[0]
    total = bank.total
    if pi == 1.0:
        # the first positive row, or one that dwarfs the total before it
        win[:] = value
        written = slots
    else:
        log_keep = math.log1p(-pi)
        some = -math.expm1(slots * log_keep)  # P(at least one slot is written)
        # 1 - U lies in [0, 1), so the log stays finite when some rounds to 1
        first = min(int(math.log1p((_uniform(bank) - 1.0) * some) / log_keep), slots - 1)
        win[first] = value
        rest = slots - first - 1
        written = int(rng.binomial(rest, pi))
        if written:
            win[first + 1:][rng.choice(rest, written, replace=False, shuffle=False)] = value
        written += 1
    bank.limit = total * _uniform(bank) ** (-1.0 / slots)
    return written
