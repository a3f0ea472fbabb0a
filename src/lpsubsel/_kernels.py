"""The two hot kernels: reservoir bank totals and Metropolis walk chains.

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

`update_bank` only adds a positive row weight to a bank's running total.
`proposal._draw_banks` calls it once per streamed row per bank, though a
block at a time would do, because lpbench's tracer counts and times the
pool pass through it, and both its self-test and this package's tests
pin those calls at 2n; the draws themselves are made by
`proposal._RowStore._merge`, a store-full of rows at a time.
"""

import numpy as np

BACKEND = "python"


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


def update_bank(bank, weight):
    """Add one streamed row's `weight` to the bank's running total `total`.

    A weight that is not positive (or is NaN) leaves the total alone. The
    caller keeps the total finite: a row that would make it overflow must
    be rejected before this call.
    """
    if weight > 0.0:
        bank.total += weight
