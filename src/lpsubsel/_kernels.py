"""The two hot kernels: weighted reservoir bank updates and Metropolis walk chains.

Both are plain NumPy. The sampler and the proposal pass look them up as
module attributes at call time, one `update_bank` call per streamed row
per bank and one `run_walks` call per round.
"""

BACKEND = "python"


def run_walks(dist_pow, qmass, uniforms, out):
    """Run one m-step accept/reject chain per row over precomputed arrays.

    Row layout: column 0 is the walk start, columns 1..m are the proposals.
    `dist_pow` holds d(., span S)^p, `qmass` the proposal masses (always
    positive thanks to the mixture floor), `uniforms` the per-step variates
    in (0,1). A proposal is accepted when the acceptance ratio exceeds the
    variate; a zero-distance current point always moves (ratio is +inf
    against a positive-distance proposal and 1 against a zero-distance one,
    both above any variate < 1). Writes the final column index of each walk
    into `out` and returns it.
    """
    n_walks, width = dist_pow.shape
    for w in range(n_walks):
        dp = dist_pow[w]
        q = qmass[w]
        u = uniforms[w]
        cur = 0
        for j in range(1, width):
            if dp[cur] == 0.0 or dp[j] * q[cur] > u[j - 1] * dp[cur] * q[j]:
                cur = j
        out[w] = cur
    return out


def update_bank(weight, value, total, win, rng):
    """Feed one streamed row to a bank of independent single-slot reservoirs.

    Sequential with-replacement weighted sampling (Chao 1982) by binomial
    thinning: the row first adds `weight` to the running total W held in
    the one-element array `total`, then replaces each slot independently
    with probability weight/W by writing `value` into it. The replaced set
    is drawn as a Binomial(slots, weight/W) count of distinct slots chosen
    uniformly, which is the same law, so the cost is the number of slots
    written, not the number of slots. After the pass each slot holds row i
    with probability w_i / W_n, independently of every other slot. A weight
    that is not positive writes nothing and leaves W unchanged. Returns the
    number of slots written.
    """
    if not weight > 0.0:
        return 0
    total[0] += weight
    slots = win.shape[0]
    written = int(rng.binomial(slots, weight / total[0]))
    if written == slots:
        win[:] = value
    elif written:
        win[rng.choice(slots, written, replace=False, shuffle=False)] = value
    return written
