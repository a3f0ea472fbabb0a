"""Shared test fixtures: instance generators, small conveniences, and the
references the kernels are checked against: for `_kernels.run_walks`, the
scalar walk, which scores one draw at a time, the cross-multiplied kernel
and the per-step ratio loop; for `SubsetBasis`, the residual norm formula
and the Gram-Schmidt loop that `distances` and `extended_many` reproduce
bit for bit; for the evaluation pass, the chain of QR folds its R factor
reproduces bit for bit."""

import math
import tracemalloc

import numpy as np

from lpsubsel import RANK_TOLERANCE, InputError, PointSet, SubsetBasis, open_csv
from lpsubsel.geometry import CHUNK_ROWS


def basis_from(X, indices):
    basis = SubsetBasis.empty(X.d)
    for idx in indices:
        basis = basis.extended(int(idx), X[idx])
    return basis


def random_instance(rng, n_max=12, d_max=4):
    n = int(rng.integers(4, n_max + 1))
    d = int(rng.integers(2, d_max + 1))
    return PointSet(rng.standard_normal((n, d)))


def random_nontrivial_subset(X, rng, p):
    """A random non-empty subset whose span does not cover X."""
    for _ in range(50):
        size = int(rng.integers(1, max(2, X.d)))
        idx = rng.choice(X.n, size=size, replace=False)
        basis = basis_from(X, idx)
        if float((basis.distances(X.points) ** p).sum()) > 1e-9:
            return basis
    raise AssertionError("could not find a non-covering subset")


def low_rank_plus_noise(n, d, k, noise, rng):
    """Points near a random k-dimensional subspace, with gaussian noise."""
    factors = rng.standard_normal((n, k))
    directions = rng.standard_normal((k, d))
    return PointSet(factors @ directions + noise * rng.standard_normal((n, d)))


def peak_traced_bytes(call):
    """Peak bytes that `call()` holds beyond what was live before it, as
    tracemalloc (which sees numpy's array buffers) counts them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def loadtxt_calls(monkeypatch):
    """A list that grows by one entry at every `np.loadtxt` call from now
    until the monkeypatch is undone."""
    calls = []
    real_loadtxt = np.loadtxt

    def counting_loadtxt(*args, **kwargs):
        calls.append(1)
        return real_loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    return calls


def acceptance_ratio(x, y, basis, p):
    """Metropolis ratio d(y, span S)^p q(x) / (d(x, span S)^p q(y)).

    Conventions for covered points: +inf when only the current point has
    zero distance (always move off it), 1 when both do (indifferent; any
    variate below 1 accepts).
    """
    x_point, _, x_mass = x
    y_point, _, y_mass = y
    if x_mass <= 0.0 or y_mass <= 0.0:
        raise InputError("q-masses must be positive (mixture floor)")
    dx = float(basis.distances(x_point)) ** p
    dy = float(basis.distances(y_point)) ** p
    if dx == 0.0:
        return math.inf if dy > 0.0 else 1.0
    return (dy * x_mass) / (dx * y_mass)


def random_walk(pool_slice, basis, p, variates):
    """Run one m-step walk over a slice of m+1 pool draws; return the final draw.

    The first draw is the start, the rest are proposals in order. Step j
    takes the variate `variates[j - 1]`, in the open unit interval (a walk's
    row of its round's variate block), and moves iff the acceptance ratio
    strictly exceeds it. This is the scalar reference path, scoring one
    draw at a time; `one_pass_adaptive_sample` does not run it, but runs
    `_kernels.run_walks` on the scores of all of a round's drawn rows at
    once. The two make the same moves except near a tie: BLAS picks its
    kernel by shape, so a row's distance can differ in its last bits with
    how many rows share the call, and a ratio within those bits of its
    variate can move one walk and not the other.
    """
    draws = [pool_slice[j] for j in range(len(pool_slice))]
    if not draws:
        raise InputError("pool slice must hold at least the start draw")
    steps = len(draws) - 1
    if len(variates) != steps:
        raise InputError(f"need one variate per step: {steps}, got {len(variates)}")
    current = draws[0]
    for j in range(1, steps + 1):
        if acceptance_ratio(current, draws[j], basis, p) > variates[j - 1]:
            current = draws[j]
    return current


def cross_multiplied_walks(dist_pow, qmass, uniforms, out):
    """Reference for `_kernels.run_walks`, over the same arrays: each step
    tests d_j^p q_cur > u_j d_cur^p q_j on the raw scores, whose products
    stay finite whatever the pass's weight total, and moves off a covered
    current point unconditionally."""
    n_walks, width = dist_pow.shape
    for w in range(n_walks):
        dp = dist_pow[w].tolist()
        q = qmass[w].tolist()
        u = uniforms[w].tolist()
        cur = 0
        for j in range(1, width):
            if dp[cur] == 0.0 or dp[j] * q[cur] > u[j - 1] * dp[cur] * q[j]:
                cur = j
        out[w] = cur
    return out


def ratio_walks(dist_pow, qmass, uniforms, out):
    """Exact reference for `_kernels.run_walks`: the same ratio form, with
    every step of every walk run in turn, from its start."""
    ratio = (0.5 * dist_pow) / qmass
    with np.errstate(over="ignore"):
        bar = ratio[:, 1:] / uniforms
    ratio[dist_pow == 0.0] = -1.0
    for w in range(dist_pow.shape[0]):
        r = ratio[w].tolist()
        cur = 0
        for j, b in enumerate(bar[w].tolist(), 1):
            if b > r[cur]:
                cur = j
        out[w] = cur
    return out


def residual_norms(rows, basis):
    """The norm of each row's residual against `basis`, by the formula
    `SubsetBasis.distances` reproduces bit for bit on each chunk."""
    return np.linalg.norm(rows - (rows @ basis.basis.T) @ basis.basis, axis=-1)


def gram_schmidt_growth(basis, indices, points):
    """Reference for `SubsetBasis.extended_many`: two passes of Gram-Schmidt
    per row in turn, norms by `np.linalg.norm`."""
    rows = np.asarray(points, dtype=np.float64)
    rank = basis.rank
    grown = np.empty((rank + len(rows), basis.d))
    grown[:rank] = basis.basis
    for v in rows:
        q = grown[:rank]
        resid = v - q.T @ (q @ v)
        resid = resid - q.T @ (q @ resid)
        norm_v = np.linalg.norm(v)
        norm_r = np.linalg.norm(resid)
        if norm_r > RANK_TOLERANCE * norm_v and norm_v > 0.0:
            grown[rank] = resid / norm_r
            rank += 1
    members = basis.member_indices + tuple(int(i) for i in indices)
    return SubsetBasis(members, grown[:rank], basis.d)


def r_factor_chain(rows):
    """Reference for the evaluation pass's R factor: R stacked on each
    CHUNK_ROWS-row chunk in turn, one `np.linalg.qr` a chunk."""
    r_factor = np.empty((0, rows.shape[1]))
    for start in range(0, len(rows), CHUNK_ROWS):
        r_factor = np.linalg.qr(np.vstack((r_factor, rows[start:start + CHUNK_ROWS])), mode="r")
    return r_factor


def array_and_file_sources(X, tmp_path):
    """X as an array, as a CSV file whose pass parses its rows, and as the
    same file after a pass kept its rows: a selection pass reads the first
    and the last in place and copies the rows the second parses."""
    path = str(tmp_path / "rows.csv")
    np.savetxt(path, X, fmt="%.17g", delimiter=",")
    kept = open_csv(path)
    kept.keep_rows()
    for _ in kept.iterate_once("selection"):
        pass
    assert kept.rows is not None
    return {"array": X, "file": open_csv(path), "kept": kept}
