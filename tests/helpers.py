"""Shared test fixtures: instance generators, small conveniences, and the
scalar reference walk that `_kernels.run_walks` is checked against."""

import math
import tracemalloc

import numpy as np

from lpsubsel import InputError, PointSet, SubsetBasis, extend_basis, open_unit


def basis_from(X, indices):
    basis = SubsetBasis.empty(X.d)
    for idx in indices:
        basis = extend_basis(basis, int(idx), X)
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
    dx = basis.distance(x_point) ** p
    dy = basis.distance(y_point) ** p
    if dx == 0.0:
        return math.inf if dy > 0.0 else 1.0
    return (dy * x_mass) / (dx * y_mass)


def random_walk(pool_slice, basis, p, rng):
    """Run one m-step walk over a slice of m+1 pool draws; return the final draw.

    The first draw is the start, the rest are proposals in order. Each step
    draws a variate r in the open unit interval and moves iff the acceptance
    ratio strictly exceeds r. This is the scalar reference path, scoring one
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
    variates = open_unit(rng, steps)
    current = draws[0]
    for j in range(1, steps + 1):
        if acceptance_ratio(current, draws[j], basis, p) > variates[j - 1]:
            current = draws[j]
    return current
