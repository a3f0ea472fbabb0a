"""Shared test fixtures: instance generators and small conveniences."""

import tracemalloc

import numpy as np

from lpsubsel import PointSet, SubsetBasis, extend_basis


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
