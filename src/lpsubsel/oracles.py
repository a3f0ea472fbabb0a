"""Brute-force verification oracles, exact at desk scale.

Everything here trades scalability for exactness: explicit probability
vectors over the dataset, dense independence-Metropolis transition
matrices and their powers, the SVD optimum for p=2, and exhaustive
candidate-subspace enumeration for general p. Size guards keep the
dense computations honest.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InputError
from .geometry import SubsetBasis, check_p, err_p
from .proposal import MixtureWeights, _distance_weights

_WALK_GUARD_N = 64
_BRUTE_GUARD_N = 18
_BRUTE_GUARD_K = 3


@dataclass(frozen=True)
class DistributionTable:
    """An explicit probability vector over the points of a dataset."""

    masses: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=np.float64)
        if m.ndim != 1:
            raise InputError("masses must be a vector")
        if not np.isfinite(m).all():
            raise InputError("non-finite probability mass")
        if (m < -1e-15).any():
            raise InputError("negative probability mass")
        if abs(float(m.sum()) - 1.0) > 1e-12:
            raise InputError(f"masses sum to {m.sum()!r}, not 1")
        object.__setattr__(self, "masses", m)

    def __len__(self):
        return len(self.masses)


@dataclass(frozen=True)
class OracleReport:
    """Exact mixing diagnostics for one (dataset, subset, pivot, m) tuple.

    gamma is the worst-case ratio of the adaptive target to the proposal;
    tv the exact total variation distance after m walk steps; mixing_bound
    the geometric bound (1 - 1/gamma)^(m-1). gamma_within_lemma_bound is
    set only when an epsilon1 was supplied and its error precondition held.
    """

    gamma: float
    tv: float
    mixing_bound: float
    gamma_within_lemma_bound: bool = None

    def __post_init__(self):
        assert self.gamma >= 1.0 - 1e-12
        assert -1e-12 <= self.tv <= 1.0 + 1e-12


def adaptive_distribution(X, basis, p):
    """The target distribution, proportional to d(x, span S)^p over X."""
    check_p(p)
    dist_pow, total = _distance_weights(basis, X.points, p)
    if total <= 0.0:
        raise InputError("subset spans the data; adaptive distribution undefined")
    return DistributionTable(dist_pow / total)


def mixture_distribution(X, p, pivot=None):
    """The exact proposal distribution q over X for a given pivot subset."""
    return DistributionTable(MixtureWeights(p=p, pivot=pivot).masses(X))


def transition_matrix(X, basis, p, pivot=None):
    """Dense independence-Metropolis transition matrix over X.

    P(x -> y) = q(y) * min(1, ratio(x, y)) off the rejection remainder,
    which is folded into the diagonal. Rows from covered points (zero
    distance) accept every proposal. Guarded to n <= 64.
    """
    n = X.n
    if n > _WALK_GUARD_N:
        raise GuardError(f"transition matrix guarded to n <= {_WALK_GUARD_N}, got {n}")
    check_p(p)
    dist_pow, total = _distance_weights(basis, X.points, p)
    if total <= 0.0:
        raise InputError("subset spans the data; walk target undefined")
    q = MixtureWeights(p=p, pivot=pivot).masses(X)

    alpha = np.ones((n, n))
    live = dist_pow > 0.0
    ratio = (dist_pow[None, :] * q[live, None]) / (dist_pow[live, None] * q[None, :])
    alpha[live] = np.minimum(1.0, ratio)
    P = alpha * q[None, :]
    P[np.diag_indices(n)] += 1.0 - P.sum(axis=1)
    return P


def exact_walk_distribution(X, basis, pivot, p, m):
    """Exact distribution of the walk location after m steps from a q start.

    Computed by dense matrix powers; renormalized at the end to shed the
    (tiny) accumulated float drift.
    """
    if m < 0:
        raise InputError(f"m must be >= 0, got {m}")
    q = MixtureWeights(p=p, pivot=pivot).masses(X)
    if m == 0:
        return DistributionTable(q)
    P = transition_matrix(X, basis, p, pivot=pivot)
    v = q.copy()
    for _ in range(m):
        v = v @ P
    return DistributionTable(v / v.sum())


def tv_distance(a, b):
    """Total variation distance: half the l1 distance between mass vectors."""
    ma = a.masses if isinstance(a, DistributionTable) else np.asarray(a, dtype=np.float64)
    mb = b.masses if isinstance(b, DistributionTable) else np.asarray(b, dtype=np.float64)
    if ma.shape != mb.shape:
        raise InputError(f"length mismatch: {ma.shape} vs {mb.shape}")
    return 0.5 * float(np.abs(ma - mb).sum())


def gamma_bound(X, basis, pivot, p, m, epsilon1=None):
    """Exact gamma = max_x target(x)/q(x), the m-step TV, and the mixing bound.

    With epsilon1 supplied, additionally checks the worst-case ratio
    against 2/epsilon1 whenever err_p(X, S) > epsilon1 * err_p(X, pivot)
    (the precondition under which that bound is claimed).
    """
    if m < 1:
        raise InputError(f"m must be >= 1, got {m}")
    target = adaptive_distribution(X, basis, p)
    q = MixtureWeights(p=p, pivot=pivot).masses(X)
    gamma = float((target.masses / q).max())
    tv = tv_distance(exact_walk_distribution(X, basis, pivot, p, m), target)
    mixing_bound = (1.0 - 1.0 / gamma) ** (m - 1)
    within = None
    if epsilon1 is not None:
        pivot_basis = pivot if pivot is not None else SubsetBasis.empty(X.d)
        if err_p(X, basis, p) > epsilon1 * err_p(X, pivot_basis, p):
            within = bool(gamma <= 2.0 / epsilon1 + 1e-12)
    return OracleReport(gamma=gamma, tv=tv, mixing_bound=mixing_bound,
                        gamma_within_lemma_bound=within)


def svd_optimal_err2(X, k):
    """err_2 of the optimal k-dimensional subspace: the squared singular
    values beyond the top k."""
    if not (1 <= k <= X.d):
        raise InputError(f"need 1 <= k <= d={X.d}, got k={k}")
    s = np.linalg.svd(X.points, compute_uv=False)
    return float(np.sum(s[k:] ** 2))


def _brute_force_guard(n, k):
    """GuardError if exhaustive search over k-subsets of n points is too large."""
    if n > _BRUTE_GUARD_N or k > _BRUTE_GUARD_K:
        raise GuardError(
            f"brute force guarded to n <= {_BRUTE_GUARD_N}, k <= {_BRUTE_GUARD_K}; "
            f"got n={n}, k={k}")


def brute_force_candidate_err(X, k, p):
    """Minimum err_p over the spans of all k-subsets of X, or the span of
    all of X when it has fewer than k points.

    The optimal subspace does at least as well as every candidate span, so
    this is a valid stand-in upper bound for err_p(X, V*) when p != 2.
    Exhaustive; guarded to n <= 18, k <= 3.
    """
    _brute_force_guard(X.n, k)
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    best = np.inf
    empty = SubsetBasis.empty(X.d)
    for subset in itertools.combinations(range(X.n), min(k, X.n)):
        basis = empty.extended_many(subset, X.points[list(subset)])
        best = min(best, err_p(X, basis, p))
    return float(best)
