"""Output checks and quality metrics, recomputed with numpy alone.

Nothing here calls into lpsubsel: every number a report claims is
recomputed from the input array and the report's `selected_members`.
"""

import numpy as np

# Relative agreement required between a reported error and its numpy
# recomputation; the two use different factorizations, so they agree to
# about 1e-12, and any real defect is far larger.
ERR_RTOL = 1e-6
# Singular values below this share of the largest add no span direction.
RANK_RTOL = 1e-8


def span_basis(X, members):
    """Orthonormal columns (d, r) spanning the rows X[members]."""
    if not members:
        return np.zeros((X.shape[1], 0))
    u, s, _ = np.linalg.svd(X[list(members)].T, full_matrices=False)
    return u[:, s > RANK_RTOL * s[0]]


def err_to_span(X, Q, p):
    """sum_x d(x, span Q)^p."""
    resid = X - (X @ Q) @ Q.T
    return float(np.sum(np.linalg.norm(resid, axis=1) ** p))


def svd_err2(X, k):
    """err_2 of the best k-dim subspace, from the eigenvalues of X^T X."""
    eig = np.linalg.eigvalsh(X.T @ X)
    return float(max(np.sum(eig[:-k]), 0.0))


def k_excess(X, members, k):
    """(err_2(X, V_S)^(1/2) - err_2(X, V*)^(1/2)) / ||X||_F.

    V_S is the best k-dim subspace inside span(X[members]) and V* the SVD
    optimum: the quantity the paper's additive guarantee bounds by delta.
    """
    total = float(np.sum(X * X))
    XQ = X @ span_basis(X, members)
    s = np.linalg.svd(XQ, compute_uv=False)
    err_s = max(total - float(np.sum(s[:k] ** 2)), 0.0)
    return (err_s ** 0.5 - svd_err2(X, k) ** 0.5) / total ** 0.5


def check_report(report, X, workload, exit_code):
    """Problems with one experiment's output; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    problems = []
    n = X.shape[0]
    want_sel = workload.rounds if workload.algo == "exact-adaptive" else 1
    got = (report["selection_passes"], report["evaluation_passes"])
    if got != (want_sel, 1):
        problems.append(f"passes (selection, evaluation) = {got}, want {(want_sel, 1)}")

    members = report["selected_members"]
    if len(set(members)) != len(members):
        problems.append("selected indices are not distinct")
    if not all(isinstance(i, int) and 0 <= i < n for i in members):
        problems.append(f"selected index outside [0, {n})")
        return problems

    cap = workload.t * workload.rounds
    Q = span_basis(X, members)
    if report["selected_rank"] > cap:
        problems.append(f"rank {report['selected_rank']} exceeds t*l = {cap}")
    if report["selected_rank"] != Q.shape[1]:
        problems.append(f"rank {report['selected_rank']}, numpy says {Q.shape[1]}")

    final = err_to_span(X, Q, workload.p)
    if not np.isclose(report["final_err"], final, rtol=ERR_RTOL, atol=0.0):
        problems.append(f"final_err {report['final_err']!r}, numpy says {final!r}")
    if workload.oracle == "svd":
        opt = svd_err2(X, workload.k)
        if report["oracle_err"] is None or not np.isclose(
                report["oracle_err"], opt, rtol=ERR_RTOL, atol=0.0):
            problems.append(f"oracle_err {report['oracle_err']!r}, numpy says {opt!r}")
    elif report["oracle_err"] is not None:
        problems.append("oracle_err reported without an oracle")
    return problems
