"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live) and
asserts both the bound and its runtime budget.
"""

import math
import time

import numpy as np

from lpsubsel import (ExperimentSpec, MixtureWeights, PointSet, SamplerConfig,
                      SubsetBasis, adaptive_distribution, as_source,
                      brute_force_candidate_err, draw_mixture_pool, err_p,
                      exact_adaptive_sample, exact_walk_distribution,
                      mixture_distribution, one_pass_adaptive_sample,
                      run_experiment, svd_optimal_err2, theorem_params,
                      transition_matrix, tv_distance)

from helpers import basis_from, low_rank_plus_noise, random_nontrivial_subset

SIX_POINTS = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                       [3.0, 4.0], [0.0, 0.0], [-2.0, 1.0]])


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {name}: {detail} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s"


def _chain_instances(count=24, seed=20240501):
    """Random desk-scale instances with a non-trivial subset each."""
    rng = np.random.default_rng(seed)
    out = []
    p_values = [1.0, 1.5, 2.0, 3.0]
    while len(out) < count:
        n = int(rng.integers(5, 13))
        d = int(rng.integers(2, 5))
        p = p_values[len(out) % 4]
        X = PointSet(rng.standard_normal((n, d)))
        basis = random_nontrivial_subset(X, rng, p)
        out.append((X, basis, p))
    return out


def test_criterion_1_stationarity():
    start = time.perf_counter()
    instances = _chain_instances()
    worst = 0.0
    for X, basis, p in instances:
        P = transition_matrix(X, basis, p)
        target = adaptive_distribution(X, basis, p).masses
        worst = max(worst, float(np.abs(target @ P - target).sum()))
    elapsed = time.perf_counter() - start
    _report(1, "stationarity of the adaptive target", worst <= 1e-10,
            f"worst l1 residual {worst:.2e} over {len(instances)} instances",
            elapsed, 1.0)


def test_criterion_2_mixing_bound():
    start = time.perf_counter()
    instances = _chain_instances()
    worst_slack = -np.inf
    for X, basis, p in instances:
        P = transition_matrix(X, basis, p)
        target = adaptive_distribution(X, basis, p).masses
        v = mixture_distribution(X, p).masses.copy()
        gamma = float((target / v).max())
        for m in range(1, 31):
            v = v @ P
            tv = 0.5 * float(np.abs(v - target).sum())
            bound = (1.0 - 1.0 / gamma) ** (m - 1)
            worst_slack = max(worst_slack, tv - bound)
    elapsed = time.perf_counter() - start
    _report(2, "geometric mixing bound for m in 1..30", worst_slack <= 1e-12,
            f"worst tv-minus-bound {worst_slack:.2e}", elapsed, 5.0)


def test_criterion_3_single_draw_dichotomy():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    checked = 0
    worst_gamma_slack = -np.inf
    worst_tv_slack = -np.inf
    for eps1 in (0.1, 0.25):
        for eps2 in (0.05, 0.01):
            m = math.ceil(1.0 + (2.0 / eps1) * math.log(1.0 / eps2))
            pairs = 0
            while pairs < 12:
                n = int(rng.integers(6, 13))
                d = int(rng.integers(2, 5))
                p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
                X = PointSet(rng.standard_normal((n, d)))
                pivot_size = int(rng.integers(0, 2))
                pivot_idx = list(rng.choice(n, size=pivot_size, replace=False))
                extra = [int(i) for i in rng.choice(n, size=int(rng.integers(1, 3)),
                                                    replace=False)]
                pivot = basis_from(X, pivot_idx) if pivot_idx else None
                subset = basis_from(X, pivot_idx + extra)
                pivot_basis = pivot if pivot is not None else SubsetBasis.empty(d)
                if err_p(X, subset, p) <= eps1 * err_p(X, pivot_basis, p):
                    continue
                if err_p(X, subset, p) <= 0.0:
                    continue
                target = adaptive_distribution(X, subset, p).masses
                q = MixtureWeights(p=p, pivot=pivot).masses(X)
                ratios = target / q
                worst_gamma_slack = max(worst_gamma_slack,
                                        float(ratios.max()) - 2.0 / eps1)
                tv = tv_distance(exact_walk_distribution(X, subset, pivot, p, m),
                                 adaptive_distribution(X, subset, p))
                worst_tv_slack = max(worst_tv_slack, tv - eps2)
                pairs += 1
                checked += 1
    elapsed = time.perf_counter() - start
    ok = worst_gamma_slack <= 1e-12 and worst_tv_slack <= 1e-12
    _report(3, "single-draw dichotomy (pointwise ratio and TV)", ok,
            f"{checked} pairs, gamma slack {worst_gamma_slack:.2e}, "
            f"tv slack {worst_tv_slack:.2e}", elapsed, 10.0)


def test_criterion_4_expected_error_statistical():
    start = time.perf_counter()
    eps1, eps2, t, l = 0.25, 0.05, 2, 2
    m = math.ceil(1.0 + (2.0 / eps1) * math.log(1.0 / eps2))  # 25
    runs = 10_000
    rng = np.random.default_rng(424242)
    X = PointSet(rng.standard_normal((10, 3)))
    details = []
    ok = True
    for p in (1.0, 2.0):
        empty_err = err_p(X, SubsetBasis.empty(3), p)
        cfg_base = dict(k=2, p=p, delta=0.5, epsilon=0.125, epsilon1=eps1,
                        epsilon2=eps2, m=m, t=t, l=l, repetitions=1)
        mcmc = np.empty(runs)
        exact = np.empty(runs)
        for s in range(runs):
            basis = one_pass_adaptive_sample(as_source(X),
                                             SamplerConfig(seed=s, **cfg_base))[0]
            mcmc[s] = err_p(X, basis, p)
            exact[s] = err_p(X, exact_adaptive_sample(
                X, p, t, l, np.random.default_rng(s)), p)
        allowance = (eps1 + eps2 * t * l) * empty_err
        se = 3.0 * math.sqrt(mcmc.var(ddof=1) / runs + exact.var(ddof=1) / runs)
        gap = mcmc.mean() - exact.mean()
        ok = ok and gap <= allowance + se
        details.append(f"p={p}: gap {gap:+.4f} vs allowance {allowance:.4f}+{se:.4f}")
    elapsed = time.perf_counter() - start
    _report(4, "expected-error gap of MCMC vs exact adaptive", ok,
            "; ".join(details), elapsed, 120.0)


def test_criterion_5_additive_guarantee_p2():
    start = time.perf_counter()
    delta = 0.5
    X = low_rank_plus_noise(200, 10, 2, noise=0.05,
                            rng=np.random.default_rng(12345))
    opt_root = svd_optimal_err2(X, 2) ** 0.5
    empty_root = err_p(X, SubsetBasis.empty(10), 2.0) ** 0.5
    errs = []
    for seed in range(50):
        report = run_experiment(ExperimentSpec(
            input=X, k=2, p=2.0, delta=delta, t=25, seed=seed))
        assert report.selection_passes == 1  # criterion 7 rides along
        errs.append(report.final_err)
    root_of_mean = float(np.mean(errs)) ** 0.5
    mean_of_root = float(np.mean([e ** 0.5 for e in errs]))
    # required: holds with at least 10% slack on the delta term
    ok = root_of_mean <= opt_root + 0.9 * delta * empty_root
    elapsed = time.perf_counter() - start
    _report(5, "additive guarantee, p=2 vs SVD optimum", ok,
            f"E[err]^(1/2) {root_of_mean:.4f} (mean of roots {mean_of_root:.4f}) "
            f"<= {opt_root:.4f} + 0.9*{delta}*{empty_root:.4f}", elapsed, 60.0)


def test_criterion_6_additive_guarantee_general_p():
    start = time.perf_counter()
    delta = 0.5
    details = []
    ok = True
    for p, data_seed in ((1.0, 777), (3.0, 778)):
        X = PointSet(np.random.default_rng(data_seed).standard_normal((14, 4)))
        cand_root = brute_force_candidate_err(X, 2, p) ** (1.0 / p)
        empty_root = err_p(X, SubsetBasis.empty(4), p) ** (1.0 / p)
        errs = []
        for seed in range(50):
            report = run_experiment(ExperimentSpec(
                input=X, k=2, p=p, delta=delta, t=5, seed=seed))
            assert report.selection_passes == 1
            errs.append(report.final_err)
        root_of_mean = float(np.mean(errs)) ** (1.0 / p)
        bound = cand_root + delta * empty_root
        ok = ok and root_of_mean <= bound
        details.append(f"p={p}: {root_of_mean:.4f} <= {bound:.4f}")
    elapsed = time.perf_counter() - start
    _report(6, "additive guarantee, general p vs candidate spans", ok,
            "; ".join(details), elapsed, 120.0)


def test_criterion_7_one_pass_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    X = rng.standard_normal((40, 5))
    src = as_source(X)
    cfg = theorem_params(k=2, p=2.0, delta=0.5, t_override=6, seed=3)
    one_pass_adaptive_sample(src, cfg)
    one_pass_ok = src.selection_passes == 1

    src2 = as_source(X)
    exact_adaptive_sample(src2, 2.0, t=3, l=cfg.l, rng=np.random.default_rng(0))
    exact_ok = src2.selection_passes == cfg.l
    elapsed = time.perf_counter() - start
    _report(7, "pass accounting (MCMC = 1, exact adaptive = l)",
            one_pass_ok and exact_ok,
            f"mcmc passes {src.selection_passes}, "
            f"exact passes {src2.selection_passes} (l={cfg.l})",
            elapsed, 10.0)


def test_criterion_8_reservoir_fidelity():
    start = time.perf_counter()
    p = 2.0
    X = PointSet(SIX_POINTS)
    exact = MixtureWeights(p=p).masses(X)
    pool = draw_mixture_pool(X, p, 100_000,
                             np.random.default_rng(2718))
    floor_ok = bool((pool.row_qmass[pool.row_of] >= 1.0 / (2 * X.n) - 1e-15).all())
    counts = np.bincount(pool.row_index[pool.row_of], minlength=X.n).astype(float)
    tv = tv_distance(counts / counts.sum(), exact)
    expected = exact * pool.size
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    df = X.n - 1
    chi_ok = chi2 <= df + 3.0 * math.sqrt(2.0 * df)
    elapsed = time.perf_counter() - start
    _report(8, "mixture pool fidelity and q-floor", floor_ok and tv <= 0.02 and chi_ok,
            f"tv {tv:.4f} <= 0.02, chi2 {chi2:.1f} (df {df}), floor {floor_ok}",
            elapsed, 30.0)


def test_criterion_9_runtime_shape():
    start = time.perf_counter()
    cfg = SamplerConfig(k=2, p=2.0, delta=0.5, epsilon=0.125, epsilon1=0.1,
                        epsilon2=0.001, m=60, t=50, l=2, repetitions=5, seed=0)
    rng = np.random.default_rng(9999)
    data = {n: rng.standard_normal((n, 10)) for n in (2000, 4000)}
    phase = {}
    for n, rows in data.items():
        best_pass, best_walk = np.inf, np.inf
        for _ in range(3):
            timings = {}
            one_pass_adaptive_sample(as_source(rows), cfg, timings=timings)
            best_pass = min(best_pass, timings["selection_seconds"])
            best_walk = min(best_walk, timings["walk_seconds"])
        phase[n] = (best_pass, best_walk)
    pass_factor = phase[4000][0] / phase[2000][0]
    walk_factor = phase[4000][1] / phase[2000][1]
    ok = 1.5 <= pass_factor <= 3.0 and 0.5 <= walk_factor <= 1.5
    elapsed = time.perf_counter() - start
    _report(9, "pass phase scales with n, walk phase does not", ok,
            f"pass x{pass_factor:.2f} (want 1.5..3.0), "
            f"walk x{walk_factor:.2f} (want 0.5..1.5)", elapsed, 120.0)
