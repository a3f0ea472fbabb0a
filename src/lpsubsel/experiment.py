"""Experiment driver: best-of-R orchestration, evaluation, reporting.

Runs one of the samplers on a dataset, evaluates every candidate subset's
error in a single shared evaluation pass, keeps the argmin candidate, and
emits a machine-readable report (JSON canonical, CSV as a flat projection).
"""

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .baselines import exact_adaptive_sample, squared_length_sample
from .errors import InputError, ParameterError
from .geometry import ErrParams, PointSet
from .oracles import brute_force_candidate_err, svd_optimal_err2
from .sampler import baseline_rng, one_pass_adaptive_sample, theorem_params
from .stream import as_source, iterate_once, open_csv

ALGORITHMS = ("mcmc-one-pass", "exact-adaptive", "squared-length")
ORACLES = ("none", "svd", "bruteforce")
REPORT_FORMATS = ("json", "csv")

_EVAL_CHUNK = 1024
_EXACT_COVER_REL = 1e-12


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce one run; the seed is always recorded."""

    input: object                      # csv path or in-memory points
    algorithm: str = "mcmc-one-pass"
    k: int = 1
    p: float = 2.0
    delta: float = 0.5
    t: int = None
    l: int = None
    m: int = None
    repetitions: int = None
    seed: int = 0
    report_format: str = "json"
    out: str = None
    oracle: str = "none"
    header: bool = False
    c_t: float = 1.0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ParameterError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.oracle not in ORACLES:
            raise ParameterError(f"oracle must be one of {ORACLES}, got {self.oracle!r}")
        if self.report_format not in REPORT_FORMATS:
            raise ParameterError(
                f"report format must be one of {REPORT_FORMATS}, got {self.report_format!r}")


@dataclass
class RunReport:
    """Outcome of one experiment, safe to serialize."""

    algorithm: str
    n: int
    d: int
    backend: str
    config: dict
    rep_errors: list
    selected_repetition: int
    selected_members: list
    selected_rank: int
    final_err: float
    final_err_root: float
    empty_err: float
    empty_err_root: float
    error_ratio_root: float
    exact_cover: bool
    selection_passes: int
    evaluation_passes: int
    timings: dict
    oracle: str = "none"
    oracle_err: float = None
    oracle_err_root: float = None
    delta_term_root: float = None

    def to_dict(self):
        return {k: v for k, v in self.__dict__.items()}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self):
        """Flat single-row projection; list fields joined with ';'."""
        d = self.to_dict()
        d["config"] = ";".join(f"{k}={v}" for k, v in sorted(d["config"].items()))
        d["timings"] = ";".join(f"{k}={v}" for k, v in sorted(d["timings"].items()))
        d["rep_errors"] = ";".join(repr(v) for v in d["rep_errors"])
        d["selected_members"] = ";".join(str(v) for v in d["selected_members"])
        keys = sorted(d)
        header = ",".join(keys)
        row = ",".join(str(d[k]) for k in keys)
        return header + "\n" + row + "\n"


def _resolve_source(spec):
    if isinstance(spec.input, (str, os.PathLike)):
        return open_csv(spec.input, header=spec.header)
    return as_source(spec.input)


def _evaluation_pass(source, bases, p, oracle):
    """One shared evaluation pass: per-candidate err_p plus the empty-span
    error, and what the oracle needs to see of the dataset.

    Rows are copied into one preallocated buffer as they arrive and scored
    _EVAL_CHUNK at a time. For the brute-force oracle the buffer holds all
    n rows, so the pass never holds the data twice; otherwise it holds one
    chunk. For the SVD oracle each scored chunk is folded into the R factor
    of a running QR decomposition: X = QR with Q orthonormal, so R has the
    singular values of X in at most d rows.
    """
    collect_rows = oracle == "bruteforce"
    r_factor = np.empty((0, source.d)) if oracle == "svd" else None
    sums = np.zeros(len(bases))
    empty_sum = 0.0
    buf = np.empty((source.n if collect_rows else _EVAL_CHUNK, source.d))
    start = end = 0

    def flush():
        nonlocal empty_sum, r_factor
        arr = buf[start:end]
        empty_sum += float(np.sum(np.linalg.norm(arr, axis=1) ** p))
        for i, b in enumerate(bases):
            sums[i] += float(np.sum(b.distances(arr) ** p))
        if r_factor is not None:
            r_factor = np.linalg.qr(np.vstack((r_factor, arr)), mode="r")

    for x in iterate_once(source, "evaluation"):
        buf[end] = x
        end += 1
        if end - start == _EVAL_CHUNK:
            flush()
            start = end if collect_rows else 0
            end = start
    if end > start:
        flush()
    if collect_rows:
        return sums, empty_sum, PointSet(buf)
    return sums, empty_sum, None if r_factor is None else PointSet(r_factor)


def run_experiment(spec):
    """Execute one experiment end to end; deterministic for a fixed seed."""
    source = _resolve_source(spec)
    ErrParams(p=spec.p, k=spec.k).check_dimension(source.d)
    config = theorem_params(spec.k, spec.p, spec.delta, t_override=spec.t,
                            c_t=spec.c_t, seed=spec.seed,
                            l_override=spec.l, m_override=spec.m,
                            repetitions_override=spec.repetitions)

    timings = {}
    if spec.algorithm == "mcmc-one-pass":
        bases = one_pass_adaptive_sample(source, config, timings=timings)
    elif spec.algorithm == "exact-adaptive":
        t0 = time.perf_counter()
        bases = [exact_adaptive_sample(source, spec.p, config.t, config.l,
                                       baseline_rng(spec.seed))]
        timings.update(selection_seconds=time.perf_counter() - t0, walk_seconds=0.0)
    else:  # squared-length
        t0 = time.perf_counter()
        bases = [squared_length_sample(source, spec.p, config.t * max(config.l, 1),
                                       baseline_rng(spec.seed))]
        timings.update(selection_seconds=time.perf_counter() - t0, walk_seconds=0.0)

    t0 = time.perf_counter()
    sums, empty_sum, X = _evaluation_pass(source, bases, spec.p, spec.oracle)
    timings["evaluation_seconds"] = time.perf_counter() - t0
    if empty_sum <= 0.0:
        raise InputError("all points are zero; errors are degenerate")

    best = int(np.argmin(sums))
    final = float(sums[best])
    inv_p = 1.0 / spec.p

    oracle_err = oracle_root = delta_term = None
    if spec.oracle == "svd":
        oracle_err = svd_optimal_err2(X, spec.k)  # X is the R factor here
        oracle_root = oracle_err ** 0.5
        delta_term = spec.delta * empty_sum ** 0.5 if spec.p == 2 else None
    elif spec.oracle == "bruteforce":
        oracle_err = brute_force_candidate_err(X, spec.k, spec.p)
        oracle_root = oracle_err ** inv_p
        delta_term = spec.delta * empty_sum ** inv_p

    return RunReport(
        algorithm=spec.algorithm,
        n=source.n,
        d=source.d,
        backend=_kernels.BACKEND,
        config=config.as_dict(),
        rep_errors=[float(v) for v in sums],
        selected_repetition=best,
        selected_members=list(bases[best].member_indices),
        selected_rank=bases[best].rank,
        final_err=final,
        final_err_root=final ** inv_p,
        empty_err=float(empty_sum),
        empty_err_root=empty_sum ** inv_p,
        error_ratio_root=(final / empty_sum) ** inv_p,
        exact_cover=bool(final <= _EXACT_COVER_REL * empty_sum),
        selection_passes=source.auditor.selection_passes,
        evaluation_passes=source.auditor.evaluation_passes,
        timings=timings,
        oracle=spec.oracle,
        oracle_err=oracle_err,
        oracle_err_root=oracle_root,
        delta_term_root=delta_term,
    )
