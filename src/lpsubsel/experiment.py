"""Experiment driver: best-of-R orchestration, evaluation, reporting.

Runs one of the samplers on a dataset, evaluates every candidate subset's
error in a single shared evaluation pass, keeps the argmin candidate, and
emits a machine-readable report (JSON canonical, CSV as a flat projection).
"""

import itertools
import json
import os
import sys
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .baselines import exact_adaptive_sample, squared_length_sample
from .errors import GuardError, InputError, ParameterError, readable
from .geometry import CHUNK_ROWS, ErrParams, PointSet, SubsetBasis
from .oracles import _brute_force_guard, brute_force_candidate_err, svd_optimal_err2
from .sampler import baseline_rng, one_pass_adaptive_sample, theorem_params
from .stream import _BLOCK_ROWS, as_source, open_csv

ALGORITHMS = ("mcmc-one-pass", "exact-adaptive", "squared-length")
ORACLES = ("none", "svd", "bruteforce")

_EXACT_COVER_REL = 1e-12


@dataclass
class ExperimentSpec:
    """Everything `run_experiment` reads to reproduce one run; the seed is
    always recorded. Set t, l, m or repetitions to override the recipe of
    `theorem_params`. Writing the report is the caller's (CLI: --report, --out)."""

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
    oracle: str = "none"
    header: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ParameterError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.oracle not in ORACLES:
            raise ParameterError(f"oracle must be one of {ORACLES}, got {self.oracle!r}")


@dataclass
class RunReport:
    """Outcome of one experiment, safe to serialize."""

    algorithm: str
    n: int
    d: int
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
    """One shared evaluation pass: per-candidate err_p, the empty-span
    error, and what the oracle needs to see of the dataset.

    Rows are scored CHUNK_ROWS at a time, the empty span (whose distance
    is the row norm) in the same loop as the candidates. A source that
    holds its rows (an array input, or a file whose rows a baseline kept)
    is still passed over once, for the audit and a file's change check,
    and then scored in place, a slice at a time; any other source's rows
    are pulled at most a parse block (`_BLOCK_ROWS` rows) at a time, and
    never past the chunk being filled, each pull copied into one
    CHUNK_ROWS-row buffer in one call. The chunks are the
    same either way, so are the sums. For the SVD oracle each scored
    chunk is folded into the R factor of a running QR decomposition:
    X = QR with Q orthonormal, so R has the singular values of X in at
    most d rows. The brute-force oracle gets the rows of the one chunk:
    its guard, checked before the selection pass, keeps n below
    CHUNK_ROWS.
    """
    spans = [SubsetBasis.empty(source.d), *bases]
    sums = np.zeros(len(spans))
    r_factor = np.empty((0, source.d)) if oracle == "svd" else None

    def score(arr):
        nonlocal r_factor
        for i, b in enumerate(spans):
            sums[i] += float(np.sum(b.distances(arr) ** p))
        if r_factor is not None:
            r_factor = np.linalg.qr(np.vstack((r_factor, arr)), mode="r")

    rows = source.rows
    if rows is not None:
        deque(source.iterate_once("evaluation"), maxlen=0)
        for start in range(0, len(rows), CHUNK_ROWS):
            score(rows[start:start + CHUNK_ROWS])
    else:
        buf = np.empty((CHUNK_ROWS, source.d))
        stream = source.iterate_once("evaluation")
        end = 0
        # a pull holds a parse block's rows alive, not a whole chunk's
        while pulled := list(itertools.islice(stream, min(_BLOCK_ROWS, CHUNK_ROWS - end))):
            np.concatenate(pulled, out=buf[end:end + len(pulled)].reshape(-1))
            end += len(pulled)
            if end == CHUNK_ROWS:
                score(buf)
                end = 0
        if end:
            score(buf[:end])
        rows = buf[:end]  # every row, when n < CHUNK_ROWS
    if oracle == "bruteforce":
        assert source.n < CHUNK_ROWS, "brute-force guard not checked"
        X = PointSet(rows)
    else:
        X = None if r_factor is None else PointSet(r_factor)
    return sums[1:], float(sums[0]), X


def _physical_memory():
    """Bytes of physical memory on this machine, the most one run may allocate."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):  # the platform does not report it
        return sys.maxsize
    return pages * page_size if pages > 0 and page_size > 0 else sys.maxsize


def _memory_guard(algorithm, config, source):
    """Raise GuardError, naming the recipe's sizes, if what `algorithm`
    keeps cannot fit in this machine's physical memory.

    A one-pass pool slot or a squared-length draw costs the row store two
    rows of d floats, each with a position and a weight. Exact-adaptive
    keeps about three n-vectors: its weights, `rng.choice`'s cumulative
    sum of them, and (under one more) choice's sign check and a file's
    block records: the last line, byte size, fingerprint of the bytes
    and rows at the end of each block of lines, four ints a block of
    128 rows. It adds the distance temporaries of one
    CHUNK_ROWS-row chunk and a variate and an index per draw of a round.
    A file source also keeps its (n, d) rows, which an array input holds
    already.
    """
    n, d = source.n, source.d
    if algorithm == "exact-adaptive":
        draws, per_draw = config.t, 16
        fixed = 24 * n + 24 * min(n, CHUNK_ROWS) * d
        buffer = ""
        if source.rows is None:
            fixed += 8 * n * d
            buffer = f" and an n={n} by d={d} row buffer"
    else:
        draws = config.pool_size if algorithm == "mcmc-one-pass" else config.t * max(config.l, 1)
        per_draw, fixed, buffer = 16 * (d + 2), 0, ""
    memory = _physical_memory()
    if draws * per_draw + fixed > memory:
        raise GuardError(
            f"{algorithm} with t={readable(config.t)}, m={readable(config.m)}, "
            f"l={readable(config.l)}, repetitions={readable(config.repetitions)} keeps "
            f"{readable(draws)} draws{buffer}, too many for this machine's "
            f"{memory} bytes of memory")


def run_experiment(spec):
    """Execute one experiment end to end; deterministic for a fixed seed.

    Size guards (the brute-force oracle's, and a recipe too large for
    memory) raise GuardError before the selection pass.
    """
    source = _resolve_source(spec)
    ErrParams(p=spec.p, k=spec.k).check_dimension(source.d)
    config = theorem_params(spec.k, spec.p, spec.delta, t_override=spec.t,
                            seed=spec.seed, l_override=spec.l, m_override=spec.m,
                            repetitions_override=spec.repetitions)
    if spec.oracle == "bruteforce":
        _brute_force_guard(source.n, spec.k)
    _memory_guard(spec.algorithm, config, source)

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
