"""Experiment driver: best-of-R orchestration, evaluation, reporting.

Runs one of the samplers on a dataset, evaluates every candidate subset's
error in a single shared evaluation pass, keeps the argmin candidate, and
emits a machine-readable report (JSON canonical, CSV as a flat projection).
At p = 2 the pass only folds the rows into a d x d R factor, and every
error is scored from R; at any other p it sums each chunk's distances.
"""

import itertools
import json
import math
import os
import sys
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .baselines import exact_adaptive_sample, squared_length_sample
from .errors import GuardError, InputError, ParameterError, readable
from .geometry import CHUNK_ROWS, PointSet, SubsetBasis
from .oracles import _brute_force_guard, brute_force_candidate_err, svd_optimal_err2
from .proposal import _FIRST_ROWS, _store_rows
from .sampler import baseline_rng, one_pass_adaptive_sample, theorem_params
from .stream import _BLOCK_ROWS, as_source, open_csv

ALGORITHMS = ("mcmc-one-pass", "exact-adaptive", "squared-length")
ORACLES = ("none", "svd", "bruteforce")

_EXACT_COVER_REL = 1e-12

# Bytes a pool slot or squared-length draw takes at most: about 59 in a
# round whose walks take the whole pool, seven 8-byte arrays a slot.
_SLOT_BYTES = 64


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
    """Outcome of one experiment, safe to serialize.

    `evaluator` is "r-factor" when the errors were scored from the data's
    R factor (p = 2), "distances" when summed chunk by chunk. At p = 2,
    `k_in_span_err` is err_2 of the best k-dimensional subspace inside
    the selected span, the quantity the paper's guarantee bounds; it is
    at least `final_err`, and None at any other p. The selected
    repetition is the one with the least `final_err`.
    """

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
    evaluator: str
    timings: dict
    oracle: str = "none"
    oracle_err: float = None
    oracle_err_root: float = None
    delta_term_root: float = None
    k_in_span_err: float = None
    k_in_span_err_root: float = None

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


@dataclass
class Evaluation:
    """What the evaluation pass gives the report and the SVD oracle.

    `sums` holds each candidate's err_p, `empty_sum` the empty span's.
    `r_factor` is the R of the data's QR decomposition at p = 2 or for
    the SVD oracle, else None. `evaluator` names what scored the sums.
    """

    sums: np.ndarray
    empty_sum: float
    r_factor: np.ndarray
    evaluator: str


def _evaluation_pass(source, bases, p, oracle):
    """One shared evaluation pass: per-candidate err_p, the empty-span
    error, and the R factor the SVD oracle reads.

    Rows come in CHUNK_ROWS at a time. A source that holds its rows (an
    array input, or a file whose rows a baseline or the brute-force oracle
    kept) is still passed over once, for the pass count and a file's
    change check, and then read in place, a slice at a time; any other
    source's rows are pulled at most a parse block (`_BLOCK_ROWS` rows) at
    a time, and never past the chunk being filled, each pull copied into
    one buffer of min(n, CHUNK_ROWS) rows in one call. The chunks are the
    same either way, so are the results.

    At p = 2, or for the SVD oracle, each chunk is folded into the R
    factor of a running QR decomposition: X = QR with Q orthonormal, so
    R has at most d rows and XᵀX = RᵀR. At p = 2 that is all a chunk
    costs, since err_2(X, span S) = Σ over the rows r of R of
    d(r, span S)²: after the pass the empty span and every candidate are
    scored from R's rows, as residuals, with no ‖X‖² − ‖XQᵀ‖²
    cancellation (evaluator "r-factor"). At any other p each chunk's
    distances to every span are summed in the loop (evaluator
    "distances"). The SVD oracle reads the same R. A sum that overflows
    is inf, which `run_experiment` raises as an InputError.
    """
    from_r = p == 2
    spans = [SubsetBasis.empty(source.d), *bases]
    sums = np.zeros(len(spans))
    r_factor = np.empty((0, source.d)) if from_r or oracle == "svd" else None

    def score(arr):
        nonlocal r_factor
        if r_factor is not None:
            r_factor = np.linalg.qr(np.vstack((r_factor, arr)), mode="r")
        if not from_r:
            with np.errstate(over="ignore"):  # run_experiment raises an overflow
                for i, b in enumerate(spans):
                    sums[i] += float(np.sum(b.distances(arr) ** p))

    rows = source.rows
    if rows is not None:
        deque(source.iterate_once("evaluation"), maxlen=0)
        for start in range(0, len(rows), CHUNK_ROWS):
            score(rows[start:start + CHUNK_ROWS])
    else:
        buf = np.empty((min(source.n, CHUNK_ROWS), source.d))
        stream = source.iterate_once("evaluation")
        end = 0
        # a pull holds a parse block's rows alive, not a whole chunk's
        while pulled := list(itertools.islice(stream, min(_BLOCK_ROWS, len(buf) - end))):
            np.concatenate(pulled, out=buf[end:end + len(pulled)].reshape(-1))
            end += len(pulled)
            if end == len(buf):
                score(buf)
                end = 0
        if end:
            score(buf[:end])
    if from_r:
        with np.errstate(over="ignore"):
            sums = np.array([float(np.sum(b.distances(r_factor) ** 2)) for b in spans])
    return Evaluation(sums[1:], float(sums[0]), r_factor, "r-factor" if from_r else "distances")


def _k_in_span_err2(r_factor, basis, k, span_err):
    """err_2 of the best k-dimensional subspace inside span(basis), from
    the data's R factor and the span's own error `span_err`.

    With Q the basis's orthonormal rows, the best k-subspace of span(Q)
    leaves the span's residual plus the squared singular values of XQᵀ
    beyond the top k, and XQᵀ = U(RQᵀ) has those of RQᵀ. Summing the
    discarded values avoids the cancellation of ‖X‖² minus the kept ones.
    """
    if basis.rank <= k:
        return span_err
    s = np.linalg.svd(r_factor @ basis.basis.T, compute_uv=False)
    return span_err + float(np.sum(s[k:] ** 2))


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

    Every algorithm is charged 24 bytes a coordinate of one CHUNK_ROWS-row
    chunk for the distance temporaries. A one-pass pool or a squared-length
    run is charged `_SLOT_BYTES` a slot or draw, 64 bytes a coordinate and
    256 a row of one `_BLOCK_ROWS`-row block (the row objects the pass
    pulls, their stacked array, and a file's bytes and their parse), and
    8 * (d + 2) bytes a row, d floats with a position and a weight, for
    the rows its store's arrays can reach and for min(that, n) rows more:
    the arrays they last grew from, or the pool's copy of its held rows.
    The arrays double from `_FIRST_ROWS` rows toward the store's room,
    `proposal._store_rows`, and hold at most n rows, so they reach
    min(room, max(`_FIRST_ROWS`, 2n)) rows. The walk phase runs once the
    pass's arrays are freed and is charged nothing more: beside the pool
    it holds a few floats a held row or slot and one gathered chunk of at
    most min(held rows, CHUNK_ROWS) rows of d floats, within the second
    count of rows and the slots' bytes.

    Exact-adaptive keeps about four n-vectors: its weights, the rows' span
    floor, `rng.choice`'s cumulative sum of the weights, and (under one
    more) choice's sign check and a file's block records: the last line,
    byte size, fingerprint of the bytes and rows at the end of each block
    of lines, four ints a block of 128 rows. The weights' `_running_total`
    holds one transient n-vector, freed before `rng.choice`. It adds a
    variate and an index per draw of a round. A file source also keeps its
    (n, d) rows, which an array input holds already.

    A file pass that may fork a parse helper is charged, under every
    algorithm, a second copy of all the above, since the helper keeps a
    copy of each page the run writes while it lives, and
    `DatasetSource.helper_bytes`: the shared ring, the read-ahead blocks'
    bytes and the interpreter's pages (`_parse_helper.helper_bytes`).
    When only that does not fit, the guard clears the source's
    `allow_helper` instead, and its passes run in one process.
    """
    n, d = source.n, source.d
    fixed, buffer = 24 * min(n, CHUNK_ROWS) * d, ""
    if algorithm == "exact-adaptive":
        draws, per_draw = config.t, 16
        fixed += 32 * n
        if source.rows is None:
            fixed += 8 * n * d
            buffer = f" and an n={n} by d={d} row buffer"
    else:
        draws = config.pool_size if algorithm == "mcmc-one-pass" else config.t * max(config.l, 1)
        per_draw = _SLOT_BYTES
        reach = min(_store_rows(draws), max(_FIRST_ROWS, 2 * n))
        fixed += 8 * (d + 2) * (reach + min(reach, n)) + _BLOCK_ROWS * (64 * d + 256)
    memory = _physical_memory()
    need = draws * per_draw + fixed
    if need > memory:
        raise GuardError(
            f"{algorithm} with t={readable(config.t)}, m={readable(config.m)}, "
            f"l={readable(config.l)}, repetitions={readable(config.repetitions)} keeps "
            f"{readable(draws)} draws{buffer}, too many for this machine's "
            f"{memory} bytes of memory")
    if 2 * need + source.helper_bytes() > memory:
        source.allow_helper = False


def run_experiment(spec):
    """Execute one experiment end to end; deterministic for a fixed seed.

    Size guards (the brute-force oracle's, and a recipe too large for
    memory) raise GuardError before the selection pass.
    """
    if isinstance(spec.input, (str, os.PathLike)):
        source = open_csv(spec.input, header=spec.header)
    else:
        source = as_source(spec.input)
    if spec.k > source.d:
        raise InputError(f"k={spec.k} exceeds ambient dimension d={source.d}")
    config = theorem_params(spec.k, spec.p, spec.delta, t_override=spec.t,
                            seed=spec.seed, l_override=spec.l, m_override=spec.m,
                            repetitions_override=spec.repetitions)
    if spec.oracle == "bruteforce":
        _brute_force_guard(source.n, spec.k)
        source.keep_rows()
    _memory_guard(spec.algorithm, config, source)

    timings = {}
    if spec.algorithm == "mcmc-one-pass":
        bases = one_pass_adaptive_sample(source, config, timings=timings)
    else:
        t0 = time.perf_counter()
        rng = baseline_rng(spec.seed)
        if spec.algorithm == "exact-adaptive":
            basis = exact_adaptive_sample(source, spec.p, config.t, config.l, rng)
        else:  # squared-length
            basis = squared_length_sample(source, spec.p, config.t * max(config.l, 1), rng)
        bases = [basis]
        timings.update(selection_seconds=time.perf_counter() - t0, walk_seconds=0.0)

    t0 = time.perf_counter()
    ev = _evaluation_pass(source, bases, spec.p, spec.oracle)
    timings["evaluation_seconds"] = time.perf_counter() - t0
    sums, empty_sum = ev.sums, ev.empty_sum
    if empty_sum <= 0.0:
        raise InputError("all points are zero; errors are degenerate")
    if not (math.isfinite(empty_sum) and np.isfinite(sums).all()):
        raise InputError("the data's errors overflow to inf; rescale the data or lower p")

    # best-of-R picks by the whole span's error, not by k_in_span_err
    best = int(np.argmin(sums))
    final = float(sums[best])
    inv_p = 1.0 / spec.p

    k_in_span = k_in_span_root = None
    if spec.p == 2:
        k_in_span = _k_in_span_err2(ev.r_factor, bases[best], spec.k, final)
        k_in_span_root = k_in_span ** 0.5

    oracle_err = oracle_root = delta_term = None
    if spec.oracle == "svd":
        oracle_err = svd_optimal_err2(PointSet(ev.r_factor), spec.k)
        oracle_root = oracle_err ** 0.5
        delta_term = spec.delta * empty_sum ** 0.5 if spec.p == 2 else None
    elif spec.oracle == "bruteforce":
        # the source kept its rows on its first complete pass
        oracle_err = brute_force_candidate_err(PointSet(source.rows), spec.k, spec.p)
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
        selection_passes=source.selection_passes,
        evaluation_passes=source.evaluation_passes,
        evaluator=ev.evaluator,
        timings=timings,
        oracle=spec.oracle,
        oracle_err=oracle_err,
        oracle_err_root=oracle_root,
        delta_term_root=delta_term,
        k_in_span_err=k_in_span,
        k_in_span_err_root=k_in_span_root,
    )
