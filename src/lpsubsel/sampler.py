"""The one-pass MCMC adaptive sampler.

Multiple rounds of adaptive sampling (pick points with probability
proportional to d(x, span S)^p given the already-selected S) normally
cost one pass per round. Here each adaptive draw is approximated by an
m-step independence Metropolis walk over i.i.d. proposals from the
mixture distribution q, and the whole proposal pool is collected in a
single shared pass up front. Only each walk's final location joins S.
"""

import math
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import _kernels
from .errors import GuardError, ParameterError, readable
from .geometry import CHUNK_ROWS, RANK_TOLERANCE, SubsetBasis, check_p
from .proposal import draw_mixture_pool, open_unit
from .stream import as_source

# Named RNG stream tags: pool pass, each round's walk variates, baseline draws.
_POOL_STREAM = 0
_WALK_STREAM = 1
_BASELINE_STREAM = 2


def pool_rng(seed):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(_POOL_STREAM,))))


def walk_rng(seed, repetition, round_index):
    """Independent named stream per (repetition, round).

    The round's t walks draw their variates from it as one (t, m) block,
    a row per walk. Keeps repetitions reproducible no matter how they are
    scheduled.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        seed, spawn_key=(_WALK_STREAM, repetition, round_index))))


def baseline_rng(seed):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(_BASELINE_STREAM,))))


@dataclass(frozen=True)
class SamplerConfig:
    """All sampler parameters.

    `theorem_params` produces configs whose derived fields follow the
    additive-guarantee recipe; hand-built configs just need to satisfy the
    range checks (m=0 and l=0 are allowed for degenerate runs).
    """

    k: int
    p: float
    delta: float
    epsilon: float
    epsilon1: float
    epsilon2: float
    m: int
    t: int
    l: int
    repetitions: int
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {readable(self.k)}")
        check_p(self.p)
        for name in ("epsilon", "epsilon1", "epsilon2"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ParameterError(f"{name} must lie in (0,1), got {v}")
        if self.m < 0 or self.t < 1 or self.l < 0 or self.repetitions < 1:
            raise ParameterError(
                f"need m >= 0, t >= 1, l >= 0, repetitions >= 1; got "
                f"m={readable(self.m)}, t={readable(self.t)}, l={readable(self.l)}, "
                f"repetitions={readable(self.repetitions)}")
        if self.seed < 0:
            raise ParameterError(
                f"seed must be a nonnegative integer, got {readable(self.seed)}")

    @property
    def pool_size(self):
        # one start plus m proposals per walk
        return self.repetitions * (self.l * self.t * (self.m + 1))

    @property
    def lemma_min_walk_length(self):
        """Walk length the single-draw TV analysis asks for; reported as a
        diagnostic because the end-to-end recipe's m is smaller in general."""
        return math.ceil(1.0 + (2.0 / self.epsilon1) * math.log(1.0 / self.epsilon2))

    @property
    def meets_lemma_walk_length(self):
        return self.m >= self.lemma_min_walk_length

    def as_dict(self):
        return {
            **asdict(self),
            "pool_size": self.pool_size,
            "lemma_min_walk_length": self.lemma_min_walk_length,
            "meets_lemma_walk_length": self.meets_lemma_walk_length,
        }


def theorem_params(k, p, delta, t_override=None, *, seed=0,
                   l_override=None, m_override=None, repetitions_override=None):
    """Parameter recipe for the additive guarantee.

    epsilon = delta/4, epsilon1 = delta^p / 2^(p+1), l = k,
    epsilon2 = delta^p / (2^(p+1) t l), m = ceil(1 + (2/delta^p) ln(k/delta^p)),
    repetitions = ceil(2 k ln(1/epsilon)). t's hidden logarithmic factor is
    pinned as ceil((k/epsilon)^(p+1) ln(2 + k/epsilon)); desk-scale runs
    normally pass t_override since the full t is astronomically large.
    Natural logs throughout; counts are rounded up. A p and delta that take
    a recipe value, or the lemma's walk length, beyond the float range
    raise GuardError naming them, and so does a t or l override too large
    to become a float; a t override below 1 or an l override below 0
    raises ParameterError, however many digits it has.
    Whether the counts fit in memory is left to the caller, which knows
    the algorithm and d.
    """
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must lie in (0,1), got {delta}")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {readable(k)}")
    check_p(p)
    # the signs first: a count below its range is a parameter fault
    # however many digits it has
    if t_override is not None and t_override < 1:
        raise ParameterError(f"need t >= 1, got t={readable(t_override)}")
    if l_override is not None and l_override < 0:
        raise ParameterError(f"need l >= 0, got l={readable(l_override)}")
    for name, value in (("t", t_override), ("l", l_override)):
        if value is not None and abs(value) > sys.float_info.max:
            raise GuardError(f"{name}={readable(value)} is beyond the float range "
                             f"of the parameter recipe; lower {name}")
    epsilon = delta / 4.0
    l = k if l_override is None else l_override
    try:
        delta_pow = delta ** p
        epsilon1 = delta_pow / 2.0 ** (p + 1.0)
        if t_override is not None:
            t = int(t_override)
        else:
            ratio = k / epsilon
            t = math.ceil(ratio ** (p + 1.0) * math.log(2.0 + ratio))
        m = math.ceil(1.0 + (2.0 / delta_pow) * math.log(k / delta_pow)) \
            if m_override is None else m_override
        repetitions = math.ceil(2.0 * k * math.log(1.0 / epsilon)) \
            if repetitions_override is None else repetitions_override
        epsilon2 = delta_pow / (2.0 ** (p + 1.0) * t * max(l, 1))
        # the report gives the lemma's walk length, ~ (2/epsilon1) ln(1/epsilon2), as an int
        finite = math.isfinite((2.0 / epsilon1) * math.log(1.0 / epsilon2))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise GuardError(f"p={p:g} with delta={delta:g} takes the parameter recipe "
                         f"beyond the float range; lower p or raise delta")
    return SamplerConfig(k=k, p=p, delta=delta, epsilon=epsilon,
                         epsilon1=epsilon1, epsilon2=epsilon2, m=m, t=t, l=l,
                         repetitions=repetitions, seed=seed)


def one_pass_adaptive_sample(data, config, timings=None):
    """The one-pass approximate adaptive sampler over `data` (`as_source`).

    One selection pass builds the shared proposal pool for all repetitions;
    each repetition then runs l rounds of t independent m-step walks against
    its current subset and keeps only each walk's final point. Walks within
    a round all see the basis frozen at the round start, so each round
    scores d(x, span S)^p once per distinct row its slots drew, not once
    per slot. It gathers those rows into one reused buffer a CHUNK_ROWS
    chunk at a time, so beyond the pool the walk phase holds a score and a
    flag a held row and at most CHUNK_ROWS rows of d floats. The chunks are
    those `SubsetBasis.distances` scores in, so every score equals that of
    one call on all the round's rows. A repetition stops at rank d, and
    after a round whose picks added no direction it stops if no pool row's
    distance exceeds half RANK_TOLERANCE times its norm, as exact-adaptive
    does: walks land only on pool rows, so no later pick could grow the
    span. Returns one SubsetBasis per repetition (duplicate picks collapse).

    If `timings` is a dict it receives the wall-clock split between the
    streaming pass and the walk phase.
    """
    source = as_source(data)
    d = source.d
    reps = config.repetitions
    if config.l == 0:
        # no rounds requested: nothing to sample, no pass needed
        if timings is not None:
            timings.update(selection_seconds=0.0, walk_seconds=0.0)
        return [SubsetBasis.empty(d) for _ in range(reps)]

    t0 = time.perf_counter()
    pool = draw_mixture_pool(source, config.p, config.pool_size, pool_rng(config.seed))
    t1 = time.perf_counter()

    width = config.m + 1
    block = config.t * width
    finals = np.empty(config.t, dtype=np.intp)
    # held across rounds, so the walk phase allocates no per-round gather;
    # `gathered` holds one CHUNK_ROWS chunk of a round's distinct rows
    drawn = np.empty(len(pool.rows), dtype=bool)
    scores = np.empty(len(pool.rows))
    gathered = np.empty((min(len(pool.rows), block, CHUNK_ROWS), d))
    floor = None  # each pool row's span floor, scored when first needed
    bases = []
    for rep in range(reps):
        basis = SubsetBasis.empty(d)
        members = set()
        last_rank = None  # the rank the previous round started at
        for rnd in range(config.l):
            if basis.rank == d:
                # span covers the ambient space, so every distance is zero;
                # the adaptive target is undefined and the error already 0
                break
            if basis.rank == last_rank:
                # the last round added no direction. Walks land only on
                # pool rows: once none is farther from the span than its
                # floor, no later pick adds one
                if floor is None:
                    floor = SubsetBasis.empty(d).distances(pool.rows) * (0.5 * RANK_TOLERANCE)
                if not (basis.distances(pool.rows) > floor).any():
                    break
            last_rank = basis.rank
            start = (rep * config.l + rnd) * block
            assert start + block <= pool.size, "pool sized too small (sizing bug)"
            slot_rows = pool.row_of[start:start + block]
            # score each distinct row the round's slots drew once, then
            # spread the scores over the slots
            drawn.fill(False)
            drawn[slot_rows] = True
            picked = np.flatnonzero(drawn)
            for start in range(0, len(picked), CHUNK_ROWS):
                part = picked[start:start + CHUNK_ROWS]
                # in range by construction; "clip" spares take's buffered `out` copy
                rows = np.take(pool.rows, part, axis=0, out=gathered[:len(part)], mode="clip")
                scores[part] = basis.distances(rows) ** config.p
            dist_pow = scores[slot_rows].reshape(config.t, width)
            qmat = pool.row_qmass[slot_rows].reshape(config.t, width)
            variates = open_unit(walk_rng(config.seed, rep, rnd), (config.t, config.m))
            _kernels.run_walks(dist_pow, qmat, variates, finals)
            # the round's new members, in walk order, join in one growth
            new = []  # pool rows
            for w in range(config.t):
                row = int(slot_rows[w * width + int(finals[w])])
                idx = int(pool.row_index[row])
                if idx not in members:
                    members.add(idx)
                    new.append(row)
            if new:
                basis = basis.extended_many(pool.row_index[new], pool.rows[new])
        bases.append(basis)
    t2 = time.perf_counter()
    if timings is not None:
        timings.update(selection_seconds=t1 - t0, walk_seconds=t2 - t1)
    return bases
