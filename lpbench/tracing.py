"""Spans and counts around lpsubsel's layer boundaries, installed from outside.

The wrappers replace the module and class attributes the package looks up
at call time, so the program's code is unchanged and an untraced run pays
nothing. Coarse boundaries (an experiment, a pool pass, an oracle call)
each get a span; hot boundaries called per row or per walk are aggregated
into one record per (parent span, name) with a call count and busy time.
A span's self time is its duration minus the busy time of its children.
Records stay in memory and are written once when the benchmark ends.
"""

import functools
import time

import numpy as np

from lpsubsel import _kernels, cli, experiment, sampler
from lpsubsel.geometry import SubsetBasis
from lpsubsel.stream import DatasetSource

_clock = time.perf_counter


class _Open:
    __slots__ = ("id", "name", "parent", "start", "child_s", "counts", "leaves")

    def __init__(self, id_, name, parent, start):
        self.id, self.name, self.parent, self.start = id_, name, parent, start
        self.child_s = 0.0
        self.counts = {}
        self.leaves = {}  # name -> [first start, last end, calls, busy_s, counts]


class Tracer:
    """Span stack plus the finished records of every traced experiment."""

    def __init__(self):
        self.records = []
        self.experiment = None
        self._stack = []
        self._next_id = 0

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = _Open(self._next_id, name, parent, _clock())
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span):
        end = _clock()
        self._stack.pop()
        busy = end - span.start
        if self._stack:
            self._stack[-1].child_s += busy
        self._emit(span.id, span.parent, span.name, span.start, end, 1, busy,
                   span.child_s, span.counts)
        for name, (start, last, calls, busy_s, counts) in span.leaves.items():
            self._emit(self._next_id, span.id, name, start, last, calls, busy_s,
                       0.0, counts)
            self._next_id += 1

    def leaf(self, name, start, end, **counts):
        """One call of a hot boundary, folded into its parent's aggregate."""
        top = self._stack[-1]
        busy = end - start
        top.child_s += busy
        agg = top.leaves.get(name)
        if agg is None:
            top.leaves[name] = [start, end, 1, busy, counts]
            return
        agg[1] = end
        agg[2] += 1
        agg[3] += busy
        for key, value in counts.items():
            agg[4][key] = agg[4].get(key, 0) + value

    def _emit(self, id_, parent, name, start, end, calls, busy, child, counts):
        self.records.append({
            "experiment": self.experiment, "id": id_, "parent": parent,
            "name": name, "start": start, "end": end, "calls": calls,
            "busy_s": busy, "self_s": busy - child, "counts": dict(counts)})


def _span(tracer, name, fn, count=None):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        span = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
            if count is not None:
                span.counts.update(count(args, out))
            return out
        finally:
            tracer.close(span)
    return wrapped


def _leaf(tracer, name, fn, count=None):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        start = _clock()
        out = fn(*args, **kwargs)
        end = _clock()
        if count is None:
            tracer.leaf(name, start, end)
        else:
            tracer.leaf(name, start, end, **count(args, out))
        return out
    return wrapped


def _stream(tracer, fn):
    """Time every next() of a pass: stream busy time is the parse work."""
    @functools.wraps(fn)
    def wrapped(self, purpose):
        gen = fn(self, purpose)
        try:
            while True:
                start = _clock()
                try:
                    row = next(gen)
                except StopIteration:
                    tracer.leaf("stream.iter", start, _clock(), rows=0)
                    return
                tracer.leaf("stream.iter", start, _clock(), rows=1)
                yield row
        finally:
            gen.close()
    return wrapped


def _walk_counts(args, out):
    dist_pow, _, uniforms, _ = args
    walks = dist_pow.shape[0]
    return {"walks": walks, "steps": uniforms.size,
            "moved": int(np.count_nonzero(out[:walks]))}


def _rows(args, out):
    rows = np.asarray(args[1])
    return {"rows": rows.shape[0] if rows.ndim == 2 else 1}


def _distinct(args, out):
    return {"distinct": sum(len(b.member_indices) for b in out)}


class Installed:
    """Context manager: the wrappers are in place only inside `with`."""

    def __init__(self, tracer):
        t = tracer
        run = _span(t, "experiment.run", experiment.run_experiment)
        self._patches = [
            (cli, "run_experiment", run),
            (experiment, "run_experiment", run),
            (experiment, "open_csv", _span(t, "stream.open", experiment.open_csv)),
            (experiment, "one_pass_adaptive_sample",
             _span(t, "sampler.sample", experiment.one_pass_adaptive_sample, _distinct)),
            (experiment, "exact_adaptive_sample",
             _span(t, "baselines.exact_adaptive", experiment.exact_adaptive_sample)),
            (experiment, "svd_optimal_err2",
             _span(t, "oracles.svd", experiment.svd_optimal_err2)),
            (sampler, "draw_mixture_pool",
             _span(t, "proposal.pool", sampler.draw_mixture_pool,
                   lambda args, out: {"pool_size": out.size})),
            (sampler, "walk_rng", _leaf(t, "sampler.walk_rng", sampler.walk_rng)),
            (_kernels, "update_bank",
             _leaf(t, "proposal.update_bank", _kernels.update_bank)),
            (_kernels, "run_walks",
             _leaf(t, "sampler.run_walks", _kernels.run_walks, _walk_counts)),
            (DatasetSource, "iterate_once", _stream(t, DatasetSource.iterate_once)),
            (SubsetBasis, "distances",
             _leaf(t, "geometry.distances", SubsetBasis.distances, _rows)),
            (SubsetBasis, "extended",
             _leaf(t, "geometry.extended", SubsetBasis.extended)),
        ]
        self._saved = [(owner, attr, owner.__dict__[attr])
                       for owner, attr, _ in self._patches]

    def __enter__(self):
        for owner, attr, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        return False


def layer_metrics(records, report, file_bytes, rchar_delta):
    """Per-layer metrics of one traced experiment, from its records."""
    def pick(name, parents=None):
        return [r for r in records if r["name"] == name
                and (parents is None or r["parent"] in parents)]

    def total(name, field="busy_s", parents=None):
        return sum(r[field] for r in pick(name, parents))

    def count(name, key, parents=None):
        return sum(r["counts"].get(key, 0) for r in pick(name, parents))

    pools = {r["id"] for r in pick("proposal.pool")}
    baselines = {r["id"] for r in pick("baselines.exact_adaptive")}
    pool_size = count("proposal.pool", "pool_size")
    pool_rows = count("stream.iter", "rows", pools)
    bank_s = total("proposal.update_bank")
    steps = count("sampler.run_walks", "steps")
    walks = count("sampler.run_walks", "walks")
    run_walks_s = total("sampler.run_walks")
    return {
        "stream.open_s": total("stream.open"),
        "stream.iter_s": total("stream.iter"),
        "stream.rows_yielded": count("stream.iter", "rows"),
        "stream.bytes_read_ratio": rchar_delta / file_bytes if file_bytes else 0.0,
        "stream.selection_passes": report["selection_passes"],
        "stream.evaluation_passes": report["evaluation_passes"],
        "proposal.pool_s": total("proposal.pool", "self_s"),
        "proposal.update_bank_calls": total("proposal.update_bank", "calls"),
        "proposal.update_bank_s": bank_s,
        "proposal.ns_per_row_slot": 1e9 * (total("proposal.pool", "self_s") + bank_s)
        / (pool_rows * pool_size) if pool_size else 0.0,
        "proposal.pool_size": pool_size,
        "sampler.walk_s": total("sampler.sample") - total("proposal.pool"),
        "sampler.walk_rng_calls": total("sampler.walk_rng", "calls"),
        "sampler.walk_rng_s": total("sampler.walk_rng"),
        "sampler.run_walks_calls": total("sampler.run_walks", "calls"),
        "sampler.walk_steps": steps,
        "sampler.run_walks_s": run_walks_s,
        "sampler.ns_per_step": 1e9 * run_walks_s / steps if steps else 0.0,
        "sampler.moved_frac": count("sampler.run_walks", "moved") / walks if walks else 0.0,
        "sampler.distinct_frac": count("sampler.sample", "distinct") / walks if walks else 0.0,
        "geometry.distances_calls": total("geometry.distances", "calls"),
        "geometry.distances_rows": count("geometry.distances", "rows"),
        "geometry.distances_s": total("geometry.distances"),
        "geometry.extended_calls": total("geometry.extended", "calls"),
        "geometry.extended_s": total("geometry.extended"),
        "experiment.eval_self_s": total("experiment.run", "self_s"),
        "experiment.candidates": len(report["rep_errors"]),
        "oracles.svd_s": total("oracles.svd"),
        "baselines.exact_adaptive_s": total("baselines.exact_adaptive", "self_s"),
        "baselines.rows_buffered": count("stream.iter", "rows", baselines),
        "cli.report_s": total("bench.experiment", "self_s"),
    }
