"""The package names the benchmark's tracer patches and reads.

lpbench/tracing.py replaces module and class attributes of lpsubsel to
time its layers, unpacks the arguments of the calls it counts, and
lpbench/run.py reads `lpsubsel.BACKEND` into each result's metadata. A
change that deletes or renames one of them, or changes the argument
layout the tracer's counters read, breaks the benchmark; this test makes
it fail the package's own suite too.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

import lpsubsel
from lpsubsel import ExperimentSpec, experiment

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "lpbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("lpbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_installs_and_the_backend_is_readable():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    real_run = experiment.run_experiment
    spec = ExperimentSpec(input=np.random.default_rng(0).standard_normal((30, 3)),
                          algorithm="mcmc-one-pass", k=1, p=2.0, delta=0.5, t=2, seed=1)
    with tracing.Installed(tracer):
        report = experiment.run_experiment(spec)
    assert experiment.run_experiment is real_run
    assert {"experiment.run", "proposal.pool", "stream.iter"} <= {r["name"] for r in tracer.records}
    assert isinstance(lpsubsel.BACKEND, str)

    # every per-layer metric the benchmark declares comes out of this run;
    # the tracing overhead alone needs an untraced twin
    metrics = tracing.layer_metrics(tracer.records, json.loads(report.to_json()), 0, 0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    for name in (m["name"] for m in declared if m["name"] != "trace.overhead_frac"):
        assert math.isfinite(metrics[name]), name
    # t * l = 2 < d, so every round runs: one variate per step of every walk
    cfg = report.config
    assert metrics["sampler.walk_steps"] == cfg["repetitions"] * cfg["l"] * cfg["t"] * cfg["m"] > 0
