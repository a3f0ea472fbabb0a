"""The package names the benchmark's tracer patches and reads.

lpbench/tracing.py replaces module and class attributes of lpsubsel to
time its layers, and lpbench/run.py reads `lpsubsel.BACKEND` into each
result's metadata. A change that deletes or renames one of them breaks
the benchmark; this test makes it fail the package's own suite too.
"""

import importlib.util
from pathlib import Path

import numpy as np

import lpsubsel
from lpsubsel import ExperimentSpec, experiment

TRACING = Path(__file__).resolve().parents[1] / "lpbench" / "tracing.py"


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
        experiment.run_experiment(spec)
    assert experiment.run_experiment is real_run
    assert {"experiment.run", "proposal.pool", "stream.iter"} <= {r["name"] for r in tracer.records}
    assert isinstance(lpsubsel.BACKEND, str)
