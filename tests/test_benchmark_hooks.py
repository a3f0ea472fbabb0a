"""The package names the benchmark's tracer patches and reads, and the
reports its output check accepts.

lpbench/tracing.py replaces module and class attributes of lpsubsel to
time its layers, unpacks the arguments of the calls it counts, and
lpbench/run.py reads `lpsubsel.BACKEND` into each result's metadata. A
change that deletes or renames one of them, or changes the argument
layout the tracer's counters read, breaks the benchmark; so does a report
that lpbench/checks.py rejects, such as one whose run made no evaluation
pass or mis-scored it. These tests make either fail the package's own
suite too.
"""

import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lpsubsel
from lpsubsel import ExperimentSpec, cli, experiment

ROOT = Path(__file__).resolve().parents[1]
LPBENCH = ROOT / "lpbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"lpbench_{name}", LPBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_installs_and_the_backend_is_readable():
    tracing = _load("tracing")
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


def test_every_tracer_wrapper_records_a_call(tmp_path, monkeypatch):
    # the CLI on a CSV with the SVD oracle, one-pass and exact-adaptive: a
    # wrapper that records nothing means the package no longer looks its
    # name up at call time, so the benchmark's layer numbers would read 0.
    # geometry.extended is the one exception: every basis grows through
    # extended_many
    tracing = _load("tracing")
    installed = []

    def recording(maker, fixed_name=None):
        real = getattr(tracing, maker)

        def make(tracer, *args):
            installed.append(fixed_name or args[0])
            return real(tracer, *args)
        monkeypatch.setattr(tracing, maker, make)

    recording("_span")
    recording("_leaf")
    recording("_stream", "stream.iter")
    path = tmp_path / "input.csv"
    np.savetxt(path, np.random.default_rng(8).standard_normal((300, 4)), delimiter=",")
    tracer = tracing.Tracer()
    with tracing.Installed(tracer):
        for algo in ("mcmc-one-pass", "exact-adaptive"):
            argv = ["--input", str(path), "--algo", algo, "--k", "2", "--t", "3",
                    "--oracle", "svd", "--out", str(tmp_path / f"{algo}.json")]
            assert cli.main(argv) == 0
    recorded = {r["name"] for r in tracer.records if r["calls"] > 0}
    assert len(installed) > 10
    assert set(installed) - recorded <= {"geometry.extended"}


@pytest.mark.parametrize("name", ["csv-tall", "exact-multipass", "pool-deep"])
def test_the_benchmark_output_check_accepts_each_workload_shape(tmp_path, name):
    # each workload at 300 rows, with short walks: the CLI on a CSV with the
    # SVD oracle at p = 2, exact-adaptive on the same shape, and an
    # in-memory run at p = 3
    checks, workloads = _load("checks"), _load("workloads")
    w = workloads.WORKLOADS[name]
    w = replace(w, inputs=replace(w.inputs, n=300), m=None if w.m is None else 20)
    X = workloads.generate(w.inputs, 3)
    if w.inputs.csv:
        path, out = tmp_path / "input.csv", tmp_path / "report.json"
        X = workloads.write_csv(X, path)
        assert cli.main(w.cli_argv(str(path), 7, str(out))) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
    else:
        spec = ExperimentSpec(input=X, **w.spec_kwargs(7))
        report = json.loads(experiment.run_experiment(spec).to_json())
    assert checks.check_report(report, X, w, 0) == []
    if w.p != 2:
        assert report["evaluator"] == "distances" and report["k_in_span_err"] is None
        return
    # the report's best k-subspace in the span gives the benchmark's k_excess
    assert report["evaluator"] == "r-factor"
    got = ((report["k_in_span_err"] ** 0.5 - report["oracle_err"] ** 0.5)
           / report["empty_err"] ** 0.5)
    want = checks.k_excess(X, report["selected_members"], w.k)
    assert got == pytest.approx(want, abs=1e-9)
