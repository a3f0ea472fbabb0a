"""The lpsubsel benchmark: one workload, one client, a closed loop.

Usage, from the root of a checkout:

    python3 lpbench/run.py --workload csv-tall --seed 1 --seconds 36 --trace 0

The benchmark generates the workload's input from --seed, then runs a
fixed number of experiments one after another (the next starts when the
previous returns); --seconds only caps that loop. A fixed count keeps the
same order statistic behind run_ref.tail whatever the program's speed.
Every experiment's output is checked against a numpy recomputation.

End-to-end timings are in units of a fixed reference loop timed next to
every experiment (unit "ref"): on a shared host whose speed drifts by up to
a fifth over minutes, that ratio is several times steadier from run to run
than wall seconds. Wall seconds are printed and kept in the results too.
setup_s is normalised the same way and reported in seconds at the nominal
host speed, where the reference loop takes REFERENCE_NOMINAL_S.
peak_rss_mb comes from one more experiment in a process of its own
(peak.py), so the benchmark's own arrays and checks do not count.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced experiments and prints the per-layer metrics of the traced ones,
plus the tracing overhead between the two. The last line of standard
output is one JSON object with keys correct, attempted, failed, metrics.
Full results, run metadata and the trace spans go to .lpbench-out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

# Pinned before numpy loads: one BLAS thread (at most nproc) keeps a single
# closed-loop client steady on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

from checks import check_report, k_excess  # noqa: E402
from workloads import WORKLOADS, generate, write_csv  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".lpbench-out"

# Experiments of an untraced run. Eleven is the fewest that give
# run_ref.tail a sample with ten beyond it: the fastest one, p9.1. More
# would not fit the run's time on the slowest workload.
EXPERIMENTS = 11
# (untraced, traced) pairs of a traced run.
TRACE_PAIRS = 5
# Iterations of the reference loop, about 0.05 s on a 2-vCPU x86 host.
REFERENCE_ITERATIONS = 5_000
# The reference loop's time at the nominal host speed that setup_s is
# reported at.
REFERENCE_NOMINAL_S = 0.05
# Rows of the warm-up input, run once untimed before measuring.
WARMUP_ROWS = 400
# Experiment i of a run uses seed SEED_STRIDE * --seed + i.
SEED_STRIDE = 1000

_clock = time.perf_counter


def git_sha():
    """HEAD's commit, or "unknown" outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def read_rchar():
    """Bytes this process has read through read() calls, or None."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("rchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def setup_time():
    """Wall time of `import lpsubsel.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import lpsubsel.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def tail(samples):
    """(percentile, value): the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    # Fewer than 11 samples only if experiments failed or --seconds cut the loop.
    rank = max(len(ordered) - 10, 1)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


class Runner:
    """Runs experiments of one workload on one generated input."""

    def __init__(self, workload, X, path, report_path):
        from lpsubsel import cli, experiment
        self._cli, self._experiment = cli, experiment
        self.workload, self.X, self.path = workload, X, path
        self.report_path = str(report_path)

    def execute(self, seed):
        """One experiment, input to written report; returns the exit code."""
        if self.path is not None:
            try:
                return self._cli.main(self.workload.cli_argv(
                    str(self.path), seed, self.report_path))
            except SystemExit as exc:  # argparse rejected the flags
                return exc.code
        spec = self._experiment.ExperimentSpec(
            input=self.X, **self.workload.spec_kwargs(seed))
        report = self._experiment.run_experiment(spec)
        with open(self.report_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        return 0

    def attempt(self, seed, tracer=None):
        """(seconds, problems, report) of one checked experiment."""
        start = _clock()
        root = tracer.open("bench.experiment") if tracer else None
        try:
            code = self.execute(seed)
        except Exception as exc:  # a failed experiment is counted; the loop goes on
            return _clock() - start, [f"raised {type(exc).__name__}: {exc}"], None
        finally:
            if root is not None:
                tracer.close(root)
        elapsed = _clock() - start
        report = None
        if code == 0:
            with open(self.report_path, encoding="utf-8") as fh:
                report = json.load(fh)
        return elapsed, check_report(report, self.X, self.workload, code), report


def prepare(workload, seed, stem):
    """Generate the input; returns (array as the program sees it, csv path)."""
    X = generate(workload.inputs, seed)
    if not workload.inputs.csv:
        return X, None
    path = OUT / f"{stem}.csv"
    return write_csv(X, path), path


# One CSV row of the csv-tall shape, parsed by the reference loop.
_REFERENCE_ROW = ",".join(f"{v:.8g}" for v in np.linspace(-3.0, 3.0, 32))


def reference_time():
    """Wall time of a fixed loop in the program's own style: parsing a CSV
    row and small numpy calls from Python. Timed next to every experiment,
    it measures how fast the shared host runs at that moment."""
    row = np.linspace(0.0, 1.0, 1024)
    start = _clock()
    for i in range(REFERENCE_ITERATIONS):
        np.sum(row / (i + 1.0))
        [float(cell) for cell in _REFERENCE_ROW.split(",")]
    return _clock() - start


def peak_rss_mb(workload, seed, X, path):
    """Peak RSS of one more experiment, run by peak.py in a fresh process."""
    source = path
    if source is None:
        source = OUT / f"{workload.name}-seed{seed}.npy"
        np.save(source, X)
    try:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("peak.py")),
             json.dumps(asdict(workload)), str(seed), str(source),
             str(OUT / f"{workload.name}-peak-report.json")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    finally:
        source.unlink()
    return float(done.stdout)


def measure(workload, seed, seconds, experiments):
    """End-to-end metrics of an untraced closed loop."""
    X, path = prepare(workload, seed, f"{workload.name}-seed{seed}")
    runner = Runner(workload, X, path, OUT / f"{workload.name}-report.json")
    walls, refs, setups, failures, ratios, excess = [], [], [], [], [], []
    setup_time()  # fills the bytecode cache
    # Each experiment and each setup sample sits between two reference loops.
    ref_times = [reference_time()]
    start = _clock()
    i = 0
    while i < experiments and (i == 0 or _clock() - start < seconds):
        if path is None:
            # An in-memory input costs milliseconds to make, so each
            # experiment gets its own: quality then averages over inputs too.
            runner.X = generate(workload.inputs, SEED_STRIDE * seed + i)
        elapsed, problems, report = runner.attempt(SEED_STRIDE * seed + i)
        ref_times.append(reference_time())
        setup = setup_time()
        ref_times.append(reference_time())
        setups.append(setup / ((ref_times[-2] + ref_times[-1]) / 2))
        if problems:
            failures.append({"experiment": i, "problems": problems})
        else:
            walls.append(elapsed)
            refs.append((ref_times[-3] + ref_times[-2]) / 2)
            ratios.append(report["error_ratio_root"])
            excess.append(k_excess(runner.X, report["selected_members"], workload.k))
        i += 1
    if not walls:
        if path is not None:
            path.unlink()
        raise SystemExit(f"error: every experiment failed; first: {failures[0]}")
    peak = peak_rss_mb(workload, SEED_STRIDE * seed, X, path)
    in_refs = [w / r for w, r in zip(walls, refs)]
    run_ref = statistics.median(in_refs)
    pct, tail_ref = tail(in_refs)
    metrics = {
        "run_ref": run_ref,
        "run_ref.tail": tail_ref,
        "rows_per_ref": workload.inputs.n / run_ref,
        "setup_s": statistics.median(setups) * REFERENCE_NOMINAL_S,
        "peak_rss_mb": peak,
        "err_ratio": statistics.fmean(ratios),
        "k_excess": statistics.fmean(excess),
    }
    notes = {"run_s": statistics.median(walls), "run_s.tail": tail(walls)[1],
             "reference_s": statistics.median(refs), "tail_percentile": pct,
             "wall_s": walls, "reference_samples_s": ref_times,
             "setup_samples_in_refs": setups,
             "err_ratio_samples": ratios, "k_excess_samples": excess}
    return i, failures, metrics, notes


def measure_traced(workload, seed, seconds, pairs):
    """Per-layer metrics: untraced and traced experiments alternate."""
    from tracing import Installed, Tracer, layer_metrics
    X, path = prepare(workload, seed, f"{workload.name}-seed{seed}")
    file_bytes = path.stat().st_size if path is not None else 0
    runner = Runner(workload, X, path, OUT / f"{workload.name}-report.json")
    tracer = Tracer()
    wrappers = Installed(tracer)
    times = {False: [], True: []}
    layers, failures = [], []
    i = 0
    start = _clock()
    while i < 2 * pairs and (i < 2 or _clock() - start < seconds):
        traced = i % 2 == 1
        seed_i = SEED_STRIDE * seed + i // 2
        if traced:
            tracer.experiment = i
            first = len(tracer.records)
            rchar = read_rchar()
            with wrappers:
                elapsed, problems, report = runner.attempt(seed_i, tracer)
            rchar_delta = read_rchar() - rchar if rchar is not None else 0
        else:
            elapsed, problems, report = runner.attempt(seed_i)
        if problems:
            failures.append({"experiment": i, "problems": problems})
        else:
            times[traced].append(elapsed)
            if traced:
                layers.append(layer_metrics(tracer.records[first:], report,
                                            file_bytes, rchar_delta))
        i += 1
    if path is not None:
        path.unlink()
    with open(OUT / f"{workload.name}-seed{seed}-spans.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.records, fh)
    if not layers or not times[False]:
        raise SystemExit(f"error: no traced and untraced pair passed; first: {failures[0]}")
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(times[True]) / statistics.median(times[False]) - 1.0)
    notes = {"untraced_s": times[False], "traced_s": times[True]}
    return i, failures, metrics, notes


def metadata():
    import lpsubsel
    return {"git_sha": git_sha(), "backend": lpsubsel.BACKEND,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__}


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def benchmark(workload, seed, seconds, trace, experiments=EXPERIMENTS,
              pairs=TRACE_PAIRS):
    """Warm up, measure, and return the full result of one run."""
    OUT.mkdir(exist_ok=True)
    warm = replace(workload, inputs=replace(
        workload.inputs, n=min(workload.inputs.n, WARMUP_ROWS)))
    X, path = prepare(warm, seed, f"{workload.name}-warmup")
    Runner(warm, X, path, OUT / f"{workload.name}-report.json").attempt(0)
    if path is not None:
        path.unlink()
    if trace:
        attempted, failures, values, notes = measure_traced(
            workload, seed, seconds, pairs)
    else:
        attempted, failures, values, notes = measure(
            workload, seed, seconds, experiments)
    units = declared_metrics(trace)
    return {
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "workload": asdict(workload), "seed": seed, "trace": trace,
        "metadata": metadata(), "failures": failures, **notes,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lpsubsel" / "__init__.py").is_file():
        print(f"error: no lpsubsel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lpsubsel
    if not Path(lpsubsel.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported lpsubsel from {lpsubsel.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    result = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"workload {args.workload}, seed {args.seed}, closed loop with one client, "
          f"{result['attempted']} experiments, {result['failed']} failed")
    print("metadata " + json.dumps(result["metadata"], sort_keys=True))
    if not args.trace:
        print(f"wall time: run_s {result['run_s']:.4f} s, run_s.tail "
              f"{result['run_s.tail']:.4f} s; reference loop {result['reference_s']:.4f} s")
        print(f"run_ref.tail is p{result['tail_percentile']:.1f} of "
              f"{len(result['wall_s'])} samples")
    for failure in result["failures"]:
        print(f"FAILED experiment {failure['experiment']}: "
              + "; ".join(failure["problems"]))
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
