"""Peak memory of one experiment, in a process of its own.

Usage, from the root of a checkout:

    python3 lpbench/peak.py WORKLOAD_JSON SEED INPUT REPORT

Runs one experiment of the workload WORKLOAD_JSON describes (a Workload
as dataclasses.asdict gives it) on INPUT (the CSV file for a CLI workload,
an .npy array for a library one), writes its report to REPORT and prints
the process's peak resident set size in MB, its VmHWM. (ru_maxrss would
not do: Linux carries the parent's peak across fork and exec into it.) The benchmark's generator,
its copy of the input and its numpy checks live in the parent process, so
this figure is the program's alone: the interpreter, numpy, lpsubsel and
what the experiment allocates.
"""

import json
import sys

import run  # pins the BLAS threads before numpy loads
import numpy as np
from workloads import Inputs, Workload


def main(argv):
    spec, seed, source, report = argv
    fields = json.loads(spec)
    workload = Workload(**dict(fields, inputs=Inputs(**fields["inputs"])))
    sys.path.insert(0, str(run.SRC))
    if workload.inputs.csv:
        runner = run.Runner(workload, None, source, report)
    else:
        runner = run.Runner(workload, np.load(source), None, report)
    code = runner.execute(int(seed))
    if code != 0:
        print(f"error: experiment exited with {code}", file=sys.stderr)
        return 1
    print(peak_kb() / 1024)
    return 0


def peak_kb():
    """This process's peak resident set size in kB, from /proc/self/status."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
