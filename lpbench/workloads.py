"""Workloads of the lpsubsel benchmark and the seeded input generator.

A workload fixes the input shape (generator parameters) and the experiment
flags. The benchmark generates the input from its seed, hands the program
only the generated array or CSV file, and runs one experiment after another.

Why these three:

- csv-tall: the user's main path, the CLI on a 15 MB CSV. The per-row
  selection pass and CSV parsing (three reads of the file) do most of the
  work; the walk phase is under 1%.
- pool-deep: the library on an in-memory array whose pool is 19x n, with
  p=3 and lognormal row norms. Stream parsing costs nothing, pool memory
  dominates, and the heavy-tailed norms put the adaptive target far from
  the proposal, so walk quality matters.
- exact-multipass: the exact multi-pass baseline on the csv-tall file. It
  reads the file l+2 = 6 times and never touches the proposal or sampler
  modules: a change there predicts no change here.

t*l < d in every workload, so the subset never spans R^d and the quality
metrics are not trivially 0.
"""

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np


@dataclass(frozen=True)
class Inputs:
    """Parameters of the low-rank-plus-noise generator.

    Rows are U @ W + noise * N with U (n, rank) and N (n, d) standard
    normal, and W's rows an orthonormal set scaled by sqrt(d): each signal
    direction carries the energy of unit variance per coordinate, whatever
    the seed, so the signal-to-noise ratio does not vary from seed to seed.
    With row_scale_sigma > 0 the rows are then multiplied by
    exp(row_scale_sigma * z), with z the n normal quantiles (i + 1/2) / n
    in a random order: lognormal row norms whose heavy tail is the same
    set of scales for every seed, so quality metrics stay comparable.
    """

    n: int
    d: int
    rank: int
    noise: float
    row_scale_sigma: float = 0.0
    csv: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Inputs
    algo: str
    k: int
    p: float
    t: int
    delta: float = 0.5
    l: int = None        # None: the recipe's l = k
    m: int = None        # None: the recipe's walk length
    reps: int = None     # None: the recipe's repetitions
    oracle: str = "none"

    @property
    def rounds(self):
        return self.k if self.l is None else self.l

    def cli_argv(self, path, seed, out):
        """Flags for lpsubsel.cli.main; recipe values are left to the CLI."""
        argv = ["--input", path, "--algo", self.algo, "--k", str(self.k),
                "--p", f"{self.p:g}", "--delta", f"{self.delta:g}",
                "--t", str(self.t), "--oracle", self.oracle,
                "--seed", str(seed), "--out", out]
        for flag, value in (("--l", self.l), ("--m", self.m), ("--reps", self.reps)):
            if value is not None:
                argv += [flag, str(value)]
        return argv

    def spec_kwargs(self, seed):
        """Keyword arguments for lpsubsel.ExperimentSpec (library path)."""
        return dict(algorithm=self.algo, k=self.k, p=self.p, delta=self.delta,
                    t=self.t, l=self.l, m=self.m, repetitions=self.reps,
                    seed=seed, oracle=self.oracle)


TALL = Inputs(n=40_000, d=32, rank=2, noise=0.3, csv=True)

WORKLOADS = {
    w.name: w for w in (
        # recipe: l=2, m=18, reps=9, pool 1,368
        Workload("csv-tall", TALL, "mcmc-one-pass", k=2, p=2.0, t=4, oracle="svd"),
        # pool 2 * 3 * 16 * 401 = 38,496 = 19.2 n
        Workload("pool-deep",
                 Inputs(n=2_000, d=64, rank=3, noise=0.3, row_scale_sigma=0.5),
                 "mcmc-one-pass", k=3, p=3.0, t=16, l=3, m=400, reps=2),
        Workload("exact-multipass", TALL, "exact-adaptive", k=2, p=2.0, t=4, l=4,
                 oracle="svd"),
    )
}


def generate(inputs, seed):
    """The input array for `inputs`; the same seed gives the same array."""
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((inputs.n, inputs.rank))
    directions = np.linalg.qr(rng.standard_normal((inputs.d, inputs.rank)))[0].T
    directions *= np.sqrt(inputs.d)
    X = factors @ directions + inputs.noise * rng.standard_normal((inputs.n, inputs.d))
    if inputs.row_scale_sigma > 0.0:
        normal = NormalDist()
        z = [normal.inv_cdf((i + 0.5) / inputs.n) for i in range(inputs.n)]
        X *= np.exp(inputs.row_scale_sigma * rng.permutation(z))[:, None]
    return X


def write_csv(X, path):
    """Write X as the CLI reads it and return the array as the CLI parses it.

    Eight significant digits keep the 40,000 x 32 file near 15 MB. The
    returned array is read back from the file, so output checks compare
    against exactly the numbers the program saw.
    """
    np.savetxt(path, X, fmt="%.8g", delimiter=",")
    return np.loadtxt(path, delimiter=",", ndmin=2)
