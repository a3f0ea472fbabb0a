"""Command-line experiment driver.

Exit codes: 0 success, 2 input error or read failure, 3 size-guard violation.
The seed comes from --seed, else the SUBSEL_SEED environment variable,
else 0. Unless the environment sets a BLAS thread count or numpy is loaded,
loading this module sets one, so a large file's passes can fork a helper.
"""

import argparse
import os
import sys

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

from .errors import GuardError, InputError, StreamError  # noqa: E402
from .experiment import ALGORITHMS, ORACLES, ExperimentSpec, run_experiment  # noqa: E402

REPORT_FORMATS = ("json", "csv")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lpsubsel",
        description="One-pass streaming subset selection for l_p subspace "
                    "approximation, with multi-pass baselines and oracles.",
        epilog=f"numpy's BLAS runs one thread unless {' or '.join(_BLAS_THREADS)} is set; "
               "with more, no parse helper forks and large files parse slower.")
    parser.add_argument("--input", required=True, help="CSV file, one point per line")
    parser.add_argument("--algo", default="mcmc-one-pass", choices=ALGORITHMS)
    parser.add_argument("--k", type=int, required=True, help="target subspace dimension")
    parser.add_argument("--p", type=float, default=2.0, help="error exponent, >= 1")
    parser.add_argument("--delta", type=float, default=0.5, help="additive-error parameter in (0,1)")
    parser.add_argument("--t", type=int, default=None, help="points per round (overrides the recipe)")
    parser.add_argument("--l", type=int, default=None, help="rounds (default k)")
    parser.add_argument("--m", type=int, default=None, help="walk length (overrides the recipe)")
    parser.add_argument("--reps", type=int, default=None, help="repetitions for best-of-R")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--report", default="json", choices=REPORT_FORMATS)
    parser.add_argument("--out", default=None, help="report path (default stdout)")
    parser.add_argument("--oracle", default="none", choices=ORACLES)
    parser.add_argument("--header", action="store_true", help="skip one header line")
    return parser


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SUBSEL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"SUBSEL_SEED must be an integer, got {env!r}") from None
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        spec = ExperimentSpec(
            input=args.input, algorithm=args.algo, k=args.k, p=args.p,
            delta=args.delta, t=args.t, l=args.l, m=args.m,
            repetitions=args.reps, seed=_resolve_seed(args),
            oracle=args.oracle, header=args.header)
        report = run_experiment(spec)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError, StreamError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report.to_json() if args.report == "json" else report.to_csv()
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
