"""One-pass streaming subset selection for l_p subspace approximation.

Selects a small subset of actual data points whose span nearly minimizes
the sum of p-th powers of point-to-subspace distances, using a single
streaming pass: a mixture-weighted reservoir pool of i.i.d. proposals
feeds independence Metropolis walks that simulate multiple rounds of
adaptive sampling. Ships with exact multi-pass baselines and brute-force
oracles that verify the distributional guarantees at desk scale.
"""

from ._kernels import BACKEND
from .baselines import exact_adaptive_sample, squared_length_sample
from .errors import (FormatError, GuardError, InputError, ParameterError,
                     SourceChangedError, StreamError)
from .experiment import ExperimentSpec, RunReport, run_experiment
from .geometry import (RANK_TOLERANCE, ErrParams, PointSet, SubsetBasis,
                       err_p, extend_basis)
from .oracles import (DistributionTable, OracleReport, adaptive_distribution,
                      brute_force_candidate_err, exact_walk_distribution,
                      gamma_bound, mixture_distribution, svd_optimal_err2,
                      transition_matrix, tv_distance)
from .proposal import MixtureWeights, ProposalPool, draw_mixture_pool, open_unit
from .sampler import SamplerConfig, one_pass_adaptive_sample, theorem_params
from .stream import DatasetSource, as_source, open_csv

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "RANK_TOLERANCE", "__version__",
    "DatasetSource", "DistributionTable", "ErrParams", "ExperimentSpec",
    "FormatError", "GuardError", "InputError",
    "MixtureWeights", "OracleReport", "ParameterError",
    "PointSet", "ProposalPool", "RunReport", "SamplerConfig", "SourceChangedError",
    "StreamError",
    "SubsetBasis",
    "adaptive_distribution", "as_source",
    "brute_force_candidate_err", "draw_mixture_pool", "err_p",
    "exact_adaptive_sample",
    "exact_walk_distribution", "extend_basis", "gamma_bound",
    "mixture_distribution", "one_pass_adaptive_sample", "open_csv",
    "open_unit", "run_experiment",
    "squared_length_sample", "svd_optimal_err2", "theorem_params",
    "transition_matrix", "tv_distance",
]
