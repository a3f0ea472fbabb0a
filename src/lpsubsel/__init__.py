"""One-pass streaming subset selection for l_p subspace approximation.

Selects a small subset of actual data points whose span nearly minimizes
the sum of p-th powers of point-to-subspace distances, using a single
streaming pass: a mixture-weighted reservoir pool of i.i.d. proposals
feeds independence Metropolis walks that simulate multiple rounds of
adaptive sampling. Ships with exact multi-pass baselines and brute-force
oracles that verify the distributional guarantees at desk scale.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the module that defines it and loads on first use
# (PEP 562): `import lpsubsel` loads no numpy, so `cli` can set its threads.
_EXPORTS = {
    "_kernels": ["BACKEND"],
    "baselines": ["exact_adaptive_sample", "squared_length_sample"],
    "errors": ["FormatError", "GuardError", "InputError", "ParameterError",
               "SourceChangedError", "StreamError"],
    "experiment": ["ExperimentSpec", "RunReport", "run_experiment"],
    "geometry": ["RANK_TOLERANCE", "PointSet", "SubsetBasis", "err_p", "extend_basis"],
    "oracles": ["DistributionTable", "OracleReport", "adaptive_distribution",
                "brute_force_candidate_err", "exact_walk_distribution", "gamma_bound",
                "mixture_distribution", "svd_optimal_err2", "transition_matrix",
                "tv_distance"],
    "proposal": ["MixtureWeights", "ProposalPool", "draw_mixture_pool", "open_unit"],
    "sampler": ["SamplerConfig", "one_pass_adaptive_sample", "theorem_params"],
    "stream": ["DatasetSource", "as_source", "open_csv"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
