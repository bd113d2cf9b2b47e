"""Bessel functions on matrix cones and the radial walks they drive.

The package evaluates the matrix-argument Bessel kernel (certified
series, ball-integral Monte Carlo, and the rank-one classical form),
its Dunkl-type chamber counterpart, the convolution they induce on
positive semidefinite matrices, and desk-scale experiments for the
weak/strong laws of large numbers and the large-deviation principle of
walks whose index grows with the step count.

Attribute access is lazy so the command-line entry point can pin BLAS
thread counts before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # errors
    "ConfigError": "errors",
    "ConvergenceError": "errors",
    "DimensionError": "errors",
    "DomainError": "errors",
    "IllConditionedError": "errors",
    "UnsupportedRankError": "errors",
    # linear algebra and structure constants
    "StructureParams": "linalg",
    "HermitianMatrix": "linalg",
    "ConeMatrix": "linalg",
    # Jack / zonal layer
    "Partition": "jack",
    "partitions_of_weight": "jack",
    "gen_pochhammer": "jack",
    "layers": "jack",
    "layer_values": "jack",
    # Bessel kernel
    "bessel_series": "bessel",
    "bessel_classical": "bessel",
    "bessel_integral_mc": "bessel",
    "kappa_mu": "bessel",
    "theorem1_gap": "bessel",
    # convolution and walks
    "RadialLaw": "hypergroup",
    "convolve_sample": "hypergroup",
    "walk_simulate": "hypergroup",
    "walk_batch": "hypergroup",
    # chamber kernel
    "ChamberPoint": "dunkl",
    "bessel_B_mc": "dunkl",
    "hyper_0F0": "dunkl",
    "harish_chandra_exact": "dunkl",
    "exp_conjugation_mc": "dunkl",
    # seed discipline
    "substream": "seeds",
    # limit-theorem experiments
    "Schedule": "limits",
    "ConditionDiagnostic": "limits",
    "schedule_conditions": "limits",
    "ReportRow": "limits",
    "ExperimentReport": "limits",
    "config_hash": "limits",
    "second_moment": "limits",
    "wlln_experiment": "limits",
    "slln_experiment": "limits",
    "free_energy_empirical": "limits",
    "free_energy_limit": "limits",
    "rate_function": "limits",
    # acceptance suite
    "CriterionResult": "acceptance",
    "run_criterion": "acceptance",
    "run_all": "acceptance",
    "CRITERIA": "acceptance",
    # cli
    "RunConfig": "cli",
    "main": "cli",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
