"""Extremal index estimation for stationary time series.

The package simulates benchmark models with known extremal index, evaluates
blocks and runs estimators across threshold sweeps, removes the leading
threshold-dependent bias by combining estimates under a signed measure, and
validates everything against exact finite-sample curve targets by Monte
Carlo.

Importing the package loads ``__version__`` only.  Every other public name
is imported from its defining module on first access (PEP 562), so a caller
that needs the kernel path (``sim``, ``estimate``, ``clusterproc`` and
``biascorrect``) never compiles ``harness``, ``oracle`` or ``cli``.
"""

import importlib

from ._version import __version__

# defining module -> the public names it exports through the package
_EXPORTS = {
    "errors": ("DegenerateDenominator", "ExindexError", "MeasureConditionError", "NoExceedances",
        "TiesDetected"),
    "sim": ("IID", "AR1Cauchy", "MovingMaxima", "RandomRepetition", "SecondOrderPareto",
        "SeriesSample", "StandardCauchy", "Uniform01", "UnitPareto", "generate", "substream"),
    "estimate": ("BlocksEvaluator", "EstimatorConfig", "SkippedPoint", "ThresholdCurve",
        "blocks_fixed", "blocks_true_quantile", "check_grid", "count_at", "default_grid",
        "runs_estimator", "sweep"),
    "clusterproc": ("ClosedFormIID", "MCGrid", "TailChainSeries", "estimate_kernel_mc", "f_max",
        "g_count", "standardize", "tail_chain_probabilities"),
    "biascorrect": ("ConditionReport", "SignedMeasureAtoms", "check_conditions", "corrected_curve",
        "corrected_estimate", "product_measure", "read_measure_csv", "scale_measure", "sigma2_mu",
        "two_atom_measure", "write_measure_csv"),
    "oracle": ("BiasExpansion", "MMExpansionReport", "bias_expansion_mm", "bias_expansion_wn",
        "mm_block_nonexceed", "theta_nt_mm_exact", "theta_nt_wn"),
    "harness": ("ExperimentConfig", "MCResult", "NormalityReport", "figure1_bundle",
        "model_from_dict", "normality_check", "oracle_theta_nt", "run"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    """Import the module that defines ``name`` (or the submodule ``name``) and bind it here."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
