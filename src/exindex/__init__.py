"""Extremal index estimation for stationary time series.

The package simulates benchmark models with known extremal index, evaluates
blocks and runs estimators across threshold sweeps, removes the leading
threshold-dependent bias by combining estimates under a signed measure, and
validates everything against exact finite-sample curve targets by Monte
Carlo.
"""

from ._version import __version__
from .errors import (
    DegenerateDenominator,
    ExindexError,
    MeasureConditionError,
    NoExceedances,
    TiesDetected,
)
from .sim import (
    IID,
    AR1Cauchy,
    MovingMaxima,
    RandomRepetition,
    SecondOrderPareto,
    SeriesSample,
    StandardCauchy,
    Uniform01,
    UnitPareto,
    generate,
    substream,
)
from .estimate import (
    BlocksEvaluator,
    EstimatorConfig,
    SkippedPoint,
    ThresholdCurve,
    blocks_fixed,
    blocks_true_quantile,
    check_grid,
    count_at,
    default_grid,
    runs_estimator,
    sweep,
)
from .clusterproc import (
    ClosedFormIID,
    MCGrid,
    TailChainSeries,
    estimate_kernel_mc,
    f_max,
    g_count,
    standardize,
    tail_chain_probabilities,
)
from .biascorrect import (
    ConditionReport,
    SignedMeasureAtoms,
    check_conditions,
    corrected_curve,
    corrected_estimate,
    product_measure,
    read_measure_csv,
    scale_measure,
    sigma2_mu,
    two_atom_measure,
    write_measure_csv,
)
from .oracle import (
    BiasExpansion,
    MMExpansionReport,
    bias_expansion_mm,
    bias_expansion_wn,
    mm_block_nonexceed,
    theta_nt_mm_exact,
    theta_nt_wn,
)
from .harness import (
    ExperimentConfig,
    MCResult,
    NormalityReport,
    figure1_bundle,
    model_from_dict,
    normality_check,
    oracle_theta_nt,
    run,
)
