"""Qualitative-interaction testing for two sub-populations.

Statistics, supremum p-values, effect-ratio summaries, local asymptotic
power, and a seeded Monte Carlo harness for deciding whether an association
differs between two groups in sign (crossover) or in presence, rather than
merely in magnitude.
"""

from qualint.inference import (
    EstimatePair,
    KappaMaxBatch,
    KappaMaxResult,
    LocalAlternative,
    PairBatch,
    SubgroupEstimate,
    TestBatch,
    TestResult,
    gail_simon_test,
    kappa_max,
    omnibus_local_power,
    omnibus_null_tail,
    omnibus_statistic,
    omnibus_test,
    rd_local_power,
    rd_null_tail,
    rd_power_approx,
    rd_statistic,
    rd_test,
)
from qualint.estimators import (
    EstimateBatch,
    EstimationError,
    FeatureMatrix,
    Sample2D,
    SampleBatch,
    ols_slope,
    pearson,
)
from qualint.simulation import (
    EmpiricalTail,
    SimulationConfig,
    StudyResult,
    generate_dataset,
    mc_null_oracle,
    run_kappa_max_study,
    run_rejection_study,
)

__all__ = [
    "EmpiricalTail",
    "EstimateBatch",
    "EstimatePair",
    "EstimationError",
    "FeatureMatrix",
    "KappaMaxBatch",
    "KappaMaxResult",
    "LocalAlternative",
    "PairBatch",
    "Sample2D",
    "SampleBatch",
    "SimulationConfig",
    "StudyResult",
    "SubgroupEstimate",
    "TestBatch",
    "TestResult",
    "gail_simon_test",
    "generate_dataset",
    "kappa_max",
    "mc_null_oracle",
    "ols_slope",
    "omnibus_local_power",
    "omnibus_null_tail",
    "omnibus_statistic",
    "omnibus_test",
    "pearson",
    "rd_local_power",
    "rd_null_tail",
    "rd_power_approx",
    "rd_statistic",
    "rd_test",
    "run_kappa_max_study",
    "run_rejection_study",
]

__version__ = "0.1.0"
