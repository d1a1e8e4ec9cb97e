"""Qualitative-interaction testing for two sub-populations.

Statistics, supremum p-values, effect-ratio summaries, local asymptotic
power, and a seeded Monte Carlo harness for deciding whether an association
differs between two groups in sign (crossover) or in presence, rather than
merely in magnitude.

Importing the package loads ``inference`` and ``distributions``, which
every command runs; ``estimators`` and ``simulation`` load when one of
their names is first read.
"""

from importlib import import_module

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

# the deferred names and their modules: simulation imports numpy.random,
# which a command that runs no study need not pay for
_DEFERRED = {
    **dict.fromkeys(("EstimateBatch", "EstimationError", "FeatureMatrix", "SampleBatch",
                     "ols_slope", "pearson"), "qualint.estimators"),
    **dict.fromkeys(("EmpiricalTail", "SimulationConfig", "StudyResult", "mc_null_oracle",
                     "run_rejection_study"), "qualint.simulation"),
}


def __getattr__(name: str):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED})


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
    "SampleBatch",
    "SimulationConfig",
    "StudyResult",
    "SubgroupEstimate",
    "TestBatch",
    "TestResult",
    "gail_simon_test",
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
    "run_rejection_study",
]

__version__ = "0.1.0"
