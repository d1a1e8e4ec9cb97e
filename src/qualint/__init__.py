"""Qualitative-interaction testing for two sub-populations.

Statistics, supremum p-values, effect-ratio summaries, local asymptotic
power, and a seeded Monte Carlo harness for deciding whether an association
differs between two groups in sign (crossover) or in presence, rather than
merely in magnitude.

Importing the package loads ``inference`` and ``distributions``, which
every command runs; ``estimators`` and ``simulation`` load when one of
their names is first read.  Each module's ``__all__`` is its list of
public names, and the package exports exactly their union.
"""

from importlib import import_module

from qualint import inference
from qualint.inference import *  # the names of inference.__all__

# the deferred names and their modules: simulation imports numpy.random,
# which a command that runs no study need not pay for
_DEFERRED = {
    **dict.fromkeys(("EstimateBatch", "EstimationError", "FeatureMatrix", "SampleBatch",
                     "ols_slope", "pearson"), "qualint.estimators"),
    **dict.fromkeys(("EmpiricalTail", "RateCell", "SimulationConfig", "StudyResult",
                     "mc_null_oracle", "run_rejection_study"), "qualint.simulation"),
}

__all__ = [*inference.__all__, *_DEFERRED]


def __getattr__(name: str):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED})


__version__ = "0.1.0"
