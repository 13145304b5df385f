"""securakit: reliability and securability modeling for critical infrastructure.

Submodules:

* :mod:`securakit.weibull` - two-parameter Weibull failure law and fitting
* :mod:`securakit.markov` - continuous-time Markov chain availability engine
* :mod:`securakit.montecarlo` - reproducible Monte Carlo estimation
* :mod:`securakit.securability` - MS/DR chain, attacks, r-out-of-n composition
* :mod:`securakit.model_io` - model documents: parsing, validation, model builders
* :mod:`securakit.report` - analysis reports and their serialization
* :mod:`securakit.rng` - counter-based random streams
* :mod:`securakit.cli` - the ``securakit`` command

Only the numpy-free modules (``cli``, ``errors``, ``model_io``, ``report``)
load with the package.  Each engine, and each class re-exported from one,
loads on first access, so ``import securakit`` and ``securakit validate``
never import numpy.
"""

from importlib import import_module

from . import cli, errors, model_io, report
from .report import TOOL_VERSION, AnalysisReport

__version__ = TOOL_VERSION

# lazily resolved names -> the submodule that defines them (an engine maps to itself)
_LAZY = {
    name: module
    for module, names in (
        ("markov", ("Ctmc",)),
        ("montecarlo", ("Estimate", "MonteCarloConfig")),
        ("rng", ()),
        ("securability", ("MsDrRates", "RoutOfNSystem", "ThreatProfile")),
        ("weibull", ("FailureSample", "WeibullModel")),
    )
    for name in (module, *names)
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value  # later lookups skip this hook
    return value


__all__ = sorted(["AnalysisReport", "cli", "errors", "model_io", "report", *_LAZY])
