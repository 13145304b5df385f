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

The package root loads no submodule and re-exports no name: import each
name from the module that defines it (``from securakit.markov import
Ctmc``).  So ``import securakit`` costs nothing beyond this file, and the
program entry (:mod:`securakit.__main__`) loads the CLI only after it has
turned the cyclic collector off.
"""

__version__ = "0.1.0"
