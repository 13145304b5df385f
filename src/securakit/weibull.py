"""Two-parameter Weibull failure law: evaluation, mean life, and fitting.

The law is parameterized by a scale ``alpha`` (same units as time) and a
dimensionless shape ``beta``; survival through time t is
``exp(-(t/alpha)**beta)``.  ``beta < 1`` models infant mortality (falling
hazard), ``beta = 1`` reduces to the memoryless exponential, ``beta > 1``
models wear-out (rising hazard).

Each evaluation function is one scalar law in :mod:`math` on Python
floats; a list or an array of times is mapped through that law entry by
entry into an ndarray, so each entry equals the scalar call to the bit.
Fitting offers median-rank regression (robust default for small samples)
and maximum likelihood with right-censoring support, both from
``math.fsum`` sums.  Only array input and :func:`sample_lifetimes` load
numpy.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import TYPE_CHECKING

from .errors import ConvergenceError, DomainError, SingularityError, StructureError

if TYPE_CHECKING:
    from .rng import CounterRng

_SCORE_TOL = 1e-10
_MAX_NEWTON_ITER = 100
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


class WeibullModel:
    """Scale ``alpha`` (time units) and shape ``beta`` of a Weibull law; equal parameters, equal laws."""

    def __init__(self, alpha: float, beta: float):
        self.alpha, self.beta = alpha, beta
        for name, value in vars(self).items():
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and > 0, got {value!r}")

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented


class FailureSample:
    """Observed failure times with optional right-censoring flags.

    ``censored[i]`` is true when observation i ended before a failure was
    seen (the unit survived at least ``times[i]``).
    """

    def __init__(self, times: tuple[float, ...], censored: tuple[bool, ...] = ()):
        times = tuple(float(t) for t in times)
        if not times:
            raise DomainError("failure sample must contain at least one time")
        if any(not math.isfinite(t) or t <= 0 for t in times):
            raise DomainError("all failure times must be finite and > 0")
        censored = tuple(bool(c) for c in censored) if censored else (False,) * len(times)
        if len(censored) != len(times):
            raise DomainError("censored flags must match times in length")
        self.times, self.censored = times, censored


def _exp(x: float) -> float:
    """math.exp, saturating to inf past the largest double (where math.exp raises OverflowError), as np.exp does."""
    return math.inf if x > _LOG_DOUBLE_MAX else math.exp(x)


def _evaluate(t, m: WeibullModel, law, at_zero: float | str, at_inf: float):
    """One law at the times ``t``: a float for a scalar or 0-d ``t``, an ndarray for a sequence or array.

    A list, tuple or array maps each entry through the scalar evaluation
    below (numpy loads only then).  ``law`` maps log(t/alpha) of a positive
    time to its value, so each law forms (t/alpha)**k as
    exp(k*log(t/alpha)), which does not overflow in the power.  A time at 0 takes ``at_zero``: a number, or for the hazard
    and the density the name of the quantity, whose t = 0 value is 1/alpha
    at beta = 1, zero at beta > 1, and divergent at beta < 1 (raises
    :class:`SingularityError`).  Where t/alpha is not a normal double (it
    underflows to zero or a subnormal, or overflows), log(t/alpha) is formed
    as log t - log alpha (:func:`_log_ratio`).  A time at inf takes the
    limit ``at_inf``, where a law would form inf - inf or 0 * inf.  exp
    saturates to inf or 0 for huge t by design, and the hazard and the
    density re-form each product that turns invalid (:func:`_scaled_exp`);
    a value that stays inf reaches the caller's finiteness check.
    """
    if isinstance(t, (list, tuple)) or getattr(t, "ndim", 0):
        import numpy as np

        times = np.asarray(t, dtype=float)
        values = [_evaluate(x, m, law, at_zero, at_inf) for x in times.ravel().tolist()]
        return np.array(values, dtype=float).reshape(times.shape)
    t = float(t)
    if not t >= 0:
        raise DomainError("time must be >= 0")
    if t == 0 and isinstance(at_zero, str):
        if m.beta < 1:
            raise SingularityError(f"{at_zero} diverges at t=0 for beta < 1")
        at_zero = 1.0 / m.alpha if m.beta == 1 else 0.0
    if t == 0 or t == math.inf:
        return at_zero if t == 0 else at_inf
    return law(_log_ratio(t, m.alpha))


def _log_ratio(t: float, scale: float) -> float:
    """log(t/scale) of positive finite t and scale; log t - log scale where t/scale is not a normal double."""
    ratio = t / scale
    if sys.float_info.min <= ratio < math.inf:
        return math.log(ratio)
    return math.log(t) - math.log(scale)  # t/scale kept few bits, or none


def _scaled_exp(m: WeibullModel, a: float) -> float:
    """(beta/alpha) * exp(a), or exp(log beta - log alpha + a) where the product is not finite and positive.

    At the far corners beta/alpha overflows while exp(a) underflows, and
    the product is inf * 0; the log form gives the number both stand for.
    Finite positive products keep their bits.
    """
    out = (m.beta / m.alpha) * _exp(a)
    return out if 0 < out < math.inf else _exp(math.log(m.beta) - math.log(m.alpha) + a)


def reliability(t, m: WeibullModel):
    """Survival probability exp(-(t/alpha)**beta) at time t >= 0."""
    return _evaluate(t, m, lambda logr: _exp(-_exp(m.beta * logr)), 1.0, 0.0)


def cdf(t, m: WeibullModel):
    """Failure probability by time t; exact complement of :func:`reliability`."""
    return _evaluate(t, m, lambda logr: 1.0 - _exp(-_exp(m.beta * logr)), 0.0, 1.0)


def hazard(t, m: WeibullModel):
    """Instantaneous failure rate (beta/alpha)*(t/alpha)**(beta-1).

    Diverges at t = 0 when beta < 1; that boundary raises
    :class:`SingularityError` instead of returning infinity.  At t = inf
    the hazard is 0 for beta < 1, 1/alpha for beta = 1 and inf for beta > 1.
    """
    at_inf = 1.0 / m.alpha if m.beta == 1 else (math.inf if m.beta > 1 else 0.0)
    return _evaluate(t, m, lambda logr: _scaled_exp(m, (m.beta - 1.0) * logr), "hazard", at_inf)


def pdf(t, m: WeibullModel):
    """Failure time density (beta/alpha)*(t/alpha)**(beta-1)*exp(-(t/alpha)**beta).

    At t = 0 the density is 1/alpha for beta = 1, zero for beta > 1, and
    divergent for beta < 1 (raises :class:`SingularityError`), and it is
    zero at t = inf.  A single exponential keeps huge-t evaluations finite;
    where (t/alpha)**beta overflows, its exponent is -inf and the density 0.
    """
    def law(logr):
        power = _exp(m.beta * logr)
        return _scaled_exp(m, (m.beta - 1.0) * logr - power if power < math.inf else -math.inf)

    return _evaluate(t, m, law, "density", 0.0)


def mean_life(m: WeibullModel) -> float:
    """Mean failure time alpha * Gamma(1 + 1/beta); inf only if the mean itself passes the double range.

    Gamma alone overflows once beta falls below about 0.0059; the mean is
    then formed from its logarithm, log(alpha) + lgamma(1 + 1/beta).
    """
    try:
        return m.alpha * math.gamma(1.0 + 1.0 / m.beta)
    except OverflowError:
        log_mean = math.log(m.alpha) + math.lgamma(1.0 + 1.0 / m.beta)
        return _exp(log_mean)


def sample_lifetimes(m: WeibullModel, n: int, rng: CounterRng) -> np.ndarray:
    """Draw ``n`` lifetimes by inverse CDF: t = alpha * (-ln U)**(1/beta)."""
    import numpy as np

    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    u = rng.uniforms(n)
    return m.alpha * (-np.log(u)) ** (1.0 / m.beta)


def fit(data: FailureSample, method: str = "rank_regression") -> WeibullModel:
    """Estimate (alpha, beta) from a failure sample.

    ``rank_regression`` fits a least-squares line in the linearized
    (ln t, ln(-ln(1 - F))) space using Benard median-rank plotting
    positions; censored entries are ignored with a warning.  ``mle``
    solves the one-dimensional profile likelihood score in beta by Newton
    iteration (score tolerance 1e-10, 100-iteration cap) and recovers
    alpha in closed form; right-censored entries enter the likelihood.
    The MLE is finite, and fitted, unless every failure time equals the
    largest observed time; ties below it are fine.
    """
    if method == "rank_regression":
        return _fit_rank_regression(data)
    if method == "mle":
        return _fit_mle(data)
    raise DomainError(f"unknown fitting method {method!r}")


def _fit_rank_regression(data: FailureSample) -> WeibullModel:
    if any(data.censored):
        warnings.warn(
            "rank regression ignores censored observations; consider method='mle'",
            stacklevel=3,
        )
    x = sorted(math.log(t) for t, c in zip(data.times, data.censored) if not c)
    n = len(x)
    if n < 3:
        raise DomainError("rank regression needs at least 3 uncensored failure times")
    if x[0] == x[-1]:
        raise StructureError("degenerate failure data: all failure times are equal")
    # Benard approximation to the median rank of order statistic i
    y = [math.log(-math.log(1.0 - (i - 0.3) / (n + 0.4))) for i in range(1, n + 1)]
    # least squares from the centred sums: slope sum(dx*dy)/sum(dx*dx), intercept y_mean - slope*x_mean
    x_mean, y_mean = math.fsum(x) / n, math.fsum(y) / n
    dx = [v - x_mean for v in x]
    slope = math.fsum([d * (v - y_mean) for d, v in zip(dx, y)]) / math.fsum([d * d for d in dx])
    intercept = y_mean - slope * x_mean
    return WeibullModel(alpha=_exp(-intercept / slope), beta=slope)


def _fit_mle(data: FailureSample) -> WeibullModel:
    scale = max(data.times)
    logw = [_log_ratio(t, scale) for t in data.times]  # numerical hygiene: w**beta <= 1, score is scale-invariant
    log_fail = [v for v, c in zip(logw, data.censored) if not c]
    r = len(log_fail)
    if r < 1:
        raise DomainError("maximum likelihood needs at least one uncensored failure time")
    # t/scale rounds to 1, and its log to 0, only at t = scale; only when every failure is there
    # has the profile score no root (beta -> inf)
    if all(v == 0 for v in log_fail):
        raise StructureError("degenerate failure data: all failure times are equal")
    mean_log_fail = math.fsum(log_fail) / r

    def score_and_slope(beta):
        wb = [math.exp(beta * v) for v in logw]
        s0 = math.fsum(wb)
        s1 = math.fsum([a * v for a, v in zip(wb, logw)])
        s2 = math.fsum([a * v * v for a, v in zip(wb, logw)])
        g = 1.0 / beta + mean_log_fail - s1 / s0
        dg = -1.0 / (beta * beta) - (s2 * s0 - s1 * s1) / (s0 * s0)
        return g, dg, s0

    sd_log = math.sqrt(math.fsum([(v - mean_log_fail) ** 2 for v in log_fail]) / max(r - 1, 1))
    beta = min(max(1.2826 / sd_log, 0.05), 50.0) if sd_log > 0 else 1.0
    for _ in range(_MAX_NEWTON_ITER):
        g, dg, s0 = score_and_slope(beta)
        if abs(g) <= _SCORE_TOL:
            try:
                alpha = scale * (s0 / r) ** (1.0 / beta)
            except OverflowError:  # past the largest double; the model rejects alpha = inf
                alpha = math.inf
            return WeibullModel(alpha=alpha, beta=beta)
        step = g / dg
        beta = beta / 2.0 if beta - step <= 0 else beta - step
    raise ConvergenceError(
        f"profile score did not converge within {_MAX_NEWTON_ITER} Newton iterations"
    )
