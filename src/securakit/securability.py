"""Combined safety + security models: MS/DR chain and r-out-of-n composition.

The main-system / disaster-recovery (MS/DR) model is a four-state chain
over the joint status of the main system and its recovery site:

* state 0 ``both_up``    - MS and DR both operating (operational)
* state 1 ``ms_down``    - MS failed, service carried by DR (operational)
* state 2 ``dr_down``    - DR failed, service carried by MS (operational)
* state 3 ``both_down``  - both failed, service down (non-operational)

Components fail and repair independently: failures move 0->1 at the MS
failure rate, 0->2 at the DR failure rate, 1->3 and 2->3 at the other
component's failure rate; repairs reverse them.  In state 3 both repairs
proceed concurrently by default; ``single_repair_crew=True`` keeps only
the MS repair active there (one crew, MS first).

Deliberate attacks are modeled as an independent Poisson arrival process
whose rate simply adds to the component failure rate; an attack success
probability below one is expressed by pre-scaling the rate.
"""

from __future__ import annotations

import math

from . import markov
from .errors import DomainError
from .markov import Ctmc
from .report import Result

MSDR_LABELS = ("both_up", "ms_down", "dr_down", "both_down")
MSDR_OPERATIONAL = (True, True, True, False)

# modeling choices surfaced in report metadata
MSDR_MODEL_NOTES = (
    "MS/DR transitions follow the canonical independent failure/repair topology",
    "service is counted up in every state except both_down",
)


class MsDrRates:
    """Failure and repair rates (1/time) for the main system and DR site."""

    def __init__(self, lambda_ms: float, lambda_dr: float, mu_ms: float, mu_dr: float):
        self.lambda_ms, self.lambda_dr, self.mu_ms, self.mu_dr = lambda_ms, lambda_dr, mu_ms, mu_dr
        for name, value in vars(self).items():
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and > 0, got {value!r}")


class ThreatProfile:
    """Successful-attack arrival rate (Poisson) against one component."""

    def __init__(self, attack_rate: float, applies_to: str = ""):
        if not (math.isfinite(attack_rate) and attack_rate >= 0):
            raise DomainError(f"attack_rate must be finite and >= 0, got {attack_rate}")
        self.attack_rate, self.applies_to = attack_rate, applies_to


class ChainSubsystem:
    """A subsystem modeled as a chain plus its start state."""

    def __init__(self, chain: Ctmc, start: int = 0):
        markov.check_start(chain, start)
        self.chain, self.start = chain, start


class RoutOfNSystem:
    """System that is good when at least r of its n independent subsystems are.

    Each subsystem is either a :class:`ChainSubsystem` or a bare
    availability probability in [0, 1]; r=1 is a parallel system, r=n a
    series system.
    """

    def __init__(self, r: int, subsystems: tuple):
        subs = tuple(subsystems)
        if len(subs) < 1:
            raise DomainError("system needs at least one subsystem")
        if not (isinstance(r, int) and 1 <= r <= len(subs)):
            raise DomainError(f"r must satisfy 1 <= r <= {len(subs)}, got {r!r}")
        normalized = []
        for i, sub in enumerate(subs):
            if isinstance(sub, ChainSubsystem):
                normalized.append(sub)
            elif isinstance(sub, Ctmc):
                normalized.append(ChainSubsystem(chain=sub, start=0))
            elif isinstance(sub, (int, float)):
                p = float(sub)
                if not 0.0 <= p <= 1.0:
                    raise DomainError(f"subsystem {i}: bare availability must lie in [0, 1], got {p}")
                normalized.append(p)
            else:
                raise DomainError(
                    f"subsystem {i}: expected ChainSubsystem, Ctmc, or probability, got {type(sub).__name__}"
                )
        self.r, self.subsystems = r, tuple(normalized)

    @property
    def n(self) -> int:
        return len(self.subsystems)


def build_msdr(rates: MsDrRates, single_repair_crew: bool = False) -> Ctmc:
    """Four-state MS/DR chain with independent failures and repairs."""
    transitions = [
        (0, 1, rates.lambda_ms), (0, 2, rates.lambda_dr), (1, 0, rates.mu_ms), (2, 0, rates.mu_dr),
        (1, 3, rates.lambda_dr), (2, 3, rates.lambda_ms), (3, 2, rates.mu_ms),
    ]
    if not single_repair_crew:  # one crew repairs MS first; two repair both at once
        transitions.append((3, 1, rates.mu_dr))
    return Ctmc(MSDR_LABELS, MSDR_OPERATIONAL, transitions)


def service_availability(rates: MsDrRates, single_repair_crew: bool = False) -> float:
    """Long-run probability the service is up: 1 - pi(both_down).

    The service is up whenever at least one of MS/DR is up, i.e. in every
    state except ``both_down``.
    """
    chain = build_msdr(rates, single_repair_crew)
    return msdr_service_availability(chain, markov.steady_state(chain))


def msdr_service_availability(chain: Ctmc, pi: tuple[float, ...]) -> float:
    """Service availability of an MS/DR ``chain`` from its solved steady state ``pi``.

    One minus the mass outside the operational set, which for the MS/DR
    chain is pi(both_down) alone.
    """
    return 1.0 - math.fsum(p for p, up in zip(pi, chain.operational) if not up)


def combine_failure_and_attack(failure_rate: float, threat: ThreatProfile) -> float:
    """Effective event rate under random failures plus Poisson attacks.

    Independent Poisson processes superpose, so the rates add; substitute
    the result for the component's failure rate to build attack-aware
    chains.
    """
    if not failure_rate > 0:
        raise DomainError(f"failure_rate must be > 0, got {failure_rate}")
    return failure_rate + threat.attack_rate


def mtta(threat: ThreatProfile) -> float:
    """Mean time to (successful) attack: 1/attack_rate."""
    if threat.attack_rate <= 0:
        raise DomainError("MTTA is undefined for attack_rate = 0")
    return 1.0 / threat.attack_rate


def subsystem_availability(sub) -> float:
    """Steady availability of one subsystem (bare value or chain analysis)."""
    if isinstance(sub, ChainSubsystem):
        return markov.availability_steady(sub.chain)
    return float(sub)


def r_out_of_n_availability(system: RoutOfNSystem) -> float:
    """P(at least r of n independent subsystems up).

    Computed exactly (up to floating point) by the Poisson-binomial
    dynamic program over (subsystem index, number up).
    """
    return _at_least(system.r, [subsystem_availability(sub) for sub in system.subsystems])


def _at_least(r: int, ps) -> float:
    """P(at least r successes) among independent events of probabilities ``ps``."""
    dp = [1.0] + [0.0] * len(ps)  # dp[k]: P(k successes) among the events so far
    for p in ps:
        dp = [dp[0] * (1.0 - p)] + [dp[k] * (1.0 - p) + dp[k - 1] * p for k in range(1, len(dp))]
    return math.fsum(dp[r:])


def decompose(system: RoutOfNSystem) -> list[Result]:
    """Top-down result rows: per-subsystem metrics, then the composed system.

    Chain subsystems get analytic availability and MTTF rows; bare
    subsystems echo their given availability.  The composition row equals
    :func:`r_out_of_n_availability` exactly, from the same availabilities,
    so each chain's steady state is solved once.
    """
    results = []
    availabilities = []
    for i, sub in enumerate(system.subsystems):
        availability = subsystem_availability(sub)
        availabilities.append(availability)
        results.append(
            Result(metric=f"subsystem[{i}].availability", value=availability, method="analytic")
        )
        if isinstance(sub, ChainSubsystem):
            results.append(
                Result(
                    metric=f"subsystem[{i}].mttf",
                    value=markov.mttf_absorbing(sub.chain, sub.start),
                    method="analytic",
                )
            )
    results.append(
        Result(
            metric="system.availability",
            value=_at_least(system.r, availabilities),
            method="analytic",
        )
    )
    return results
