"""MS/DR chain, attack superposition, and r-out-of-n composition tests."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from securakit import markov
from securakit.errors import DomainError
from securakit.markov import availability_two_state, build_two_state, steady_state
from securakit.montecarlo import MonteCarloConfig, estimate_occupancy
from securakit.rng import CounterRng
from securakit.securability import (
    ChainSubsystem,
    MsDrRates,
    RoutOfNSystem,
    ThreatProfile,
    build_msdr,
    combine_failure_and_attack,
    decompose,
    mtta,
    r_out_of_n_availability,
    service_availability,
    subsystem_availability,
)

SYMMETRIC = MsDrRates(lambda_ms=0.01, lambda_dr=0.01, mu_ms=0.1, mu_dr=0.1)


def product_form_pi(rates: MsDrRates) -> np.ndarray:
    """Independent-components oracle: tensor product of two-state vectors."""
    a_ms = rates.mu_ms / (rates.lambda_ms + rates.mu_ms)
    a_dr = rates.mu_dr / (rates.lambda_dr + rates.mu_dr)
    b_ms, b_dr = 1 - a_ms, 1 - a_dr
    return np.array([a_ms * a_dr, b_ms * a_dr, a_ms * b_dr, b_ms * b_dr])


def brute_force_at_least_r(ps, r) -> float:
    """2^n enumeration oracle for the r-out-of-n probability."""
    total = 0.0
    for outcome in itertools.product((1, 0), repeat=len(ps)):
        if sum(outcome) >= r:
            weight = 1.0
            for up, p in zip(outcome, ps):
                weight *= p if up else (1.0 - p)
            total += weight
    return total


class TestBuildMsdr:
    def test_canonical_transitions(self):
        rates = MsDrRates(0.01, 0.02, 0.1, 0.2)
        q = build_msdr(rates).generator
        assert q[0, 1] == rates.lambda_ms
        assert q[0, 2] == rates.lambda_dr
        assert q[1, 0] == rates.mu_ms
        assert q[2, 0] == rates.mu_dr
        assert q[1, 3] == rates.lambda_dr
        assert q[2, 3] == rates.lambda_ms
        assert q[3, 1] == rates.mu_dr
        assert q[3, 2] == rates.mu_ms
        assert q[0, 3] == 0.0 and q[3, 0] == 0.0

    def test_operational_flags(self):
        chain = build_msdr(SYMMETRIC)
        assert [s.operational for s in chain.space.states] == [True, True, True, False]

    def test_symmetric_steady_state_product_form(self):
        pi = steady_state(build_msdr(SYMMETRIC)).pi
        assert pi[3] == pytest.approx((1 / 11) ** 2, abs=1e-12)
        np.testing.assert_allclose(pi, product_form_pi(SYMMETRIC), rtol=0, atol=1e-10)

    def test_product_form_holds_for_random_rates(self):
        rng = CounterRng(seed=30)
        for _ in range(25):
            rates = MsDrRates(*(0.001 + rng.uniform() for _ in range(4)))
            pi = steady_state(build_msdr(rates)).pi
            np.testing.assert_allclose(pi, product_form_pi(rates), rtol=0, atol=1e-10)

    def test_instant_repair_limit(self):
        lam = 0.01
        rates = MsDrRates(lam, lam, 1e4 * lam, 1e4 * lam)
        pi = steady_state(build_msdr(rates)).pi
        assert pi[3] < 1e-7

    def test_single_repair_crew_topology(self):
        q = build_msdr(MsDrRates(0.01, 0.02, 0.1, 0.2), single_repair_crew=True).generator
        assert q[3, 2] == 0.1  # MS repaired first
        assert q[3, 1] == 0.0

    def test_single_crew_breaks_product_form_but_stays_available(self):
        concurrent = service_availability(SYMMETRIC, single_repair_crew=False)
        single = service_availability(SYMMETRIC, single_repair_crew=True)
        assert single < concurrent

    def test_occupancy_simulation_matches_analytic(self):
        chain = build_msdr(SYMMETRIC)
        cfg = MonteCarloConfig(n_trials=20_000, horizon=700.0, seed=31)
        est = estimate_occupancy(chain, 0, cfg, target_states=(3,), burn_in=100.0)
        assert abs(est.value - (1 / 11) ** 2) < 3 * est.std_error

    def test_rates_must_be_positive(self):
        with pytest.raises(DomainError):
            MsDrRates(0.0, 0.01, 0.1, 0.1)
        with pytest.raises(DomainError):
            MsDrRates(0.01, 0.01, 0.1, -0.1)


class TestServiceAvailability:
    def test_symmetric_value(self):
        assert service_availability(SYMMETRIC) == pytest.approx(1 - (1 / 11) ** 2, abs=1e-12)
        assert service_availability(SYMMETRIC) == pytest.approx(0.9917355, abs=5e-8)

    def test_redundancy_beats_single_component(self):
        single = availability_two_state(SYMMETRIC.lambda_ms, SYMMETRIC.mu_ms)
        assert single == pytest.approx(10 / 11, abs=1e-12)
        assert service_availability(SYMMETRIC) > single

    def test_redundancy_monotonicity_random_rates(self):
        rng = CounterRng(seed=32)
        for _ in range(25):
            rates = MsDrRates(*(0.001 + rng.uniform() for _ in range(4)))
            assert service_availability(rates) >= availability_two_state(
                rates.lambda_ms, rates.mu_ms
            )

    def test_broken_dr_reduces_to_two_state(self):
        rates = MsDrRates(lambda_ms=0.01, lambda_dr=1e6, mu_ms=0.1, mu_dr=0.1)
        expected = availability_two_state(0.01, 0.1)
        assert service_availability(rates) == pytest.approx(expected, abs=1e-3)


class TestAttacks:
    def test_rates_superpose(self):
        threat = ThreatProfile(attack_rate=0.005, applies_to="ms")
        assert combine_failure_and_attack(0.01, threat) == pytest.approx(0.015, rel=1e-12)

    def test_zero_attack_rate_is_identity(self):
        threat = ThreatProfile(attack_rate=0.0)
        assert combine_failure_and_attack(0.01, threat) == 0.01

    def test_requires_positive_failure_rate(self):
        with pytest.raises(DomainError):
            combine_failure_and_attack(0.0, ThreatProfile(attack_rate=0.1))

    def test_attacks_never_help(self):
        base = service_availability(SYMMETRIC)
        previous = base
        for attack in (0.001, 0.01, 0.1):
            lam = combine_failure_and_attack(SYMMETRIC.lambda_ms, ThreatProfile(attack))
            attacked = MsDrRates(lam, SYMMETRIC.lambda_dr, SYMMETRIC.mu_ms, SYMMETRIC.mu_dr)
            current = service_availability(attacked)
            assert current < previous
            previous = current

    def test_attacks_never_raise_mttf(self):
        previous = math.inf
        for attack in (0.0, 0.005, 0.05):
            lam = SYMMETRIC.lambda_ms + attack
            attacked = MsDrRates(lam, SYMMETRIC.lambda_dr, SYMMETRIC.mu_ms, SYMMETRIC.mu_dr)
            current = markov.mttf_absorbing(build_msdr(attacked), 0)
            assert current < previous
            previous = current

    def test_mtta_reciprocal(self):
        assert mtta(ThreatProfile(attack_rate=0.002)) == pytest.approx(500.0, rel=1e-12)

    def test_mtta_undefined_for_zero_rate(self):
        with pytest.raises(DomainError):
            mtta(ThreatProfile(attack_rate=0.0))

    def test_mtta_matches_simulated_first_attack(self):
        rate = 0.002
        draws = -np.log(CounterRng(seed=33).uniforms(100_000)) / rate
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - mtta(ThreatProfile(rate))) < 3 * se

    def test_attack_rate_must_be_nonnegative(self):
        with pytest.raises(DomainError):
            ThreatProfile(attack_rate=-0.1)


class TestRoutOfN:
    def test_parallel_pair(self):
        system = RoutOfNSystem(r=1, subsystems=(0.9, 0.9))
        assert r_out_of_n_availability(system) == pytest.approx(0.99, abs=1e-12)

    def test_series_pair(self):
        system = RoutOfNSystem(r=2, subsystems=(0.9, 0.9))
        assert r_out_of_n_availability(system) == pytest.approx(0.81, abs=1e-12)

    def test_worked_two_of_three(self):
        system = RoutOfNSystem(r=2, subsystems=(0.9, 0.8, 0.7))
        assert r_out_of_n_availability(system) == pytest.approx(0.902, abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        rng = CounterRng(seed=34)
        for _ in range(60):
            n = 1 + int(rng.uniform() * 12)
            r = 1 + int(rng.uniform() * n)
            ps = [rng.uniform() for _ in range(n)]
            system = RoutOfNSystem(r=r, subsystems=tuple(ps))
            assert r_out_of_n_availability(system) == pytest.approx(
                brute_force_at_least_r(ps, r), abs=1e-12
            )

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_boundary_identities(self, ps):
        parallel = RoutOfNSystem(r=1, subsystems=tuple(ps))
        series = RoutOfNSystem(r=len(ps), subsystems=tuple(ps))
        complement = 1.0
        product = 1.0
        for p in ps:
            complement *= 1.0 - p
            product *= p
        assert r_out_of_n_availability(parallel) == pytest.approx(1.0 - complement, abs=1e-12)
        assert r_out_of_n_availability(series) == pytest.approx(product, abs=1e-12)

    def test_chain_subsystems_are_resolved(self):
        chain = build_two_state(0.01, 0.1)
        system = RoutOfNSystem(r=1, subsystems=(ChainSubsystem(chain, 0), 0.5))
        p_chain = subsystem_availability(ChainSubsystem(chain, 0))
        assert p_chain == pytest.approx(10 / 11, abs=1e-12)
        assert r_out_of_n_availability(system) == pytest.approx(
            1 - (1 - p_chain) * 0.5, abs=1e-12
        )

    def test_invariants(self):
        with pytest.raises(DomainError):
            RoutOfNSystem(r=0, subsystems=(0.9,))
        with pytest.raises(DomainError):
            RoutOfNSystem(r=3, subsystems=(0.9, 0.9))
        with pytest.raises(DomainError):
            RoutOfNSystem(r=1, subsystems=())
        with pytest.raises(DomainError):
            RoutOfNSystem(r=1, subsystems=(1.5,))


class TestDecompose:
    def test_single_subsystem_equals_two_state_metrics(self):
        chain = build_two_state(0.01, 0.1)
        results = decompose(RoutOfNSystem(r=1, subsystems=(ChainSubsystem(chain, 0),)))
        values = {r.metric: r.value for r in results}
        assert values["subsystem[0].availability"] == pytest.approx(10 / 11, abs=1e-12)
        assert values["subsystem[0].mttf"] == pytest.approx(100.0, rel=1e-12)
        assert values["system.availability"] == values["subsystem[0].availability"]
        assert all(r.method == "analytic" for r in results)

    def test_two_of_three_identical_two_state_subsystems(self):
        # binomial oracle: p = 10/11, P(>=2 of 3) = 3 p^2 (1-p) + p^3 = 1300/1331
        chain = build_two_state(0.01, 0.1)
        system = RoutOfNSystem(r=2, subsystems=tuple(ChainSubsystem(chain, 0) for _ in range(3)))
        results = decompose(system)
        composed = next(r for r in results if r.metric == "system.availability")
        p = 10 / 11
        assert composed.value == pytest.approx(3 * p * p * (1 - p) + p ** 3, abs=1e-12)
        assert composed.value == pytest.approx(1300 / 1331, abs=1e-12)

    def test_composition_row_matches_direct_computation(self):
        system = RoutOfNSystem(r=2, subsystems=(0.9, 0.8, 0.7))
        results = decompose(system)
        composed = next(r for r in results if r.metric == "system.availability")
        assert composed.value == r_out_of_n_availability(system)

    def test_each_chain_steady_state_is_solved_once(self, monkeypatch):
        solve, solved = markov.steady_state, []
        monkeypatch.setattr(markov, "steady_state", lambda chain: solved.append(chain) or solve(chain))
        chains = (build_two_state(0.01, 0.1), build_two_state(0.02, 0.3))
        system = RoutOfNSystem(r=2, subsystems=(ChainSubsystem(chains[0]), 0.9, ChainSubsystem(chains[1])))
        results = decompose(system)
        assert solved == list(chains)
        composed = next(r for r in results if r.metric == "system.availability")
        assert composed.value == r_out_of_n_availability(system)

    def test_bare_subsystems_have_no_mttf_row(self):
        results = decompose(RoutOfNSystem(r=1, subsystems=(0.9,)))
        metrics = [r.metric for r in results]
        assert "subsystem[0].availability" in metrics
        assert "subsystem[0].mttf" not in metrics
