"""Monte Carlo engine tests: statistical oracles and reproducibility."""

import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from securakit import montecarlo
from securakit.errors import ConvergenceError, DomainError, StructureError, ValidationError
from securakit.markov import Ctmc, StateSpace, absorbing_variant, build_two_state, vet_absorption
from securakit.montecarlo import (
    Estimate,
    MonteCarloConfig,
    Trajectory,
    _binomial_estimate,
    _mean_estimate,
    estimate_mttf,
    estimate_occupancy,
    estimate_reliability,
    estimate_reliability_curve,
    estimate_threshold_reliability,
    simulate_trajectory,
)
from securakit.rng import CounterRng
from securakit.securability import ChainSubsystem, MsDrRates, RoutOfNSystem, build_msdr


def non_repairable(lam):
    space = StateSpace.from_labels(["up", "down"], [True, False])
    rates = np.zeros((2, 2))
    rates[0, 1] = lam
    return Ctmc.from_transition_rates(space, rates)


def markov_reliability(chain, t):
    from securakit.markov import reliability_at

    pi0 = np.zeros(chain.n)
    pi0[0] = 1.0
    return reliability_at(chain, pi0, t)


def series_chain(lam_a=0.1, lam_b=0.2):
    space = StateSpace.from_labels(["up", "degraded", "failed"], [True, True, False])
    rates = np.zeros((3, 3))
    rates[0, 1] = lam_a
    rates[1, 2] = lam_b
    return Ctmc.from_transition_rates(space, rates)


def degrading(a, b, c, d):
    """ok -> degraded -> bad chain with repair from degraded and from bad."""
    space = StateSpace.from_labels(["ok", "degraded", "bad"], [True, True, False])
    rates = np.zeros((3, 3))
    rates[0, 1], rates[1, 0], rates[1, 2], rates[2, 0] = a, b, c, d
    return Ctmc.from_transition_rates(space, rates)


def threshold_oracle(system, cfg):
    """Threshold reliability trial by trial from single-path simulations.

    Subsystem j of trial t draws from ``CounterRng(seed, t, substream=j)``;
    the status flips of all subsystems are merged in (time, subsystem,
    delta) order and the running operational count is checked at t=0 and
    after every flip.
    """
    n = system.n
    survivors = 0
    for trial in range(cfg.n_trials):
        up = 0
        flips = []
        for j, sub in enumerate(system.subsystems):
            stream = CounterRng(cfg.seed, trial, substream=j)
            if isinstance(sub, ChainSubsystem):
                flags = sub.chain.operational_mask()
                current = bool(flags[sub.start])
                up += current
                path = simulate_trajectory(sub.chain, sub.start, cfg.horizon, stream, cfg.max_events)
                for when, state in path.events:
                    now = bool(flags[state])
                    if now != current:
                        flips.append((when, j, 1 if now else -1))
                        current = now
            else:
                up += stream.uniform() <= sub
        ok = up / n >= cfg.threshold
        for _, _, delta in sorted(flips):
            up += delta
            ok = ok and up / n >= cfg.threshold
        survivors += ok
    return _binomial_estimate(survivors, cfg.n_trials)


class TestSampleExponential:
    def test_empirical_mean(self):
        rate = 0.5
        draws = -np.log(CounterRng(seed=42).uniforms(1_000_000)) / rate
        assert abs(draws.mean() - 2.0) < 3.0 * (2.0 / 1000.0)

    def test_empirical_survival(self):
        draws = -np.log(CounterRng(seed=43).uniforms(1_000_000))
        p = math.exp(-1.0)
        se = math.sqrt(p * (1 - p) / draws.size)
        assert abs((draws > 1.0).mean() - p) < 3 * se


class TestSimulateTrajectory:
    def test_zero_event_fraction_matches_first_jump_law(self):
        lam, mu, h = 0.05, 0.3, 10.0
        chain = build_two_state(lam, mu)
        n = 100_000
        empty = sum(
            not simulate_trajectory(chain, 0, h, CounterRng(seed=5, trial=i)).events
            for i in range(n)
        )
        p = math.exp(-lam * h)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(empty / n - p) < 3 * se

    def test_all_absorbing_chain_survives_without_events(self):
        space = StateSpace.from_labels(["a", "b"], [True, False])
        chain = Ctmc(space, np.zeros((2, 2)))
        path = simulate_trajectory(chain, 0, 100.0, CounterRng(seed=1))
        assert path.events == ()
        assert path.survived_horizon

    def test_competing_risks_proportions(self):
        space = StateSpace.from_labels(["s", "a", "b"], [True, False, False])
        rates = np.zeros((3, 3))
        rates[0, 1] = 0.3
        rates[0, 2] = 0.7
        chain = Ctmc.from_transition_rates(space, rates)
        n = 100_000
        hits_a = 0
        for i in range(n):
            path = simulate_trajectory(chain, 0, 1e9, CounterRng(seed=6, trial=i))
            hits_a += path.events[0][1] == 1
        se = math.sqrt(0.3 * 0.7 / n)
        assert abs(hits_a / n - 0.3) < 3 * se

    def test_absorption_is_recorded(self):
        chain = non_repairable(0.5)
        path = simulate_trajectory(chain, 0, 1e9, CounterRng(seed=7))
        assert path.events[-1][1] == 1
        assert path.absorbed_at == path.events[-1][0]

    def test_trajectory_legality(self):
        lam, mu = 0.4, 0.9
        chain = build_two_state(lam, mu)
        for trial in range(50):
            path = simulate_trajectory(chain, 0, 50.0, CounterRng(seed=8, trial=trial))
            times = [e[0] for e in path.events]
            assert all(b > a for a, b in zip(times, times[1:]))
            assert all(0 <= t <= 50.0 for t in times)
            state = 0
            for _, nxt in path.events:
                assert chain.generator[state, nxt] > 0
                state = nxt

    def test_trajectory_invariants_enforced(self):
        with pytest.raises(DomainError):
            Trajectory(events=((2.0, 1), (1.0, 0)))
        with pytest.raises(DomainError):
            Trajectory(events=((-1.0, 1),))


class TestEstimateReliability:
    def test_two_state_matches_exponential(self):
        chain = build_two_state(0.01, 0.1)
        cfg = MonteCarloConfig(n_trials=100_000, horizon=10.0, seed=3)
        est = estimate_reliability(chain, 0, cfg)
        assert abs(est.value - math.exp(-0.1)) < 3 * est.std_error
        assert 0.0 <= est.value <= 1.0
        assert est.n_effective == cfg.n_trials

    def test_zero_horizon_is_certain_survival(self):
        chain = build_two_state(0.01, 0.1)
        est = estimate_reliability(chain, 0, MonteCarloConfig(n_trials=1000, horizon=0.0, seed=3))
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_repairs_do_not_rescue(self):
        # huge repair rate must not raise reliability: failures absorb
        lam, h = 0.05, 10.0
        fast_repair = build_two_state(lam, 50.0)
        cfg = MonteCarloConfig(n_trials=50_000, horizon=h, seed=4)
        est = estimate_reliability(fast_repair, 0, cfg)
        assert abs(est.value - math.exp(-lam * h)) < 3 * est.std_error

    def test_start_must_be_operational(self):
        with pytest.raises(DomainError):
            estimate_reliability(
                build_two_state(0.1, 0.1), 1, MonteCarloConfig(n_trials=10, horizon=1.0, seed=0)
            )

    def test_msdr_agrees_with_analytic_reliability(self):
        chain = build_msdr(MsDrRates(0.01, 0.01, 0.1, 0.1))
        horizon = 50.0
        cfg = MonteCarloConfig(n_trials=50_000, horizon=horizon, seed=19)
        est = estimate_reliability(chain, 0, cfg)
        analytic = markov_reliability(chain, horizon)
        assert abs(est.value - analytic) < 3 * est.std_error

    def test_curve_is_monotone_and_consistent(self):
        chain = build_two_state(0.02, 0.1)
        cfg = MonteCarloConfig(n_trials=20_000, horizon=30.0, seed=5)
        grid = np.linspace(0.0, 30.0, 7)
        curve = estimate_reliability_curve(chain, 0, cfg, grid)
        assert np.all(np.diff(curve.value) <= 0)
        single = estimate_reliability(chain, 0, cfg)
        assert curve.value[-1] == pytest.approx(single.value, abs=3 * single.std_error)

    def test_curve_counts_equal_the_per_point_rule(self, monkeypatch):
        # ties with grid points, repeated times, never-absorbed trials; grid unsorted with repeats
        absorb = np.array([np.inf, 2.0, 0.5, 2.0, np.inf, 7.25, 0.0, 3.0, 2.0, 9.5])
        grid = [3.0, 0.0, 2.0, 9.5, 2.0, 0.25, 7.25, 10.0, 1e300, 2.0000001]
        monkeypatch.setattr(montecarlo, "_absorption_times", lambda *args: absorb.copy())
        cfg = MonteCarloConfig(n_trials=absorb.size, horizon=1.0, seed=0)
        curve = estimate_reliability_curve(build_two_state(0.1, 0.1), 0, cfg, grid)
        assert curve_points(curve) == [_binomial_estimate(int((absorb > t).sum()), absorb.size) for t in grid]

    def test_long_grid_costs_one_sort(self):
        # the per-point rule compared every trial with every point: 3 s here, and
        # one estimate object per point took most of another 0.5 s
        chain, grid = non_repairable(0.1), np.linspace(0.0, 50.0, 10 ** 5)
        cfg = MonteCarloConfig(n_trials=20_000, horizon=1.0, seed=3)
        elapsed = []
        for _ in range(2):
            start = time.perf_counter()
            curve = estimate_reliability_curve(chain, 0, cfg, grid)
            elapsed.append(time.perf_counter() - start)
        assert curve.value.shape == curve.std_error.shape == grid.shape
        assert min(elapsed) < 1.0


class TestEstimateMttf:
    def test_two_state_inverse_rate(self):
        chain = build_two_state(0.01, 0.1)
        cfg = MonteCarloConfig(n_trials=100_000, horizon=1.0, seed=6)
        est = estimate_mttf(chain, 0, cfg)
        assert abs(est.value - 100.0) < 3 * est.std_error
        assert est.value > 0

    def test_series_chain_stage_sum(self):
        cfg = MonteCarloConfig(n_trials=100_000, horizon=1.0, seed=7)
        est = estimate_mttf(series_chain(0.1, 0.2), 0, cfg)
        assert abs(est.value - 15.0) < 3 * est.std_error

    def test_msdr_matches_analytic(self):
        from securakit.markov import mttf_absorbing

        chain = build_msdr(MsDrRates(0.01, 0.01, 0.1, 0.1))
        cfg = MonteCarloConfig(n_trials=50_000, horizon=1.0, seed=8)
        est = estimate_mttf(chain, 0, cfg)
        assert abs(est.value - mttf_absorbing(chain, 0)) < 3 * est.std_error

    def test_runaway_guard(self):
        chain = build_msdr(MsDrRates(0.01, 0.01, 0.1, 0.1))
        cfg = MonteCarloConfig(n_trials=200, horizon=1.0, seed=9, max_events=5)
        with pytest.raises(ConvergenceError):
            estimate_mttf(chain, 0, cfg)

    def test_unreachable_failure_rejected(self):
        space = StateSpace.from_labels(["a", "b", "fail"], [True, True, False])
        rates = np.zeros((3, 3))
        rates[0, 1] = 0.5
        rates[1, 0] = 0.5
        rates[2, 0] = 1.0
        chain = Ctmc.from_transition_rates(space, rates)
        from securakit.errors import StructureError

        with pytest.raises(StructureError):
            estimate_mttf(chain, 0, MonteCarloConfig(n_trials=10, horizon=1.0, seed=0))


class TestAbsorptionPreconditions:
    """The reliability and MTTF estimators check their start state, and MTTF its failure set, before walking."""

    MSDR = build_msdr(MsDrRates(0.01, 0.01, 0.1, 0.1))
    CFG = MonteCarloConfig(n_trials=10, horizon=1.0, seed=0)
    ESTIMATORS = {
        "reliability": estimate_reliability,
        "reliability_curve": lambda chain, start, cfg: estimate_reliability_curve(chain, start, cfg, [1.0]),
        "mttf": estimate_mttf,
    }

    @pytest.mark.parametrize("name", ESTIMATORS)
    @pytest.mark.parametrize("start, message", [
        (9, "start state 9 out of range 0..3"),
        (3, "start state 3 must be operational"),
    ], ids=["out_of_range", "failed"])
    def test_start_state_messages(self, name, start, message):
        with pytest.raises(DomainError) as info:
            self.ESTIMATORS[name](self.MSDR, start, self.CFG)
        assert str(info.value) == message

    @pytest.mark.parametrize("labels, rates, message", [
        (["a", "b", "fail"], {(0, 1): 0.5, (1, 0): 0.5, (2, 0): 1.0},
         "no failure state is reachable from state 0"),
        (["a", "trap", "fail"], {(0, 1): 0.5, (0, 2): 0.5},
         "state 1 (trap) can be visited but cannot reach any failure state; expected hitting time is infinite"),
    ], ids=["none_reachable", "trap"])
    def test_mttf_unreachable_failure_message(self, labels, rates, message):
        matrix = np.zeros((3, 3))
        for (i, j), rate in rates.items():
            matrix[i, j] = rate
        chain = Ctmc.from_transition_rates(StateSpace.from_labels(labels, [True, True, False]), matrix)
        with pytest.raises(StructureError) as info:
            estimate_mttf(chain, 0, self.CFG)
        assert str(info.value) == message


class TestOccupancy:
    def test_two_state_down_fraction(self):
        lam, mu = 0.05, 0.2
        chain = build_two_state(lam, mu)
        cfg = MonteCarloConfig(n_trials=20_000, horizon=600.0, seed=10)
        est = estimate_occupancy(chain, 0, cfg, target_states=(1,), burn_in=100.0)
        assert abs(est.value - lam / (lam + mu)) < 3 * est.std_error

    def test_burn_in_bounds(self):
        chain = build_two_state(0.05, 0.2)
        cfg = MonteCarloConfig(n_trials=10, horizon=10.0, seed=0)
        with pytest.raises(DomainError):
            estimate_occupancy(chain, 0, cfg, target_states=(1,), burn_in=10.0)


class TestThresholdReliability:
    def test_single_subsystem_reduces_to_reliability(self):
        lam, mu, h = 0.03, 0.2, 10.0
        chain = build_two_state(lam, mu)
        cfg = MonteCarloConfig(n_trials=20_000, horizon=h, seed=11, threshold=1.0)
        thr = estimate_threshold_reliability(
            RoutOfNSystem(r=1, subsystems=(ChainSubsystem(chain, 0),)), cfg
        )
        direct = estimate_reliability(chain, 0, cfg)
        # identical streams and stopping rule: the trials coincide exactly
        assert thr.value == direct.value

    def test_three_subsystems_first_failure_kills_system(self):
        lam, h = 0.05, 5.0
        subs = tuple(ChainSubsystem(non_repairable(lam), 0) for _ in range(3))
        cfg = MonteCarloConfig(n_trials=20_000, horizon=h, seed=12, threshold=0.67)
        est = estimate_threshold_reliability(RoutOfNSystem(r=3, subsystems=subs), cfg)
        expected = math.exp(-3 * lam * h)
        assert abs(est.value - expected) < 3 * est.std_error

    def test_two_subsystems_parallel(self):
        lam, h = 0.05, 5.0
        subs = tuple(ChainSubsystem(non_repairable(lam), 0) for _ in range(2))
        cfg = MonteCarloConfig(n_trials=20_000, horizon=h, seed=13, threshold=0.5)
        est = estimate_threshold_reliability(RoutOfNSystem(r=1, subsystems=subs), cfg)
        expected = 1.0 - (1.0 - math.exp(-lam * h)) ** 2
        assert abs(est.value - expected) < 3 * est.std_error

    def test_bare_probability_subsystems(self):
        cfg = MonteCarloConfig(n_trials=50_000, horizon=1.0, seed=14, threshold=1.0)
        est = estimate_threshold_reliability(RoutOfNSystem(r=2, subsystems=(0.7, 0.7)), cfg)
        se = math.sqrt(0.49 * 0.51 / cfg.n_trials)
        assert abs(est.value - 0.49) < 3 * se

    # lane caps: one subsystem per walk, and the default, which merges every subsystem here
    MERGED_LANES = pytest.mark.parametrize("merged_lanes", [1, montecarlo._MERGED_LANES],
                                           ids=["one_per_walk", "merged"])

    @MERGED_LANES
    @pytest.mark.parametrize("threshold", [1.0, 0.75, 0.5, 0.25])
    def test_four_degrading_subsystems_equal_scalar_oracle(self, monkeypatch, threshold, merged_lanes):
        # a minimum slice of 1 trial makes 3 threads really split these small jobs
        monkeypatch.setattr(montecarlo, "_MIN_SLICE", 1)
        monkeypatch.setattr(montecarlo, "_MERGED_LANES", merged_lanes)
        system = RoutOfNSystem(r=4, subsystems=tuple(
            degrading(0.5 + 0.05 * k, 0.3, 0.5, 0.2 - 0.03 * k) for k in range(4)
        ))
        for seed in (1, 2, 3):
            cfg = MonteCarloConfig(n_trials=150, horizon=4.0, seed=seed, threshold=threshold)
            expected = threshold_oracle(system, cfg)
            assert 0.0 < expected.value < 1.0
            assert estimate_threshold_reliability(system, cfg, threads=1) == expected
            assert estimate_threshold_reliability(system, cfg, threads=3) == expected

    @MERGED_LANES
    @pytest.mark.parametrize("threshold", [1.0, 0.6, 0.4, 0.2])
    def test_bare_probabilities_mixed_with_chains_equal_scalar_oracle(self, monkeypatch, threshold,
                                                                       merged_lanes):
        monkeypatch.setattr(montecarlo, "_MIN_SLICE", 1)
        monkeypatch.setattr(montecarlo, "_MERGED_LANES", merged_lanes)
        system = RoutOfNSystem(r=1, subsystems=(
            0.9,
            build_two_state(0.2, 1.0),
            ChainSubsystem(build_two_state(0.3, 0.6), start=1),
            0.6,
            non_repairable(0.1),
        ))
        for seed in (4, 5, 6):
            cfg = MonteCarloConfig(n_trials=200, horizon=5.0, seed=seed, threshold=threshold)
            expected = threshold_oracle(system, cfg)
            assert estimate_threshold_reliability(system, cfg, threads=1) == expected
            assert estimate_threshold_reliability(system, cfg, threads=3) == expected

    def test_single_subsystem_equals_scalar_oracle(self):
        system = RoutOfNSystem(r=1, subsystems=(degrading(0.4, 0.5, 0.3, 0.2),))
        for seed in range(7, 12):
            cfg = MonteCarloConfig(n_trials=300, horizon=6.0, seed=seed)
            expected = threshold_oracle(system, cfg)
            assert estimate_threshold_reliability(system, cfg, threads=1) == expected
            assert estimate_threshold_reliability(system, cfg, threads=3) == expected

    def test_no_walk_holds_more_lanes_than_the_cap(self, monkeypatch):
        assert montecarlo._MERGED_LANES == 1 << 16
        lanes = []
        walk = montecarlo._walk_batch

        def counted(kernel, start, lo, hi, *args, **kwargs):
            lanes.append((hi - lo) * np.size(start))
            return walk(kernel, start, lo, hi, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "_walk_batch", counted)
        system = RoutOfNSystem(r=1, subsystems=(0.9, *(build_two_state(0.1, 1.0) for _ in range(5))))
        # (trials, threads): 3 subsystems fit in one walk of 20 000 trials, none beside 70 000,
        # and 2 threads walk slices of 50 000 trials
        for n_trials, threads, expected in ((100, 1, [500]), (20_000, 1, [60_000, 40_000]),
                                            (70_000, 1, [70_000] * 5), (100_000, 2, [50_000] * 10)):
            lanes.clear()
            cfg = MonteCarloConfig(n_trials=n_trials, horizon=0.5, seed=3, threshold=0.5)
            estimate_threshold_reliability(system, cfg, threads=threads)
            assert lanes == expected
            assert max(lanes) <= max(n_trials // threads, 1 << 16)

    def test_makes_no_single_path_or_scalar_draw(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scalar path used")

        monkeypatch.setattr(montecarlo, "simulate_trajectory", refuse)
        monkeypatch.setattr(CounterRng, "uniform", refuse)
        monkeypatch.setattr(CounterRng, "uniform_pair", refuse)
        system = RoutOfNSystem(r=2, subsystems=(build_two_state(0.1, 0.5), 0.8, degrading(0.2, 0.4, 0.1, 0.3)))
        cfg = MonteCarloConfig(n_trials=500, horizon=10.0, seed=18, threshold=0.5)
        assert 0.0 < estimate_threshold_reliability(system, cfg, threads=2).value <= 1.0

    def test_event_cap_raises(self):
        system = RoutOfNSystem(r=1, subsystems=(0.5, build_two_state(1.0, 1.0)))
        cfg = MonteCarloConfig(n_trials=50, horizon=100.0, seed=19, threshold=0.5, max_events=20)
        with pytest.raises(ConvergenceError):
            estimate_threshold_reliability(system, cfg)


class TestEventCapMessages:
    """A horizon-capped walk blames the horizon; only the uncapped MTTF walk suspects the failure set."""

    CHAIN = degrading(5.0, 5.0, 0.01, 1.0)  # fast ok <-> degraded churn, failure rare
    CFG = MonteCarloConfig(n_trials=50, horizon=100.0, seed=23, max_events=5)
    HORIZON_CAPPED = "a trial exceeded 5 events before horizon 100; raise max_events"

    def test_reliability(self):
        with pytest.raises(ConvergenceError) as info:
            estimate_reliability(self.CHAIN, 0, self.CFG)
        assert str(info.value) == self.HORIZON_CAPPED

    def test_reliability_curve(self):
        with pytest.raises(ConvergenceError) as info:
            estimate_reliability_curve(self.CHAIN, 0, self.CFG, [50.0])
        assert str(info.value) == self.HORIZON_CAPPED

    def test_threshold_reliability(self):
        system = RoutOfNSystem(r=1, subsystems=(0.5, self.CHAIN))
        with pytest.raises(ConvergenceError) as info:
            estimate_threshold_reliability(system, self.CFG)
        assert str(info.value) == self.HORIZON_CAPPED

    @pytest.mark.parametrize("horizon", [None, 1e9])
    def test_cap_counts_jumps_exactly(self, horizon):
        # every trial of this chain makes exactly 4 jumps: up0 -> up1 -> up2 -> up3 -> down
        space = StateSpace.from_labels(["up0", "up1", "up2", "up3", "down"], [True] * 4 + [False])
        rates = np.zeros((5, 5))
        for i in range(4):
            rates[i, i + 1] = 1.0
        chain = Ctmc.from_transition_rates(space, rates)
        for cap, fails in ((4, False), (3, True)):
            cfg = MonteCarloConfig(n_trials=20, horizon=1.0, seed=3, max_events=cap)
            run = (lambda: estimate_mttf(chain, 0, cfg)) if horizon is None else (
                lambda: estimate_reliability_curve(chain, 0, cfg, [horizon]))
            if fails:
                with pytest.raises(ConvergenceError):
                    run()
            else:
                run()

    def test_mttf(self):
        with pytest.raises(ConvergenceError) as info:
            estimate_mttf(self.CHAIN, 0, self.CFG)
        assert str(info.value) == (
            "a trial exceeded 5 events; the failure set may be effectively unreachable"
        )


class TestReproducibility:
    def test_same_seed_same_result(self):
        chain = build_two_state(0.01, 0.1)
        cfg = MonteCarloConfig(n_trials=30_000, horizon=10.0, seed=15)
        assert estimate_reliability(chain, 0, cfg) == estimate_reliability(chain, 0, cfg)

    def test_thread_count_cannot_change_results(self):
        chain = build_msdr(MsDrRates(0.01, 0.02, 0.1, 0.15))
        cfg = MonteCarloConfig(n_trials=20_000, horizon=50.0, seed=16)
        a = estimate_reliability(chain, 0, cfg, threads=1)
        b = estimate_reliability(chain, 0, cfg, threads=8)
        assert a == b
        ma = estimate_mttf(chain, 0, cfg, threads=1)
        mb = estimate_mttf(chain, 0, cfg, threads=5)
        assert ma == mb
        system = RoutOfNSystem(r=1, subsystems=(ChainSubsystem(chain, 0), 0.9))
        ta = estimate_threshold_reliability(system, cfg, threads=1)
        tb = estimate_threshold_reliability(system, cfg, threads=3)
        assert ta == tb

    def test_different_seeds_differ(self):
        chain = build_two_state(0.01, 0.1)
        a = estimate_reliability(chain, 0, MonteCarloConfig(n_trials=30_000, horizon=10.0, seed=1))
        b = estimate_reliability(chain, 0, MonteCarloConfig(n_trials=30_000, horizon=10.0, seed=2))
        assert a.value != b.value

    def test_statistical_consistency_over_seeds(self):
        lam, h = 0.01, 10.0
        chain = build_two_state(lam, 0.1)
        truth = math.exp(-lam * h)
        hits = 0
        for seed in range(20):
            est = estimate_reliability(chain, 0, MonteCarloConfig(n_trials=20_000, horizon=h, seed=seed))
            hits += abs(est.value - truth) <= 3 * est.std_error
        assert hits >= 19

    def test_ci_width_scales_with_sqrt_n(self):
        lam, h = 0.05, 10.0
        chain = build_two_state(lam, 0.1)
        widths = {}
        for n in (1000, 10_000):
            est = estimate_reliability(chain, 0, MonteCarloConfig(n_trials=n, horizon=h, seed=17))
            widths[n] = est.ci95[1] - est.ci95[0]
        ratio = widths[1000] / widths[10_000]
        assert ratio == pytest.approx(math.sqrt(10.0), rel=0.25)


class TestConfigAndEstimate:
    def test_config_invariants(self):
        with pytest.raises(DomainError):
            MonteCarloConfig(n_trials=0, horizon=1.0, seed=0)
        with pytest.raises(DomainError):
            MonteCarloConfig(n_trials=10, horizon=-1.0, seed=0)
        with pytest.raises(DomainError):
            MonteCarloConfig(n_trials=10, horizon=1.0, seed=-1)
        with pytest.raises(DomainError):
            MonteCarloConfig(n_trials=10, horizon=1.0, seed=0, threshold=0.0)
        with pytest.raises(DomainError):
            MonteCarloConfig(n_trials=10, horizon=1.0, seed=0, threshold=1.5)

    def test_estimate_invariants(self):
        with pytest.raises(DomainError):
            Estimate(value=0.5, std_error=-0.1, ci95=(0.4, 0.6), n_effective=10)
        with pytest.raises(DomainError):
            Estimate(value=0.9, std_error=0.1, ci95=(0.4, 0.6), n_effective=10)
        # a curve is checked entry by entry: one bad point among good ones is rejected
        lo, hi = np.array([0.4, 0.5, 0.6]), np.array([0.6, 0.7, 0.8])
        Estimate(value=np.array([0.5, 0.6, 0.7]), std_error=np.full(3, 0.05), ci95=(lo, hi), n_effective=10)
        with pytest.raises(DomainError):
            Estimate(value=np.array([0.5, 0.9, 0.7]), std_error=np.full(3, 0.05), ci95=(lo, hi), n_effective=10)
        with pytest.raises(DomainError):
            Estimate(value=np.array([0.5, 0.6, 0.7]), std_error=np.array([0.05, -0.1, 0.05]), ci95=(lo, hi),
                     n_effective=10)

    def test_ci_contains_value_and_is_clamped(self):
        chain = build_two_state(0.001, 0.1)
        est = estimate_reliability(chain, 0, MonteCarloConfig(n_trials=500, horizon=1.0, seed=18))
        lo, hi = est.ci95
        assert lo <= est.value <= hi
        assert hi <= 1.0


# --- walker oracles: every estimator rebuilt trial by trial from simulate_trajectory


def _first_failure(chain, path):
    """Entry time of the path's first non-operational state, or inf."""
    flags = chain.operational_mask()
    return next((when for when, state in path.events if not flags[state]), math.inf)


def reliability_curve_oracle(chain, start, cfg, times):
    horizon = max(max(times), cfg.horizon)
    fail = [
        _first_failure(chain, simulate_trajectory(
            chain, start, horizon, CounterRng(cfg.seed, trial), cfg.max_events))
        for trial in range(cfg.n_trials)
    ]
    return [_binomial_estimate(sum(f > t for f in fail), cfg.n_trials) for t in times]


def curve_points(curve):
    """A curve's array estimate as one float Estimate per point, for comparison with the oracle."""
    columns = (curve.value.tolist(), curve.std_error.tolist(), *(bound.tolist() for bound in curve.ci95))
    return [Estimate(v, se, (lo, hi), curve.n_effective) for v, se, lo, hi in zip(*columns)]


def mttf_oracle(chain, start, cfg):
    absorbing = absorbing_variant(chain)
    ttf = [
        simulate_trajectory(absorbing, start, math.inf, CounterRng(cfg.seed, trial),
                            cfg.max_events).absorbed_at
        for trial in range(cfg.n_trials)
    ]
    return _mean_estimate(np.array(ttf), clamp_low=0.0)


def occupancy_oracle(chain, start, cfg, target_states, burn_in):
    def clip(x):
        return min(max(x, burn_in), cfg.horizon)

    fractions = []
    for trial in range(cfg.n_trials):
        path = simulate_trajectory(chain, start, cfg.horizon, CounterRng(cfg.seed, trial),
                                   cfg.max_events)
        occupied, state, since = 0.0, start, 0.0
        for when, nxt in (*path.events, (cfg.horizon, None)):
            if state in target_states:
                occupied += clip(when) - clip(since)
            state, since = nxt, when
        fractions.append(occupied / (cfg.horizon - burn_in))
    return _mean_estimate(np.array(fractions), clamp_low=0.0)


@st.composite
def walker_chains(draw):
    """Random chains of 2-12 states whose rows reach out-degree 11.

    An optional hub row exits to every other state, so the walker's search
    runs up to 4 rounds; the start state may have no exits at all.
    """
    n = draw(st.integers(2, 12))
    rate = st.floats(0.05, 4.0)
    rates = np.zeros((n, n))
    hub = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    for i in range(n):
        for j in range(n):
            if i != j and (i == hub or draw(st.booleans())):
                rates[i, j] = draw(rate)
    flags = [True] + [draw(st.booleans()) for _ in range(n - 1)]
    if draw(st.booleans()):
        rates[0] = 0.0  # a stuck start state
    space = StateSpace.from_labels([f"s{i}" for i in range(n)], flags)
    return Ctmc.from_transition_rates(space, rates)


WALK_SETTINGS = settings(max_examples=40, deadline=None)


def outcome(compute):
    """What ``compute()`` returns, or ``ConvergenceError`` if it hits the event cap."""
    try:
        return compute()
    except ConvergenceError:
        return ConvergenceError


class TestWalkerEqualsTrajectoryOracle:
    """Each estimator equals its trial-by-trial rebuild exactly, at 1 and 3 threads.

    ``_MIN_SLICE`` is 1 so that 3 threads really split these small jobs.
    The event caps end a walk that never stops (on a broken walker, or a
    chain whose failure set is nearly unreachable) with a ConvergenceError,
    which both sides must then raise.
    """

    HORIZON_CAP = 10_000  # horizons <= 6 at rates <= 44 need a few hundred jumps
    MTTF_CAP = 20_000

    @staticmethod
    def at_thread_counts(estimate):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_MIN_SLICE", 1)
            return [outcome(lambda: estimate(threads)) for threads in (1, 3)]

    @WALK_SETTINGS
    @given(chain=walker_chains(), seed=st.integers(0, 2 ** 64 - 1),
           horizon=st.floats(0.0, 6.0))
    def test_reliability(self, chain, seed, horizon):
        cfg = MonteCarloConfig(n_trials=37, horizon=horizon, seed=seed, max_events=self.HORIZON_CAP)
        expected = outcome(lambda: reliability_curve_oracle(chain, 0, cfg, [horizon])[0])
        got = self.at_thread_counts(lambda th: estimate_reliability(chain, 0, cfg, threads=th))
        assert got == [expected, expected]

    @WALK_SETTINGS
    @given(chain=walker_chains(), seed=st.integers(0, 2 ** 64 - 1),
           times=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=5))
    def test_reliability_curve(self, chain, seed, times):
        cfg = MonteCarloConfig(n_trials=37, horizon=2.0, seed=seed, max_events=self.HORIZON_CAP)
        expected = outcome(lambda: reliability_curve_oracle(chain, 0, cfg, times))
        got = self.at_thread_counts(
            lambda th: curve_points(estimate_reliability_curve(chain, 0, cfg, times, threads=th)))
        assert got == [expected, expected]

    @WALK_SETTINGS
    @given(chain=walker_chains(), seed=st.integers(0, 2 ** 64 - 1))
    def test_mttf(self, chain, seed):
        try:
            vet_absorption(chain, 0)
        except ValidationError:
            assume(False)
        cfg = MonteCarloConfig(n_trials=23, horizon=1.0, seed=seed, max_events=self.MTTF_CAP)
        expected = outcome(lambda: mttf_oracle(chain, 0, cfg))
        got = self.at_thread_counts(lambda th: estimate_mttf(chain, 0, cfg, threads=th))
        assert got == [expected, expected]

    @WALK_SETTINGS
    @given(chain=walker_chains(), seed=st.integers(0, 2 ** 64 - 1),
           data=st.data())
    def test_occupancy(self, chain, seed, data):
        start = data.draw(st.integers(0, chain.n - 1))
        targets = tuple(data.draw(st.sets(st.integers(0, chain.n - 1), min_size=1)))
        horizon = data.draw(st.floats(0.5, 6.0))
        burn_in = data.draw(st.floats(0.0, horizon / 2))
        cfg = MonteCarloConfig(n_trials=29, horizon=horizon, seed=seed, max_events=self.HORIZON_CAP)
        expected = outcome(lambda: occupancy_oracle(chain, start, cfg, targets, burn_in))
        got = self.at_thread_counts(
            lambda th: estimate_occupancy(chain, start, cfg, targets, burn_in, threads=th))
        assert got == [expected, expected]

    def test_hub_chain_needs_four_search_rounds(self):
        rates = np.full((10, 10), 0.3)
        np.fill_diagonal(rates, 0.0)
        space = StateSpace.from_labels([f"s{i}" for i in range(10)], [True] * 9 + [False])
        chain = Ctmc.from_transition_rates(space, rates)
        assert montecarlo._ChainKernel(chain)._rounds == 4
        cfg = MonteCarloConfig(n_trials=300, horizon=3.0, seed=31, max_events=self.HORIZON_CAP)
        assert estimate_mttf(chain, 0, cfg) == mttf_oracle(chain, 0, cfg)
        curve = reliability_curve_oracle(chain, 0, cfg, [0.5, 3.0])
        assert curve_points(estimate_reliability_curve(chain, 0, cfg, [0.5, 3.0])) == curve
        assert estimate_reliability(chain, 0, cfg) == curve[1]
        assert estimate_occupancy(chain, 0, cfg, (0, 9), 1.0) == occupancy_oracle(chain, 0, cfg, (0, 9), 1.0)


class TestChainKernelChoose:
    @staticmethod
    def searchsorted_choice(kernel, states, u):
        out = []
        for s, x in zip(states, u):
            lo, hi = kernel.offsets[s], kernel.offsets[s + 1]
            out.append(kernel.targets[lo + np.searchsorted(kernel.cumprobs[lo:hi], x, side="left")])
        return np.array(out, dtype=np.int64)

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 10, 17, 33])
    def test_equals_searchsorted_left_including_boundaries(self, n):
        gen = np.random.default_rng(n)
        rates = gen.uniform(0.1, 2.0, (n, n)) * (gen.random((n, n)) < 0.6)
        rates[0] = gen.uniform(0.1, 2.0, n)  # a hub reaching every other state
        np.fill_diagonal(rates, 0.0)
        rates[n - 1] = 0.0  # no exits
        chain = Ctmc.from_transition_rates(StateSpace.from_labels([str(i) for i in range(n)], [True] * n),
                                           rates)
        kernel = montecarlo._ChainKernel(chain)
        live = np.flatnonzero(np.diff(kernel.offsets) > 0)
        states, u = [], []
        for s in live:
            cp = kernel.cumprobs[kernel.offsets[s]:kernel.offsets[s + 1]]
            # every cumulative boundary, its neighbours, and the ends of (0, 1]
            for x in (*cp, *np.nextafter(cp, 0.0), *np.nextafter(cp, 2.0), 2.0 ** -53, 1.0):
                if 0.0 < x <= 1.0:
                    states.append(s)
                    u.append(x)
        states = np.array(states, dtype=np.int64)
        u = np.array(u)
        assert np.array_equal(kernel.choose(states, u), self.searchsorted_choice(kernel, states, u))

    def test_round_count(self):
        for degree, rounds in ((1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (16, 4), (17, 5)):
            rates = np.zeros((degree + 1, degree + 1))
            rates[0, 1:] = 1.0
            chain = Ctmc.from_transition_rates(
                StateSpace.from_labels([str(i) for i in range(degree + 1)], [True] * (degree + 1)), rates)
            assert montecarlo._ChainKernel(chain)._rounds == rounds


class TestUnionKernel:
    def test_union_walk_equals_one_walk_per_part(self):
        kernels = [montecarlo._ChainKernel(absorbing_variant(chain)) for chain in
                   (non_repairable(0.3), series_chain(0.5, 0.4), degrading(0.5, 0.3, 0.5, 0.2))]
        starts, substreams = [0, 1, 0], np.array([4, 0, 9])
        union, union_starts = montecarlo._ChainKernel.union(kernels, starts)
        assert union_starts.tolist() == [0, 2 + 1, 2 + 3 + 0]
        assert union._rounds == max(k._rounds for k in kernels)
        mask = np.concatenate([k.operational for k in kernels])
        absorb, occupancy = montecarlo._walk_batch(union, union_starts, 5, 45, 123, substreams, 6.0,
                                                   10_000, occupancy_mask=mask, burn_in=1.0)
        for i, kernel in enumerate(kernels):
            alone = montecarlo._walk_batch(kernel, starts[i], 5, 45, 123, int(substreams[i]), 6.0,
                                           10_000, occupancy_mask=kernel.operational, burn_in=1.0)
            # lane (t, i) sits at (t - lo) * 3 + i
            assert np.array_equal(absorb[i::3], alone[0])
            assert np.array_equal(occupancy[i::3], alone[1])
        assert np.isfinite(absorb).any() and np.isinf(absorb).any()


class TestPartition:
    def test_small_jobs_run_on_one_thread(self, monkeypatch):
        slices = []
        monkeypatch.setattr(montecarlo, "_MIN_SLICE", 10)
        for n_trials, threads, expected in ((9, 4, 1), (10, 4, 1), (11, 4, 2), (25, 8, 3), (25, 2, 2)):
            slices.clear()
            montecarlo._run_partitioned(lambda lo, hi: slices.append((lo, hi)), n_trials, threads)
            assert len(slices) == expected
            assert sorted(slices)[0][0] == 0 and sorted(slices)[-1][1] == n_trials

    def test_cut_keeps_large_walks_threaded(self):
        assert -(-300_000 // montecarlo._MIN_SLICE) >= 2
        assert -(-20_000 // montecarlo._MIN_SLICE) == 1
