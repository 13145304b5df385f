"""Chain engine tests: construction, steady state, transients, hitting times."""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import poisson

from securakit.errors import ConvergenceError, DomainError, SingularSystemError, StructureError
from securakit.markov import (
    UNIFORMIZATION_TAIL,
    Ctmc,
    ProbabilityVector,
    StateSpace,
    absorbing_variant,
    availability_at,
    availability_steady,
    availability_two_state,
    build_two_state,
    mttf_absorbing,
    mttf_rate_sum,
    mttr,
    reliability_at,
    steady_state,
    transient,
    transient_grid,
    _poisson_weights,
    _vet_hitting_states,
    vet_absorption,
)
from securakit.rng import CounterRng

rates_pairs = st.tuples(
    st.floats(min_value=1e-4, max_value=10.0), st.floats(min_value=1e-4, max_value=10.0)
)


def series_chain(lam_a=0.1, lam_b=0.2):
    """up -> degraded -> failed, no repair."""
    space = StateSpace.from_labels(["up", "degraded", "failed"], [True, True, False])
    rates = np.zeros((3, 3))
    rates[0, 1] = lam_a
    rates[1, 2] = lam_b
    return Ctmc.from_transition_rates(space, rates)


def random_chain(rng, n_states=4):
    """Irreducible chain with a random operational pattern (>=1 of each)."""
    rates = np.array([[rng.uniform() for _ in range(n_states)] for _ in range(n_states)])
    ops = [rng.uniform() < 0.5 for _ in range(n_states)]
    ops[0] = True
    ops[-1] = False
    space = StateSpace.from_labels([f"s{i}" for i in range(n_states)], ops)
    return Ctmc.from_transition_rates(space, rates)


class TestConstruction:
    def test_two_state_generator(self):
        chain = build_two_state(0.01, 0.1)
        np.testing.assert_array_equal(chain.generator, [[-0.01, 0.01], [0.1, -0.1]])
        assert chain.space.states[0].operational
        assert not chain.space.states[1].operational

    def test_nonpositive_rates_rejected(self):
        for lam, mu in [(0, 0.1), (0.1, 0), (-1, 1), (1, -1)]:
            with pytest.raises(DomainError):
                build_two_state(lam, mu)

    def test_generator_row_sums_validated(self):
        space = StateSpace.from_labels(["a", "b"], [True, False])
        with pytest.raises(DomainError):
            Ctmc(space, np.array([[-0.5, 0.4], [0.1, -0.1]]))

    def test_negative_off_diagonal_rejected(self):
        space = StateSpace.from_labels(["a", "b"], [True, False])
        with pytest.raises(DomainError):
            Ctmc(space, np.array([[0.1, -0.1], [-0.1, 0.1]]))

    def test_state_space_needs_operational_state(self):
        with pytest.raises(DomainError):
            StateSpace.from_labels(["a", "b"], [False, False])

    def test_state_ids_dense(self):
        from securakit.markov import State

        with pytest.raises(DomainError):
            StateSpace((State(0, "a", True), State(2, "b", False)))

    def test_generator_rows_sum_zero_invariant(self):
        rng = CounterRng(seed=3)
        for _ in range(20):
            chain = random_chain(rng)
            assert np.all(np.abs(chain.generator.sum(axis=1)) <= 1e-12)


class TestDiscretize:
    """Power iteration of the first-order step matrix P = I + dt*Q."""

    def test_power_iteration_matches_steady_state(self):
        rng = CounterRng(seed=5)
        for _ in range(10):
            chain = random_chain(rng)
            for frac in (0.1, 0.9):
                p = np.eye(chain.n) + frac / chain.exit_rates().max() * chain.generator
                v = np.full(chain.n, 1.0 / chain.n)
                for _ in range(200_000):
                    nxt = v @ p
                    if np.abs(nxt - v).max() < 1e-14:
                        v = nxt
                        break
                    v = nxt
                np.testing.assert_allclose(v, steady_state(chain).pi, rtol=0, atol=1e-8)


class TestSteadyState:
    def test_two_state_closed_form(self):
        pi = steady_state(build_two_state(0.01, 0.1))
        np.testing.assert_allclose(pi.pi, [10 / 11, 1 / 11], rtol=0, atol=1e-15)

    def test_symmetric_two_state(self):
        pi = steady_state(build_two_state(0.3, 0.3))
        np.testing.assert_allclose(pi.pi, [0.5, 0.5], rtol=0, atol=1e-15)

    def test_random_rates_match_closed_form(self):
        rng = CounterRng(seed=6)
        for _ in range(50):
            lam = 10 ** (rng.uniform() * 4 - 3)
            mu = 10 ** (rng.uniform() * 4 - 3)
            pi = steady_state(build_two_state(lam, mu))
            assert pi.pi[0] == pytest.approx(mu / (lam + mu), abs=1e-12)
            assert pi.pi[1] == pytest.approx(lam / (lam + mu), abs=1e-12)

    def test_residual_invariant(self):
        rng = CounterRng(seed=7)
        for _ in range(20):
            chain = random_chain(rng)
            pi = steady_state(chain)
            assert np.abs(pi.pi @ chain.generator).max() < 1e-10
            assert abs(pi.pi.sum() - 1.0) <= 1e-12

    def test_reducible_chain_rejected(self):
        space = StateSpace.from_labels(["up", "dead"], [True, False])
        chain = Ctmc(space, np.array([[-0.1, 0.1], [0.0, 0.0]]))
        with pytest.raises(StructureError):
            steady_state(chain)

    @pytest.mark.parametrize("lam, mu", [(1e8, 2e8), (3e9, 1e10)])
    def test_fast_rates_match_closed_form(self, lam, mu):
        pi = steady_state(build_two_state(lam, mu))
        assert pi.pi[0] == pytest.approx(mu / (lam + mu), abs=1e-12)
        assert pi.pi[1] == pytest.approx(lam / (lam + mu), abs=1e-12)

    @pytest.mark.parametrize("lam, mu", [(0.01, 0.1), (1e8, 2e8), (3e9, 1e10)])
    def test_wrong_pi_still_rejected(self, monkeypatch, lam, mu):
        solve = np.linalg.solve

        def perturbed(a, b):
            pi = solve(a, b)
            shift = 1e-6 * pi[0]  # relative error 1e-6, total mass unchanged
            pi[0] += shift
            pi[1] -= shift
            return pi

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        with pytest.raises(SingularSystemError, match="steady-state residual"):
            steady_state(build_two_state(lam, mu))


class TestTransient:
    def test_identity_at_time_zero(self):
        chain = build_two_state(0.01, 0.1)
        out = transient(chain, [0.25, 0.75], 0.0)
        np.testing.assert_array_equal(out.pi, [0.25, 0.75])

    def test_two_state_closed_form_grid(self):
        lam, mu = 0.01, 0.1
        chain = build_two_state(lam, mu)
        for t in np.linspace(0.0, 200.0, 20):
            expected = mu / (lam + mu) + lam / (lam + mu) * math.exp(-(lam + mu) * t)
            assert availability_at(chain, [1.0, 0.0], t) == pytest.approx(expected, abs=1e-10)

    def test_hand_value_at_ten(self):
        chain = build_two_state(0.01, 0.1)
        assert availability_at(chain, [1.0, 0.0], 10.0) == pytest.approx(0.93935, abs=5e-6)

    def test_converges_to_steady_state(self):
        lam, mu = 0.01, 0.1
        chain = build_two_state(lam, mu)
        t = 100.0 / (lam + mu)
        out = transient(chain, [1.0, 0.0], t)
        np.testing.assert_allclose(out.pi, steady_state(chain).pi, rtol=0, atol=1e-8)

    def test_matches_matrix_exponential(self):
        rng = CounterRng(seed=8)
        for _ in range(10):
            chain = random_chain(rng)
            pi0 = np.zeros(chain.n)
            pi0[0] = 1.0
            t = 5.0 * rng.uniform()
            expected = pi0 @ expm(chain.generator * t)
            np.testing.assert_allclose(transient(chain, pi0, t).pi, expected, rtol=0, atol=1e-10)

    def test_conservation(self):
        rng = CounterRng(seed=9)
        chain = random_chain(rng)
        for t in (0.1, 1.0, 10.0, 100.0):
            assert abs(transient(chain, [1, 0, 0, 0], t).pi.sum() - 1.0) < 1e-10

    def test_zero_generator_is_static(self):
        space = StateSpace.from_labels(["a", "b"], [True, True])
        chain = Ctmc(space, np.zeros((2, 2)))
        np.testing.assert_array_equal(transient(chain, [0.3, 0.7], 50.0).pi, [0.3, 0.7])

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            transient(build_two_state(0.1, 0.1), [1, 0], -1.0)


class TestPoissonWeights:
    @pytest.mark.parametrize("mu", [1e-6, 0.3, 1.0, 7.5, 50.0, 400.0, 4e4, 1e6])
    def test_l1_distance_to_scipy_pmf(self, mu):
        left, w = _poisson_weights(mu, UNIFORMIZATION_TAIL)
        right = left + w.size - 1
        inside = np.abs(w - poisson.pmf(np.arange(left, right + 1), mu)).sum()
        outside = poisson.cdf(left - 1, mu) + poisson.sf(right, mu)
        # above mu = 400 scipy's lgamma-based pmf itself drifts by about eps*mu*ln(mu)
        assert inside + outside <= (1e-12 if mu <= 400 else 1e-8)

    @pytest.mark.parametrize("mu", [1e-6, 0.3, 1.0, 7.5, 50.0, 400.0, 4e4, 1e6])
    @pytest.mark.parametrize("tol", [1e-13, 1e-6])
    def test_cut_meets_tail_with_no_more_terms_than_scipy_quantile(self, mu, tol):
        left, w = _poisson_weights(mu, tol)
        right = left + w.size - 1
        assert poisson.sf(right, mu) <= tol
        terms = int(poisson.isf(tol, mu)) + 1  # the scipy-quantile cut used before Fox-Glynn
        while poisson.sf(terms, mu) > tol:
            terms += 10
        assert right <= terms
        assert w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_huge_rate_t_fails_fast(self):
        begin = time.perf_counter()
        with pytest.raises(ConvergenceError, match="split the horizon"):
            transient(build_two_state(1.0, 1.0), [1.0, 0.0], 1e9)
        assert time.perf_counter() - begin < 1.0

    def test_non_finite_rate_t_is_convergence_error(self):
        for mu in (math.inf, math.nan):
            with pytest.raises(ConvergenceError, match="cannot bound the tail"):
                _poisson_weights(mu, UNIFORMIZATION_TAIL)
        with pytest.raises(ConvergenceError, match="cannot bound the tail"):
            transient(build_two_state(1.0, 1.0), [1.0, 0.0], math.inf)

    def test_rate_t_below_smallest_float_is_identity_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = transient(build_two_state(1.0, 1.0), [1.0, 0.0], 5e-324)
        np.testing.assert_array_equal(out.pi, [1.0, 0.0])

    @pytest.mark.parametrize("tol", [0.0, 1.0, -1e-3, math.nan])
    def test_tail_tolerance_outside_unit_interval_rejected(self, tol):
        with pytest.raises(DomainError):
            transient(build_two_state(1.0, 1.0), [1.0, 0.0], 1.0, tail_tol=tol)


@st.composite
def stiff_chains(draw):
    """2-6 states, off-diagonal rates spread over six decades (some zero)."""
    n = draw(st.integers(min_value=2, max_value=6))
    log_rate = st.one_of(st.none(), st.floats(min_value=-3.0, max_value=3.0))
    exps = draw(st.lists(log_rate, min_size=n * n, max_size=n * n))
    rates = np.array([0.0 if e is None else 10.0 ** e for e in exps]).reshape(n, n)
    space = StateSpace.from_labels([f"s{i}" for i in range(n)], [True] * (n - 1) + [False])
    start = draw(st.integers(min_value=0, max_value=n - 1))
    t = draw(st.floats(min_value=0.0, max_value=2.0))
    return Ctmc.from_transition_rates(space, rates), start, t


@given(stiff_chains())
@settings(max_examples=40, deadline=None)
def test_transient_matches_expm_on_stiff_chains(case):
    chain, start, t = case
    pi0 = np.zeros(chain.n)
    pi0[start] = 1.0
    expected = pi0 @ expm(chain.generator * t)
    np.testing.assert_allclose(transient(chain, pi0, t).pi, expected, rtol=0, atol=1e-10)


def transient_oracle(chain, pi0, t, tail_tol=UNIFORMIZATION_TAIL):
    """One uniformization run from t = 0 for a single point: the per-point reference."""
    if not t >= 0:
        raise DomainError(f"time must be >= 0, got {t}")
    v0 = ProbabilityVector(np.asarray(pi0, dtype=float)).pi
    q = chain.generator
    rate = float(np.max(-np.diag(q)))
    if t == 0 or rate == 0:
        return v0
    left, weights = _poisson_weights(rate * t, tail_tol)
    p = np.eye(chain.n) + q / rate
    v = v0
    for _ in range(left):
        v = v @ p
    out = weights[0] * v
    for w in weights[1:]:
        v = v @ p
        out = out + w * v
    out /= out.sum()
    return out


@st.composite
def transient_grids(draw):
    """2-8 states, rates over three decades, and a shuffled grid holding t = 0,
    a repeated time and a point with rate*t = 720, where the window starts above 0."""
    n = draw(st.integers(min_value=2, max_value=8))
    log_rate = st.one_of(st.none(), st.floats(min_value=-2.0, max_value=1.0))
    exps = draw(st.lists(log_rate, min_size=n * n, max_size=n * n))
    rates = np.array([0.0 if e is None else 10.0 ** e for e in exps]).reshape(n, n)
    chain = Ctmc.from_transition_rates(
        StateSpace.from_labels([f"s{i}" for i in range(n)], [True] * (n - 1) + [False]), rates
    )
    times = draw(st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=6))
    times += [0.0, times[0]]
    rate = float(chain.exit_rates().max())
    if rate > 0:
        times.append(720.0 / rate)
    pi0 = np.zeros(n)
    pi0[draw(st.integers(min_value=0, max_value=n - 1))] = 1.0
    return chain, pi0, draw(st.permutations(times))


@given(transient_grids())
@settings(max_examples=40, deadline=None)
def test_transient_grid_equals_per_point_runs(case):
    chain, pi0, times = case
    dists = transient_grid(chain, pi0, times).pi
    assert dists.shape == (len(times), chain.n)
    for t, row in zip(times, dists):
        assert np.array_equal(row, transient_oracle(chain, pi0, t))


class TestTransientGrid:
    def test_window_starts_above_zero_at_rate_t_720(self):
        left, _ = _poisson_weights(720.0, UNIFORMIZATION_TAIL)
        assert left > 0

    def test_matches_matrix_exponential(self):
        chain = random_chain(CounterRng(seed=21), n_states=5)
        pi0 = np.array([0.2, 0.3, 0.0, 0.5, 0.0])
        times = [3.0, 0.0, 0.5, 12.0, 3.0]
        for t, row in zip(times, transient_grid(chain, pi0, times).pi):
            expected = pi0 @ expm(chain.generator * t)
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-10)

    def test_empty_grid(self):
        assert transient_grid(build_two_state(1.0, 1.0), [1.0, 0.0], []).pi.shape == (0, 2)

    def test_long_grid(self):
        # 10**4 points once cost a Python loop over every live point at every power: 2 s here
        chain, grid = build_two_state(0.1, 1.0), np.linspace(0.0, 50.0, 10 ** 4)
        elapsed = []
        for _ in range(2):
            start = time.perf_counter()
            dists = transient_grid(chain, [1.0, 0.0], grid).pi
            elapsed.append(time.perf_counter() - start)
        assert dists.shape == (grid.size, 2)
        assert min(elapsed) < 1.0

    def test_huge_last_point_fails_fast(self):
        begin = time.perf_counter()
        with pytest.raises(ConvergenceError, match="split the horizon"):
            transient_grid(build_two_state(1.0, 1.0), [1.0, 0.0], [0.0, 10.0, 1e3, 1e9])
        assert time.perf_counter() - begin < 1.0

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_negative_or_nan_time_rejected(self, bad):
        with pytest.raises(DomainError, match="time must be >= 0"):
            transient_grid(build_two_state(0.1, 0.1), [1.0, 0.0], [1.0, bad, 2.0])


class TestReliabilityVsAvailability:
    def test_two_state_reliability_is_pure_exponential(self):
        lam, mu = 0.01, 0.1
        chain = build_two_state(lam, mu)
        for t in (0.0, 5.0, 50.0, 300.0):
            assert reliability_at(chain, [1.0, 0.0], t) == pytest.approx(
                math.exp(-lam * t), abs=1e-10
            )

    def test_reliability_not_above_availability(self):
        rng = CounterRng(seed=10)
        for _ in range(10):
            chain = random_chain(rng)
            pi0 = np.zeros(chain.n)
            pi0[0] = 1.0
            for t in (0.5, 2.0, 10.0):
                assert reliability_at(chain, pi0, t) <= availability_at(chain, pi0, t) + 1e-12

    def test_reliability_monotone_nonincreasing(self):
        rng = CounterRng(seed=11)
        chain = random_chain(rng)
        pi0 = np.zeros(chain.n)
        pi0[0] = 1.0
        values = [reliability_at(chain, pi0, t) for t in np.linspace(0, 20, 15)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_all_operational_chain_has_no_reliability_analysis(self):
        space = StateSpace.from_labels(["a", "b"], [True, True])
        chain = Ctmc.from_transition_rates(space, np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(StructureError):
            reliability_at(chain, [1, 0], 1.0)
        assert availability_steady(chain) == 1.0

    def test_absorbing_variant_zeroes_failed_rows(self):
        chain = build_two_state(0.2, 0.5)
        variant = absorbing_variant(chain)
        np.testing.assert_array_equal(variant.generator[1], [0.0, 0.0])
        np.testing.assert_array_equal(variant.generator[0], chain.generator[0])


class TestAvailability:
    def test_matches_eq9_hand_value(self):
        assert availability_two_state(0.01, 0.1) == pytest.approx(0.9090909, abs=5e-8)

    def test_symmetric_is_half(self):
        assert availability_two_state(0.4, 0.4) == 0.5

    def test_consistent_with_steady_state(self):
        rng = CounterRng(seed=12)
        for _ in range(50):
            lam, mu = 0.001 + rng.uniform(), 0.001 + rng.uniform()
            chain = build_two_state(lam, mu)
            mass = float(steady_state(chain).pi[0])
            assert availability_two_state(lam, mu) == pytest.approx(mass, abs=1e-12)

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(DomainError):
            availability_two_state(0.0, 1.0)


class TestHittingTimes:
    def test_two_state_mttf_both_ways(self):
        chain = build_two_state(0.01, 0.1)
        assert mttf_rate_sum(chain) == pytest.approx(100.0, rel=1e-12)
        assert mttf_absorbing(chain, 0) == mttf_rate_sum(chain)

    def test_rate_sum_two_feeding_states(self):
        space = StateSpace.from_labels(["a", "b", "fail"], [True, True, False])
        rates = np.zeros((3, 3))
        rates[0, 2] = 0.1
        rates[1, 2] = 0.2
        chain = Ctmc.from_transition_rates(space, rates)
        assert mttf_rate_sum(chain) == pytest.approx(15.0, rel=1e-12)

    def test_rate_sum_exact_match_single_operational_state(self):
        # one operational state feeding two failure modes: both estimators
        # reduce to the same float division
        space = StateSpace.from_labels(["up", "f1", "f2"], [True, False, False])
        rates = np.zeros((3, 3))
        rates[0, 1] = 0.03
        rates[0, 2] = 0.07
        rates[1, 0] = 1.0
        rates[2, 0] = 1.0
        chain = Ctmc.from_transition_rates(space, rates)
        assert mttf_absorbing(chain, 0) == mttf_rate_sum(chain)

    def test_rate_sum_needs_direct_failure_exit(self):
        with pytest.raises(StructureError):
            mttf_rate_sum(series_chain())

    def test_series_chain_stage_sum(self):
        chain = series_chain(0.1, 0.2)
        assert mttf_absorbing(chain, 0) == pytest.approx(15.0, abs=1e-12)
        assert mttf_absorbing(chain, 1) == pytest.approx(5.0, abs=1e-12)

    def test_unreachable_failure_rejected(self):
        space = StateSpace.from_labels(["a", "b", "fail"], [True, True, False])
        rates = np.zeros((3, 3))
        rates[0, 1] = 0.5
        rates[1, 0] = 0.5
        rates[2, 0] = 1.0
        chain = Ctmc.from_transition_rates(space, rates)
        with pytest.raises(StructureError):
            mttf_absorbing(chain, 0)
        with pytest.raises(StructureError):
            vet_absorption(chain, 0)

    def test_operational_trap_rejected(self):
        # failure reachable from start, but a side branch can trap the walk
        space = StateSpace.from_labels(["s", "trap", "fail"], [True, True, False])
        rates = np.zeros((3, 3))
        rates[0, 1] = 0.5
        rates[0, 2] = 0.5
        chain = Ctmc.from_transition_rates(space, rates)  # trap has no exits
        with pytest.raises(StructureError):
            mttf_absorbing(chain, 0)

    def test_first_stuck_state_is_named(self):
        # s can fail, but a <-> b is a loop with no way out
        space = StateSpace.from_labels(["s", "a", "b", "fail"], [True, True, True, False])
        rates = np.zeros((4, 4))
        rates[0, 1] = rates[0, 3] = 0.5
        rates[1, 2] = rates[2, 1] = 1.0
        chain = Ctmc.from_transition_rates(space, rates)
        with pytest.raises(StructureError) as exc:
            mttf_absorbing(chain, 0)
        assert str(exc.value) == (
            "state 1 (a) can be visited but cannot reach any failure state; "
            "expected hitting time is infinite"
        )

    def test_mttf_start_must_be_operational(self):
        with pytest.raises(DomainError):
            mttf_absorbing(build_two_state(0.1, 0.1), 1)

    def test_mttr_two_state(self):
        assert mttr(build_two_state(0.01, 0.1), 1) == pytest.approx(10.0, rel=1e-12)

    def test_mttr_competing_repair_channels(self):
        space = StateSpace.from_labels(["up1", "up2", "down"], [True, True, False])
        rates = np.zeros((3, 3))
        rates[0, 2] = 0.1
        rates[1, 2] = 0.1
        rates[2, 0] = 0.3
        rates[2, 1] = 0.2
        chain = Ctmc.from_transition_rates(space, rates)
        assert mttr(chain, 2) == pytest.approx(1.0 / 0.5, rel=1e-12)

    def test_mttr_without_repair_rejected(self):
        with pytest.raises(StructureError):
            mttr(series_chain(), 2)

    def test_mttr_needs_failed_state(self):
        with pytest.raises(DomainError):
            mttr(build_two_state(0.1, 0.1), 0)


class TestVectors:
    def test_probability_vector_validation(self):
        with pytest.raises(DomainError):
            ProbabilityVector(np.array([0.5, 0.6]))
        with pytest.raises(DomainError):
            ProbabilityVector(np.array([-0.1, 1.1]))
        # a stack holds one distribution per row, and one bad row among good ones is rejected
        good = [[1.0, 0.0], [0.25, 0.75], [0.5, 0.5]]
        assert ProbabilityVector(np.array(good)).pi.shape == (3, 2)
        for bad_row in ([0.5, 0.5 + 1e-9], [-0.1, 1.1]):
            with pytest.raises(DomainError):
                ProbabilityVector(np.array([*good[:2], bad_row, good[2]]))
        for bad in (np.ones((1, 1, 1)), np.empty(0), np.empty((3, 0))):
            with pytest.raises(DomainError):
                ProbabilityVector(bad)


@given(rates_pairs)
@settings(max_examples=50, deadline=None)
def test_two_state_steady_state_property(pair):
    lam, mu = pair
    pi = steady_state(build_two_state(lam, mu))
    assert pi.pi[0] == pytest.approx(mu / (lam + mu), rel=1e-9)


def vet_oracle(chain, start, target_mask, kind):
    """Hitting-time vetting with one forward search per visitable state."""
    n = chain.n
    q = chain.generator
    succ = [[] if target_mask[i] else [j for j in range(n) if j != i and q[i, j] > 0] for i in range(n)]

    def reach(i):
        seen, stack = {i}, [i]
        while stack:
            for j in succ[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    from_start = reach(start)
    if not any(target_mask[k] for k in from_start):
        raise StructureError(f"no {kind} state is reachable from state {start}")
    live = sorted(k for k in from_start if not target_mask[k])
    for i in live:
        if not any(target_mask[k] for k in reach(i)):
            raise StructureError(
                f"state {i} ({chain.space.states[i].label}) can be visited but cannot "
                f"reach any {kind} state; expected hitting time is infinite"
            )
    return np.array(live, dtype=int)


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    edges = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    target = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    start = draw(st.integers(min_value=0, max_value=n - 1))
    space = StateSpace.from_labels([f"s{i}" for i in range(n)], [True] * n)
    chain = Ctmc.from_transition_rates(space, np.array(edges, dtype=float).reshape(n, n))
    return chain, start, np.array(target, dtype=bool)


@given(small_digraphs(), st.sampled_from(["failure", "repair"]))
@settings(max_examples=300, deadline=None)
def test_vetting_matches_per_state_search(case, kind):
    chain, start, target = case
    try:
        expected = vet_oracle(chain, start, target, kind)
    except StructureError as exc:
        with pytest.raises(StructureError) as got:
            _vet_hitting_states(chain, start, target, kind)
        assert str(got.value) == str(exc)
        return
    assert np.array_equal(_vet_hitting_states(chain, start, target, kind), expected)
