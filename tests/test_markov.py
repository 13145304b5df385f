"""Chain engine tests: construction, steady state, transients, hitting times."""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.stats import poisson

from exact_chains import exact_hitting_times, exact_steady_state, ladder, triplets

from securakit import markov, montecarlo
from securakit.errors import ConvergenceError, DomainError, SingularSystemError, StructureError
from securakit.markov import (
    UNIFORMIZATION_TAIL,
    Ctmc,
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
    rates = np.zeros((3, 3))
    rates[0, 1] = lam_a
    rates[1, 2] = lam_b
    return Ctmc(["up", "degraded", "failed"], [True, True, False], triplets(rates))


def random_chain(rng, n_states=4):
    """Irreducible chain with a random operational pattern (>=1 of each)."""
    rates = np.array([[rng.uniform() for _ in range(n_states)] for _ in range(n_states)])
    ops = [rng.uniform() < 0.5 for _ in range(n_states)]
    ops[0] = True
    ops[-1] = False
    return Ctmc([f"s{i}" for i in range(n_states)], ops, triplets(rates))


class TestConstruction:
    def test_two_state_generator(self):
        chain = build_two_state(0.01, 0.1)
        np.testing.assert_array_equal(chain.generator, [[-0.01, 0.01], [0.1, -0.1]])
        assert chain.operational[0]
        assert not chain.operational[1]

    def test_nonpositive_rates_rejected(self):
        for lam, mu in [(0, 0.1), (0.1, 0), (-1, 1), (1, -1)]:
            with pytest.raises(DomainError):
                build_two_state(lam, mu)

    def test_negative_off_diagonal_rejected(self):
        with pytest.raises(DomainError):
            Ctmc(["a", "b"], [True, False], triplets([[0.1, -0.1], [-0.1, 0.1]]))

    def test_state_space_needs_operational_state(self):
        with pytest.raises(DomainError):
            Ctmc(["a", "b"], [False, False], triplets(np.zeros((2, 2))))

    @pytest.mark.parametrize("labels, flags, message", [
        (["a", "b"], [True], "labels and operational flags must have equal length"),
        ([], [], "state space must contain at least one state"),
        (["a", "b"], [False, False], "state space needs at least one operational state"),
        (["a", "b", "a"], [True, False, True], "duplicate state label 'a'"),
    ])
    def test_constructor_messages(self, labels, flags, message):
        with pytest.raises(DomainError) as err:
            Ctmc(labels, flags, triplets(np.zeros((len(labels), len(labels)))))
        assert str(err.value) == message

    def test_operational_is_one_read_only_mask(self):
        flags = np.array([True, True, False])
        chain = Ctmc(("up", "degraded", "failed"), flags, [])
        flags[:] = False  # the chain keeps its own copy
        assert chain.operational == (True, True, False)
        assert all(type(flag) is bool for flag in chain.operational)
        assert chain.labels == ("up", "degraded", "failed")

    def test_triplets_sum_repeated_pairs_in_order_and_ignore_self_loops(self):
        chain = Ctmc(["a", "b", "c"], [True, True, False],
                     [(0, 2, 0.1), (0, 0, math.nan), (0, 2, 0.2), (0, 1, 0.0), (1, 0, 1e-3), (1, 2, 5.0), (0, 2, 0.3)])
        assert chain.offsets == (0, 1, 3, 3)
        assert chain.targets == (2, 0, 2)  # a zero rate is no jump
        assert chain.rates == ((0.1 + 0.2) + 0.3, 1e-3, 5.0)
        assert chain.exit_rates == ((0.1 + 0.2) + 0.3, math.fsum([1e-3, 5.0]), 0.0)
        with pytest.raises(DomainError, match=r"^transition 2 -> 3 names a state outside 0\.\.2$"):
            Ctmc(["a", "b", "c"], [True, True, False], [(0, 1, 1.0), (2, 3, 1.0)])

    def test_absorbing_variant_keeps_labels_and_operational(self):
        chain = build_two_state(0.01, 0.1)
        absorbing = absorbing_variant(chain)
        assert absorbing.labels == chain.labels == ("up", "down")
        np.testing.assert_array_equal(absorbing.operational, chain.operational)

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
                p = np.eye(chain.n) + frac / max(chain.exit_rates) * chain.generator
                v = np.full(chain.n, 1.0 / chain.n)
                for _ in range(200_000):
                    nxt = v @ p
                    if np.abs(nxt - v).max() < 1e-14:
                        v = nxt
                        break
                    v = nxt
                np.testing.assert_allclose(v, steady_state(chain), rtol=0, atol=1e-8)


class TestSteadyState:
    def test_two_state_closed_form(self):
        pi = steady_state(build_two_state(0.01, 0.1))
        np.testing.assert_allclose(pi, [10 / 11, 1 / 11], rtol=0, atol=1e-15)

    def test_symmetric_two_state(self):
        pi = steady_state(build_two_state(0.3, 0.3))
        np.testing.assert_allclose(pi, [0.5, 0.5], rtol=0, atol=1e-15)

    def test_random_rates_match_closed_form(self):
        rng = CounterRng(seed=6)
        for _ in range(50):
            lam = 10 ** (rng.uniform() * 4 - 3)
            mu = 10 ** (rng.uniform() * 4 - 3)
            pi = steady_state(build_two_state(lam, mu))
            assert pi[0] == pytest.approx(mu / (lam + mu), abs=1e-12)
            assert pi[1] == pytest.approx(lam / (lam + mu), abs=1e-12)

    def test_residual_invariant(self):
        rng = CounterRng(seed=7)
        for _ in range(20):
            chain = random_chain(rng)
            pi = steady_state(chain)
            assert np.abs(np.array(pi) @ chain.generator).max() < 1e-10
            assert abs(math.fsum(pi) - 1.0) <= 1e-12

    def test_reducible_chain_rejected(self):
        chain = Ctmc(["up", "dead"], [True, False], triplets([[-0.1, 0.1], [0.0, 0.0]]))
        with pytest.raises(StructureError):
            steady_state(chain)

    @pytest.mark.parametrize("lam, mu", [(1e8, 2e8), (3e9, 1e10)])
    def test_fast_rates_match_closed_form(self, lam, mu):
        pi = steady_state(build_two_state(lam, mu))
        assert pi[0] == pytest.approx(mu / (lam + mu), abs=1e-12)
        assert pi[1] == pytest.approx(lam / (lam + mu), abs=1e-12)

    def test_mass_growing_past_the_double_range_from_state_0(self):
        # pi_k grows as r**k, r = 1.25, and 1.25**3999 is about 10**387
        r, pi = 1.25, steady_state(ladder(4000, 1.0, 0.8, repairable_top=True))
        assert pi[-1] == pytest.approx(1 - 1 / r, rel=1e-14)  # (1 - 1/r) / (1 - r**-4000)
        assert pi[-100] == pytest.approx((1 - 1 / r) * r ** -99, rel=1e-12)
        assert pi[0] == 0.0  # r**-3999 is below the smallest double

    @pytest.mark.parametrize("lam, mu", [(0.01, 0.1), (1e8, 2e8), (3e9, 1e10)])
    def test_wrong_pi_still_rejected(self, monkeypatch, lam, mu):
        eliminate = markov._eliminate

        def perturbed(rows, rewards):
            pi = eliminate(rows, rewards)
            shift = 1e-6 * pi[0]  # relative error 1e-6, total mass unchanged
            pi[0] += shift
            pi[1] -= shift
            return pi

        monkeypatch.setattr(markov, "_eliminate", perturbed)
        with pytest.raises(SingularSystemError, match="steady-state residual"):
            steady_state(build_two_state(lam, mu))


class TestTransient:
    def test_identity_at_time_zero(self):
        chain = build_two_state(0.01, 0.1)
        assert [transient(chain, start, 0.0) for start in (0, 1)] == [(1.0, 0.0), (0.0, 1.0)]

    def test_two_state_closed_form_grid(self):
        lam, mu = 0.01, 0.1
        chain = build_two_state(lam, mu)
        for t in np.linspace(0.0, 200.0, 20):
            expected = mu / (lam + mu) + lam / (lam + mu) * math.exp(-(lam + mu) * t)
            assert availability_at(chain, 0, t) == pytest.approx(expected, abs=1e-10)

    def test_hand_value_at_ten(self):
        chain = build_two_state(0.01, 0.1)
        assert availability_at(chain, 0, 10.0) == pytest.approx(0.93935, abs=5e-6)

    def test_converges_to_steady_state(self):
        lam, mu = 0.01, 0.1
        chain = build_two_state(lam, mu)
        t = 100.0 / (lam + mu)
        out = transient(chain, 0, t)
        np.testing.assert_allclose(out, steady_state(chain), rtol=0, atol=1e-8)

    def test_matches_matrix_exponential(self):
        rng = CounterRng(seed=8)
        for _ in range(10):
            chain = random_chain(rng)
            t = 5.0 * rng.uniform()
            expected = expm(chain.generator * t)[0]
            np.testing.assert_allclose(transient(chain, 0, t), expected, rtol=0, atol=1e-10)

    def test_conservation(self):
        rng = CounterRng(seed=9)
        chain = random_chain(rng)
        for t in (0.1, 1.0, 10.0, 100.0):
            assert abs(math.fsum(transient(chain, 0, t)) - 1.0) < 1e-10

    def test_zero_generator_is_static(self):
        chain = Ctmc(["a", "b"], [True, True], triplets(np.zeros((2, 2))))
        assert [transient(chain, start, 50.0) for start in (0, 1)] == [(1.0, 0.0), (0.0, 1.0)]

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            transient(build_two_state(0.1, 0.1), 0, -1.0)


def weights_array(mu):
    """The left edge of the Poisson weights of ``mu``, and the weights as an array that sums to 1."""
    left, right = markov._window(mu)
    w = _poisson_weights(mu, left, right)
    assert w[math.floor(mu) - left] == 1.0  # the weights are relative to the mode's
    return left, np.array(w) / math.fsum(w)


class TestPoissonWeights:
    @pytest.mark.parametrize("mu", [1e-6, 0.3, 1.0, 7.5, 50.0, 400.0, 4e4, 1e6])
    def test_l1_distance_to_scipy_pmf(self, mu):
        left, w = weights_array(mu)
        right = left + w.size - 1
        inside = np.abs(w - poisson.pmf(np.arange(left, right + 1), mu)).sum()
        outside = poisson.cdf(left - 1, mu) + poisson.sf(right, mu)
        # above mu = 400 scipy's lgamma-based pmf itself drifts by about eps*mu*ln(mu)
        assert inside + outside <= (1e-12 if mu <= 400 else 1e-8)

    @pytest.mark.parametrize("mu", [1e-6, 0.3, 1.0, 7.5, 50.0, 400.0, 4e4, 1e6])
    def test_cut_meets_tail_with_no_more_terms_than_scipy_quantile(self, mu):
        tol = UNIFORMIZATION_TAIL
        left, w = weights_array(mu)
        right = left + w.size - 1
        assert poisson.sf(right, mu) <= tol
        terms = int(poisson.isf(tol, mu)) + 1  # the scipy-quantile cut used before Fox-Glynn
        while poisson.sf(terms, mu) > tol:
            terms += 10
        assert right <= terms

    @pytest.mark.parametrize("mu", [1e-6, 0.3, 1.0, 7.5, 50.0, 400.0, 4e4, 1e6])
    def test_ratio_recursion_rises_to_the_mode_and_falls_after(self, mu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            left, w = weights_array(mu)
        peak = math.floor(mu) - left
        assert np.all(np.diff(w[: peak + 1]) >= 0) and np.all(np.diff(w[peak:]) <= 0)
        k = np.arange(left + 1, left + w.size)
        np.testing.assert_allclose(w[1:] / w[:-1], mu / k, rtol=1e-13, atol=0)

    def test_huge_rate_t_fails_fast(self):
        begin = time.perf_counter()
        with pytest.raises(ConvergenceError, match="split the horizon"):
            transient(build_two_state(1.0, 1.0), 0, 1e9)
        assert time.perf_counter() - begin < 1.0

    def test_non_finite_rate_t_is_convergence_error(self):
        for mu in (math.inf, math.nan):
            with pytest.raises(ConvergenceError, match="cannot bound the tail"):
                markov._window(mu)
        with pytest.raises(ConvergenceError, match="cannot bound the tail"):
            transient(build_two_state(1.0, 1.0), 0, math.inf)

    def test_rate_t_below_smallest_float_is_identity_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = transient(build_two_state(1.0, 1.0), 0, 5e-324)
        np.testing.assert_array_equal(out, [1.0, 0.0])


@st.composite
def stiff_chains(draw):
    """2-6 states, off-diagonal rates spread over six decades (some zero)."""
    n = draw(st.integers(min_value=2, max_value=6))
    log_rate = st.one_of(st.none(), st.floats(min_value=-3.0, max_value=3.0))
    exps = draw(st.lists(log_rate, min_size=n * n, max_size=n * n))
    rates = np.array([0.0 if e is None else 10.0 ** e for e in exps]).reshape(n, n)
    start = draw(st.integers(min_value=0, max_value=n - 1))
    t = draw(st.floats(min_value=0.0, max_value=2.0))
    chain = Ctmc([f"s{i}" for i in range(n)], [True] * (n - 1) + [False], triplets(rates))
    return chain, start, t


@given(stiff_chains())
@settings(max_examples=40, deadline=None)
def test_transient_matches_expm_on_stiff_chains(case):
    chain, start, t = case
    expected = expm(chain.generator * t)[start]
    np.testing.assert_allclose(transient(chain, start, t), expected, rtol=0, atol=1e-10)


def transient_oracle(chain, start, t, dense=False):
    """One uniformization run from state ``start`` at t = 0 for a single point: the per-point reference.

    Its products v @ P are numpy's over the CSR rates, or, if ``dense``, ``v @ (I + Q/rate)``.
    """
    if not t >= 0:
        raise DomainError(f"time must be >= 0, got {t}")
    v0 = np.zeros(chain.n)
    v0[start] = 1.0
    rate = float(np.max(-np.diag(chain.generator)))
    if t == 0 or rate == 0:
        return v0
    left, right = markov._window(rate * t)
    weights = _poisson_weights(rate * t, left, right)
    p = np.eye(chain.n) + chain.generator / rate
    step = (lambda v: v @ p) if dense else markov._product(chain, rate)
    v = v0
    for _ in range(left):
        v = step(v)
    out = weights[0] * v
    for w in weights[1:]:
        v = step(v)
        out = out + w * v
    return out / math.fsum(out.tolist())


def grid_layout(chain, times):
    """The layout :func:`markov._layout` picks for ``times`` on ``chain``."""
    rate = max(chain.exit_rates)
    return markov._layout(chain.n, len(chain.rates), [markov._window(rate * t) for t in times if t and rate])


def sparse_chain(rng, n):
    """A ring of n states with rates in [0.1, 2), and 2n more jumps between random states."""
    transitions = [(i, (i + 1) % n, 0.1 + 1.9 * rng.uniform()) for i in range(n)]
    transitions += [(int(rng.uniform() * n), int(rng.uniform() * n), 3.0 * rng.uniform()) for _ in range(2 * n)]
    return Ctmc([f"s{i}" for i in range(n)], [True] * (n - 1) + [False], transitions)


@st.composite
def transient_grids(draw):
    """A chain on either side of the product layout rule, and a shuffled grid holding t = 0, a
    repeated time and a point with rate*t = 720, where the window starts above 0.

    Small side: 2-8 states with rates over three decades, many of them zero, which the rule puts
    in pure Python or CSR by its grid.  CSR side: a birth-death chain of 150-200 states with
    rates over three decades and up to n/2 more jumps.
    """
    sparse = draw(st.booleans())
    log_rate = st.floats(min_value=-2.0, max_value=1.0)
    if sparse:
        n = draw(st.integers(min_value=150, max_value=200))
        transitions = [(i + di, i + 1 - di, 10.0 ** draw(log_rate)) for i in range(n - 1) for di in (0, 1)]
        state = st.integers(min_value=0, max_value=n - 1)
        transitions += draw(st.lists(st.tuples(state, state, log_rate.map(lambda e: 10.0 ** e)), max_size=n // 2))
    else:
        n = draw(st.integers(min_value=2, max_value=8))
        exps = draw(st.lists(st.one_of(st.none(), log_rate), min_size=n * n, max_size=n * n))
        transitions = triplets(np.array([0.0 if e is None else 10.0 ** e for e in exps]).reshape(n, n))
    chain = Ctmc([f"s{i}" for i in range(n)], [True] * (n - 1) + [False], transitions)
    times = draw(st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=6))
    times += [0.0, times[0]]
    rate = max(chain.exit_rates)
    if rate > 0:
        times.append(720.0 / rate)
    start = draw(st.integers(min_value=0, max_value=n - 1))
    times = draw(st.permutations(times))
    assert grid_layout(chain, times) == "csr" or not sparse
    return chain, start, times


@given(transient_grids())
@settings(max_examples=40, deadline=None)
def test_transient_grid_equals_per_point_runs(case):
    chain, start, times = case
    dists = transient_grid(chain, start, times)
    assert len(dists) == len(times) and {len(row) for row in dists} == {chain.n}
    for t, row in zip(times, dists):
        assert row == tuple(transient_oracle(chain, start, t).tolist())


@st.composite
def stiff_transients(draw):
    """A chain of :func:`stiff_backbone_chains` (rate ratios up to 1e10), a start state and 1-4
    times with rate*t up to 300."""
    chain = draw(stiff_backbone_chains())
    rate = max(chain.exit_rates)
    rate_t = st.floats(min_value=0.0, max_value=300.0)
    times = draw(st.lists(rate_t.map(lambda mu: mu / rate), min_size=1, max_size=4))
    return chain, draw(st.integers(min_value=0, max_value=chain.n - 1)), times


@given(stiff_transients())
@settings(max_examples=60, deadline=None)
def test_python_and_csr_layouts_have_the_same_bits_and_match_expm(case):
    chain, start, times = case
    rows = {}
    for layout in ("python", "csr"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(markov, "_layout", lambda n, nnz, windows: layout)
            rows[layout] = transient_grid(chain, start, times)
    assert rows["python"] == rows["csr"]
    for t, row in zip(times, rows["python"]):
        np.testing.assert_allclose(row, expm(chain.generator * t)[start], rtol=0, atol=1e-12)


class TestTransientGrid:
    def test_window_starts_above_zero_at_rate_t_720(self):
        left, _ = markov._window(720.0)
        assert left > 0

    def test_matches_matrix_exponential(self):
        chain = random_chain(CounterRng(seed=21), n_states=5)
        times = [3.0, 0.0, 0.5, 12.0, 3.0]
        for start in range(chain.n):
            for t, row in zip(times, transient_grid(chain, start, times)):
                np.testing.assert_allclose(row, expm(chain.generator * t)[start], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("chain, times, layout", [
        (build_two_state(0.01, 0.1), np.linspace(0.0, 50.0, 11), "python"),  # the cli_cold transient
        (build_two_state(0.01, 0.1), [1e4], "python"),  # one point at rate*t = 1,100
        (build_two_state(0.1, 1.0), np.linspace(0.0, 50.0, 10 ** 4), "csr"),  # 1.6 million weights
        (ladder(5, 1.0, 0.8), np.linspace(0.0, 100.0, 11), "csr"),
        (ladder(40, 1.0, 0.8), [1.0], "csr"),
        (ladder(400, 1.0, 0.8), np.linspace(0.0, 400.0, 41), "csr"),  # the chain_scale transient
        (build_two_state(0.01, 0.1), [0.0], "python"),  # no window: no product
    ], ids=["two_state_11", "two_state_one_point", "two_state_10000", "ladder_5", "ladder_40", "ladder_400",
            "no_window"])
    def test_layout_rule_sides(self, chain, times, layout):
        assert grid_layout(chain, times) == layout

    @pytest.mark.parametrize("chain, times", [
        (ladder(400, 1.0, 0.8, repairable_top=True), [0.0, 0.5, 3.0, 20.0, 100.0, 400.0]),
        (ladder(300, 0.3, 1.0), [0.5, 3.0, 20.0, 100.0, 400.0]),
        (sparse_chain(CounterRng(seed=5), 300), [0.5, 3.0, 20.0, 100.0]),
    ], ids=["birth-death-400", "absorbing-birth-death-300", "random-sparse-300"])
    def test_csr_product_matches_expm_and_the_dense_product(self, monkeypatch, chain, times):
        assert grid_layout(chain, times) == "csr"
        dists = transient_grid(chain, 0, times)
        for t, row in zip(times, dists):
            np.testing.assert_allclose(row, expm(chain.generator * t)[0], rtol=0, atol=1e-10)
            # both sum nonnegative terms, so only rounding parts them from the dense v @ (I + Q/rate): up to
            # about 1,300 products (rate*t) the largest relative difference measured was 10 units of 2**-52
            np.testing.assert_allclose(row, transient_oracle(chain, 0, t, dense=True), rtol=16 * 2.0 ** -52, atol=0)
        # the pure-Python product adds the same terms in the same order
        monkeypatch.setattr(markov, "_layout", lambda n, nnz, windows: "python")
        assert transient_grid(chain, 0, times) == dists

    def test_empty_grid(self):
        assert transient_grid(build_two_state(1.0, 1.0), 0, []) == ()

    def test_rows_are_tuples_of_floats(self):
        dists = transient_grid(build_two_state(1.0, 1.0), np.int64(1), [0.0, 1.0])
        assert type(dists) is tuple and all(type(row) is tuple for row in dists) and len(dists) == 2
        assert dists[0] == (0.0, 1.0) and all(type(p) is float for row in dists for p in row)

    def test_long_grid(self):
        # 10**4 points once cost a Python loop over every live point at every power: 2 s here
        chain, grid = build_two_state(0.1, 1.0), np.linspace(0.0, 50.0, 10 ** 4)
        elapsed = []
        for _ in range(2):
            start = time.perf_counter()
            dists = transient_grid(chain, 0, grid)
            elapsed.append(time.perf_counter() - start)
        assert len(dists) == grid.size and {len(row) for row in dists} == {2}
        assert min(elapsed) < 1.0

    def test_huge_last_point_fails_fast(self):
        begin = time.perf_counter()
        with pytest.raises(ConvergenceError, match="split the horizon"):
            transient_grid(build_two_state(1.0, 1.0), 0, [0.0, 10.0, 1e3, 1e9])
        assert time.perf_counter() - begin < 1.0

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_negative_or_nan_time_rejected(self, bad):
        with pytest.raises(DomainError, match="time must be >= 0"):
            transient_grid(build_two_state(0.1, 0.1), 0, [1.0, bad, 2.0])


class TestReliabilityVsAvailability:
    def test_two_state_reliability_is_pure_exponential(self):
        lam, mu = 0.01, 0.1
        chain = build_two_state(lam, mu)
        for t in (0.0, 5.0, 50.0, 300.0):
            assert reliability_at(chain, 0, t) == pytest.approx(
                math.exp(-lam * t), abs=1e-10
            )

    def test_reliability_not_above_availability(self):
        rng = CounterRng(seed=10)
        for _ in range(10):
            chain = random_chain(rng)
            for t in (0.5, 2.0, 10.0):
                assert reliability_at(chain, 0, t) <= availability_at(chain, 0, t) + 1e-12

    def test_reliability_monotone_nonincreasing(self):
        rng = CounterRng(seed=11)
        chain = random_chain(rng)
        values = [reliability_at(chain, 0, t) for t in np.linspace(0, 20, 15)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_all_operational_chain_has_no_reliability_analysis(self):
        chain = Ctmc(["a", "b"], [True, True], triplets([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(StructureError):
            reliability_at(chain, 0, 1.0)
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
            mass = steady_state(chain)[0]
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
        rates = np.zeros((3, 3))
        rates[0, 2] = 0.1
        rates[1, 2] = 0.2
        chain = Ctmc(["a", "b", "fail"], [True, True, False], triplets(rates))
        assert mttf_rate_sum(chain) == pytest.approx(15.0, rel=1e-12)

    def test_rate_sum_exact_match_single_operational_state(self):
        # one operational state feeding two failure modes: both estimators
        # reduce to the same float division
        rates = np.zeros((3, 3))
        rates[0, 1] = 0.03
        rates[0, 2] = 0.07
        rates[1, 0] = 1.0
        rates[2, 0] = 1.0
        chain = Ctmc(["up", "f1", "f2"], [True, False, False], triplets(rates))
        assert mttf_absorbing(chain, 0) == mttf_rate_sum(chain)

    def test_rate_sum_needs_direct_failure_exit(self):
        with pytest.raises(StructureError):
            mttf_rate_sum(series_chain())

    def test_series_chain_stage_sum(self):
        chain = series_chain(0.1, 0.2)
        assert mttf_absorbing(chain, 0) == pytest.approx(15.0, abs=1e-12)
        assert mttf_absorbing(chain, 1) == pytest.approx(5.0, abs=1e-12)

    def test_unreachable_failure_rejected(self):
        rates = np.zeros((3, 3))
        rates[0, 1] = 0.5
        rates[1, 0] = 0.5
        rates[2, 0] = 1.0
        chain = Ctmc(["a", "b", "fail"], [True, True, False], triplets(rates))
        with pytest.raises(StructureError):
            mttf_absorbing(chain, 0)
        with pytest.raises(StructureError):
            vet_absorption(chain, 0)

    def test_operational_trap_rejected(self):
        # failure reachable from start, but a side branch can trap the walk
        rates = np.zeros((3, 3))
        rates[0, 1] = 0.5
        rates[0, 2] = 0.5
        chain = Ctmc(["s", "trap", "fail"], [True, True, False], triplets(rates))  # trap: no exits
        with pytest.raises(StructureError):
            mttf_absorbing(chain, 0)

    def test_first_stuck_state_is_named(self):
        # s can fail, but a <-> b is a loop with no way out
        rates = np.zeros((4, 4))
        rates[0, 1] = rates[0, 3] = 0.5
        rates[1, 2] = rates[2, 1] = 1.0
        chain = Ctmc(["s", "a", "b", "fail"], [True, True, True, False], triplets(rates))
        with pytest.raises(StructureError) as exc:
            mttf_absorbing(chain, 0)
        assert str(exc.value) == (
            "state 1 (a) can be visited but cannot reach any failure state; "
            "expected hitting time is infinite"
        )

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -5.0])
    def test_a_hitting_time_that_is_not_positive_is_lost_precision(self, monkeypatch, bad):
        # the start's own time stays right; a bad time of any other state fails the whole solve
        eliminate = markov._eliminate

        def damaged(rows, rewards):
            tau = eliminate(rows, rewards)
            tau[-1] = bad
            return tau

        monkeypatch.setattr(markov, "_eliminate", damaged)
        with pytest.raises(SingularSystemError) as exc:
            mttf_absorbing(series_chain(0.1, 0.2), 0)
        assert str(exc.value) == f"hitting-time solve lost precision: got {bad:.6g}"

    @pytest.mark.parametrize("solver, message", [
        (steady_state, "steady-state system is singular: boom"),
        (lambda chain: mttf_absorbing(chain, 0), "hitting-time system is singular: boom"),
    ], ids=["steady_state", "hitting_time"])
    def test_singular_solve_names_its_system(self, monkeypatch, solver, message):
        def singular(rows, rewards):
            raise ArithmeticError("boom")

        monkeypatch.setattr(markov, "_eliminate", singular)
        with pytest.raises(SingularSystemError) as exc:
            solver(build_two_state(0.1, 0.2))
        assert str(exc.value) == message

    def test_mttf_start_must_be_operational(self):
        with pytest.raises(DomainError):
            mttf_absorbing(build_two_state(0.1, 0.1), 1)

    def test_mttr_two_state(self):
        assert mttr(build_two_state(0.01, 0.1), 1) == pytest.approx(10.0, rel=1e-12)

    def test_mttr_competing_repair_channels(self):
        rates = np.zeros((3, 3))
        rates[0, 2] = 0.1
        rates[1, 2] = 0.1
        rates[2, 0] = 0.3
        rates[2, 1] = 0.2
        chain = Ctmc(["up1", "up2", "down"], [True, True, False], triplets(rates))
        assert mttr(chain, 2) == pytest.approx(1.0 / 0.5, rel=1e-12)

    def test_mttr_without_repair_rejected(self):
        with pytest.raises(StructureError):
            mttr(series_chain(), 2)

    def test_mttr_needs_failed_state(self):
        with pytest.raises(DomainError):
            mttr(build_two_state(0.1, 0.1), 0)


def relative_error(got: float, exact: Fraction) -> float:
    return float(abs(Fraction(got) / exact - 1))


class TestStiffChainsAgainstExactSolves:
    """Birth-death chains whose LU solve lost the MTTF, against exact rational solves."""

    @pytest.mark.parametrize("n, lam, mu, mttf", [
        (6, 1e-3, 10.0, 1.0002e19),
        (8, 1e-3, 10.0, 1.0002e27),
        (12, 1e-2, 10.0, 1.002e32),
        (6, 1e-5, 1e3, 1.0e37),
        (50, 0.3, 1.0, 8.53e25),
    ])
    def test_every_hitting_time_matches_the_exact_solve(self, n, lam, mu, mttf):
        chain = ladder(n, lam, mu)
        exact = exact_hitting_times(chain, {n - 1})
        assert float(exact[0]) == pytest.approx(mttf, rel=1e-3)
        for start, tau in exact.items():
            assert relative_error(mttf_absorbing(chain, start), tau) <= 1e-13

    @pytest.mark.parametrize("n", [590, 600])
    def test_hitting_time_over_a_subnormal_pivot_names_the_state(self, n):
        # from about 590 states the MTTF passes the largest double while the pivot of state 0 is still
        # subnormal, not 0: only the quotient of the time by that pivot overflows
        with pytest.raises(SingularSystemError,
                           match=r"^expected hitting time from state 0 \(s0\) leaves the double range"):
            mttf_absorbing(ladder(n, 0.3, 1.0), 0)

    @pytest.mark.parametrize("chain", [
        build_two_state(1.0, 1e-310),  # pi_1 / pi_0 = 1e310, over a subnormal pivot
        build_two_state(1e300, 1e-300),  # 1e600: pi_0 falls to 0
        Ctmc(["a", "b", "c"], [True, True, False], [(0, 1, 1e200), (1, 0, 1e-200), (1, 2, 2.0), (2, 1, 1.0)]),
        Ctmc(["a", "b", "c"], [True, True, False], [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1e300), (2, 1, 1e-300)]),
        # pi_2 is an fsum of two terms of 1e308, past the largest double before the pivot of 2 divides it
        Ctmc(["a", "b", "c"], [True, True, False],
             [(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1e308), (1, 2, 1e308), (2, 0, 1.0), (2, 1, 1.0)]),
    ], ids=["subnormal-repair", "ratio-1e600", "ratio-1e400-then-2", "ratio-1e600-at-the-top", "fsum-overflow"])
    def test_a_ratio_past_the_double_range_in_one_step(self, chain):
        # each quotient overflowed to inf, and the normalization gave a residual of nan
        exact = exact_steady_state(chain)
        pi = steady_state(chain)
        for p, e in zip(pi, exact):
            if e >= 2.0 ** -1022:
                assert relative_error(p, e) <= 1e-13
            else:  # a subnormal keeps fewer bits; the exact value rounds to it within a few of its steps
                assert abs(p - float(e)) <= 4 * 2.0 ** -1074

    def test_every_steady_state_entry_matches_the_exact_solve(self):
        chain = ladder(6, 1e-3, 10.0, repairable_top=True)
        exact = exact_steady_state(chain)
        assert float(exact[5]) == pytest.approx(9.999e-21, rel=1e-12)
        pi = steady_state(chain)
        assert max(relative_error(p, e) for p, e in zip(pi, exact)) <= 1e-13
        assert mttr(chain, 5) == 0.1  # one step: the time of the single repair


@st.composite
def stiff_backbone_chains(draw):
    """2-8 states with rates 10**[-5, 5], ratios up to 1e10, many of them zero, over a backbone of
    positive rates i <-> i+1: every chain is irreducible, and its top state, the one failed state,
    is reachable from every other."""
    n = draw(st.integers(min_value=2, max_value=8))
    rate = st.floats(min_value=-5.0, max_value=5.0).map(lambda e: 10.0 ** e)
    rates = np.array(draw(st.lists(st.one_of(st.just(0.0), rate), min_size=n * n, max_size=n * n)))
    rates = rates.reshape(n, n)
    for i in range(n - 1):
        rates[i, i + 1], rates[i + 1, i] = draw(rate), draw(rate)
    return Ctmc([f"s{i}" for i in range(n)], [True] * (n - 1) + [False], triplets(rates))


@given(stiff_backbone_chains())
@settings(max_examples=100, deadline=None)
def test_elimination_keeps_every_entry_to_a_small_relative_error(chain):
    pi = steady_state(chain)
    assert max(relative_error(p, e) for p, e in zip(pi, exact_steady_state(chain))) <= 1e-13
    for start, tau in exact_hitting_times(chain, {chain.n - 1}).items():
        assert relative_error(mttf_absorbing(chain, start), tau) <= 1e-13


@given(rates_pairs)
@settings(max_examples=50, deadline=None)
def test_two_state_steady_state_property(pair):
    lam, mu = pair
    pi = steady_state(build_two_state(lam, mu))
    assert pi[0] == pytest.approx(mu / (lam + mu), rel=1e-9)


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
                f"state {i} ({chain.labels[i]}) can be visited but cannot "
                f"reach any {kind} state; expected hitting time is infinite"
            )
    return np.array(live, dtype=int)


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    edges = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    target = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    start = draw(st.integers(min_value=0, max_value=n - 1))
    rates = np.array(edges, dtype=float).reshape(n, n)
    chain = Ctmc([f"s{i}" for i in range(n)], [True] * n, triplets(rates))
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


@st.composite
def csr_chains(draw):
    """Chains of 1-40 states built with a drawn numpy seed, some with hub rows that exit everywhere.

    Returns the input matrix, the operational flags and the chain.  Rates
    span six decades; the input diagonal holds noise, negative or nan,
    which the chain must ignore.
    """
    n = draw(st.integers(1, 40))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.6]))
    rates = np.where(gen.random((n, n)) < density, 10.0 ** gen.uniform(-3, 3, (n, n)), 0.0)
    hubs = gen.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    rates[hubs] = 10.0 ** gen.uniform(-3, 3, (hubs.sum(), n))
    np.fill_diagonal(rates, np.where(gen.random(n) < 0.1, np.nan, gen.normal(size=n)))
    flags = gen.random(n) < 0.7
    flags[draw(st.integers(0, n - 1))] = True
    return rates, flags, Ctmc([f"s{i}" for i in range(n)], flags, triplets(rates))


def off_diagonal(rates) -> np.ndarray:
    q = np.array(rates, dtype=float)
    np.fill_diagonal(q, 0.0)
    return q


def dense_generator(rates) -> np.ndarray:
    """Q from off-diagonal rates: the diagonal is minus each row's fsum over the dense row."""
    q = off_diagonal(rates)
    np.fill_diagonal(q, [-math.fsum(row) for row in q])
    return q


def cumprob_oracle(rates) -> np.ndarray:
    """The walker's cumulative probabilities, row by row: np.cumsum of the row's rates / its exit rate."""
    q = off_diagonal(rates)
    exits = [math.fsum(row) for row in q]
    rows = []
    for i, row in enumerate(q):
        cp = np.cumsum(row[row > 0]) / exits[i]
        cp[-1:] = 1.0
        rows.append(cp)
    return np.concatenate(rows)


def bfs(adj: np.ndarray, start: int) -> np.ndarray:
    """Mask of the states that scipy's breadth-first search reaches from ``start`` in ``adj``."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[breadth_first_order(csr_matrix(adj.astype(float)), start, return_predecessors=False)] = True
    return seen


class TestStoredForm:
    """The CSR arrays against oracles that read only the input matrix."""

    @given(csr_chains())
    @settings(max_examples=100, deadline=None)
    def test_generator_is_the_dense_formula_of_the_input(self, case):
        rates, flags, chain = case
        q = dense_generator(rates)
        assert np.array_equal(chain.generator, q)
        assert np.array_equal(chain.exit_rates, -np.diag(q))
        cut = np.where(flags[:, None], rates, 0.0)
        assert np.array_equal(absorbing_variant(chain).generator, dense_generator(cut))

    @given(csr_chains())
    @settings(max_examples=100, deadline=None)
    def test_kernel_cumprobs_are_each_rows_own_cumsum(self, case):
        rates, flags, chain = case
        kernel = montecarlo._ChainKernel([chain, absorbing_variant(chain)])
        cut = np.where(flags[:, None], rates, 0.0)
        assert np.array_equal(kernel.cumprobs, np.concatenate([cumprob_oracle(rates), cumprob_oracle(cut)]))

    @given(csr_chains(), st.data(), st.sampled_from(["failure", "repair"]))
    @settings(max_examples=100, deadline=None)
    def test_searches_match_scipy_breadth_first_order(self, case, data, kind):
        rates, _, chain = case
        n = chain.n
        adj = off_diagonal(rates) > 0
        if bfs(adj, 0).all() and bfs(adj.T, 0).all():
            markov._require_irreducible(chain)
        else:
            with pytest.raises(StructureError, match="chain is reducible"):
                markov._require_irreducible(chain)
        target = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        start = data.draw(st.integers(0, n - 1))
        cut = adj & ~target[:, None]
        reach = bfs(cut, start)
        live = reach & ~target
        stuck = [i for i in np.flatnonzero(live) if not (bfs(cut, i) & target).any()]
        if not (reach & target).any():
            message = f"no {kind} state is reachable from state {start}"
        elif stuck:
            message = f"state {stuck[0]} (s{stuck[0]}) can be visited but cannot reach any {kind} state"
        else:
            assert np.array_equal(_vet_hitting_states(chain, start, target, kind), np.flatnonzero(live))
            return
        with pytest.raises(StructureError) as err:
            _vet_hitting_states(chain, start, target, kind)
        assert str(err.value).startswith(message)
