"""Monte Carlo reliability estimation over continuous-time Markov models.

Trials follow the standard stochastic-simulation recipe: in state i the
holding time is exponential with the state's total exit rate, and the next
state is chosen among competitors with probability proportional to its
rate.  Trial t draws its randomness exclusively from the counter-based
cell ``(seed, trial=t, substream)`` (see :mod:`securakit.rng`), and
estimates reduce per-trial outcomes in trial-index order, so results are
bit-identical no matter how many worker threads execute the trials.

Every estimator walks its trials in vectorized waves through
:func:`_walk_batch`, which consumes draws exactly as the single-path
:func:`simulate_trajectory` does; that one is the reference tests compare
against.  One walk's lanes may come from several cells: threshold
reliability walks all its chain subsystems at once on the disjoint union
of their kernels, lane (t, j) reading cell (seed, t, j), which changes no
draw.

Reliability and MTTF read per-trial absorption times (inf for a trial that
never fails) from one walk of the absorbing variant of the chain.
Reliability is horizon-limited (Eq.-10 style sample mean of survival
indicators); MTTF takes uncapped times (Eq.-11 style sample mean) with an
event-count cap as a runaway guard: a horizon would bias MTTF downward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import markov
from .errors import ConvergenceError, DomainError
from .markov import Ctmc
from .rng import TRIAL_BOUND, CounterRng, uniform_block, uniform_pairs

if TYPE_CHECKING:
    from .securability import RoutOfNSystem

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_MIN_SLICE = 50_000  # fewest trials per worker thread (see _run_partitioned)
_MERGED_LANES = 1 << 16  # most lanes in a walk that merges subsystems (see estimate_threshold_reliability)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Trial count, mission horizon, reproducibility seed, and threshold.

    ``threshold`` is the minimum fraction of subsystems that must be up in
    threshold-criterion systems.  ``max_events`` caps the per-trial event
    count of every walk, with or without a horizon; exceeding it raises
    ``ConvergenceError`` (without a horizon it signals an effectively
    unreachable failure set).  ``horizon`` is permitted to be zero for the
    degenerate instant mission (reliability exactly 1).
    """

    n_trials: int
    horizon: float
    seed: int
    threshold: float = 1.0
    max_events: int = 10 ** 9

    def __post_init__(self):
        if not (isinstance(self.n_trials, int) and 1 <= self.n_trials < TRIAL_BOUND):
            raise DomainError(f"n_trials must be an int in [1, 2**32), got {self.n_trials!r}")
        if not (math.isfinite(self.horizon) and self.horizon >= 0):
            raise DomainError(f"horizon must be finite and >= 0, got {self.horizon}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2 ** 64):
            raise DomainError(f"seed must be an int in [0, 2**64), got {self.seed!r}")
        if not 0 < self.threshold <= 1:
            raise DomainError(f"threshold must lie in (0, 1], got {self.threshold}")
        if self.max_events < 1:
            raise DomainError("max_events must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """One sampled path: (time, state) transitions plus how it ended.

    ``absorbed_at`` is the entry time into a state with no outgoing rates;
    ``None`` means the path survived to the horizon.
    """

    events: tuple[tuple[float, int], ...]
    absorbed_at: float | None = None

    def __post_init__(self):
        times = [e[0] for e in self.events]
        if any(t < 0 for t in times):
            raise DomainError("event times must be >= 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError("event times must be strictly increasing")
        object.__setattr__(self, "events", tuple((float(t), int(s)) for t, s in self.events))

    @property
    def survived_horizon(self) -> bool:
        return self.absorbed_at is None


@dataclass(frozen=True)
class Estimate:
    """Point estimate with its standard error and normal 95% CI: floats, or arrays over a curve."""

    value: float | np.ndarray
    std_error: float | np.ndarray
    ci95: tuple
    n_effective: int

    def __post_init__(self):
        lo, hi = self.ci95
        if np.any(np.less(self.std_error, 0)):
            raise DomainError("std_error must be >= 0")
        if not np.all(np.less_equal(lo, self.value) & np.less_equal(self.value, hi)):
            raise DomainError("ci95 must contain the point estimate")


def _binomial_estimate(successes, n: int) -> Estimate:
    value = np.divide(successes, n)
    se = np.sqrt(value * (1.0 - value) / n)
    lo = np.maximum(0.0, value - _Z95 * se)
    hi = np.minimum(1.0, value + _Z95 * se)
    return Estimate(value=value, std_error=se, ci95=(lo, hi), n_effective=n)


def _mean_estimate(samples: np.ndarray, clamp_low: float | None = None) -> Estimate:
    n = samples.size
    value = float(samples.sum() / n)
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    lo, hi = value - _Z95 * se, value + _Z95 * se
    if clamp_low is not None:
        lo = max(clamp_low, lo)
    return Estimate(value=value, std_error=se, ci95=(lo, hi), n_effective=n)


def simulate_trajectory(
    chain: Ctmc, start: int, horizon: float, rng: CounterRng, max_events: int = 10 ** 9
) -> Trajectory:
    """Sample one chain path from ``start``, truncated at ``horizon``.

    One block per jump: each jump reads the next pair of the stream, the
    holding time from its first double and the competing-exponentials
    state choice from its second, so the choice draw does not depend on
    whether the jump lands inside the horizon.  A start state with no
    exits yields an event-free surviving trajectory.
    """
    if not 0 <= start < chain.n:
        raise DomainError(f"start state {start} out of range 0..{chain.n - 1}")
    if not horizon >= 0:
        raise DomainError(f"horizon must be >= 0, got {horizon}")
    q = chain.generator
    exit_rates = chain.exit_rates()
    events: list[tuple[float, int]] = []
    state = start
    t = 0.0
    while True:
        rate = exit_rates[state]
        if rate <= 0:
            return Trajectory(events=tuple(events), absorbed_at=(events[-1][0] if events else None))
        u_hold, u = rng.uniform_pair()
        hold = float(-np.log(u_hold) / rate)
        if t + hold > horizon:
            return Trajectory(events=tuple(events), absorbed_at=None)
        t = t + hold
        row = q[state]
        acc = 0.0
        nxt = -1
        for j in range(chain.n):
            if j == state or row[j] <= 0:
                continue
            acc += row[j] / rate
            nxt = j
            if u <= acc:
                break
        state = nxt
        events.append((t, state))
        if len(events) > max_events:
            raise ConvergenceError(f"trajectory exceeded {max_events} events")


class _ChainKernel:
    """Per-state data for the vectorized trial walker, in CSR form.

    State s jumps to ``targets[offsets[s]:offsets[s+1]]`` with cumulative
    probabilities ``cumprobs`` over the same slice (the last one is 1); a
    state with no exits has an empty slice.  ``part[s]`` is the index of
    the chain that state s comes from: 0 in a kernel of one chain, the
    chain's position in a :meth:`union`.
    """

    def __init__(self, chain: Ctmc):
        q = chain.generator
        self.exit_rates = chain.exit_rates()
        self.operational = chain.operational_mask()
        self.part = np.zeros(chain.n, dtype=np.intp)
        targets, cumprobs = [], []
        for i in range(chain.n):
            row = np.array(q[i])
            row[i] = 0.0
            tgt = np.flatnonzero(row > 0) if self.exit_rates[i] > 0 else np.zeros(0, dtype=np.intp)
            cp = np.cumsum(row[tgt]) / self.exit_rates[i]
            cp[-1:] = 1.0
            targets.append(tgt)
            cumprobs.append(cp)
        self.targets = np.concatenate(targets)
        self.cumprobs = np.concatenate(cumprobs)
        self._index(np.array([tgt.size for tgt in targets]))

    @classmethod
    def union(cls, kernels: list[_ChainKernel], starts) -> tuple[_ChainKernel, np.ndarray]:
        """The disjoint union of ``kernels``, and ``starts[i]`` of kernel i as a state of it.

        Kernel i's states follow kernel i-1's: its state s is state
        ``base[i] + s`` of the union, so its targets shift by ``base[i]``
        and its cumulative probabilities stay as they are.
        """
        base = np.cumsum([0] + [k.exit_rates.size for k in kernels])
        self = cls.__new__(cls)
        self.exit_rates = np.concatenate([k.exit_rates for k in kernels])
        self.operational = np.concatenate([k.operational for k in kernels])
        self.part = np.repeat(np.arange(len(kernels)), np.diff(base))
        self.targets = np.concatenate([k.targets + b for k, b in zip(kernels, base)])
        self.cumprobs = np.concatenate([k.cumprobs for k in kernels])
        self._index(np.concatenate([np.diff(k.offsets) for k in kernels]))
        return self, base[:-1] + starts

    def _index(self, degree: np.ndarray) -> None:
        # CSR offsets from each state's out-degree, and the search depth of choose
        self.offsets = np.concatenate(([0], np.cumsum(degree)))
        self._last = self.offsets[1:] - 1
        self._rounds = math.ceil(math.log2(degree.max())) if degree.max() > 1 else 0

    def choose(self, state: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next state of each lane: the first target whose cumulative probability is >= u.

        A binary search over each lane's CSR slice, run for all lanes at
        once in ceil(log2(max out-degree)) rounds of halving steps; it
        counts the ``cumprob < u`` entries of the slice, which is what
        ``np.searchsorted(side="left")`` returns.  Every ``state`` must
        have an exit.
        """
        pos = self.offsets[state]
        last = self._last[state] if self._rounds > 1 else None
        for r in reversed(range(self._rounds)):
            step = 1 << r
            # the last entry is 1 >= u, so a probe past it never advances
            probe = np.minimum(pos + (step - 1), last) if step > 1 else pos
            np.add(pos, step, out=pos, where=self.cumprobs[probe] < u)
        return self.targets[pos]


def _walk_batch(
    kernel: _ChainKernel,
    start,
    lo: int,
    hi: int,
    seed: int,
    substream,
    horizon: float | None,
    max_events: int,
    occupancy_mask: np.ndarray | None = None,
    burn_in: float = 0.0,
    flip_log: list | None = None,
):
    """Walk trials ``lo..hi-1`` in synchronized waves.

    ``start`` and ``substream`` are a state and a substream id, or two
    arrays of k entries: then each trial t walks k lanes, and lane (t, i)
    starts at ``start[i]``, a state of the kernel's part i, and draws from
    cell ``(seed, t, substream[i])``.  One walk's lanes may so come from
    several cells; a lane never leaves its part, so its state names its
    cell.  Every lane still walking at wave w has made w jumps, so its
    jump reads block w of its cell: the holding time from the block's
    first double and the state choice from its second, the same draws as
    :func:`simulate_trajectory`.  Outcomes therefore depend only on
    (seed, trial, substream), never on the batch partition or on which
    lanes share a walk.  The walking lanes are kept as compacted (trial,
    state, time) arrays that are filtered only when lanes stop: past the
    horizon or in a state with no exits.

    A ``flip_log`` list receives, per wave, ``(trial, substream, time,
    delta)`` arrays for the lanes whose jump changed operational status
    (delta +1 on entering the operational set, -1 on leaving it).

    Returns (absorb_time, occupancy_time) arrays with one entry per lane,
    lane (t, i) at (t - lo) * k + i; absorb_time is the entry time into a
    non-operational state with no exits, or inf.
    """
    k = np.size(start)
    m = (hi - lo) * k
    first = np.uint64(lo)
    trial = np.repeat(np.arange(lo, hi, dtype=np.uint64), k)
    state = np.tile(np.asarray(start, dtype=np.int64), hi - lo)
    # each state's substream: its part's
    substream_of = np.broadcast_to(np.asarray(substream, dtype=np.uint64), (k,))[kernel.part]
    t = np.zeros(m)
    absorb_time = np.full(m, np.inf)
    occupancy = np.zeros(m)
    track = occupancy_mask is not None

    def slot(lanes):
        # index of each lane (t, i) in the returned arrays
        return (trial[lanes] - first).astype(np.intp) * k + kernel.part[state[lanes]]

    def credit(lanes, interval_end):
        # time ``lanes`` spend in their current state, clipped to [burn_in, horizon]
        in_target = occupancy_mask[state[lanes]]
        span = np.clip(interval_end, burn_in, horizon) - np.clip(t[lanes], burn_in, horizon)
        occupancy[slot(lanes)[in_target]] += span[in_target]

    wave = 0
    while trial.size:
        rates = kernel.exit_rates[state]
        stuck = rates <= 0
        if np.any(stuck):
            lanes = np.flatnonzero(stuck)
            down = lanes[~kernel.operational[state[lanes]]]
            absorb_time[slot(down)] = t[down]
            if track:
                credit(stuck, horizon)
            keep = ~stuck
            trial, state, t, rates = trial[keep], state[keep], t[keep], rates[keep]
            if not trial.size:
                break
        # one cell per trial (k == 1): a scalar substream spares a gather per wave
        hold, choice = uniform_pairs(seed, trial, substream if k == 1 else substream_of[state], wave)
        np.log(hold, out=hold)
        hold /= rates
        t_new = t - hold  # plus an Exp(rate) holding time, -log(u) / rate
        if track:
            credit(slice(None), t_new)
        if horizon is not None:
            keep = t_new <= horizon
            if not keep.all():
                trial, state, t_new, choice = trial[keep], state[keep], t_new[keep], choice[keep]
                if not trial.size:
                    break
        if wave + 1 > max_events:
            if horizon is None:
                raise ConvergenceError(
                    f"a trial exceeded {max_events} events; the failure set may be "
                    "effectively unreachable"
                )
            raise ConvergenceError(
                f"a trial exceeded {max_events} events before horizon {horizon:g}; "
                "raise max_events"
            )
        nxt = kernel.choose(state, choice)
        if flip_log is not None:
            now_op = kernel.operational[nxt]
            flipped = now_op != kernel.operational[state]
            flip_log.append((trial[flipped].astype(np.int64), substream_of[state[flipped]],
                             t_new[flipped], np.where(now_op[flipped], 1, -1)))
        state, t = nxt, t_new
        wave += 1
    return absorb_time, occupancy


def _run_partitioned(worker, n_trials: int, threads: int):
    """Run ``worker(lo, hi)`` over a partition of [0, n_trials).

    Each worker thread gets at least ``_MIN_SLICE`` trials: the walker
    runs a Python-level wave per jump under the interpreter lock, and on
    smaller slices a second thread costs more than it saves.  Results do
    not depend on the partition.
    """
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    threads = min(threads, -(-n_trials // _MIN_SLICE))
    if threads == 1:
        worker(0, n_trials)
        return
    from concurrent.futures import ThreadPoolExecutor  # loaded only by jobs that start threads

    bounds = np.linspace(0, n_trials, threads + 1).astype(int)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(worker, int(a), int(b)) for a, b in zip(bounds, bounds[1:])]
        for f in futures:
            f.result()


def _absorption_times(chain: Ctmc, start: int, cfg: MonteCarloConfig, horizon: float | None,
                      threads: int) -> np.ndarray:
    """Per-trial time of first failure, inf if none by ``horizon``: one walk of the absorbing variant."""
    kernel = _ChainKernel(markov.absorbing_variant(chain))
    absorb = np.empty(cfg.n_trials)

    def worker(lo, hi):
        absorb[lo:hi], _ = _walk_batch(kernel, start, lo, hi, cfg.seed, 0, horizon, cfg.max_events)

    _run_partitioned(worker, cfg.n_trials, threads)
    return absorb


def estimate_reliability(chain: Ctmc, start: int, cfg: MonteCarloConfig, threads: int = 1) -> Estimate:
    """Fraction of trials that never leave the operational set by the horizon.

    Trials run on the absorbing variant of the chain; the estimate is the
    sample mean of survival indicators with binomial standard error and a
    normal 95% CI clamped to [0, 1].  It is the reliability curve at the one
    time ``cfg.horizon``.
    """
    return estimate_reliability_curve(chain, start, cfg, cfg.horizon, threads)


def estimate_reliability_curve(
    chain: Ctmc, start: int, cfg: MonteCarloConfig, times, threads: int = 1
) -> Estimate:
    """Survival estimates at several horizons from one shared set of trials.

    Trials walk the absorbing variant once, out to the largest requested
    time; the estimate at time t is the fraction of trials not yet absorbed
    by t, in one :class:`Estimate` with an array entry per time (floats if
    ``times`` is one number).  Point estimates across the grid are
    therefore correlated, but each is the unbiased estimator at its time.
    """
    _check_operational_start(chain, start)
    grid = np.asarray(times, dtype=float)
    if grid.size == 0:
        raise DomainError("times must be nonempty")
    if np.any(grid < 0) or np.any(np.isnan(grid)):
        raise DomainError("times must be >= 0")
    horizon = float(max(grid.max(), cfg.horizon))
    absorb = np.sort(_absorption_times(chain, start, cfg, horizon, threads))
    # trials still unabsorbed at t: those whose absorption time is > t
    alive = cfg.n_trials - np.searchsorted(absorb, grid, side="right")
    return _binomial_estimate(alive, cfg.n_trials)


def estimate_mttf(chain: Ctmc, start: int, cfg: MonteCarloConfig, threads: int = 1) -> Estimate:
    """Mean sampled time to absorption into the non-operational set.

    Trials walk the absorbing variant without a horizon cap (capping would
    bias the mean downward) but with a hard per-trial event cap.  Requires
    the failure set to be reachable from every operational state the walk
    can visit.
    """
    _check_operational_start(chain, start)
    markov.vet_absorption(chain, start)
    return _mean_estimate(_absorption_times(chain, start, cfg, None, threads), clamp_low=0.0)


def estimate_occupancy(
    chain: Ctmc,
    start: int,
    cfg: MonteCarloConfig,
    target_states: tuple[int, ...],
    burn_in: float = 0.0,
    threads: int = 1,
) -> Estimate:
    """Long-run fraction of time spent in ``target_states``.

    Each trial simulates the unmodified chain over [0, horizon] and reports
    the fraction of the window [burn_in, horizon] spent in the target set;
    a burn-in long enough to forget the start state makes the mean an
    unbiased steady-state occupancy estimate.
    """
    if not 0 <= start < chain.n:
        raise DomainError(f"start state {start} out of range 0..{chain.n - 1}")
    if not 0 <= burn_in < cfg.horizon:
        raise DomainError("burn_in must satisfy 0 <= burn_in < horizon")
    mask = np.zeros(chain.n, dtype=bool)
    for s in target_states:
        if not 0 <= s < chain.n:
            raise DomainError(f"target state {s} out of range 0..{chain.n - 1}")
        mask[s] = True
    kernel = _ChainKernel(chain)
    window = cfg.horizon - burn_in
    frac = np.zeros(cfg.n_trials)

    def worker(lo, hi):
        _, occ = _walk_batch(
            kernel, start, lo, hi, cfg.seed, 0, cfg.horizon, cfg.max_events,
            occupancy_mask=mask, burn_in=burn_in,
        )
        frac[lo:hi] = occ / window

    _run_partitioned(worker, cfg.n_trials, threads)
    return _mean_estimate(frac, clamp_low=0.0)


def estimate_threshold_reliability(
    system: RoutOfNSystem, cfg: MonteCarloConfig, threads: int = 1
) -> Estimate:
    """Survival frequency of a threshold-criterion system of subsystems.

    System performance at any instant is the fraction of subsystems
    currently operational; a trial fails if it is below ``cfg.threshold``
    at t=0 or at any later instant.  Subsystem j of trial t draws from
    stream (seed, t, substream=j): a bare probability is one Bernoulli
    draw at t=0, held over the mission, and the chain subsystems are
    walked together by :func:`_walk_batch` on the union of their kernels,
    which logs their status flips.  A walk holds at most
    max(trials in the slice, ``_MERGED_LANES``) lanes; past that the chain
    subsystems are split over several walks, which changes no draw.  The
    cap bounds memory: a walk keeps about 75 bytes per lane, so when few
    flips are logged, merging k subsystems of a large slice would raise
    the peak nearly k-fold.  The
    flips of all subsystems are sorted by (trial, time, subsystem, delta)
    and the running count of operational subsystems is checked after each.
    """
    from .securability import ChainSubsystem  # loaded only by threshold jobs

    n, subs = system.n, system.subsystems
    is_chain = np.array([isinstance(sub, ChainSubsystem) for sub in subs])
    chains, bare = np.flatnonzero(is_chain), np.flatnonzero(~is_chain)
    p_up = np.array([subs[j] for j in bare])
    kernels = [_ChainKernel(subs[j].chain) for j in chains]
    starts = np.array([subs[j].start for j in chains], dtype=np.int64)
    chains_up = sum(k.operational[s] for k, s in zip(kernels, starts))  # chain subsystems up at t=0
    survived = np.zeros(cfg.n_trials, dtype=bool)

    def worker(lo, hi):
        draws = uniform_block(cfg.seed, np.arange(lo, hi)[:, None], bare, 0)
        up = chains_up + np.sum(draws <= p_up, axis=1)  # operational subsystems at t=0
        flips = []
        per_walk = max(hi - lo, _MERGED_LANES) // (hi - lo)
        for g in range(0, len(chains), per_walk):
            part = slice(g, g + per_walk)
            kernel, start = _ChainKernel.union(kernels[part], starts[part])
            _walk_batch(kernel, start, lo, hi, cfg.seed, chains[part], cfg.horizon, cfg.max_events,
                        flip_log=flips)
        ok = up / n >= cfg.threshold
        if flips:
            trial, sub_id, when, delta = (np.concatenate(col) for col in zip(*flips))
            order = np.lexsort((delta, sub_id, when, trial))
            trial, delta = trial[order], delta[order]
            count = np.concatenate(([0], np.cumsum(delta)))
            # operational count after each flip: the trial's t=0 count plus its flips so far
            level = up[trial - lo] + count[1:] - count[np.searchsorted(trial, trial)]
            ok[trial[level / n < cfg.threshold] - lo] = False
        survived[lo:hi] = ok

    _run_partitioned(worker, cfg.n_trials, threads)
    return _binomial_estimate(int(survived.sum()), cfg.n_trials)


def _check_operational_start(chain: Ctmc, start: int) -> None:
    if not 0 <= start < chain.n:
        raise DomainError(f"start state {start} out of range 0..{chain.n - 1}")
    if not chain.operational_mask()[start]:
        raise DomainError(f"start state {start} must be operational")
