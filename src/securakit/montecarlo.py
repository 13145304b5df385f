"""Monte Carlo reliability estimation over continuous-time Markov models.

Trials follow the standard stochastic-simulation recipe: in state i the
holding time is exponential with the state's total exit rate, and the next
state is chosen among competitors with probability proportional to its
rate.  Trial t draws its randomness exclusively from the counter-based
cell ``(seed, trial=t, substream)`` (see :mod:`securakit.rng`), and
estimates reduce per-trial outcomes in trial-index order, so results are
bit-identical no matter how many worker processes execute the trials.

Every estimator walks its trials in vectorized waves through
:func:`_walk_batch`, which consumes draws exactly as the single-path
:func:`simulate_trajectory` does; that one is the reference tests compare
against.  One walk's lanes may come from several cells: threshold
reliability walks all its chain subsystems at once on the kernel of
their disjoint union, lane (t, j) reading cell (seed, t, j), which changes
no draw.

A walk returns one thing: the status flips of its lanes, one (trial,
substream, time, delta) entry per jump that enters (+1) or leaves (-1) a
given set of states.  Each estimator reduces that log.  Reliability and
MTTF read per-trial absorption times (inf for a trial that never fails)
from one walk of the absorbing variant of the chain, where a trial flips
at most once, at its failure; occupancy integrates each trial's flips
over the window; threshold reliability merges the flips of its chain
subsystems.  Reliability is horizon-limited (Eq.-10 style sample mean of
survival indicators); MTTF takes uncapped times (Eq.-11 style sample
mean) with an event-count cap as a runaway guard: a horizon would bias
MTTF downward.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from . import markov, rng
from .errors import ConvergenceError, DomainError
from .markov import Ctmc
from .rng import TRIAL_BOUND, CounterRng, uniform_block, uniform_pairs

if TYPE_CHECKING:
    from .securability import RoutOfNSystem

_MIN_SLICE = 50_000  # fewest trials per worker process (see _run_partitioned)
_MERGED_LANES = 1 << 16  # most lanes in a walk that merges subsystems (see estimate_threshold_reliability)


class MonteCarloConfig:
    """Trial count, mission horizon, reproducibility seed, and threshold.

    ``threshold`` is the minimum fraction of subsystems that must be up in
    threshold-criterion systems.  ``max_events`` caps the per-trial event
    count of every walk, with or without a horizon; exceeding it raises
    ``ConvergenceError`` (without a horizon it signals an effectively
    unreachable failure set).  ``horizon`` is permitted to be zero for the
    degenerate instant mission (reliability exactly 1).
    """

    def __init__(self, n_trials: int, horizon: float, seed: int, threshold: float = 1.0,
                 max_events: int = 10 ** 9):
        if not (isinstance(n_trials, int) and 1 <= n_trials < TRIAL_BOUND):
            raise DomainError(f"n_trials must be an int in [1, 2**32), got {n_trials!r}")
        if not (math.isfinite(horizon) and horizon >= 0):
            raise DomainError(f"horizon must be finite and >= 0, got {horizon}")
        if not (isinstance(seed, int) and 0 <= seed < 2 ** 64):
            raise DomainError(f"seed must be an int in [0, 2**64), got {seed!r}")
        if not 0 < threshold <= 1:
            raise DomainError(f"threshold must lie in (0, 1], got {threshold}")
        if max_events < 1:
            raise DomainError("max_events must be >= 1")
        self.n_trials, self.horizon, self.seed = n_trials, horizon, seed
        self.threshold, self.max_events = threshold, max_events


class Trajectory:
    """One sampled path: (time, state) transitions plus how it ended.

    ``absorbed_at`` is the entry time into a state with no outgoing rates;
    ``None`` means the path survived to the horizon.
    """

    def __init__(self, events: tuple[tuple[float, int], ...], absorbed_at: float | None = None):
        times = [e[0] for e in events]
        if any(t < 0 for t in times):
            raise DomainError("event times must be >= 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError("event times must be strictly increasing")
        self.events, self.absorbed_at = tuple((float(t), int(s)) for t, s in events), absorbed_at


class Estimate:
    """Point estimate with its standard error: floats, or arrays over a curve."""

    def __init__(self, value: float | np.ndarray, std_error: float | np.ndarray):
        if np.any(np.less(std_error, 0)):
            raise DomainError("std_error must be >= 0")
        self.value, self.std_error = value, std_error

    def __eq__(self, other):
        if not isinstance(other, Estimate):
            return NotImplemented
        return np.array_equal(self.value, other.value) and np.array_equal(self.std_error, other.std_error)


def _binomial_estimate(successes, n: int) -> Estimate:
    value = np.divide(successes, n)
    return Estimate(value, np.sqrt(value * (1.0 - value) / n))


def _mean_estimate(samples: np.ndarray) -> Estimate:
    # every sample is >= 0, so the largest bounds them all.  The sum and the squared deviations are
    # formed on the samples scaled by 2**-e, below 1, so they cannot overflow; a power of two scales
    # exactly, so a mean and an error within the double range keep their bits.
    n = samples.size
    e = math.frexp(samples.max())[1]
    scaled = np.ldexp(samples, -e)
    value = math.ldexp(float(scaled.sum() / n), e)
    se = math.ldexp(float(scaled.std(ddof=1)), e) / math.sqrt(n) if n > 1 else 0.0
    return Estimate(value, se)


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
    markov.check_start(chain, start)
    if not horizon >= 0:
        raise DomainError(f"horizon must be >= 0, got {horizon}")
    offsets, exit_rates = chain.offsets, chain.exit_rates
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
        lo, hi = offsets[state], offsets[state + 1]
        for nxt, acc in zip(chain.targets[lo:hi], accumulate(chain.rates[lo:hi])):
            if u <= acc / rate:  # the cumulative probabilities of _ChainKernel, to the bit
                break
        state = nxt
        events.append((t, state))
        if len(events) > max_events:
            raise ConvergenceError(f"trajectory exceeded {max_events} events")


class _ChainKernel:
    """Per-state data for the vectorized trial walker, in CSR form.

    The kernel of a list of chains is that of their disjoint union: chain
    i's state s is state ``base[i] + s``, and ``part`` holds each state's
    chain index.  The chains' CSR arrays are joined as they are: state s
    jumps to ``targets[offsets[s]:offsets[s+1]]`` with cumulative
    probabilities ``cumprobs`` over the same slice (the last one is 1); a
    state with no exits has an empty slice.  A row's cumulative sums add
    its rates in CSR order, one at a time, and are divided by its exit rate.
    """

    def __init__(self, chains: list[Ctmc]):
        sizes = [chain.n for chain in chains]
        self.base = np.cumsum([0] + sizes[:-1])
        self.part = np.repeat(np.arange(len(chains)), sizes)
        self.exit_rates = np.concatenate([chain.exit_rates for chain in chains])
        self.operational = np.concatenate([chain.operational for chain in chains])
        self.targets = np.concatenate([np.array(chain.targets, dtype=np.intp) + first
                                       for chain, first in zip(chains, self.base)])
        degree = np.concatenate([np.diff(chain.offsets) for chain in chains])
        self.offsets = np.concatenate(([0], np.cumsum(degree)))
        self._last = self.offsets[1:] - 1
        self.cumprobs = np.array([acc / chain.exit_rates[s] for chain in chains for s in range(chain.n)
                                  for acc in accumulate(chain.rates[chain.offsets[s]:chain.offsets[s + 1]])])
        self.cumprobs[self._last[degree > 0]] = 1.0
        self._rounds = math.ceil(math.log2(degree.max())) if degree.max() > 1 else 0  # search depth of choose

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
            below = self.cumprobs[probe] < u
            pos += below * step if step > 1 else below
        return self.targets[pos]


def _walk_batch(kernel: _ChainKernel, watched: np.ndarray, start, lo: int, hi: int, seed: int, substream,
                horizon: float | None, max_events: int):
    """Walk trials ``lo..hi-1`` in synchronized waves and return their status flips.

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
    lanes share a walk.  The walking lanes are kept as (trial, state,
    time, exit rate) arrays, compacted once per wave, after the jump: a
    lane stops once its jump lands past the horizon, whose flip is not
    logged, or in a state with no exits.  A walk without a horizon whose
    wave no longer fills a cipher chunk (``rng._CHUNK``) draws blocks
    w .. w + depth - 1 of each lane at once, depth = min(``rng._CHUNK //
    lanes``, w), and keeps the rows not yet used, compacted with the
    lanes, for the next waves, so its thin tail still runs the cipher over
    full chunks; every other wave draws block w alone.  Block w of a lane
    is the same double however far ahead it was drawn.

    Returns the flip log: four arrays ``(trial, substream, time, delta)``
    with one entry per jump that enters (delta +1) or leaves (delta -1)
    the states of the bool mask ``watched``, in wave order, so each lane's
    flips come in time order.
    """
    k = np.size(start)
    trial = np.repeat(np.arange(lo, hi, dtype=np.uint64), k)
    nxt = np.tile(np.asarray(start, dtype=np.int64), hi - lo)
    # each state's substream: its part's
    substream_of = np.broadcast_to(np.asarray(substream, dtype=np.uint64), (k,))[kernel.part]
    t = np.zeros(trial.size)
    holds = choices = np.zeros((0, trial.size))  # blocks drawn ahead: row i is block wave + i of each lane
    log = [(np.zeros(0, dtype=np.int64), substream_of[:0], t[:0], np.zeros(0, dtype=np.int64))]
    within = None
    wave = 0
    while True:
        # the one compaction of a wave: keep the lanes within the horizon whose new state has exits
        rates = kernel.exit_rates[nxt]
        keep = rates > 0
        if within is not None:
            keep &= within
        kept = np.flatnonzero(keep)
        if kept.size < trial.size:
            trial, nxt, t, rates = trial[kept], nxt[kept], t[kept], rates[kept]
            holds, choices = np.take(holds, kept, axis=1), np.take(choices, kept, axis=1)
        state = nxt
        if not trial.size:
            break
        if not len(holds):
            # without a horizon a lane walks on until it is absorbed, so once a wave no longer fills a cipher
            # chunk, blocks drawn ahead to fill one get used; lanes in the tail of a horizon walk are about
            # to cross it and would leave theirs unused.  No lane is drawn more blocks ahead than it has
            # used, so a lane absorbed early wastes fewer blocks than it reads
            depth = max(1, min(rng._CHUNK // trial.size, wave)) if horizon is None else 1
            ahead = np.arange(wave, wave + depth, dtype=np.uint64)[:, None]
            # one cell per trial (k == 1): a scalar substream spares a gather
            holds, choices = uniform_pairs(seed, trial, substream if k == 1 else substream_of[state], ahead)
        hold, choice, holds, choices = holds[0], choices[0], holds[1:], choices[1:]
        np.log(hold, out=hold)
        hold /= rates
        t -= hold  # plus an Exp(rate) holding time, -log(u) / rate
        if horizon is not None:
            within = t <= horizon
        if wave + 1 > max_events and (within is None or within.any()):
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
        now_in = watched[nxt]
        changed = now_in != watched[state]
        if within is not None:
            changed &= within
        flipped = np.flatnonzero(changed)
        log.append((trial[flipped].astype(np.int64), substream_of[state[flipped]], t[flipped],
                    np.where(now_in[flipped], 1, -1)))
        wave += 1
    return tuple(np.concatenate(col) for col in zip(*log))


def _run_partitioned(worker, n_trials: int, threads: int) -> list:
    """``worker(lo, hi)`` of each slice of a partition of [0, n_trials), in slice order.

    ``threads`` is the number of worker processes.  This process walks
    slice 0 itself, and each other slice runs in a forked child that sends
    its pickled result, or the exception it raised, back through a pipe;
    the first error in slice order is raised here with its type and
    message.  Every read end is closed before the children are reaped, so
    a child blocked writing a large result to a parent whose own slice
    raised still exits, and no child outlives the call.  Each worker gets
    at least ``_MIN_SLICE`` trials: on smaller slices the fork and the
    pipe cost more than a second core saves.  Where ``os.fork`` is missing
    the job runs as one slice in process.  Results do not depend on the
    partition.
    """
    import os
    import pickle

    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    threads = min(threads, -(-n_trials // _MIN_SLICE))
    if threads == 1 or not hasattr(os, "fork"):
        return [worker(0, n_trials)]
    bounds = np.linspace(0, n_trials, threads + 1).astype(int).tolist()
    reads, pids = [], []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
            except BaseException:
                os.close(w)
                raise
            if pid == 0:
                _serve_slice(worker, lo, hi, w, reads)
            os.close(w)
            pids.append(pid)
        results = [worker(bounds[0], bounds[1])]
        for r, lo, hi in zip(reads, bounds[1:-1], bounds[2:]):
            with os.fdopen(r, "rb", closefd=False) as pipe:
                reply = pipe.read()
            if not reply:
                raise ChildProcessError(f"the worker process of trials {lo}..{hi - 1} ended without a result")
            ok, value = pickle.loads(reply)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for r in reads:
            os.close(r)
        for pid in pids:
            os.waitpid(pid, 0)


def _serve_slice(worker, lo: int, hi: int, pipe: int, inherited: list[int]):
    """In a forked child: write ``worker(lo, hi)``, or what it raised, pickled to ``pipe``; never return.

    The child leaves through ``os._exit``, whatever happens, so it never
    unwinds into the caller's stack, flushes the parent's stdio or runs
    its atexit hooks.  It first closes the read ends it inherited, so a
    parent that closes its own read end of a pipe leaves it no reader.
    """
    import os
    import pickle

    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            reply = pickle.dumps((True, worker(lo, hi)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            reply = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(pipe, "wb") as out:
            out.write(reply)
        status = 0
    finally:
        os._exit(status)


def _absorption_times(chain: Ctmc, start: int, cfg: MonteCarloConfig, horizon: float | None,
                      threads: int) -> np.ndarray:
    """Per-trial time of first failure, inf if none by ``horizon``: one walk of the absorbing variant.

    A trial there leaves the operational set at most once, at its failure.
    """
    kernel = _ChainKernel([markov.absorbing_variant(chain)])

    def worker(lo, hi):
        trial, _, when, _ = _walk_batch(kernel, kernel.operational, start, lo, hi, cfg.seed, 0, horizon,
                                        cfg.max_events)
        absorb = np.full(hi - lo, np.inf)
        absorb[trial - lo] = when
        return absorb

    return np.concatenate(_run_partitioned(worker, cfg.n_trials, threads))


def estimate_reliability(chain: Ctmc, start: int, cfg: MonteCarloConfig, threads: int = 1) -> Estimate:
    """Fraction of trials that never leave the operational set by the horizon.

    Trials run on the absorbing variant of the chain; the estimate is the
    sample mean of survival indicators with its binomial standard error.  It
    is the reliability curve at the one time ``cfg.horizon``.
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
    markov.check_start(chain, start, operational=True)
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
    markov.vet_absorption(chain, start)
    return _mean_estimate(_absorption_times(chain, start, cfg, None, threads))


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
    unbiased steady-state occupancy estimate.  The time in the set is the
    start's membership times the window plus, for each flip in the walk's
    log, delta * (horizon - clip(time, burn_in, horizon)), summed in flip
    order; a trial that never changes membership thus gives exactly 0 or 1.
    """
    markov.check_start(chain, start)
    if not 0 <= burn_in < cfg.horizon:
        raise DomainError("burn_in must satisfy 0 <= burn_in < horizon")
    mask = np.zeros(chain.n, dtype=bool)
    for s in target_states:
        if not 0 <= s < chain.n:
            raise DomainError(f"target state {s} out of range 0..{chain.n - 1}")
        mask[s] = True
    kernel = _ChainKernel([chain])
    window = cfg.horizon - burn_in

    def worker(lo, hi):
        # the start's membership over the window, plus each flip's signed share of it
        trial, _, when, delta = _walk_batch(kernel, mask, start, lo, hi, cfg.seed, 0, cfg.horizon,
                                            cfg.max_events)
        share = delta * (cfg.horizon - np.clip(when, burn_in, cfg.horizon))
        return (mask[start] * window + np.bincount(trial - lo, share, hi - lo)) / window

    return _mean_estimate(np.concatenate(_run_partitioned(worker, cfg.n_trials, threads)))


def estimate_threshold_reliability(
    system: RoutOfNSystem, cfg: MonteCarloConfig, threads: int = 1
) -> Estimate:
    """Survival frequency of a threshold-criterion system of subsystems.

    System performance at any instant is the fraction of subsystems
    currently operational; a trial fails if it is below ``cfg.threshold``
    at t=0 or at any later instant.  Subsystem j of trial t draws from
    stream (seed, t, substream=j): a bare probability is one Bernoulli
    draw at t=0, held over the mission, and the chain subsystems are
    walked together by :func:`_walk_batch` on the kernel of their disjoint
    union, which logs their status flips.  A walk holds at most
    max(trials in the slice, ``_MERGED_LANES``) lanes; past that the chain
    subsystems are split over several walks, which changes no draw.  The
    cap bounds memory: a walk keeps about 80 bytes per lane, so when few
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
    starts = np.array([subs[j].start for j in chains], dtype=np.int64)
    chains_up = sum(subs[j].chain.operational[s] for j, s in zip(chains, starts))  # up at t=0

    def worker(lo, hi):
        draws = uniform_block(cfg.seed, np.arange(lo, hi)[:, None], bare, 0)
        up = chains_up + np.sum(draws <= p_up, axis=1)  # operational subsystems at t=0
        flips = []
        per_walk = max(hi - lo, _MERGED_LANES) // (hi - lo)
        for g in range(0, len(chains), per_walk):
            part = slice(g, g + per_walk)
            kernel = _ChainKernel([subs[j].chain for j in chains[part]])
            flips.append(_walk_batch(kernel, kernel.operational, kernel.base + starts[part], lo, hi, cfg.seed,
                                     chains[part], cfg.horizon, cfg.max_events))
        ok = up / n >= cfg.threshold
        if flips:
            trial, sub_id, when, delta = (np.concatenate(col) for col in zip(*flips))
            order = np.lexsort((delta, sub_id, when, trial))
            trial, delta = trial[order], delta[order]
            count = np.concatenate(([0], np.cumsum(delta)))
            # operational count after each flip: the trial's t=0 count plus its flips so far
            level = up[trial - lo] + count[1:] - count[np.searchsorted(trial, trial)]
            ok[trial[level / n < cfg.threshold] - lo] = False
        return ok

    survived = np.concatenate(_run_partitioned(worker, cfg.n_trials, threads))
    return _binomial_estimate(int(survived.sum()), cfg.n_trials)
