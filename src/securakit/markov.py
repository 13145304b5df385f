"""Continuous-time Markov chain reliability engine.

The canonical model object is a :class:`Ctmc`: labeled states, a mask of
the operational ones and the transition rates.  It has one constructor,
which takes the off-diagonal rates as an n x n matrix and stores them once,
in CSR form, with each state's exit rate.  The reachability searches and
the Monte Carlo kernel read the CSR arrays; the generator Q, whose rows
sum to zero, is formed from them as a dense matrix where a solver needs
one.  Steady states come from a dense linear solve, and transient
distributions from uniformization, which keeps probabilities nonnegative
and carries a certified truncation error.

Availability and reliability are deliberately distinct: availability sums
operational-state mass on the unmodified chain (repairs allowed), while
reliability applies the same sum to an absorbing variant in which every
non-operational state has its outgoing rates removed, so a repaired system
still counts as failed once it has left the operational set.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    SingularSystemError,
    StructureError,
)

ROW_SUM_TOL = 1e-12
STEADY_RESIDUAL_TOL = 1e-10
UNIFORMIZATION_TAIL = 1e-13
_MAX_UNIFORMIZATION_TERMS = 5_000_000


class Ctmc:
    """Labeled states, their operational mask and their transition rates, stored once in CSR form.

    ``labels`` are distinct strings, one per state; ``operational`` is a
    read-only bool mask over the states with at least one True.  ``rates``
    is given as the n x n matrix of off-diagonal rates, finite and >= 0;
    its diagonal is ignored.  It is kept as CSR: state i jumps to
    ``targets[offsets[i]:offsets[i + 1]]``, in ascending order, at the
    ``rates`` over the same slice.  ``exit_rates[i]`` is the sum of row i,
    taken over the whole dense row.  The generator Q, whose rows sum to
    zero, is derived: see :attr:`generator`.  Every array is read-only.
    """

    def __init__(self, labels: tuple[str, ...], operational: np.ndarray, rates: np.ndarray):
        labels = tuple(str(label) for label in labels)
        op = np.array(operational, dtype=bool)
        n = len(labels)
        if op.shape != (n,):
            raise DomainError("labels and operational flags must have equal length")
        if not n:
            raise DomainError("state space must contain at least one state")
        if not op.any():
            raise DomainError("state space needs at least one operational state")
        if len(set(labels)) < n:
            repeated = next(label for i, label in enumerate(labels) if label in labels[:i])
            raise DomainError(f"duplicate state label {repeated!r}")
        q = np.array(rates, dtype=float)
        if q.shape != (n, n):
            raise DomainError(f"generator must be {n}x{n}, got {q.shape}")
        np.fill_diagonal(q, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # finite rates may sum past the largest double
            exit_rates = q.sum(axis=1)
        i = np.argmin(np.isfinite(exit_rates))  # the first state whose exit rate is not finite, if any
        if not np.isfinite(exit_rates[i]):
            raise DomainError(
                f"generator entries must be finite; state {i} ({labels[i]}) has exit rate {exit_rates[i]}")
        if np.any(q < 0):
            raise DomainError("off-diagonal generator entries must be >= 0")
        self.labels = labels
        self._store(operational=op, targets=np.nonzero(edges := q > 0)[1], rates=q[edges],
                    offsets=np.concatenate(([0], np.cumsum(edges.sum(axis=1)))), exit_rates=exit_rates)

    def _store(self, **arrays) -> Ctmc:
        """Set each of ``arrays`` as a read-only attribute; returns this chain."""
        for name, value in arrays.items():
            value.setflags(write=False)
            setattr(self, name, value)
        return self

    def _without_exits(self, rows: np.ndarray) -> Ctmc:
        """A copy of this chain with every rate out of the states of bool mask ``rows`` removed."""
        kept = ~np.repeat(rows, np.diff(self.offsets))
        return copy.copy(self)._store(offsets=np.concatenate(([0], np.cumsum(kept)))[self.offsets],
                                      targets=self.targets[kept], rates=self.rates[kept],
                                      exit_rates=np.where(rows, 0.0, self.exit_rates))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def generator(self) -> np.ndarray:
        """The dense n x n generator Q, formed from the CSR arrays: a fresh read-only array.

        Off the diagonal it holds the rates; on it, minus the exit rates, so each row sums to zero
        up to rounding.
        """
        q = np.diag(-self.exit_rates)
        q[_edges(self)] = self.rates
        q.setflags(write=False)
        return q


class ProbabilityVector:
    """State probabilities: one distribution (1-d) or one per row (2-d), each >= 0 summing to 1.

    The sums are checked within 1e-12 in one pass; the array is taken as is and made read-only.
    """

    def __init__(self, pi: np.ndarray):
        v = np.asarray(pi, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] == 0:
            raise DomainError("probability vector must be a nonempty 1-d array or a 2-d stack of them")
        if np.any(v < 0):
            raise DomainError("probability vector entries must be >= 0")
        if np.any(np.abs(v.sum(axis=-1) - 1.0) > ROW_SUM_TOL):
            raise DomainError("probability vector must sum to 1 within 1e-12")
        v.setflags(write=False)
        self.pi = v


def build_two_state(lam: float, mu: float) -> Ctmc:
    """Up/down chain: failure rate ``lam`` out of state 0, repair rate ``mu``."""
    _check_two_state_rates(lam, mu)
    return Ctmc(("up", "down"), (True, False), [[0.0, lam], [mu, 0.0]])


def _check_two_state_rates(lam: float, mu: float) -> None:
    if not lam > 0:
        raise DomainError(f"failure rate must be > 0, got {lam}")
    if not mu > 0:
        raise DomainError(f"repair rate must be > 0, got {mu}")


def _edges(chain: Ctmc) -> tuple[np.ndarray, np.ndarray]:
    """Each rate's source and target state, in CSR order."""
    return np.repeat(np.arange(chain.n), np.diff(chain.offsets)), chain.targets


def _reachable(sources: np.ndarray, targets: np.ndarray, start: np.ndarray) -> np.ndarray:
    """States reachable from the states of bool mask ``start`` along the edges sources[e] -> targets[e]."""
    after = [[] for _ in range(start.size)]  # after[i]: the targets of the edges out of state i
    for i, j in zip(sources.tolist(), targets.tolist()):
        after[i].append(j)
    seen, stack = start.tolist(), np.flatnonzero(start).tolist()
    while stack:
        for j in after[stack.pop()]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return np.array(seen)


def _solve(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """The solution x of a @ x = b; a singular ``a`` raises SingularSystemError naming the ``what`` system."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"{what} system is singular: {exc}") from exc


def _require_irreducible(chain: Ctmc) -> None:
    (sources, targets), first = _edges(chain), np.arange(chain.n) == 0
    if not (_reachable(sources, targets, first).all() and _reachable(targets, sources, first).all()):
        raise StructureError("chain is reducible: not every state reaches every other")


def steady_state(chain: Ctmc) -> ProbabilityVector:
    """Stationary distribution pi with pi @ Q = 0 and sum(pi) = 1.

    Solved as the dense linear system Q^T pi = 0 with one equation replaced
    by the normalization constraint; the residual ``max|pi @ Q|`` is
    verified below 1e-10 times the rate scale ``max(1, max|Q|)``, so chains
    of any rate scale are judged alike.  Entry noise in (-1e-13, 0) from
    the solve is clipped to zero before validation.
    """
    _require_irreducible(chain)
    q = chain.generator
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(chain.n)
    b[-1] = 1.0
    pi = _solve(a, b, "steady-state")
    tiny = (pi < 0) & (pi > -1e-13)
    pi[tiny] = 0.0
    residual = float(np.abs(pi @ q).max())
    bound = STEADY_RESIDUAL_TOL * max(1.0, float(np.abs(q).max()))
    if residual >= bound:
        raise SingularSystemError(
            f"steady-state residual {residual:.3e} exceeds {bound:.3e} "
            f"({STEADY_RESIDUAL_TOL:.0e} x max(1, max|Q|))"
        )
    return ProbabilityVector(pi)


def _poisson_weights(mu: float) -> tuple[int, np.ndarray]:
    """Poisson(mu) probabilities for k = left..R, renormalized to sum to 1.

    Fox & Glynn (CACM 1988): the weights are built outward from the mode
    floor(mu) by the ratio recursion w[k] = w[k-1] * mu/k, as running
    products whose every factor is at most 1, so no factorial, lgamma, exp
    or log is formed and nothing overflows.  The window [left, right] comes
    from the Chernoff and Bernstein tail bounds and leaves out at most
    ``UNIFORMIZATION_TAIL**2`` of mass on each side.  R is the least k with
    P(X > k) <= ``UNIFORMIZATION_TAIL``; that tail is a reversed cumulative
    sum, so the smallest terms are added first.
    """
    if not math.isfinite(mu):
        raise ConvergenceError(f"uniformization cannot bound the tail at rate*t = {mu:.3g}")
    # P(X <= mu - y) <= exp(-y^2 / (2 mu)) = 1 - UNIFORMIZATION_TAIL: R is at least this floor.
    floor_r = math.floor(mu - math.sqrt(-2.0 * mu * math.log1p(-UNIFORMIZATION_TAIL)))
    if floor_r > _MAX_UNIFORMIZATION_TERMS:
        raise ConvergenceError(
            f"uniformization needs {floor_r} terms (rate*t = {mu:.3g}); split the horizon"
        )
    a = -2.0 * math.log(UNIFORMIZATION_TAIL)  # each window edge bounds a tail of exp(-a) = tolerance**2
    left = max(0, math.floor(mu - math.sqrt(2.0 * mu * a)))
    right = math.ceil(mu + a / 3.0 + math.sqrt(a * a / 9.0 + 2.0 * a * mu))
    mode = math.floor(mu)
    w = np.concatenate((
        np.cumprod(np.arange(mode, left, -1) / mu)[::-1],  # w[k-1]/w[mode]: product of j/mu, j = k..mode
        [1.0],
        np.cumprod(mu / np.arange(mode + 1, right + 1)),  # w[k]/w[mode]: product of mu/j, j = mode+1..k
    ))
    tail = np.cumsum(w[::-1])[::-1]  # tail[i] = sum of w[i:]
    cut = int(np.searchsorted(-tail[1:], -UNIFORMIZATION_TAIL * tail[0]))
    if left + cut > _MAX_UNIFORMIZATION_TERMS:
        raise ConvergenceError(
            f"uniformization needs {left + cut} terms (rate*t = {mu:.3g}); split the horizon"
        )
    weights = w[: cut + 1]
    return left, weights / weights.sum()


def transient(chain: Ctmc, pi0, t: float) -> ProbabilityVector:
    """Distribution pi0 @ expm(Q t) by uniformization; see :func:`transient_grid`."""
    return ProbabilityVector(transient_grid(chain, pi0, [t]).pi[0])


def transient_grid(chain: Ctmc, pi0, times) -> ProbabilityVector:
    """Distributions pi0 @ expm(Q t), one row per t in ``times``, by one uniformization pass.

    Each distribution is the Poisson(rate*t)-weighted sum of v_k = pi0 @ P**k
    with P = I + Q/rate.  The weights are Fox-Glynn weights computed in numpy
    (:func:`_poisson_weights`): a point's sum stops at the least R with
    P(X > R) <= ``UNIFORMIZATION_TAIL``, terms below its left window edge
    (at most ``UNIFORMIZATION_TAIL**2`` of mass) are skipped, and its
    retained weights are renormalized, so each result is a valid
    probability vector with truncation bias below the tolerance.

    The powers v_k are formed once, up to the largest R of the grid, and
    each is added to every point whose window holds it in one broadcast
    update, in the order a single-point run adds them, so every row is the
    same to the last bit as when it is computed alone.  Every window, and
    every error, comes before the first product.
    """
    grid = np.array(times, dtype=float)
    if not np.all(grid >= 0):
        raise DomainError(f"time must be >= 0, got {grid[~(grid >= 0)][0]}")
    v0 = pi0.pi if isinstance(pi0, ProbabilityVector) else ProbabilityVector(np.array(pi0, dtype=float)).pi
    if v0.ndim != 1 or v0.size != chain.n:
        raise DomainError(f"probability vector has {v0.size} entries, chain has {chain.n} states")
    rate = float(np.max(chain.exit_rates))
    timed = (grid != 0) & (rate != 0)  # the points that need a window; the rest are pi0
    points = np.flatnonzero(timed)
    windows = [_poisson_weights(rate * t) for t in grid[points].tolist()]
    lefts = np.array([left for left, _ in windows], dtype=np.int64)
    sizes = np.array([w.size for _, w in windows], dtype=np.int64)
    weights = np.concatenate([w for _, w in windows]) if windows else np.empty(0)
    ends = lefts + sizes - 1
    base = np.cumsum(sizes) - sizes - lefts  # weights[base[i] + k] is point i's weight of v_k
    # the live points change only where a window opens or has just closed
    changes = {0, *lefts.tolist(), *(ends + 1).tolist()}
    # -0.0 + x is x to the bit, so a window's first term lands as w * v
    out = np.where(timed[:, None], -0.0, v0)
    p = np.eye(chain.n) + chain.generator / rate if windows else None
    for k in range(int(ends.max(initial=-1)) + 1):
        v = v @ p if k else v0
        if k in changes:
            live = np.flatnonzero((lefts <= k) & (k <= ends))
            rows, at = points[live], base[live]
            if rows.size and rows[-1] - rows[0] == rows.size - 1:  # a run of rows updates in place
                rows = slice(rows[0], rows[-1] + 1)
        if live.size:
            out[rows] += weights[at + k][:, None] * v
    # a C-contiguous row sums in the order a 1-d sum does, and x / 1.0 is x, so pi0 rows keep their bits
    out /= np.where(timed, out.sum(axis=1), 1.0)[:, None]
    return ProbabilityVector(out)


def availability_at(chain: Ctmc, pi0, t: float) -> float:
    """Point availability: operational mass of the transient distribution."""
    dist = transient(chain, pi0, t)
    return float(dist.pi[chain.operational].sum())


def absorbing_variant(chain: Ctmc) -> Ctmc:
    """Copy of the chain with every non-operational state made absorbing."""
    return chain._without_exits(~chain.operational)


def reliability_at(chain: Ctmc, pi0, t: float) -> float:
    """Probability of remaining in the operational set through time t.

    Computed as the operational mass of the transient distribution on the
    absorbing variant, so repairs cannot rescue a failed trajectory.
    """
    if chain.operational.all():
        raise StructureError("reliability analysis needs at least one non-operational state")
    dist = transient(absorbing_variant(chain), pi0, t)
    return float(dist.pi[chain.operational].sum())


def availability_two_state(lam: float, mu: float) -> float:
    """Steady availability mu/(lam + mu) of the two-state model."""
    _check_two_state_rates(lam, mu)
    return mu / (lam + mu)


def availability_steady(chain: Ctmc) -> float:
    """Long-run availability: operational mass of the steady state."""
    pi = steady_state(chain)
    return float(pi.pi[chain.operational].sum())


def mttf_rate_sum(chain: Ctmc) -> float:
    """First-order MTTF estimate: sum over operational states of 1/(failure exit rate).

    The failure exit rate of an operational state is the total rate into
    non-operational states; every operational state must have one.  This
    coincides with the rigorous absorbing-chain MTTF only when there is a
    single operational state; report it with the ``paper_rate_sum`` label.
    """
    op = chain.operational
    fail_rates = chain.generator[np.ix_(op, ~op)].sum(axis=1)
    if np.any(fail_rates <= 0):
        bad = np.flatnonzero(op)[np.flatnonzero(fail_rates <= 0)]
        labels = ", ".join(chain.labels[i] for i in bad)
        raise StructureError(f"operational state(s) with zero failure exit rate: {labels}")
    return float((1.0 / fail_rates).sum())


def _vet_hitting_states(chain: Ctmc, start: int, target_mask: np.ndarray, kind: str) -> np.ndarray:
    """Check that absorption into ``target_mask`` from ``start`` is certain.

    Target states are treated as absorbing; every non-target state the
    walk can visit must be able to reach the target, otherwise the hitting
    time is infinite with positive probability.  Returns the indices of
    the visitable non-target states.
    """
    sources, targets = _edges(chain._without_exits(target_mask))
    reach = _reachable(sources, targets, np.arange(chain.n) == start)
    live = reach & ~target_mask
    if not np.any(reach & target_mask):
        raise StructureError(f"no {kind} state is reachable from state {start}")
    # one backward search from the whole target set finds every state with a path into it
    stuck = np.flatnonzero(live & ~_reachable(targets, sources, target_mask))
    if stuck.size:
        i = stuck[0]
        raise StructureError(
            f"state {i} ({chain.labels[i]}) can be visited but cannot "
            f"reach any {kind} state; expected hitting time is infinite"
        )
    return np.flatnonzero(live)


def _expected_hitting_time(chain: Ctmc, start: int, target_mask: np.ndarray, kind: str) -> float:
    """Expected time from ``start`` until the chain first enters ``target_mask``."""
    idx = _vet_hitting_states(chain, start, target_mask, kind)
    tau = _solve(chain.generator[np.ix_(idx, idx)], -np.ones(idx.size), "hitting-time")
    # every expected time is > 0; a stiff system can lose all precision and give one that is not, or NaN
    bad = ~(tau > 0)
    if bad.any():
        raise SingularSystemError(f"hitting-time solve lost precision: got {tau[bad][0]:.6g}")
    return float(tau[np.searchsorted(idx, start)])


def check_start(chain: Ctmc, start: int, operational: bool = False) -> None:
    """Raise unless ``start`` is a state of ``chain`` and, if ``operational`` is set, an operational one."""
    if not 0 <= start < chain.n:
        raise DomainError(f"start state {start} out of range 0..{chain.n - 1}")
    if operational and not chain.operational[start]:
        raise DomainError(f"start state {start} must be operational")


def vet_absorption(chain: Ctmc, start: int) -> None:
    """Raise unless a walk from operational ``start`` surely hits a failure state."""
    check_start(chain, start, operational=True)
    op = chain.operational
    if op.all():
        raise StructureError("chain has no non-operational state")
    _vet_hitting_states(chain, start, ~op, kind="failure")


def mttf_absorbing(chain: Ctmc, start: int) -> float:
    """Expected time to first entry into the non-operational set.

    Failure states are absorbing for this computation; repairs between
    operational states are retained.  Report with the ``analytic`` label.
    """
    check_start(chain, start, operational=True)
    return _expected_hitting_time(chain, start, ~chain.operational, kind="failure")


def mttr(chain: Ctmc, failed: int) -> float:
    """Expected time from a failed state until the operational set is reached."""
    check_start(chain, failed)
    op = chain.operational
    if op[failed]:
        raise DomainError(f"state {failed} is operational; mttr needs a failed state")
    return _expected_hitting_time(chain, failed, op, kind="repair")
