"""Continuous-time Markov chain reliability engine.

The canonical model object is a :class:`Ctmc`: a labeled state space with
operational flags plus a rate (generator) matrix Q whose rows sum to zero.
Steady states come from a dense linear solve, and transient distributions
from uniformization, which keeps probabilities nonnegative and carries a
certified truncation error.

Availability and reliability are deliberately distinct: availability sums
operational-state mass on the unmodified chain (repairs allowed), while
reliability applies the same sum to an absorbing variant in which every
non-operational state has its outgoing rates removed, so a repaired system
still counts as failed once it has left the operational set.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

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


@dataclass(frozen=True)
class State:
    id: int
    label: str
    operational: bool


@dataclass(frozen=True)
class StateSpace:
    """Ordered states with dense ids 0..n-1 and at least one operational."""

    states: tuple[State, ...]

    def __post_init__(self):
        states = tuple(self.states)
        if not states:
            raise DomainError("state space must contain at least one state")
        if [s.id for s in states] != list(range(len(states))):
            raise DomainError("state ids must be dense and unique: 0..n-1 in order")
        if not any(s.operational for s in states):
            raise DomainError("state space needs at least one operational state")
        object.__setattr__(self, "states", states)

    @classmethod
    def from_labels(cls, labels, operational) -> "StateSpace":
        if len(labels) != len(operational):
            raise DomainError("labels and operational flags must have equal length")
        return cls(tuple(State(i, str(l), bool(o)) for i, (l, o) in enumerate(zip(labels, operational))))

    @property
    def n(self) -> int:
        return len(self.states)

    def operational_mask(self) -> np.ndarray:
        return np.array([s.operational for s in self.states], dtype=bool)


@dataclass(frozen=True, eq=False)
class Ctmc:
    """State space plus generator matrix Q (row sums zero, off-diagonals >= 0).

    Row sums are checked relative to the magnitude of the row, so chains
    mixing rate scales (say 1e-2 and 1e6) validate sensibly.
    """

    space: StateSpace
    generator: np.ndarray

    def __post_init__(self):
        q = np.array(self.generator, dtype=float)
        n = self.space.n
        if q.shape != (n, n):
            raise DomainError(f"generator must be {n}x{n}, got {q.shape}")
        if not np.all(np.isfinite(q)):
            raise DomainError("generator entries must be finite")
        off = q[~np.eye(n, dtype=bool)]
        if np.any(off < 0):
            raise DomainError("off-diagonal generator entries must be >= 0")
        row_scale = np.maximum(1.0, np.abs(q).max(axis=1))
        if np.any(np.abs(q.sum(axis=1)) > ROW_SUM_TOL * row_scale):
            raise DomainError("generator rows must sum to 0 (within 1e-12 of row scale)")
        q.setflags(write=False)
        object.__setattr__(self, "generator", q)

    @classmethod
    def from_transition_rates(cls, space: StateSpace, rates: np.ndarray) -> "Ctmc":
        """Build a chain from off-diagonal rates; diagonals are set to -row sums."""
        q = np.array(rates, dtype=float)
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        return cls(space, q)

    @property
    def n(self) -> int:
        return self.space.n

    def exit_rates(self) -> np.ndarray:
        return -np.diag(self.generator)

    def operational_mask(self) -> np.ndarray:
        return self.space.operational_mask()


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """State probabilities: one distribution (1-d) or one per row (2-d), each >= 0 summing to 1.

    The sums are checked within 1e-12 in one pass; the array is taken as is and made read-only.
    """

    pi: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.pi, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] == 0:
            raise DomainError("probability vector must be a nonempty 1-d array or a 2-d stack of them")
        if np.any(v < 0):
            raise DomainError("probability vector entries must be >= 0")
        if np.any(np.abs(v.sum(axis=-1) - 1.0) > ROW_SUM_TOL):
            raise DomainError("probability vector must sum to 1 within 1e-12")
        v.setflags(write=False)
        object.__setattr__(self, "pi", v)


def build_two_state(lam: float, mu: float) -> Ctmc:
    """Up/down chain: failure rate ``lam`` out of state 0, repair rate ``mu``."""
    if not lam > 0:
        raise DomainError(f"failure rate must be > 0, got {lam}")
    if not mu > 0:
        raise DomainError(f"repair rate must be > 0, got {mu}")
    space = StateSpace.from_labels(["up", "down"], [True, False])
    rates = np.array([[0.0, lam], [mu, 0.0]])
    return Ctmc.from_transition_rates(space, rates)


def _adjacency(q: np.ndarray) -> np.ndarray:
    adj = q > 0
    np.fill_diagonal(adj, False)
    return adj


def _reachable(adj: np.ndarray, start: int | np.ndarray) -> np.ndarray:
    """States reachable from ``start``: one state id, or a mask of several."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[start] = True
    frontier = deque(np.flatnonzero(seen))
    while frontier:
        i = frontier.popleft()
        for j in np.flatnonzero(adj[i] & ~seen):
            seen[j] = True
            frontier.append(j)
    return seen


def _require_irreducible(chain: Ctmc) -> None:
    adj = _adjacency(chain.generator)
    if not (_reachable(adj, 0).all() and _reachable(adj.T, 0).all()):
        raise StructureError("chain is reducible: not every state reaches every other")


def steady_state(chain: Ctmc) -> ProbabilityVector:
    """Stationary distribution pi with pi @ Q = 0 and sum(pi) = 1.

    Solved as the dense linear system Q^T pi = 0 with one equation replaced
    by the normalization constraint; the residual ``max|pi @ Q|`` is
    verified below 1e-10 times the rate scale ``max(1, max|Q|)``, the same
    relative rule :class:`Ctmc` applies to row sums.  Entry noise in
    (-1e-13, 0) from the solve is clipped to zero before validation.
    """
    _require_irreducible(chain)
    q = chain.generator
    n = chain.n
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"steady-state system is singular: {exc}") from exc
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


def _poisson_weights(mu: float, tail_tol: float) -> tuple[int, np.ndarray]:
    """Poisson(mu) probabilities for k = left..R, renormalized to sum to 1.

    Fox & Glynn (CACM 1988): the weights are built outward from the mode
    floor(mu) by the ratio recursions w[k]/w[k-1] = mu/k, summed in log
    form, so no factorial or lgamma of a large argument is formed.  The
    window [left, right] comes from the Chernoff and Bernstein tail bounds
    and leaves out at most tail_tol**2 of mass on each side.  R is the least
    k with P(X > k) <= tail_tol; that tail is a reversed cumulative sum, so
    the smallest terms are added first.
    """
    if not 0.0 < tail_tol < 1.0:
        raise DomainError(f"tail tolerance must lie in (0, 1), got {tail_tol}")
    if not math.isfinite(mu):
        raise ConvergenceError(f"uniformization cannot bound the tail at rate*t = {mu:.3g}")
    # P(X <= mu - y) <= exp(-y^2 / (2 mu)) = 1 - tail_tol puts R at or above this floor.
    floor_r = math.floor(mu - math.sqrt(-2.0 * mu * math.log1p(-tail_tol)))
    if floor_r > _MAX_UNIFORMIZATION_TERMS:
        raise ConvergenceError(
            f"uniformization needs {floor_r} terms (rate*t = {mu:.3g}); split the horizon"
        )
    a = -2.0 * math.log(tail_tol)  # each window edge bounds a tail of exp(-a) = tail_tol**2
    left = max(0, math.floor(mu - math.sqrt(2.0 * mu * a)))
    right = math.ceil(mu + a / 3.0 + math.sqrt(a * a / 9.0 + 2.0 * a * mu))
    mode = math.floor(mu)
    up = np.arange(mode + 1, right + 1, dtype=float)
    down = np.arange(mode, left, -1, dtype=float)
    with np.errstate(divide="ignore"):  # mu that underflowed to 0 gives log 0 = -inf: weight 0
        log_w = np.concatenate((
            np.cumsum(np.log1p((down - mu) / mu))[::-1],  # log w[k-1]/w[mode], ratio k/mu
            [0.0],
            np.cumsum(np.log1p((mu - up) / up)),  # log w[k]/w[mode], ratio mu/k
        ))
    w = np.exp(log_w)
    tail = np.cumsum(w[::-1])[::-1]  # tail[i] = sum of w[i:]
    cut = int(np.searchsorted(-tail[1:], -tail_tol * tail[0]))
    if left + cut > _MAX_UNIFORMIZATION_TERMS:
        raise ConvergenceError(
            f"uniformization needs {left + cut} terms (rate*t = {mu:.3g}); split the horizon"
        )
    weights = w[: cut + 1]
    return left, weights / weights.sum()


def transient(chain: Ctmc, pi0, t: float, tail_tol: float = UNIFORMIZATION_TAIL) -> ProbabilityVector:
    """Distribution pi0 @ expm(Q t) by uniformization; see :func:`transient_grid`."""
    return ProbabilityVector(transient_grid(chain, pi0, [t], tail_tol).pi[0])


def transient_grid(chain: Ctmc, pi0, times, tail_tol: float = UNIFORMIZATION_TAIL) -> ProbabilityVector:
    """Distributions pi0 @ expm(Q t), one row per t in ``times``, by one uniformization pass.

    Each distribution is the Poisson(rate*t)-weighted sum of v_k = pi0 @ P**k
    with P = I + Q/rate.  The weights are Fox-Glynn weights computed in numpy
    (:func:`_poisson_weights`): a point's sum stops at the least R with
    P(X > R) <= ``tail_tol``, terms below its left window edge (at most
    ``tail_tol**2`` of mass) are skipped, and its retained weights are
    renormalized, so each result is a valid probability vector with
    truncation bias below the tolerance.

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
    q = chain.generator
    rate = float(np.max(-np.diag(q)))
    timed = (grid != 0) & (rate != 0)  # the points that need a window; the rest are pi0
    points = np.flatnonzero(timed)
    windows = [_poisson_weights(rate * t, tail_tol) for t in grid[points].tolist()]
    lefts = np.array([left for left, _ in windows], dtype=np.int64)
    sizes = np.array([w.size for _, w in windows], dtype=np.int64)
    weights = np.concatenate([w for _, w in windows]) if windows else np.empty(0)
    ends = lefts + sizes - 1
    base = np.cumsum(sizes) - sizes - lefts  # weights[base[i] + k] is point i's weight of v_k
    # the live points change only where a window opens or has just closed
    changes = {0, *lefts.tolist(), *(ends + 1).tolist()}
    # -0.0 + x is x to the bit, so a window's first term lands as w * v
    out = np.where(timed[:, None], -0.0, v0)
    p = np.eye(chain.n) + q / rate if windows else None
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
    return float(dist.pi[chain.operational_mask()].sum())


def absorbing_variant(chain: Ctmc) -> Ctmc:
    """Copy of the chain with every non-operational state made absorbing."""
    q = np.array(chain.generator)
    q[~chain.operational_mask(), :] = 0.0
    return Ctmc(chain.space, q)


def reliability_at(chain: Ctmc, pi0, t: float) -> float:
    """Probability of remaining in the operational set through time t.

    Computed as the operational mass of the transient distribution on the
    absorbing variant, so repairs cannot rescue a failed trajectory.
    """
    if chain.operational_mask().all():
        raise StructureError("reliability analysis needs at least one non-operational state")
    dist = transient(absorbing_variant(chain), pi0, t)
    return float(dist.pi[chain.operational_mask()].sum())


def availability_two_state(lam: float, mu: float) -> float:
    """Steady availability mu/(lam + mu) of the two-state model."""
    if not lam > 0:
        raise DomainError(f"failure rate must be > 0, got {lam}")
    if not mu > 0:
        raise DomainError(f"repair rate must be > 0, got {mu}")
    return mu / (lam + mu)


def availability_steady(chain: Ctmc) -> float:
    """Long-run availability: operational mass of the steady state."""
    pi = steady_state(chain)
    return float(pi.pi[chain.operational_mask()].sum())


def mttf_rate_sum(chain: Ctmc) -> float:
    """First-order MTTF estimate: sum over operational states of 1/(failure exit rate).

    The failure exit rate of an operational state is the total rate into
    non-operational states; every operational state must have one.  This
    coincides with the rigorous absorbing-chain MTTF only when there is a
    single operational state; report it with the ``paper_rate_sum`` label.
    """
    q = chain.generator
    op = chain.operational_mask()
    fail_rates = q[np.ix_(op, ~op)].sum(axis=1) if (~op).any() else np.zeros(int(op.sum()))
    if np.any(fail_rates <= 0):
        bad = np.flatnonzero(op)[np.flatnonzero(fail_rates <= 0)]
        labels = ", ".join(chain.space.states[i].label for i in bad)
        raise StructureError(f"operational state(s) with zero failure exit rate: {labels}")
    return float((1.0 / fail_rates).sum())


def _vet_hitting_states(chain: Ctmc, start: int, target_mask: np.ndarray, kind: str) -> np.ndarray:
    """Check that absorption into ``target_mask`` from ``start`` is certain.

    Target states are treated as absorbing; every non-target state the
    walk can visit must be able to reach the target, otherwise the hitting
    time is infinite with positive probability.  Returns the indices of
    the visitable non-target states.
    """
    q = np.array(chain.generator)
    q[target_mask, :] = 0.0
    adj = _adjacency(q)
    reach = _reachable(adj, start)
    live = reach & ~target_mask
    if not np.any(reach & target_mask):
        raise StructureError(f"no {kind} state is reachable from state {start}")
    # one backward search from the whole target set finds every state with a path into it
    stuck = np.flatnonzero(live & ~_reachable(adj.T, target_mask))
    if stuck.size:
        i = stuck[0]
        raise StructureError(
            f"state {i} ({chain.space.states[i].label}) can be visited but cannot "
            f"reach any {kind} state; expected hitting time is infinite"
        )
    return np.flatnonzero(live)


def _expected_hitting_time(chain: Ctmc, start: int, target_mask: np.ndarray, kind: str) -> float:
    """Expected time from ``start`` until the chain first enters ``target_mask``."""
    idx = _vet_hitting_states(chain, start, target_mask, kind)
    sub = chain.generator[np.ix_(idx, idx)]
    try:
        tau = np.linalg.solve(sub, -np.ones(idx.size))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"hitting-time system is singular: {exc}") from exc
    return float(tau[np.searchsorted(idx, start)])


def vet_absorption(chain: Ctmc, start: int) -> None:
    """Raise unless a walk from operational ``start`` surely hits a failure state."""
    _check_state(chain, start)
    op = chain.operational_mask()
    if not op[start]:
        raise DomainError(f"start state {start} must be operational")
    if op.all():
        raise StructureError("chain has no non-operational state")
    _vet_hitting_states(chain, start, ~op, kind="failure")


def mttf_absorbing(chain: Ctmc, start: int) -> float:
    """Expected time to first entry into the non-operational set.

    Failure states are absorbing for this computation; repairs between
    operational states are retained.  Report with the ``analytic`` label.
    """
    _check_state(chain, start)
    op = chain.operational_mask()
    if not op[start]:
        raise DomainError(f"start state {start} must be operational")
    return _expected_hitting_time(chain, start, ~op, kind="failure")


def mttr(chain: Ctmc, failed: int) -> float:
    """Expected time from a failed state until the operational set is reached."""
    _check_state(chain, failed)
    op = chain.operational_mask()
    if op[failed]:
        raise DomainError(f"state {failed} is operational; mttr needs a failed state")
    return _expected_hitting_time(chain, failed, op, kind="repair")


def _check_state(chain: Ctmc, state: int) -> None:
    if not 0 <= state < chain.n:
        raise DomainError(f"state id {state} out of range 0..{chain.n - 1}")
