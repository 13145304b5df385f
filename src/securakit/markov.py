"""Continuous-time Markov chain reliability engine.

The canonical model object is a :class:`Ctmc`: labeled states, their
operational flags and the transition rates.  It has one constructor, which
takes the rates as ``(source, target, rate)`` triplets and stores them
once, in CSR form, with each state's exit rate, all as tuples of Python
numbers.  Steady states and expected hitting times come from one
subtraction-free elimination over those rows (:func:`_eliminate`), in pure
Python, so those analyses load no numpy.  Transient distributions come from
uniformization, which keeps probabilities nonnegative and carries a
certified truncation error; its products run over the CSR rates in pure
Python or in numpy, with the same bits, whichever a measured cost rule
says is cheaper (:func:`_layout`), so a small chain loads no numpy
either.

Availability and reliability are deliberately distinct: availability sums
operational-state mass on the unmodified chain (repairs allowed), while
reliability applies the same sum to an absorbing variant in which every
non-operational state has its outgoing rates removed, so a repaired system
still counts as failed once it has left the operational set.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate, compress
from operator import index, mul, neg
from typing import TYPE_CHECKING

from .errors import (
    ConvergenceError,
    DomainError,
    SingularSystemError,
    StructureError,
)

if TYPE_CHECKING:
    import numpy as np

ROW_SUM_TOL = 1e-12
STEADY_RESIDUAL_TOL = 1e-10
UNIFORMIZATION_TAIL = 1e-13
_MAX_UNIFORMIZATION_TERMS = 5_000_000
_RESCALE = 2.0 ** 256  # a stationary value past this rescales those before it, by 1/_RESCALE (exact)


class Ctmc:
    """Labeled states, their operational flags and their transition rates, stored once in CSR form.

    ``labels`` are distinct strings, one per state; ``operational`` holds
    one flag per state, at least one of them True.  ``transitions`` is an
    iterable of ``(source, target, rate)`` triplets over states
    0..n-1, with finite rates >= 0; the rates of a repeated pair are summed
    in the order given, and a self-loop is ignored.  The rates are kept as
    CSR: state i jumps to ``targets[offsets[i]:offsets[i + 1]]``, in
    ascending order, at the ``rates`` over the same slice, and a zero rate
    is no jump.  ``exit_rates[i]`` is the ``math.fsum`` of row i.  Every
    field is a tuple; the generator Q is derived: see :attr:`generator`.
    """

    def __init__(self, labels, operational, transitions):
        labels = tuple(str(label) for label in labels)
        op = tuple(bool(flag) for flag in operational)
        n = len(labels)
        if len(op) != n:
            raise DomainError("labels and operational flags must have equal length")
        if not n:
            raise DomainError("state space must contain at least one state")
        if not any(op):
            raise DomainError("state space needs at least one operational state")
        if len(set(labels)) < n:
            repeated = next(label for i, label in enumerate(labels) if label in labels[:i])
            raise DomainError(f"duplicate state label {repeated!r}")
        rows = [{} for _ in labels]  # rows[i][j]: the rate i -> j
        for i, j, rate in transitions:
            if not (0 <= i < n and 0 <= j < n):
                raise DomainError(f"transition {i} -> {j} names a state outside 0..{n - 1}")
            if i != j:
                rows[i][j] = rows[i].get(j, 0.0) + float(rate)
        exit_rates = tuple(_row_sum(row.values()) for row in rows)
        for i, rate in enumerate(exit_rates):
            if not math.isfinite(rate):
                raise DomainError(
                    f"generator entries must be finite; state {i} ({labels[i]}) has exit rate {rate}")
        if any(rate < 0 for row in rows for rate in row.values()):
            raise DomainError("off-diagonal generator entries must be >= 0")
        edges = [sorted((j, rate) for j, rate in row.items() if rate > 0) for row in rows]
        self.labels, self.operational, self.exit_rates = labels, op, exit_rates
        self.offsets = tuple(accumulate(map(len, edges), initial=0))
        self.targets = tuple(j for row in edges for j, _ in row)
        self.rates = tuple(rate for row in edges for _, rate in row)

    @property
    def n(self) -> int:
        return len(self.labels)

    def exits(self, i: int):
        """The ``(target, rate)`` pairs of state i's jumps, in CSR order."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return zip(self.targets[lo:hi], self.rates[lo:hi])

    @property
    def generator(self) -> np.ndarray:
        """The dense n x n generator Q, formed from the CSR arrays: a fresh read-only numpy array.

        Off the diagonal it holds the rates; on it, minus the exit rates, so each row sums to zero
        up to rounding.
        """
        import numpy as np

        q = np.diag(-np.array(self.exit_rates))
        sources = np.repeat(np.arange(self.n), np.diff(self.offsets))
        q[sources, np.array(self.targets, dtype=np.intp)] = self.rates
        q.setflags(write=False)
        return q


def _row_sum(rates) -> float:
    """``math.fsum`` of ``rates``; where fsum refuses (finite rates past the largest double, or inf
    with -inf), the plain sum, which is then not finite either."""
    try:
        return math.fsum(rates)
    except (OverflowError, ValueError):
        return sum(rates)


def build_two_state(lam: float, mu: float) -> Ctmc:
    """Up/down chain: failure rate ``lam`` out of state 0, repair rate ``mu``."""
    _check_two_state_rates(lam, mu)
    return Ctmc(("up", "down"), (True, False), [(0, 1, lam), (1, 0, mu)])


def _check_two_state_rates(lam: float, mu: float) -> None:
    if not lam > 0:
        raise DomainError(f"failure rate must be > 0, got {lam}")
    if not mu > 0:
        raise DomainError(f"repair rate must be > 0, got {mu}")


def _graph(chain: Ctmc, cut=None) -> tuple[list, list]:
    """Each state's successors and predecessors along the rates, without the rates out of the
    states that ``cut`` flags."""
    after = [() if cut is not None and cut[i] else chain.targets[chain.offsets[i]:chain.offsets[i + 1]]
             for i in range(chain.n)]
    before = [[] for _ in after]
    for i, successors in enumerate(after):
        for j in successors:
            before[j].append(i)
    return after, before


def _search(after: list, start: list[int]) -> list[bool]:
    """The states reachable from the states ``start`` along ``after[i]``, the states one step past i."""
    seen, stack = [False] * len(after), list(start)
    for i in stack:
        seen[i] = True
    while stack:
        for j in after[stack.pop()]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return seen


class _PivotError(ZeroDivisionError):
    """A pivot of :func:`_eliminate` that is not positive and finite, at row ``state`` of the system."""

    def __init__(self, state: int, pivot: float):
        super().__init__(f"pivot of state {state} is {pivot}")
        self.state, self.pivot = state, pivot


def _eliminate(rows: list[dict], rewards: list[float] | None = None) -> list[float]:
    """Solve a chain's linear system by eliminating its states from the last down to state 1.

    ``rows[i]`` maps each state j != i to the rate i -> j; the dicts and
    ``rewards`` are used up.  Eliminating state k takes it out of the chain:
    each rate i -> k is passed on to k's other targets in proportion to their
    rates, ``a_ij + a_ik * (a_kj / s_k)``, where the pivot s_k is the fsum of
    the rates out of k to the states still in.  The share that comes back to
    i is dropped rather than subtracted from i's diagonal, so every pivot is
    a sum of nonnegative rates and no step subtracts: each entry keeps a
    small relative error however stiff the chain (Grassmann, Taksar & Heyman,
    Oper. Res. 1985; for hitting times Alfa, Xue & Ye, Numer. Math. 2002).

    Without ``rewards`` the chain must be irreducible, and the result is its
    stationary distribution: pi_0 = 1, then pi_k is the fsum of pi_i * a_ik
    over the rates into k as k was eliminated, over s_k, all normalized by
    their fsum.  Whenever pi_k passes ``_RESCALE``, pi_0..pi_k are divided by
    it, a power of two, so a chain whose mass grows past the double range
    from state 0 up still solves, with the bits of the unscaled sum wherever
    no value falls below the normal range.  A pi_k whose quotient overflows
    in one step is taken apart by :func:`_split_quotient` instead, and
    pi_0..pi_(k-1) are divided by the power of two that brings it near 1, so
    those far below it fall to 0 as they do in the normalized answer.

    With ``rewards``, state 0 stands for the absorbing target set, every
    other state must reach it, and the result is each state's expected
    reward before absorption when state k earns ``rewards[k]`` per unit time
    (0 for state 0; rewards of 1 give the expected hitting times): the
    elimination passes rewards on as it does rates, and state k's value is
    the fsum of its reward and of a_kj times state j's value, over s_k.

    Only ``+``, ``*``, ``/`` and ``math.fsum`` on Python floats are used, so
    the bits do not depend on the machine.  A pivot that is not positive and
    finite, or one that takes a state's value past the largest double,
    raises :class:`_PivotError`, a ZeroDivisionError, and an fsum past the
    largest double OverflowError: both are ArithmeticErrors.
    """
    n = len(rows)
    into = [set() for _ in rows]  # into[j]: the states whose row has held a rate to j
    for i, row in enumerate(rows):
        for j in row:
            into[j].add(i)
    pivots, inflows = [0.0] * n, [None] * n
    for k in range(n - 1, 0, -1):
        s = pivots[k] = math.fsum(rows[k].values())
        if not 0 < s < math.inf:
            raise _PivotError(k, s)
        shares = [(j, rate / s) for j, rate in rows[k].items()]
        inflow = inflows[k] = {i: rows[i].pop(k) for i in into[k] if i < k}
        for i, rate in inflow.items():
            row = rows[i]
            for j, share in shares:
                if j == i:
                    continue
                if j in row:
                    row[j] += rate * share
                else:
                    row[j] = rate * share
                    into[j].add(i)
            if rewards is not None:
                rewards[i] += rate * (rewards[k] / s)
    if rewards is None:
        x = [1.0] + [0.0] * (n - 1)
        for k in range(1, n):
            try:
                x[k] = math.fsum([x[i] * rate for i, rate in inflows[k].items()]) / pivots[k]
            except OverflowError:  # an fsum past the largest double
                x[k] = math.inf
            if x[k] == math.inf:
                g, e = _split_quotient([(x[i], rate) for i, rate in inflows[k].items()], pivots[k])
                m = max(e, 0)
                x[:k] = [math.ldexp(v, -m) for v in x[:k]]
                x[k] = math.ldexp(g, e - m)
            elif x[k] > _RESCALE:
                x[:k + 1] = [v / _RESCALE for v in x[:k + 1]]
        total = math.fsum(x)
        return [v / total for v in x]
    x = [0.0] * n
    for k in range(1, n):
        x[k] = math.fsum([rewards[k], *(rate * x[j] for j, rate in rows[k].items())]) / pivots[k]
        if x[k] == math.inf:  # a finite sum over a pivot too small for it
            raise _PivotError(k, pivots[k])
    return x


def _split_quotient(terms: list[tuple[float, float]], s: float) -> tuple[float, int]:
    """``fsum(v * rate for v, rate in terms) / s`` as ``(g, e)``, the value g * 2**e, with e an int.

    For a quotient past the largest double: each v, rate and s is split by
    ``math.frexp`` into a mantissa and a power of two, the products of the
    mantissas are shifted by the largest power among them, and only the
    mantissas are summed and divided.  Shifts by powers of two are exact
    above the subnormal range, so g * 2**e is the quotient rounded as it
    would be with no limit on the exponent.  At least one v must be > 0.
    """
    split = [(a * b, p + q) for (a, p), (b, q) in
             ((math.frexp(v), math.frexp(rate)) for v, rate in terms if v)]
    top = max(e for _, e in split)
    c, r = math.frexp(s)
    return math.fsum([math.ldexp(ab, e - top) for ab, e in split]) / c, top - r


def _require_irreducible(chain: Ctmc) -> None:
    after, before = _graph(chain)
    if not (all(_search(after, [0])) and all(_search(before, [0]))):
        raise StructureError("chain is reducible: not every state reaches every other")


def steady_state(chain: Ctmc) -> tuple[float, ...]:
    """Stationary distribution pi with pi @ Q = 0 and sum(pi) = 1, one float per state.

    Solved by the subtraction-free elimination of :func:`_eliminate` on the
    irreducible chain's rate rows, so even entries many decades below the
    largest keep a small relative error.  The residual ``max|pi @ Q|``, each
    entry an fsum, is verified below 1e-10 times the rate scale ``max(1,
    max|Q|)``, so chains of any rate scale are judged alike; then each entry
    is checked to be >= 0 and their sum to be 1 within 1e-12.
    """
    _require_irreducible(chain)
    try:
        pi = _eliminate([dict(chain.exits(i)) for i in range(chain.n)], None)
    except ArithmeticError as exc:
        raise SingularSystemError(f"steady-state system is singular: {exc}") from exc
    flows = [[-p * rate] for p, rate in zip(pi, chain.exit_rates)]  # flows[j]: the terms of (pi @ Q)[j]
    for i, p in enumerate(pi):
        for j, rate in chain.exits(i):
            flows[j].append(p * rate)
    residual = max(abs(math.fsum(terms)) for terms in flows)
    bound = STEADY_RESIDUAL_TOL * max(1.0, max(chain.exit_rates))  # an exit rate is its row's largest |Q| entry
    if not residual < bound:
        raise SingularSystemError(
            f"steady-state residual {residual:.3e} exceeds {bound:.3e} "
            f"({STEADY_RESIDUAL_TOL:.0e} x max(1, max|Q|))"
        )
    if any(p < 0 for p in pi):
        raise DomainError("probability vector entries must be >= 0")
    if abs(math.fsum(pi) - 1.0) > ROW_SUM_TOL:
        raise DomainError("probability vector must sum to 1 within 1e-12")
    return tuple(pi)


def _window(mu: float) -> tuple[int, int]:
    """The Fox-Glynn window ``(left, right)`` of the Poisson(mu) weights, from ``math`` on scalars.

    Fox & Glynn (CACM 1988): the Chernoff and Bernstein tail bounds put at
    most ``UNIFORMIZATION_TAIL**2`` of mass below ``left`` and above
    ``right``.  A ``mu`` that is not finite, or whose sum needs more than
    ``_MAX_UNIFORMIZATION_TERMS`` terms, raises ConvergenceError.
    """
    if not math.isfinite(mu):
        raise ConvergenceError(f"uniformization cannot bound the tail at rate*t = {mu:.3g}")
    # P(X <= mu - y) <= exp(-y^2 / (2 mu)) = 1 - UNIFORMIZATION_TAIL: R is at least this floor.  Doubling
    # the log, not mu, is exact and keeps a finite mu near the largest double finite.
    _check_terms(math.floor(mu - math.sqrt(mu * (-2.0 * math.log1p(-UNIFORMIZATION_TAIL)))), mu)
    a = -2.0 * math.log(UNIFORMIZATION_TAIL)  # each window edge bounds a tail of exp(-a) = tolerance**2
    left = max(0, math.floor(mu - math.sqrt(2.0 * mu * a)))
    return left, math.ceil(mu + a / 3.0 + math.sqrt(a * a / 9.0 + 2.0 * a * mu))


def _check_terms(terms: int, mu: float) -> None:
    if terms > _MAX_UNIFORMIZATION_TERMS:
        raise ConvergenceError(f"uniformization needs {terms:.3g} terms (rate*t = {mu:.3g}); split the horizon")


def _poisson_weights(mu: float, left: int, right: int) -> list[float]:
    """Poisson(mu) weights for k = left..R, relative to that of the mode floor(mu), which is 1.

    The weights are built outward from the mode by the ratio recursion
    w[k] = w[k-1] * mu/k, as running products whose every factor is at most
    1, so no factorial, lgamma, exp or log is formed and nothing overflows.
    ``(left, right)`` is the :func:`_window` of ``mu``, and R is the least k
    in it with P(X > k) <= ``UNIFORMIZATION_TAIL``; that tail is a running
    sum from the window's right edge, so the smallest terms are added first.
    The weights are not normalized: :func:`transient_grid` normalizes each
    weighted sum instead, which scales the weights by the same factor.
    """
    mode = math.floor(mu)
    w = list(accumulate([j / mu for j in range(mode, left, -1)], mul))  # w[k-1]: product of j/mu, j = k..mode
    w.reverse()
    w.append(1.0)
    w += accumulate([mu / j for j in range(mode + 1, right + 1)], mul)  # w[k]: product of mu/j, j = mode+1..k
    tail = list(accumulate(reversed(w)))  # tail[-1 - i] = sum of w[i:]
    tail.reverse()
    cut = bisect_left(tail, -UNIFORMIZATION_TAIL * tail[0], 1, key=neg) - 1
    _check_terms(left + cut, mu)
    del w[cut + 1:]
    return w


def _layout(n: int, nnz: int, windows: list[tuple[int, int]]) -> str:
    """``"python"`` or ``"csr"``: where the products v @ P of a transient grid cost less.

    ``windows`` holds the :func:`_window` of each point of the grid, so the
    rule runs before numpy is loaded.  A grid takes one product per power,
    up to the largest right edge, and one accumulation per weight: a power
    added to one point's row.  The costs, in ns, were measured in process
    with numpy already loaded (numpy 2.4 with OpenBLAS, Python 3.11, 2-core
    x86-64 VM), so a caller that has numpy pays no more than with numpy
    alone.  In pure Python a product costs about 1,000 plus 40 per state and
    rate, an accumulation 600 plus 60 per state.  In numpy a product over
    the CSR rates, with the broadcast update of its power, costs about 3,500
    plus 3 per rate, each weight 400 and each point 10,000.  Both layouts
    give the same bits, so the rule decides only the time.  A two-state
    chain on an 11-point grid, or at one point of rate*t = 1,000, stays in
    Python; a 100-point grid on it, or a 5-state birth-death chain on the
    11-point grid, goes to numpy.
    """
    products = max((right for _, right in windows), default=0)
    weights = sum(right - left + 1 for left, right in windows)
    python = products * (1_000 + 40 * (n + nnz)) + weights * (600 + 60 * n)
    csr = products * (3_500 + 3 * nnz) + weights * 400 + len(windows) * 10_000
    return "python" if python <= csr else "csr"


def _product(chain: Ctmc, rate: float):
    """The map v -> v @ P in numpy, with P = I + Q/rate, over the CSR rates.

    P keeps ``1 - exit/rate`` on the diagonal and ``rate_ij/rate`` off it.
    A product is one ``np.bincount`` over the rates in CSR order and then
    the diagonal, so each state's inflows are summed from 0.0, in CSR
    order, and its kept mass is added last.  Its bits do not depend on the
    BLAS library, and are those of the pure-Python product of
    :func:`_grid_python`.
    """
    import numpy as np

    n = chain.n
    states = np.arange(n)
    sources = np.concatenate((np.repeat(states, np.diff(chain.offsets)), states))
    targets = np.concatenate((np.array(chain.targets, dtype=np.intp), states))
    shares = np.concatenate((np.array(chain.rates) / rate, 1.0 - np.array(chain.exit_rates) / rate))
    return lambda v: np.bincount(targets, v[sources] * shares, n)


def _grid_python(chain: Ctmc, v0, rate: float, points: list) -> list[list[float]]:
    """For each ``(left, weights)`` of ``points``, the sum of the powers v_k = v0 @ P**k for k =
    left, left + 1, ..., each times its weight: in pure Python.

    A product sums, from 0.0, each state's inflows ``v[i] * (rate_ij/rate)``
    in CSR order and then its kept mass ``v[j] * (1 - exit_j/rate)``: the
    additions of the ``np.bincount`` of :func:`_product`, so the bits are
    those of its CSR product.  Each sum starts at -0.0 and adds ``w * v_k``
    entry by entry, as :func:`_grid_csr` does.
    """
    ends = [left + len(w) - 1 for left, w in points]
    edges = [(i, j, rate_ij / rate) for i in range(chain.n) for j, rate_ij in chain.exits(i)]  # CSR order
    edges += [(j, j, 1.0 - exit_rate / rate) for j, exit_rate in enumerate(chain.exit_rates)]
    sums = [[-0.0] * chain.n for _ in points]
    changes = {0, *(left for left, _ in points), *(end + 1 for end in ends)}
    v = v0
    for k in range(max(ends) + 1):
        if k:
            inflow = [0.0] * chain.n
            for i, j, share in edges:
                inflow[j] += v[i] * share
            v = inflow
        if k in changes:  # the live points change only where a window opens or has just closed
            live = [(i, left, w) for i, ((left, w), end) in enumerate(zip(points, ends)) if left <= k <= end]
        for i, left, w in live:
            weight = w[k - left]
            sums[i] = [s + weight * x for s, x in zip(sums[i], v)]
    return sums


def _grid_csr(chain: Ctmc, v0, rate: float, points: list) -> list[list[float]]:
    """:func:`_grid_python` in numpy, with the products of :func:`_product`: each power is added to
    every point whose window holds it in one broadcast update."""
    import numpy as np

    lefts = np.array([left for left, _ in points], dtype=np.int64)
    sizes = np.array([len(w) for _, w in points], dtype=np.int64)
    weights = np.concatenate([w for _, w in points])
    ends = lefts + sizes - 1
    base = np.cumsum(sizes) - sizes - lefts  # weights[base[i] + k] is point i's weight of v_k
    changes = {0, *lefts.tolist(), *(ends + 1).tolist()}
    sums = np.full((len(points), chain.n), -0.0)  # -0.0 + x is x to the bit, so a first term lands as w * v
    step = _product(chain, rate)
    v = np.array(v0)
    for k in range(int(ends.max()) + 1):
        if k:
            v = step(v)
        if k in changes:
            live = np.flatnonzero((lefts <= k) & (k <= ends))
            rows, at = live, base[live]
            if live.size and live[-1] - live[0] == live.size - 1:  # a run of rows updates in place
                rows = slice(live[0], live[-1] + 1)
        if live.size:
            sums[rows] += weights[at + k][:, None] * v
    return sums.tolist()


def transient(chain: Ctmc, start: int, t: float) -> tuple[float, ...]:
    """Distribution at t of the chain started in state ``start``, row ``start`` of expm(Q t), by
    uniformization: row 0 of :func:`transient_grid` at ``[t]``."""
    return transient_grid(chain, start, [t])[0]


def transient_grid(chain: Ctmc, start: int, times) -> tuple[tuple[float, ...], ...]:
    """Distributions at each t in ``times`` of the chain started in state ``start``, one row per
    t, by one uniformization pass.

    ``start`` is checked by :func:`check_start`.  Each distribution is the
    Poisson(rate*t)-weighted sum of v_k = v0 @ P**k, with v0 the point mass
    on ``start`` and P = I + Q/rate.  The weights are Fox-Glynn weights
    (:func:`_poisson_weights`): a point's sum stops at the least R with
    P(X > R) <= ``UNIFORMIZATION_TAIL``, terms below its left window edge
    (at most ``UNIFORMIZATION_TAIL**2`` of mass) are skipped, and the sum
    is normalized by its ``math.fsum``, which renormalizes the retained
    weights too, so each result is a valid probability vector with
    truncation bias below the tolerance.

    The powers v_k are formed once, up to the largest R of the grid, and
    each is added to every point whose window holds it, in the order a
    single-point run adds them.  :func:`_layout` picks where from the
    chain's size and the grid's windows: pure Python (:func:`_grid_python`),
    which loads no numpy, or numpy over the CSR rates (:func:`_grid_csr`).
    Both add the same terms in the same order, so every row is the same to
    the last bit as when it is computed alone, in either layout, and does
    not depend on the BLAS library.  Every window, and every error but the
    check of the result, comes before the first product.  Every term of a
    sum is >= 0, so a sum whose ``math.fsum`` is finite and positive is,
    divided by it, a distribution; any other sum raises ConvergenceError.
    The result is a tuple of row tuples, one per point.
    """
    times = [float(t) for t in times]
    bad = next((t for t in times if not t >= 0), None)
    if bad is not None:
        raise DomainError(f"time must be >= 0, got {bad}")
    check_start(chain, start)
    v0 = tuple(float(i == start) for i in range(chain.n))
    rate = max(chain.exit_rates)
    timed = [i for i, t in enumerate(times) if t != 0 and rate != 0]  # the rest are v0
    mus = [rate * times[i] for i in timed]
    rows = [v0] * len(times)
    if mus:
        windows = [_window(mu) for mu in mus]
        grid = _grid_python if _layout(chain.n, len(chain.rates), windows) == "python" else _grid_csr
        points = [(left, _poisson_weights(mu, left, right)) for mu, (left, right) in zip(mus, windows)]
        for i, row in zip(timed, grid(chain, v0, rate, points)):
            total = _row_sum(row)
            if not 0 < total < math.inf:
                raise ConvergenceError(f"uniformization lost the probability mass at t = {times[i]:.3g}")
            rows[i] = tuple([x / total for x in row])
    return tuple(rows)


def availability_at(chain: Ctmc, start: int, t: float) -> float:
    """Point availability from state ``start``: operational mass of the transient distribution, an fsum."""
    return math.fsum(compress(transient(chain, start, t), chain.operational))


def absorbing_variant(chain: Ctmc) -> Ctmc:
    """Copy of the chain with every non-operational state made absorbing."""
    op = chain.operational
    return Ctmc(chain.labels, op, ((i, j, rate) for i in range(chain.n) if op[i] for j, rate in chain.exits(i)))


def reliability_at(chain: Ctmc, start: int, t: float) -> float:
    """Probability of remaining in the operational set through time t, from state ``start``.

    Computed as the operational mass of the transient distribution on the
    absorbing variant, so repairs cannot rescue a failed trajectory.
    """
    if all(chain.operational):
        raise StructureError("reliability analysis needs at least one non-operational state")
    return availability_at(absorbing_variant(chain), start, t)


def availability_two_state(lam: float, mu: float) -> float:
    """Steady availability mu/(lam + mu) of the two-state model."""
    _check_two_state_rates(lam, mu)
    return mu / (lam + mu)


def availability_steady(chain: Ctmc) -> float:
    """Long-run availability: operational mass of the steady state, an fsum."""
    return math.fsum(p for p, up in zip(steady_state(chain), chain.operational) if up)


def mttf_rate_sum(chain: Ctmc) -> float:
    """First-order MTTF estimate: sum over operational states of 1/(failure exit rate).

    The failure exit rate of an operational state is the total rate into
    non-operational states; every operational state must have one.  This
    coincides with the rigorous absorbing-chain MTTF only when there is a
    single operational state; report it with the ``paper_rate_sum`` label.
    Each rate and the total are fsums.
    """
    op = chain.operational
    fail_rates = {i: math.fsum(rate for j, rate in chain.exits(i) if not op[j])
                  for i in range(chain.n) if op[i]}
    bad = [chain.labels[i] for i, rate in fail_rates.items() if rate <= 0]
    if bad:
        raise StructureError(f"operational state(s) with zero failure exit rate: {', '.join(bad)}")
    return math.fsum(1.0 / rate for rate in fail_rates.values())


def _vet_hitting_states(chain: Ctmc, start: int, target_mask, kind: str) -> list[int]:
    """Check that absorption into ``target_mask`` from ``start`` is certain.

    Target states are treated as absorbing; every non-target state the
    walk can visit must be able to reach the target, otherwise the hitting
    time is infinite with positive probability.  ``target_mask`` holds one
    flag per state.  Returns the visitable non-target states, ascending.
    """
    after, before = _graph(chain, target_mask)
    reach = _search(after, [start])
    if not any(r and hit for r, hit in zip(reach, target_mask)):
        raise StructureError(f"no {kind} state is reachable from state {start}")
    live = [i for i, (r, hit) in enumerate(zip(reach, target_mask)) if r and not hit]
    # one backward search from the whole target set finds every state with a path into it
    hits = _search(before, [i for i, hit in enumerate(target_mask) if hit])
    for i in live:
        if not hits[i]:
            raise StructureError(
                f"state {i} ({chain.labels[i]}) can be visited but cannot "
                f"reach any {kind} state; expected hitting time is infinite"
            )
    return live


def _expected_hitting_time(chain: Ctmc, start: int, target_mask, kind: str) -> float:
    """Expected time from ``start`` until the chain first enters ``target_mask``.

    The system holds the target set as its state 0 and the visitable
    non-target states after it, in order; each row keeps the state's rates
    to the others, plus the fsum of its rates into the target set.  Since
    every live state reaches the target (vetted first), each pivot of the
    elimination is positive in exact arithmetic; one that is 0 or inf in
    floats, or so small that the time from its state overflows, means that
    time leaves the double range, and the error names the state.  Any other
    arithmetic failure is a singular system.
    """
    live = _vet_hitting_states(chain, start, target_mask, kind)
    at = {i: k for k, i in enumerate(live, 1)}  # state i is state at[i] of the system
    rows = [{}]
    for i in live:
        row, absorbed = {}, []
        for j, rate in chain.exits(i):
            if j in at:
                row[at[j]] = rate
            else:
                absorbed.append(rate)
        if absorbed:
            row[0] = math.fsum(absorbed)
        rows.append(row)
    try:
        tau = _eliminate(rows, [0.0] + [1.0] * len(live))
    except _PivotError as exc:
        i = live[exc.state - 1]
        raise SingularSystemError(f"expected hitting time from state {i} ({chain.labels[i]}) leaves the "
                                  f"double range: its pivot in the elimination is {exc.pivot}") from exc
    except ArithmeticError as exc:
        raise SingularSystemError(f"hitting-time system is singular: {exc}") from exc
    # every expected time is > 0; one that is not, or NaN, is a fault of the solve, and stays loud
    bad = next((t for t in tau[1:] if not t > 0), None)
    if bad is not None:
        raise SingularSystemError(f"hitting-time solve lost precision: got {bad:.6g}")
    return tau[at[start]]


def check_start(chain: Ctmc, start: int, operational: bool = False) -> None:
    """Raise unless ``start`` is an integer state of ``chain``, and an operational one if ``operational`` is set."""
    try:
        index(start)
    except TypeError:
        raise DomainError(f"start state must be an integer, got {start!r}") from None
    if not 0 <= start < chain.n:
        raise DomainError(f"start state {start} out of range 0..{chain.n - 1}")
    if operational and not chain.operational[start]:
        raise DomainError(f"start state {start} must be operational")


def vet_absorption(chain: Ctmc, start: int) -> None:
    """Raise unless a walk from operational ``start`` surely hits a failure state."""
    check_start(chain, start, operational=True)
    if all(chain.operational):
        raise StructureError("chain has no non-operational state")
    _vet_hitting_states(chain, start, [not up for up in chain.operational], kind="failure")


def mttf_absorbing(chain: Ctmc, start: int) -> float:
    """Expected time to first entry into the non-operational set.

    Failure states are absorbing for this computation; repairs between
    operational states are retained.  Report with the ``analytic`` label.
    """
    check_start(chain, start, operational=True)
    return _expected_hitting_time(chain, start, [not up for up in chain.operational], kind="failure")


def mttr(chain: Ctmc, failed: int) -> float:
    """Expected time from a failed state until the operational set is reached."""
    check_start(chain, failed)
    op = chain.operational
    if op[failed]:
        raise DomainError(f"state {failed} is operational; mttr needs a failed state")
    return _expected_hitting_time(chain, failed, op, kind="repair")
