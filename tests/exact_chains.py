"""Chains for the tests: triplets from a rate matrix, and exact rational solves of the chain systems."""

from fractions import Fraction

from securakit.markov import Ctmc


def triplets(rates):
    """Every off-diagonal entry of the square matrix ``rates`` as a ``(source, target, rate)`` triplet.

    Zero, negative and non-finite entries pass through as they are, so the
    chain's constructor sees and checks them; the diagonal is left out.
    """
    return [(i, j, float(rate)) for i, row in enumerate(rates) for j, rate in enumerate(row) if i != j]


def ladder(n, lam, mu, repairable_top=False):
    """Birth-death chain of n states: i -> i+1 at ``lam``, i+1 -> i at ``mu``; only the top state is failed.

    With ``repairable_top`` unset, the top state has no exit, so the chain is absorbing.
    """
    transitions = [(i, i + 1, lam) for i in range(n - 1)]
    transitions += [(i + 1, i, mu) for i in range(n - 1 if repairable_top else n - 2)]
    return Ctmc([f"s{i}" for i in range(n)], [True] * (n - 1) + [False], transitions)


def _exact_rates(chain):
    """Each state's jumps as exact fractions of the chain's float rates: {target: rate} per state."""
    return [{j: Fraction(rate) for j, rate in chain.exits(i)} for i in range(chain.n)]


def _gauss(a, b):
    """The exact solution x of a @ x = b over the rationals; ``a`` must be nonsingular."""
    n = len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (m[i][n] - sum(m[i][j] * x[j] for j in range(i + 1, n) if m[i][j])) / m[i][i]
    return x


def exact_hitting_times(chain, targets):
    """Exact expected times to enter the states ``targets`` from every other state, as a dict.

    Solves sum_j q_ij tau_j = -1 for the non-target states over the
    rationals; every non-target state must reach the target set.
    """
    rows = _exact_rates(chain)
    live = [i for i in range(chain.n) if i not in targets]
    at = {i: k for k, i in enumerate(live)}
    a = [[Fraction(0)] * len(live) for _ in live]
    for k, i in enumerate(live):
        a[k][k] = -sum(rows[i].values())
        for j, rate in rows[i].items():
            if j in at:
                a[k][at[j]] += rate
    return dict(zip(live, _gauss(a, [Fraction(-1)] * len(live))))


def exact_steady_state(chain):
    """The exact stationary distribution of an irreducible chain: pi @ Q = 0 with sum(pi) = 1."""
    rows = _exact_rates(chain)
    n = chain.n
    a = [[Fraction(0)] * n for _ in range(n)]  # a = Q^T with its last equation replaced by sum(pi) = 1
    for i, row in enumerate(rows):
        a[i][i] = -sum(row.values())
        for j, rate in row.items():
            a[j][i] += rate
    a[-1] = [Fraction(1)] * n
    return _gauss(a, [Fraction(0)] * (n - 1) + [Fraction(1)])
