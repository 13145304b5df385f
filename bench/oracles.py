"""Independent answers for every benchmark command.

Nothing here imports securakit.  Each oracle recomputes a report's numbers
from the generated document by a route the program does not take: closed
forms (two-state chain, Weibull law, MS/DR product form, birth-death
product form and hitting times), brute-force enumeration (r-out-of-n),
``scipy.linalg.expm`` (transients and finite-horizon reliability) and
``scipy.stats.weibull_min.fit`` (maximum likelihood).  Monte Carlo
estimates are accepted when they lie within ``Z_MC`` standard errors of
the exact value.

Every ``check_*`` function takes the parsed JSON report and returns a list
of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Exact answers: dense solves and series sums agree with closed forms to
# about 1e-13, so 1e-9 leaves room for conditioning without hiding a bug.
REL_TOL = 1e-9
# Transient series against expm: the program truncates uniformization at a
# 1e-13 tail, so absolute agreement must hold to far below 1e-9.
SERIES_ATOL = 1e-9
# A run makes at most 16 Monte Carlo comparisons.  At 4.5 standard errors
# each has a false-alarm chance of 7e-6, about 1e-4 for the whole run, so a
# correct program is not failed by chance across the hundreds of runs a
# comparison of two commits makes.  A biased estimator at 1e5..1e6 trials
# still misses by tens of standard errors.
Z_MC = 4.5


def results(report: dict) -> dict:
    """``(metric, method) -> value`` for every result row."""
    return {(r["metric"], r["method"]): r for r in report["results"]}


def series(report: dict) -> dict:
    return {s["name"]: s for s in report["series"]}


def _close(problems: list, what: str, got, want, rel=REL_TOL, atol=0.0) -> None:
    if got is None or not math.isfinite(got) or abs(got - want) > atol + rel * abs(want):
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _value(problems: list, rows: dict, metric: str, method: str):
    row = rows.get((metric, method))
    if row is None:
        problems.append(f"missing result {metric} ({method})")
        return None
    return row["value"]


def _z_check(problems: list, what: str, got, want: float, se: float) -> None:
    if got is None:
        return
    if se == 0.0:
        if got != want:
            problems.append(f"{what}: got {got!r}, exact {want!r} with zero standard error")
    elif abs(got - want) > Z_MC * se:
        problems.append(
            f"{what}: got {got!r}, exact {want!r}, {abs(got - want) / se:.2f} standard errors apart"
        )


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


# ---------------------------------------------------------------- chains


def generator(n: int, transitions) -> np.ndarray:
    """Generator matrix from ``(from, to, rate)`` triples."""
    q = np.zeros((n, n))
    for i, j, rate in transitions:
        q[i, j] += rate
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def absorbing_reliability(q: np.ndarray, operational, start: int, times) -> list[float]:
    """P(still operational through t) via expm on the chain with failures absorbing."""
    from scipy.linalg import expm

    op = np.asarray(operational, dtype=bool)
    qa = np.array(q)
    qa[~op, :] = 0.0
    p0 = np.zeros(len(op))
    p0[start] = 1.0
    return [float((p0 @ expm(qa * t))[op].sum()) for t in times]


def transient_series(q: np.ndarray, start: int, grid) -> np.ndarray:
    """Rows pi(t_k) = e_start expm(Q t_k) for an evenly spaced grid from 0."""
    from scipy.linalg import expm

    grid = np.asarray(grid, dtype=float)
    step = expm(q * (grid[1] - grid[0])) if grid.size > 1 else None
    out = np.zeros((grid.size, q.shape[0]))
    out[0, start] = 1.0
    if grid[0] != 0.0:
        out[0] = out[0] @ expm(q * grid[0])
    for k in range(1, grid.size):
        out[k] = out[k - 1] @ step
    return out


def _check_series(problems, report, labels, operational, expected: np.ndarray, grid) -> None:
    ser = series(report)
    op = np.asarray(operational, dtype=bool)
    want = {"availability": expected[:, op].sum(axis=1)}
    for i, label in enumerate(labels):
        want[f"pi[{label}]"] = expected[:, i]
    for name, values in want.items():
        s = ser.get(name)
        if s is None:
            problems.append(f"missing series {name}")
            continue
        if not np.allclose(s["t"], grid, rtol=1e-12, atol=0.0):
            problems.append(f"series {name}: wrong time grid")
            continue
        err = np.max(np.abs(np.asarray(s["values"]) - values))
        if not err <= SERIES_ATOL:
            problems.append(f"series {name}: max deviation {err:.3e} from expm")


# ---------------------------------------------------------------- two-state


def check_two_state_solve(report, lam, mu):
    p, rows = [], results(report)
    a = mu / (lam + mu)
    _close(p, "pi[up]", _value(p, rows, "pi[up]", "analytic"), a)
    _close(p, "pi[down]", _value(p, rows, "pi[down]", "analytic"), lam / (lam + mu))
    _close(p, "availability", _value(p, rows, "availability", "analytic"), a)
    return p


def check_two_state_metrics(report, lam, mu):
    p, rows = [], results(report)
    _close(p, "mttf", _value(p, rows, "mttf", "analytic"), 1.0 / lam)
    _close(p, "mttf rate sum", _value(p, rows, "mttf", "paper_rate_sum"), 1.0 / lam)
    _close(p, "mttr", _value(p, rows, "mttr", "analytic"), 1.0 / mu)
    _close(p, "availability", _value(p, rows, "availability", "analytic"), mu / (lam + mu))
    return p


def check_two_state_transient(report, lam, mu, grid):
    p = []
    t = np.asarray(grid)
    s = lam + mu
    avail = mu / s + lam / s * np.exp(-s * t)
    _check_series(p, report, ["up", "down"], [True, False], np.column_stack([avail, 1 - avail]), grid)
    _close(p, "availability", _value(p, results(report), "availability", "analytic"), float(avail[-1]))
    return p


def check_two_state_mc_reliability(report, lam, horizon, n_trials):
    p = []
    exact = math.exp(-lam * horizon)
    got = _value(p, results(report), "reliability", "monte_carlo")
    _z_check(p, "mc reliability", got, exact, _binomial_se(exact, n_trials))
    return p


def check_two_state_mc_mttf(report, lam):
    p, rows = [], results(report)
    got = _value(p, rows, "mttf", "monte_carlo")
    if got is not None:
        _z_check(p, "mc mttf", got, 1.0 / lam, rows[("mttf", "monte_carlo")]["uncertainty"])
    return p


# ---------------------------------------------------------------- MS/DR

MSDR_LABELS = ("both_up", "ms_down", "dr_down", "both_down")
MSDR_OPERATIONAL = (True, True, True, False)


def msdr_effective_rates(params: dict) -> tuple[float, float, float, float]:
    """(l_ms, l_dr, m_ms, m_dr) with the attack rate added to its target."""
    l1, l2 = params["lambda_ms"], params["lambda_dr"]
    attack = params.get("attack")
    if attack:
        if attack["applies_to"] in ("ms", "both"):
            l1 += attack["rate"]
        if attack["applies_to"] in ("dr", "both"):
            l2 += attack["rate"]
    return l1, l2, params["mu_ms"], params["mu_dr"]


def msdr_generator(params: dict) -> np.ndarray:
    """Two independent repairable units: both up, MS down, DR down, both down."""
    l1, l2, m1, m2 = msdr_effective_rates(params)
    return generator(4, [
        (0, 1, l1), (0, 2, l2), (1, 0, m1), (2, 0, m2),
        (1, 3, l2), (2, 3, l1), (3, 1, m2), (3, 2, m1),
    ])


def msdr_mttf(params: dict) -> float:
    """Mean time from both up to both down, by first-step analysis in closed form."""
    l1, l2, m1, m2 = msdr_effective_rates(params)
    a = l1 + l2
    num = 1 / a + (l1 / a) / (m1 + l2) + (l2 / a) / (m2 + l1)
    den = 1 - (l1 / a) * m1 / (m1 + l2) - (l2 / a) * m2 / (m2 + l1)
    return num / den


def check_sec_msdr(report, params):
    p, rows = [], results(report)
    l1, l2, m1, m2 = msdr_effective_rates(params)
    a1, a2 = m1 / (l1 + m1), m2 / (l2 + m2)
    pi = (a1 * a2, (1 - a1) * a2, a1 * (1 - a2), (1 - a1) * (1 - a2))
    for label, want in zip(MSDR_LABELS, pi):
        _close(p, f"pi[{label}]", _value(p, rows, f"pi[{label}]", "analytic"), want)
    _close(p, "service_availability", _value(p, rows, "service_availability", "analytic"), 1 - pi[3])
    _close(p, "mttf", _value(p, rows, "mttf", "analytic"), msdr_mttf(params))
    attack = params.get("attack")
    if attack and attack["rate"] > 0:
        _close(p, "mtta", _value(p, rows, "mtta", "analytic"), 1.0 / attack["rate"])
    return p


def check_msdr_mc_reliability_grid(report, params, grid, horizon, n_trials):
    p, rows = [], results(report)
    q = msdr_generator(params)
    exact = absorbing_reliability(q, MSDR_OPERATIONAL, 0, list(grid) + [horizon])
    s = series(report).get("reliability")
    if s is None:
        return ["missing series reliability"]
    if not np.allclose(s["t"], grid, rtol=1e-12, atol=0.0):
        p.append("series reliability: wrong time grid")
    for t, got, want in zip(grid, s["values"], exact):
        _z_check(p, f"mc reliability at t={t:g}", got, want, _binomial_se(want, n_trials))
    got = _value(p, rows, "reliability", "monte_carlo")
    _z_check(p, "mc reliability at horizon", got, exact[-1], _binomial_se(exact[-1], n_trials))
    return p


def check_msdr_mc_mttf(report, params):
    p, rows = [], results(report)
    got = _value(p, rows, "mttf", "monte_carlo")
    if got is not None:
        _z_check(p, "mc mttf", got, msdr_mttf(params), rows[("mttf", "monte_carlo")]["uncertainty"])
    return p


# ---------------------------------------------------------------- Weibull


def weibull_law(alpha: float, beta: float, t: float) -> dict:
    z = (t / alpha) ** beta
    hazard = beta / alpha * (t / alpha) ** (beta - 1)
    return {
        "pdf": hazard * math.exp(-z),
        "cdf": -math.expm1(-z),
        "hazard": hazard,
        "reliability": math.exp(-z),
        "mean_life": alpha * math.gamma(1 + 1 / beta),
    }


def check_weibull_eval(report, alpha, beta, t):
    p, rows = [], results(report)
    for metric, want in weibull_law(alpha, beta, t).items():
        _close(p, metric, _value(p, rows, metric, "analytic"), want, rel=1e-10)
    return p


def check_weibull_fit(report, times):
    """Rank regression by lstsq on Benard ranks; MLE by scipy's fitter."""
    from scipy.stats import weibull_min

    p, rows = [], results(report)
    t = np.sort(np.asarray(times, dtype=float))
    n = t.size
    f_hat = (np.arange(1, n + 1) - 0.3) / (n + 0.4)
    design = np.column_stack([np.log(t), np.ones(n)])
    (slope, intercept), *_ = np.linalg.lstsq(design, np.log(-np.log(1 - f_hat)), rcond=None)
    beta_mle, _, alpha_mle = weibull_min.fit(t, floc=0)
    for method, alpha, beta, rel in (
        ("rank_regression", math.exp(-intercept / slope), slope, REL_TOL),
        ("mle", alpha_mle, beta_mle, 1e-6),
    ):
        a = _value(p, rows, "alpha", method)
        b = _value(p, rows, "beta", method)
        _close(p, f"alpha ({method})", a, alpha, rel=rel)
        _close(p, f"beta ({method})", b, beta, rel=rel)
        if a is not None and b is not None:
            _close(p, f"mean_life ({method})", _value(p, rows, "mean_life", method),
                   a * math.gamma(1 + 1 / b), rel=1e-12)
    return p


# ---------------------------------------------------------------- r-out-of-n


def degrading_chain(sub: dict) -> tuple[float, float, float, float]:
    """Rates (a, b, c, d) of an ok -> degraded -> bad -> ok chain subsystem."""
    rates = {(tr["from"], tr["to"]): tr["rate"] for tr in sub["transitions"]}
    return rates[(0, 1)], rates[(1, 0)], rates[(1, 2)], rates[(2, 0)]


def subsystem_availability(sub: dict) -> float:
    if sub["type"] == "probability":
        return sub["p"]
    if sub["type"] == "two_state":
        return sub["mu"] / (sub["lambda"] + sub["mu"])
    a, b, c, d = degrading_chain(sub)
    pi0, pi1 = 1.0, a / (b + c)
    pi2 = pi1 * c / d
    return (pi0 + pi1) / (pi0 + pi1 + pi2)


def subsystem_mttf(sub: dict) -> float:
    if sub["type"] == "two_state":
        return 1.0 / sub["lambda"]
    a, b, c, _ = degrading_chain(sub)
    return ((b + c) / a + 1) / c


def subsystem_reliability(sub: dict, horizon: float) -> float:
    a, b, c, d = degrading_chain(sub)
    q = generator(3, [(0, 1, a), (1, 0, b), (1, 2, c), (2, 0, d)])
    return absorbing_reliability(q, (True, True, False), 0, [horizon])[0]


def check_sec_routofn(report, params, threshold=None):
    """Decomposition rows; with ``threshold`` also the Monte Carlo estimate.

    ``threshold`` is ``(horizon, n_trials)`` for threshold 1, where the
    system survives only if every subsystem does: the exact value is the
    product of the subsystems' finite-horizon reliabilities.
    """
    p, rows = [], results(report)
    subs = params["subsystems"]
    avail = [subsystem_availability(s) for s in subs]
    for i, (sub, a) in enumerate(zip(subs, avail)):
        _close(p, f"subsystem[{i}].availability",
               _value(p, rows, f"subsystem[{i}].availability", "analytic"), a)
        if sub["type"] != "probability":
            _close(p, f"subsystem[{i}].mttf", _value(p, rows, f"subsystem[{i}].mttf", "analytic"),
                   subsystem_mttf(sub))
    system = 0.0
    for up in itertools.product((False, True), repeat=len(subs)):
        if sum(up) >= params["r"]:
            system += math.prod(a if u else 1 - a for u, a in zip(up, avail))
    _close(p, "system.availability", _value(p, rows, "system.availability", "analytic"), system)
    if threshold is not None:
        horizon, n_trials = threshold
        exact = math.prod(subsystem_reliability(s, horizon) for s in subs)
        got = _value(p, rows, "threshold_reliability", "monte_carlo")
        _z_check(p, "threshold reliability", got, exact, _binomial_se(exact, n_trials))
    return p


# ---------------------------------------------------------------- birth-death


def birth_death(params: dict) -> tuple[np.ndarray, np.ndarray]:
    """Birth rates lam[0..n-2] and death rates mu[1..n-1] (mu[0] unused)."""
    n = len(params["states"])
    lam, mu = np.zeros(n), np.zeros(n)
    for tr in params["transitions"]:
        if tr["to"] == tr["from"] + 1:
            lam[tr["from"]] += tr["rate"]
        else:
            mu[tr["from"]] += tr["rate"]
    return lam, mu


def birth_death_weights(lam, mu) -> np.ndarray:
    """Unnormalized product-form weights w[k] = prod_{i<k} lam[i] / mu[i+1]."""
    w = np.ones(lam.size)
    for k in range(1, lam.size):
        w[k] = w[k - 1] * lam[k - 1] / mu[k]
    return w


def check_birth_death_solve(report, params):
    p, rows = [], results(report)
    lam, mu = birth_death(params)
    pi = birth_death_weights(lam, mu)
    pi /= pi.sum()
    got = np.array([_value(p, rows, f"pi[{s['label']}]", "analytic") for s in params["states"]],
                   dtype=float)
    if not np.allclose(got, pi, rtol=1e-7, atol=1e-13):
        p.append(f"pi: max deviation {np.nanmax(np.abs(got - pi)):.3e} from product form")
    _close(p, "availability", _value(p, rows, "availability", "analytic"), 1 - pi[-1], rel=1e-7)
    return p


def check_birth_death_metrics(report, params):
    """MTTF to the top state by the birth-death passage-time sum; MTTR = 1/mu_top."""
    p, rows = [], results(report)
    lam, mu = birth_death(params)
    w = birth_death_weights(lam, mu)
    n = lam.size
    mttf = sum(w[: k + 1].sum() / (lam[k] * w[k]) for k in range(n - 1))
    _close(p, "mttf", _value(p, rows, "mttf", "analytic"), mttf, rel=1e-7)
    _close(p, "mttr", _value(p, rows, "mttr", "analytic"), 1.0 / mu[-1])
    _close(p, "availability", _value(p, rows, "availability", "analytic"), 1 - w[-1] / w.sum(), rel=1e-7)
    if ("mttf", "paper_rate_sum") in rows:
        p.append("mttf (paper_rate_sum) is undefined when only the top state can fail")
    return p


def check_birth_death_transient(report, params, grid):
    p = []
    n = len(params["states"])
    q = generator(n, [(tr["from"], tr["to"], tr["rate"]) for tr in params["transitions"]])
    labels = [s["label"] for s in params["states"]]
    flags = [s["operational"] for s in params["states"]]
    expected = transient_series(q, params.get("start", 0), grid)
    _check_series(p, report, labels, flags, expected, grid)
    return p
