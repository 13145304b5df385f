"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.

Criterion C01 integrates the density over the truncated interval
[0, 50*alpha] and checks the result, within 1e-6, against the closed-form
mass 1 - exp(-50**beta) on that interval.  That mass is not 1: for shape 0.5
the tail beyond the cap is exp(-sqrt(50)) ~ 8.5e-4.  The companion check of
unit mass over [0, inf) is in tests/test_weibull.py.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from exact_chains import triplets
from malformed_corpus import MALFORMED_DOCUMENTS

from securakit import markov, montecarlo, securability, weibull
from securakit.cli import main as cli_main
from securakit.markov import (
    Ctmc,
    availability_at,
    availability_two_state,
    build_two_state,
    mttf_absorbing,
    mttf_rate_sum,
    steady_state,
)
from securakit.montecarlo import MonteCarloConfig
from securakit.rng import CounterRng
from securakit.securability import MsDrRates, RoutOfNSystem, build_msdr
from securakit.weibull import FailureSample, WeibullModel, cdf, fit, hazard, pdf, reliability


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion} {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def _rate_pairs(n: int, seed: int = 4040):
    rng = CounterRng(seed=seed)
    return [
        (10 ** (3 * rng.uniform() - 3), 10 ** (3 * rng.uniform() - 3)) for _ in range(n)
    ]


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.5])
def test_c01_weibull_normalization_over_fifty_scales(beta):
    started = time.perf_counter()
    m = WeibullModel(alpha=2.0, beta=beta)
    total, _ = quad(lambda t: pdf(t, m), 0.0, 50.0 * m.alpha, limit=200)
    elapsed = time.perf_counter() - started
    # Mass on [0, 50*alpha] from the survival law exp(-(t/alpha)**beta),
    # computed without securakit so the check is not circular.
    expected = -math.expm1(-(50.0**beta))
    abs_err = abs(total - expected)
    ok = abs_err <= 1e-6 and elapsed < 1.0
    _report(
        f"C01[beta={beta}]",
        ok,
        f"integral={total:.9f}, expected={expected:.9f}, abs_err={abs_err:.1e}, "
        f"runtime={elapsed:.3f}s",
    )


def test_c02_weibull_identities():
    rng = CounterRng(seed=2)
    worst_rel = 0.0
    for _ in range(100):
        alpha = 10 ** (2 * rng.uniform() - 1)
        beta = 0.3 + 4.7 * rng.uniform()
        t = (0.01 + 2.99 * rng.uniform()) * alpha
        m = WeibullModel(alpha, beta)
        product = hazard(t, m) * reliability(t, m)
        density = pdf(t, m)
        if product == density:
            continue
        worst_rel = max(worst_rel, abs(product - density) / density)
    worst_cdf = 0.0
    expected = 1.0 - math.exp(-1.0)
    for _ in range(10):
        beta = 0.3 + 4.7 * rng.uniform()
        alpha = 10 ** (2 * rng.uniform() - 1)
        worst_cdf = max(worst_cdf, abs(cdf(alpha, WeibullModel(alpha, beta)) - expected))
    ok = worst_rel <= 1e-12 and worst_cdf <= 1e-12
    _report("C02", ok, f"max rel identity error={worst_rel:.2e}, max cdf error={worst_cdf:.2e}")


def test_c03_weibull_fit_recovery():
    started = time.perf_counter()
    true = WeibullModel(alpha=100.0, beta=2.0)
    times = weibull.sample_lifetimes(true, 5000, CounterRng(seed=1))
    sample = FailureSample(tuple(times))
    errors = {}
    for method in ("rank_regression", "mle"):
        est = fit(sample, method=method)
        errors[method] = max(
            abs(est.alpha - true.alpha) / true.alpha, abs(est.beta - true.beta) / true.beta
        )
    elapsed = time.perf_counter() - started
    ok = all(err <= 0.05 for err in errors.values()) and elapsed < 2.0
    _report(
        "C03",
        ok,
        f"rr err={errors['rank_regression']:.4f}, mle err={errors['mle']:.4f}, "
        f"runtime={elapsed:.3f}s",
    )


def test_c04_steady_state_correctness():
    worst_residual = 0.0
    for chain in (
        build_two_state(0.01, 0.1),
        build_msdr(MsDrRates(0.01, 0.01, 0.1, 0.1)),
    ):
        pi = steady_state(chain)
        worst_residual = max(worst_residual, float(np.abs(np.array(pi) @ chain.generator).max()))
    worst_closed_form = 0.0
    for lam, mu in _rate_pairs(50):
        pi = steady_state(build_two_state(lam, mu))
        worst_closed_form = max(
            worst_closed_form,
            abs(pi[0] - mu / (lam + mu)),
            abs(pi[1] - lam / (lam + mu)),
        )
    ok = worst_residual < 1e-10 and worst_closed_form <= 1e-12
    _report(
        "C04", ok, f"max residual={worst_residual:.2e}, max closed-form error={worst_closed_form:.2e}"
    )


def test_c05_availability_consistency():
    worst = 0.0
    for lam, mu in _rate_pairs(50):
        mass = steady_state(build_two_state(lam, mu))[0]
        worst = max(worst, abs(availability_two_state(lam, mu) - mass))
    _report("C05", worst <= 1e-12, f"max |closed form - steady mass|={worst:.2e}")


def test_c06_transient_closed_form():
    lam, mu = 0.01, 0.1
    chain = build_two_state(lam, mu)
    worst = 0.0
    for t in np.linspace(0.0, 250.0, 20):
        expected = mu / (lam + mu) + lam / (lam + mu) * math.exp(-(lam + mu) * t)
        worst = max(worst, abs(availability_at(chain, 0, float(t)) - expected))
    _report("C06", worst <= 1e-10, f"max error over 20-point grid={worst:.2e}")


def test_c07_mttf_cross_oracle():
    single_op_chains = [build_two_state(0.01, 0.1), build_two_state(0.37, 2.2)]
    rates = np.zeros((3, 3))
    rates[0, 1] = 0.03
    rates[0, 2] = 0.07
    rates[1, 0] = 1.0
    rates[2, 0] = 1.0
    single_op_chains.append(Ctmc(["up", "f1", "f2"], [True, False, False], triplets(rates)))
    exact = all(mttf_absorbing(c, 0) == mttf_rate_sum(c) for c in single_op_chains)

    rates = np.zeros((3, 3))
    rates[0, 1] = 0.1
    rates[1, 2] = 0.2
    series = Ctmc(["up", "degraded", "failed"], [True, True, False], triplets(rates))
    series_err = abs(mttf_absorbing(series, 0) - (1 / 0.1 + 1 / 0.2))
    ok = exact and series_err <= 1e-12
    _report("C07", ok, f"single-op exact={exact}, series error={series_err:.2e}")


def test_c08_monte_carlo_vs_analytic():
    started = time.perf_counter()
    lam, horizon = 0.01, 10.0
    chain = build_two_state(lam, 0.1)
    truth = math.exp(-lam * horizon)
    hits = 0
    for seed in range(20):
        cfg = MonteCarloConfig(n_trials=100_000, horizon=horizon, seed=seed)
        est = montecarlo.estimate_reliability(chain, 0, cfg)
        hits += abs(est.value - truth) <= 3.0 * est.std_error
    elapsed = time.perf_counter() - started
    ok = hits >= 19 and elapsed < 10.0
    _report("C08", ok, f"{hits}/20 seeds within 3 SE, runtime={elapsed:.2f}s")


def test_c09_msdr_cross_validation():
    rates = MsDrRates(0.01, 0.01, 0.1, 0.1)
    chain = build_msdr(rates)
    analytic_mttf = mttf_absorbing(chain, 0)
    mttf_est = montecarlo.estimate_mttf(
        chain, 0, MonteCarloConfig(n_trials=100_000, horizon=1.0, seed=7)
    )
    mttf_ok = abs(mttf_est.value - analytic_mttf) <= 3.0 * mttf_est.std_error

    pi3 = steady_state(chain)[3]
    occ_est = montecarlo.estimate_occupancy(
        chain,
        0,
        MonteCarloConfig(n_trials=100_000, horizon=1100.0, seed=9),
        target_states=(3,),
        burn_in=100.0,
    )
    occ_ok = abs(occ_est.value - pi3) <= 3.0 * occ_est.std_error
    ok = mttf_ok and occ_ok
    _report(
        "C09",
        ok,
        f"mttf {mttf_est.value:.1f} vs {analytic_mttf:.1f} (se {mttf_est.std_error:.2f}), "
        f"occupancy {occ_est.value:.6f} vs {pi3:.6f} (se {occ_est.std_error:.6f})",
    )


def _brute_force_at_least_r(ps: np.ndarray, r: int) -> float:
    n = ps.size
    masks = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    weights = np.where(masks == 1, ps, 1.0 - ps).prod(axis=1)
    return float(weights[masks.sum(axis=1) >= r].sum())


def test_c10_r_out_of_n_oracle():
    rng = CounterRng(seed=10)
    worst = 0.0
    for _ in range(200):
        n = 1 + int(rng.uniform() * 12)
        n = min(n, 12)
        r = 1 + int(rng.uniform() * n)
        r = min(r, n)
        ps = np.array([rng.uniform() for _ in range(n)])
        dp = securability.r_out_of_n_availability(RoutOfNSystem(r=r, subsystems=tuple(ps)))
        worst = max(worst, abs(dp - _brute_force_at_least_r(ps, r)))
    worked = securability.r_out_of_n_availability(RoutOfNSystem(r=2, subsystems=(0.9, 0.8, 0.7)))
    worked_err = abs(worked - 0.902)
    ok = worst <= 1e-12 and worked_err <= 1e-12
    _report("C10", ok, f"max DP-vs-enumeration error={worst:.2e}, worked case error={worked_err:.2e}")


def test_c11_cli_reproducibility(tmp_path):
    doc = {
        "kind": "markov",
        "seed": 42,
        "parameters": {"lambda": 0.01, "mu": 0.1},
        "analyses": [
            {"op": "reliability", "n_trials": 100_000, "horizon": 10.0},
            {"op": "mttf", "n_trials": 100_000},
        ],
    }
    # more trials than one thread's minimum slice, so --threads 8 really splits the walk
    assert all(a["n_trials"] > montecarlo._MIN_SLICE for a in doc["analyses"])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))

    def run(subcommand: str, name: str, threads: str) -> bytes:
        out = tmp_path / name
        code = cli_main(
            ["mc", subcommand, "--file", str(model), "--format", "json",
             "--threads", threads, "--out", str(out)]
        )
        assert code == 0
        return out.read_bytes()

    ok = True
    for sub in ("reliability", "mttf"):
        first = run(sub, f"{sub}_a.json", "1")
        second = run(sub, f"{sub}_b.json", "1")
        eight = run(sub, f"{sub}_c.json", "8")
        ok = ok and first == second == eight
    _report("C11", ok, "byte-identical across repeated runs and --threads 1 vs 8")


def test_c12_robust_io(tmp_path, capsys):
    assert len(MALFORMED_DOCUMENTS) >= 30
    failures = []
    for i, text in enumerate(MALFORMED_DOCUMENTS):
        path = tmp_path / f"bad_{i}.json"
        path.write_text(text)
        code = cli_main(["validate", str(path)])
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        if code != 1 or not lines or not all(line.startswith("error: ") for line in lines):
            failures.append(i)
    with capsys.disabled():
        _report(
            "C12",
            not failures,
            f"{len(MALFORMED_DOCUMENTS)} documents, all exit 1 with diagnostics"
            + (f"; offenders: {failures}" if failures else ""),
        )
