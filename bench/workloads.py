"""Seeded model documents and the command list of each workload.

A workload runs only the commands it exists to stress, so that a run of a
few tens of seconds repeats each of them several times.  ``cli_cold`` runs
every subcommand on small documents: a two-state chain, a small MS/DR
pair, a Weibull failure sample, a four-subsystem r-out-of-n system and one
malformed document.  ``mc_walk``, ``mc_threshold`` and ``chain_scale`` run
the Monte Carlo and Markov commands on large documents.

All documents come from ``random.Random`` seeded with the workload name
and the workload seed, so one seed always gives the same files.  Rates are
jittered by a few percent and chain sizes by a few states: enough that the
program sees fresh inputs, too little to change the cost of a command.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

WORKLOADS = {
    "cli_cold": "every subcommand on small documents: each pays interpreter start, "
                "import, parse and emit, and computes for microseconds",
    "mc_walk": "mc reliability --grid and mc mttf on MS/DR with attack at 1e6 trials: "
               "the vectorized walker and rng.uniform_block do the work",
    "mc_threshold": "sec routofn with threshold_reliability over chain subsystems: "
                    "the scalar per-trial path through simulate_trajectory and CounterRng",
    "chain_scale": "markov solve, metrics and transient --grid on birth-death chains of "
                   "about 400 states: dense solves, hitting-time vetting, uniformization",
}


@dataclass(frozen=True)
class Sizes:
    cold_trials: int = 20_000
    walk_reliability_trials: int = 1_000_000
    walk_mttf_trials: int = 300_000
    threshold_trials: int = 2_000
    chain_states: int = 400
    chain_grid_points: int = 41


FULL = Sizes()
# Quick mode: the same commands and checks at sizes that finish in seconds.
QUICK = Sizes(
    cold_trials=2_000,
    walk_reliability_trials=20_000,
    walk_mttf_trials=10_000,
    threshold_trials=200,
    chain_states=40,
    chain_grid_points=11,
)


@dataclass(frozen=True)
class Command:
    """One ``securakit`` invocation and how to judge its output."""

    metric: str                      # latency it is reported under, e.g. cmd.validate_s
    argv: tuple[str, ...]            # arguments after ``securakit``
    check: Callable[[int, str, str], list[str]]  # (exit code, stdout, stderr) -> problems

    @property
    def threaded(self) -> bool:
        return "--threads" in self.argv


def _jit(rng: random.Random, x: float, rel: float = 0.03) -> float:
    return x * rng.uniform(1 - rel, 1 + rel)


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 63)


def _two_state(rng, trials):
    return {
        "kind": "markov",
        "time_unit": "hours",
        "seed": _seed(rng),
        "parameters": {"lambda": _jit(rng, 0.01), "mu": _jit(rng, 0.1)},
        "analyses": [
            {"op": "solve"},
            {"op": "transient", "t": 50.0},
            {"op": "metrics"},
            {"op": "reliability", "n_trials": trials, "horizon": 50.0},
            {"op": "mttf", "n_trials": trials},
        ],
    }


def _msdr(rng, lam_ms, lam_dr, mu_ms, mu_dr, attack, analyses):
    return {
        "kind": "msdr",
        "time_unit": "hours",
        "seed": _seed(rng),
        "parameters": {
            "lambda_ms": _jit(rng, lam_ms),
            "lambda_dr": _jit(rng, lam_dr),
            "mu_ms": _jit(rng, mu_ms),
            "mu_dr": _jit(rng, mu_dr),
            "single_repair_crew": False,
            "attack": {"rate": _jit(rng, attack), "applies_to": "ms"},
        },
        "analyses": analyses,
    }


def _weibull(rng, n=40):
    alpha, beta = _jit(rng, 1000.0, 0.1), _jit(rng, 1.6, 0.1)
    # inverse-CDF sample of the law itself, so both fits have a known target
    times = sorted(alpha * (-math.log(1.0 - rng.random())) ** (1 / beta) for _ in range(n))
    return {
        "kind": "weibull",
        "time_unit": "hours",
        "parameters": {"alpha": alpha, "beta": beta, "data": {"times": times}},
        "analyses": [{"op": "eval", "t": _jit(rng, 500.0, 0.1)}, {"op": "fit", "method": "both"}],
    }


def _degrading(rng, a=0.05, b=0.3, c=0.02, d=0.1):
    """ok -> degraded -> bad chain with repair; the shape the oracle solves in closed form."""
    return {
        "type": "chain",
        "states": [
            {"label": "ok", "operational": True},
            {"label": "degraded", "operational": True},
            {"label": "bad", "operational": False},
        ],
        "transitions": [
            {"from": 0, "to": 1, "rate": _jit(rng, a)},
            {"from": 1, "to": 0, "rate": _jit(rng, b)},
            {"from": 1, "to": 2, "rate": _jit(rng, c)},
            {"from": 2, "to": 0, "rate": _jit(rng, d)},
        ],
        "start": 0,
    }


def _routofn_small(rng):
    return {
        "kind": "r_out_of_n",
        "parameters": {
            "r": 3,
            "subsystems": [
                {"type": "probability", "p": _jit(rng, 0.95, 0.01)},
                {"type": "two_state", "lambda": _jit(rng, 0.01), "mu": _jit(rng, 0.1)},
                _degrading(rng),
                {"type": "two_state", "lambda": _jit(rng, 0.02), "mu": _jit(rng, 0.2)},
            ],
        },
        "analyses": [{"op": "routofn"}],
    }


def _routofn_threshold(rng, trials, horizon=100.0, n_subsystems=4):
    return {
        "kind": "r_out_of_n",
        "seed": _seed(rng),
        "parameters": {"r": n_subsystems, "subsystems": [_degrading(rng) for _ in range(n_subsystems)]},
        "analyses": [
            {"op": "routofn"},
            {"op": "threshold_reliability", "n_trials": trials, "horizon": horizon, "threshold": 1.0},
        ],
    }


def _birth_death(rng, n, lam=1.0, mu=0.8):
    """Degradation ladder: state k -> k+1 at about lam, k+1 -> k at about mu; top state failed."""
    return {
        "kind": "markov",
        "time_unit": "hours",
        "parameters": {
            "states": [{"label": f"s{k}", "operational": k < n - 1} for k in range(n)],
            "transitions": [
                tr
                for k in range(n - 1)
                for tr in (
                    {"from": k, "to": k + 1, "rate": _jit(rng, lam)},
                    {"from": k + 1, "to": k, "rate": _jit(rng, mu)},
                )
            ],
            "start": 0,
        },
        "analyses": [{"op": "solve"}, {"op": "metrics"}, {"op": "transient", "t": 100.0}],
    }


MALFORMED = {
    # lambda_ms out of range and mu_dr missing: two schema diagnostics, exit 1
    "kind": "msdr",
    "parameters": {"lambda_ms": -0.01, "lambda_dr": 0.01, "mu_ms": 0.1},
}


# ---------------------------------------------------------------- checks


def _json_check(oracle, *args):
    def check(code, out, err):
        if code != 0:
            return [f"exit code {code}, expected 0: {err.strip()[-300:]}"]
        try:
            report = json.loads(out)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        return oracle(report, *args)
    return check


def _validate_ok(path):
    def check(code, out, err):
        if code != 0:
            return [f"exit code {code}, expected 0: {err.strip()[-300:]}"]
        return [] if out == f"ok: {path}\n" else [f"unexpected output {out[:200]!r}"]
    return check


def _validate_rejects(code, out, err):
    problems = []
    if code != 1:
        problems.append(f"exit code {code}, expected 1")
    lines = err.strip().splitlines()
    if not lines or not all(line.startswith("error: schema: ") for line in lines):
        problems.append(f"expected schema diagnostics on stderr, got {err[:300]!r}")
    if out:
        problems.append("malformed document produced output")
    return problems


def _grid(t1: float, points: int) -> tuple[str, list[float]]:
    return f"0:{t1:g}:{points}", [t1 * k / (points - 1) for k in range(points)]


# ---------------------------------------------------------------- assembly


def build(workload: str, seed: int, workdir: Path, sizes: Sizes, threads: int) -> list[Command]:
    """Write the workload's documents under ``workdir`` and return its command list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"securakit-bench:{workload}:{seed}")
    mc = ("--threads", str(threads))
    fmt = ("--format", "json")

    def write(name, doc):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    if workload == "cli_cold":
        two = _two_state(rng, sizes.cold_trials)
        msdr = _msdr(rng, 0.01, 0.012, 0.1, 0.08, 0.004, [{"op": "msdr"}])
        wb = _weibull(rng)
        rn = _routofn_small(rng)
        two_path, msdr_path = write("two_state", two), write("msdr", msdr)
        wb_path, rn_path = write("weibull", wb), write("routofn", rn)
        bad_path = write("malformed", MALFORMED)
        lam, mu = two["parameters"]["lambda"], two["parameters"]["mu"]
        grid_spec, grid = _grid(50.0, 11)
        alpha, beta = wb["parameters"]["alpha"], wb["parameters"]["beta"]
        t_eval = wb["analyses"][0]["t"]
        trials = sizes.cold_trials
        return [
            Command("cmd.validate_s", ("validate", two_path, *fmt), _validate_ok(two_path)),
            Command("cmd.validate_s", ("validate", bad_path, *fmt), _validate_rejects),
            Command(
                "cmd.weibull_eval_s",
                ("weibull", "eval", "--alpha", repr(alpha), "--beta", repr(beta), "--t", repr(t_eval), *fmt),
                _json_check(oracles.check_weibull_eval, alpha, beta, t_eval),
            ),
            Command(
                "cmd.weibull_fit_s", ("weibull", "fit", "--file", wb_path, *fmt),
                _json_check(oracles.check_weibull_fit, wb["parameters"]["data"]["times"]),
            ),
            Command(
                "cmd.markov_solve_s", ("markov", "solve", "--file", two_path, *fmt),
                _json_check(oracles.check_two_state_solve, lam, mu),
            ),
            Command(
                "cmd.markov_metrics_s", ("markov", "metrics", "--file", two_path, *fmt),
                _json_check(oracles.check_two_state_metrics, lam, mu),
            ),
            Command(
                "cmd.markov_transient_s",
                ("markov", "transient", "--file", two_path, "--grid", grid_spec, *fmt),
                _json_check(oracles.check_two_state_transient, lam, mu, grid),
            ),
            Command(
                "cmd.mc_reliability_s", ("mc", "reliability", "--file", two_path, *mc, *fmt),
                _json_check(oracles.check_two_state_mc_reliability, lam, 50.0, trials),
            ),
            Command(
                "cmd.mc_mttf_s", ("mc", "mttf", "--file", two_path, *mc, *fmt),
                _json_check(oracles.check_two_state_mc_mttf, lam),
            ),
            Command(
                "cmd.sec_msdr_s", ("sec", "msdr", "--file", msdr_path, *fmt),
                _json_check(oracles.check_sec_msdr, msdr["parameters"]),
            ),
            Command(
                "cmd.sec_routofn_s", ("sec", "routofn", "--file", rn_path, *fmt),
                _json_check(oracles.check_sec_routofn, rn["parameters"]),
            ),
        ]

    if workload == "mc_walk":
        n_rel, n_mttf, horizon = sizes.walk_reliability_trials, sizes.walk_mttf_trials, 100.0
        big = _msdr(rng, 0.01, 0.01, 0.1, 0.1, 0.005, [
            {"op": "msdr"},
            {"op": "reliability", "n_trials": n_rel, "horizon": horizon},
            {"op": "mttf", "n_trials": n_mttf},
        ])
        path = write("msdr_attack", big)
        spec, grid = _grid(horizon, 11)
        return [
            Command(
                "cmd.mc_reliability_s", ("mc", "reliability", "--file", path, "--grid", spec, *mc, *fmt),
                _json_check(oracles.check_msdr_mc_reliability_grid, big["parameters"], grid, horizon, n_rel),
            ),
            Command(
                "cmd.mc_mttf_s", ("mc", "mttf", "--file", path, *mc, *fmt),
                _json_check(oracles.check_msdr_mc_mttf, big["parameters"]),
            ),
        ]

    if workload == "mc_threshold":
        n, horizon = sizes.threshold_trials, 100.0
        doc = _routofn_threshold(rng, n, horizon)
        path = write("routofn_threshold", doc)
        return [
            Command(
                "cmd.sec_routofn_s", ("sec", "routofn", "--file", path, *mc, *fmt),
                _json_check(oracles.check_sec_routofn, doc["parameters"], (horizon, n)),
            ),
        ]

    # chain_scale; a few states of jitter: the size changes with the seed, the cost barely does
    n = sizes.chain_states + rng.randint(-2, 2)
    doc = _birth_death(rng, n)
    path = write("birth_death", doc)
    params = doc["parameters"]
    spec, grid = _grid(400.0, sizes.chain_grid_points)
    return [
        Command("cmd.validate_s", ("validate", path, *fmt), _validate_ok(path)),
        Command(
            "cmd.markov_solve_s", ("markov", "solve", "--file", path, *fmt),
            _json_check(oracles.check_birth_death_solve, params),
        ),
        Command(
            "cmd.markov_metrics_s", ("markov", "metrics", "--file", path, *fmt),
            _json_check(oracles.check_birth_death_metrics, params),
        ),
        Command(
            "cmd.markov_transient_s", ("markov", "transient", "--file", path, "--grid", spec, *fmt),
            _json_check(oracles.check_birth_death_transient, params, grid),
        ),
    ]
