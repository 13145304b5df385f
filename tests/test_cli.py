"""CLI contract tests: exit codes, determinism, diagnostics, formats."""

import argparse
import ast
import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from exact_chains import exact_hitting_times, ladder
from malformed_corpus import MALFORMED_DOCUMENTS

import securakit
from securakit import cli, markov, model_io, montecarlo
from securakit.cli import main

TWO_STATE_DOC = {
    "kind": "markov",
    "seed": 42,
    "parameters": {"lambda": 0.01, "mu": 0.1},
    "analyses": [
        {"op": "solve"},
        {"op": "transient", "t": 10.0},
        {"op": "metrics"},
        {"op": "reliability", "n_trials": 20000, "horizon": 10.0},
        {"op": "mttf", "n_trials": 20000},
    ],
}

MSDR_DOC = {
    "kind": "msdr",
    "seed": 7,
    "parameters": {"lambda_ms": 0.01, "lambda_dr": 0.01, "mu_ms": 0.1, "mu_dr": 0.1},
    "analyses": [{"op": "msdr"}],
}

ROUTOFN_DOC = {
    "kind": "r_out_of_n",
    "seed": 3,
    "parameters": {
        "r": 2,
        "subsystems": [
            {"type": "probability", "p": 0.9},
            {"type": "probability", "p": 0.8},
            {"type": "probability", "p": 0.7},
        ],
    },
    "analyses": [{"op": "routofn"}],
}

WEIBULL_FIT_DOC = {
    "kind": "weibull",
    "parameters": {
        "data": {"times": [55.0, 187.0, 216.0, 240.0, 244.0, 335.0, 361.0, 373.0, 375.0, 386.0]}
    },
    "analyses": [{"op": "fit", "method": "both"}],
}


def chain_doc(operational, transitions, analyses, seed=None):
    """A markov document with explicit states s0, s1, ... and (from, to, rate) transitions."""
    states = [{"label": f"s{i}", "operational": op} for i, op in enumerate(operational)]
    edges = [{"from": i, "to": j, "rate": rate} for i, j, rate in transitions]
    doc = {"kind": "markov", "parameters": {"states": states, "transitions": edges}, "analyses": analyses}
    return doc if seed is None else {**doc, "seed": seed}


def ladder_doc(n, lam, mu):
    """States 0..n-1 with failures i -> i+1 at ``lam`` and repairs back at ``mu``; only the top one is failed."""
    transitions = [(i, i + 1, lam) for i in range(n - 1)] + [(i + 1, i, mu) for i in range(n - 1)]
    return chain_doc([True] * (n - 1) + [False], transitions, [{"op": "metrics"}])


@pytest.fixture
def write_doc(tmp_path):
    def _write(payload, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHappyPaths:
    def test_weibull_eval_table(self, capsys):
        code, out, err = run(
            capsys, ["weibull", "eval", "--alpha", "2", "--beta", "2", "--t", "2", "--format", "table"]
        )
        assert code == 0
        reliability_row = next(line for line in out.splitlines() if line.startswith("reliability"))
        assert "0.367879" in reliability_row

    def test_weibull_fit(self, capsys, write_doc):
        path = write_doc(WEIBULL_FIT_DOC)
        code, out, _ = run(capsys, ["weibull", "fit", "--file", path, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        methods = {r["method"] for r in payload["results"]}
        assert methods == {"rank_regression", "mle"}

    @pytest.mark.parametrize("data, alpha, beta", [
        ({"times": [5, 10, 10, 10], "censored": [False, True, True, True]}, 21.19583, 1.601200),
        ({"times": [1, 1, 2], "censored": [False, False, True]}, 1.724674, 2.110743),
    ])
    def test_weibull_fit_mle_on_tied_failures(self, capsys, write_doc, data, alpha, beta):
        path = write_doc({"kind": "weibull", "parameters": {"data": data}})
        code, out, err = run(capsys, ["weibull", "fit", "--file", path, "--method", "mle", "--format", "json"])
        assert (code, err) == (0, "")
        values = {r["metric"]: r["value"] for r in json.loads(out)["results"]}
        assert values["alpha"] == pytest.approx(alpha, rel=1e-6)
        assert values["beta"] == pytest.approx(beta, rel=1e-6)

    def test_markov_solve(self, capsys, write_doc):
        path = write_doc(TWO_STATE_DOC)
        code, out, _ = run(capsys, ["markov", "solve", "--file", path, "--format", "json"])
        assert code == 0
        values = {r["metric"]: r["value"] for r in json.loads(out)["results"]}
        assert values["availability"] == pytest.approx(10 / 11, abs=1e-12)

    def test_markov_transient_grid_series(self, capsys, write_doc):
        path = write_doc(TWO_STATE_DOC)
        code, out, _ = run(
            capsys,
            ["markov", "transient", "--file", path, "--grid", "0:100:21", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        series = {s["name"]: s for s in payload["series"]}
        assert len(series["availability"]["t"]) == 21
        assert series["availability"]["values"][0] == 1.0

    def test_markov_metrics_reports_both_mttf_methods(self, capsys, write_doc):
        path = write_doc(TWO_STATE_DOC)
        code, out, _ = run(capsys, ["markov", "metrics", "--file", path, "--format", "json"])
        assert code == 0
        rows = json.loads(out)["results"]
        mttf_methods = {r["method"] for r in rows if r["metric"] == "mttf"}
        assert mttf_methods == {"analytic", "paper_rate_sum"}

    def test_markov_metrics_omits_the_rate_sum_without_a_direct_failure_exit(self, capsys, write_doc):
        # s0 reaches the failed s2 only through s1, so the rate-sum estimate is undefined
        doc = chain_doc([True, True, False], [(0, 1, 0.02), (1, 0, 0.3), (1, 2, 0.05), (2, 0, 0.1)],
                        [{"op": "metrics"}])
        code, out, err = run(capsys, ["markov", "metrics", "--file", write_doc(doc), "--format", "json"])
        assert (code, err) == (0, "")
        rows = [(r["metric"], r["method"]) for r in json.loads(out)["results"]]
        assert rows == [("mttf", "analytic"), ("mttr", "analytic"), ("availability", "analytic")]

    def test_mc_reliability(self, capsys, write_doc):
        path = write_doc(TWO_STATE_DOC)
        code, out, _ = run(capsys, ["mc", "reliability", "--file", path, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        row = payload["results"][0]
        assert row["method"] == "monte_carlo"
        assert abs(row["value"] - math.exp(-0.1)) < 4 * row["uncertainty"]
        assert payload["seed_used"] == 42

    def test_mc_reliability_grid_series(self, capsys, write_doc):
        path = write_doc(TWO_STATE_DOC)
        code, out, _ = run(
            capsys,
            ["mc", "reliability", "--file", path, "--grid", "0:20:5", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        (series,) = payload["series"]
        assert series["name"] == "reliability"
        assert len(series["t"]) == 5
        values = series["values"]
        assert values[0] == 1.0
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_sec_msdr_service_availability(self, capsys, write_doc):
        path = write_doc(MSDR_DOC)
        code, out, _ = run(capsys, ["sec", "msdr", "--file", path, "--format", "json"])
        assert code == 0
        values = {r["metric"]: r["value"] for r in json.loads(out)["results"]}
        assert values["service_availability"] == pytest.approx(0.9917355, abs=5e-8)

    @pytest.mark.parametrize("applies_to", ["ms", "dr", "both"])
    def test_sec_msdr_attack_raises_the_named_failure_rates(self, capsys, write_doc, applies_to):
        lam_ms, lam_dr, mu_ms, mu_dr, attack = 0.01, 0.02, 0.1, 0.3, 0.05
        params = {"lambda_ms": lam_ms, "lambda_dr": lam_dr, "mu_ms": mu_ms, "mu_dr": mu_dr,
                  "attack": {"rate": attack, "applies_to": applies_to}}
        code, out, err = run(capsys, ["sec", "msdr", "--file", write_doc({**MSDR_DOC, "parameters": params}),
                                      "--format", "json"])
        assert (code, err) == (0, "")
        values = {r["metric"]: r["value"] for r in json.loads(out)["results"]}
        # with both repairs concurrent, MS and DR are independent two-state chains: pi is their product
        a = lam_ms + attack * (applies_to != "dr")
        b = lam_dr + attack * (applies_to != "ms")
        ms_down, dr_down = a / (a + mu_ms), b / (b + mu_dr)
        expected = {"both_up": (1 - ms_down) * (1 - dr_down), "ms_down": ms_down * (1 - dr_down),
                    "dr_down": (1 - ms_down) * dr_down, "both_down": ms_down * dr_down}
        for label, p in expected.items():
            assert values[f"pi[{label}]"] == pytest.approx(p, rel=1e-12)
        assert values["service_availability"] == pytest.approx(1 - expected["both_down"], rel=1e-12)
        assert values["mtta"] == pytest.approx(1 / attack, rel=1e-15)

    def test_sec_routofn(self, capsys, write_doc):
        path = write_doc(ROUTOFN_DOC)
        code, out, _ = run(capsys, ["sec", "routofn", "--file", path, "--format", "json"])
        assert code == 0
        values = {r["metric"]: r["value"] for r in json.loads(out)["results"]}
        assert values["system.availability"] == pytest.approx(0.902, abs=1e-12)

    def test_sec_routofn_with_threshold_simulation(self, capsys, write_doc):
        payload = json.loads(json.dumps(ROUTOFN_DOC))
        payload["analyses"].append(
            {"op": "threshold_reliability", "n_trials": 5000, "horizon": 1.0, "threshold": 0.5}
        )
        path = write_doc(payload)
        code, out, _ = run(capsys, ["sec", "routofn", "--file", path, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        row = next(r for r in payload["results"] if r["metric"] == "threshold_reliability")
        assert row["method"] == "monte_carlo"
        assert payload["seed_used"] == 3

    def test_markov_transient_dt_series_step(self, capsys, write_doc):
        payload = json.loads(json.dumps(TWO_STATE_DOC))
        payload["analyses"][1] = {"op": "transient", "t": 10.0, "dt": 2.5}
        path = write_doc(payload)
        code, out, _ = run(capsys, ["markov", "transient", "--file", path, "--format", "json"])
        assert code == 0
        series = json.loads(out)["series"][0]
        assert series["t"] == [0.0, 2.5, 5.0, 7.5, 10.0]

    def test_validate_ok(self, capsys, write_doc):
        path = write_doc(MSDR_DOC)
        code, out, _ = run(capsys, ["validate", path])
        assert code == 0
        assert out.startswith("ok:")

    def test_validate_quiet(self, capsys, write_doc):
        path = write_doc(MSDR_DOC)
        code, out, _ = run(capsys, ["validate", path, "--quiet"])
        assert code == 0
        assert out == ""

    def test_out_flag_writes_file(self, tmp_path, capsys, write_doc):
        path = write_doc(MSDR_DOC)
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["sec", "msdr", "--file", path, "--format", "json", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["results"]

    def test_out_into_missing_directory_is_usage_error(self, tmp_path, capsys, write_doc):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, ["sec", "msdr", "--file", write_doc(MSDR_DOC), "--out", str(target)])
        assert (code, out) == (3, "")
        assert err.startswith(f"error: usage: cannot write {target}: ") and err.count("\n") == 1

    def test_csv_format(self, capsys, write_doc):
        path = write_doc(MSDR_DOC)
        code, out, _ = run(capsys, ["sec", "msdr", "--file", path, "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "metric,value,method,uncertainty"


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, capsys, write_doc):
        path = write_doc(TWO_STATE_DOC)
        argv = ["mc", "reliability", "--file", path, "--format", "json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_thread_count_byte_identical(self, capsys, write_doc):
        path = write_doc(TWO_STATE_DOC)
        base = ["mc", "reliability", "--file", path, "--format", "json"]
        _, one, _ = run(capsys, base + ["--threads", "1"])
        _, eight, _ = run(capsys, base + ["--threads", "8"])
        assert one == eight

    def test_mttf_thread_count_byte_identical(self, capsys, write_doc):
        path = write_doc(TWO_STATE_DOC)
        base = ["mc", "mttf", "--file", path, "--format", "json"]
        _, one, _ = run(capsys, base + ["--threads", "1"])
        _, eight, _ = run(capsys, base + ["--threads", "8"])
        assert one == eight

    @pytest.mark.parametrize("sub", ["reliability", "mttf"])
    def test_partitioned_walks_byte_identical(self, capsys, write_doc, monkeypatch, sub):
        # small jobs run on one thread; a one-trial minimum slice makes 8 threads split this one
        monkeypatch.setattr(montecarlo, "_MIN_SLICE", 1)
        base = ["mc", sub, "--file", write_doc(TWO_STATE_DOC), "--format", "json"]
        _, one, _ = run(capsys, base + ["--threads", "1"])
        _, eight, _ = run(capsys, base + ["--threads", "8"])
        assert one == eight

    def test_seed_flag_equals_document_seed(self, capsys, write_doc):
        with_seed = write_doc(TWO_STATE_DOC, "a.json")
        payload = {k: v for k, v in TWO_STATE_DOC.items() if k != "seed"}
        without_seed = write_doc(payload, "b.json")
        _, from_doc, _ = run(capsys, ["mc", "reliability", "--file", with_seed, "--format", "json"])
        _, from_flag, _ = run(
            capsys, ["mc", "reliability", "--file", without_seed, "--seed", "42", "--format", "json"]
        )
        assert (
            json.loads(from_doc)["results"] == json.loads(from_flag)["results"]
        )

    def test_grid_headline_equals_plain_reliability(self, capsys, write_doc):
        path = write_doc(TWO_STATE_DOC)  # horizon 10 lies inside the grid's span
        base = ["mc", "reliability", "--file", path, "--format", "json"]
        _, plain, _ = run(capsys, base)
        _, grid, _ = run(capsys, base + ["--grid", "0:20:5"])
        assert json.loads(grid)["results"] == json.loads(plain)["results"]

    def test_default_threads_are_the_usable_cores(self, monkeypatch):
        doc = model_io.parse_model(json.dumps(TWO_STATE_DOC))
        entry = next(e for e in doc.analyses if e["op"] == "reliability")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        # no environment variable changes the default
        monkeypatch.setenv("SECURAKIT_THREADS", "3")

        def threads(flag=None):
            args = argparse.Namespace(seed=None, threads=flag)
            ctx = cli._Context(args, "mc reliability", "reliability", doc, None, 0, entry)
            return cli._monte_carlo(ctx)[1]

        assert threads() == 1
        assert threads(5) == 5

    def test_missing_seed_is_validation_error(self, capsys, write_doc):
        payload = {k: v for k, v in TWO_STATE_DOC.items() if k != "seed"}
        path = write_doc(payload)
        code, _, err = run(capsys, ["mc", "reliability", "--file", path])
        assert code == 1
        assert "seed" in err


CENSORED_FIT_DOC = {
    "kind": "weibull",
    "parameters": {"data": {"times": [55.0, 187.0, 216.0, 240.0, 244.0, 335.0, 361.0, 373.0],
                            "censored": [False, True, False, False, False, True, False, False]}},
    "analyses": [{"op": "fit"}],
}


class TestRepeatedInProcessRuns:
    def test_second_run_repeats_the_first(self, write_doc):
        commands = [
            ["validate", write_doc({"kind": "markov", "parameters": {"lambda": -1}}, "bad.json")],
            ["markov", "solve", "--file", write_doc(TWO_STATE_DOC, "chain.json")],
            ["sec", "msdr", "--file", write_doc(MSDR_DOC, "msdr.json")],
            ["weibull", "fit", "--file", write_doc(CENSORED_FIT_DOC, "fit.json")],
        ]
        # a fresh interpreter keeps the default warning filters, which pytest replaces in process
        proc = fresh_python(
            "import contextlib, io, json\n"
            "from securakit import cli\n"
            "runs = []\n"
            f"for argv in {commands!r}:\n"
            "    for _ in range(2):\n"
            "        out, err = io.StringIO(), io.StringIO()\n"
            "        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "            code = cli.main(argv)\n"
            "        runs.append([code, out.getvalue(), err.getvalue()])\n"
            "print(json.dumps(runs))\n"
        )
        assert proc.returncode == 0, proc.stderr
        runs = json.loads(proc.stdout)
        for argv, first, second in zip(commands, runs[::2], runs[1::2]):
            assert first == second, argv
        assert [code for code, _, _ in runs[::2]] == [1, 0, 0, 0]
        assert runs[-1][2] == "warning: rank regression ignores censored observations; consider method='mle'\n"


def birth_death_doc(n=100):
    """Degradation ladder of n states, rates varying along it; the top state is failed."""
    return {
        "kind": "markov",
        "parameters": {
            "states": [{"label": f"s{k}", "operational": k < n - 1} for k in range(n)],
            "transitions": [
                tr
                for k in range(n - 1)
                for tr in (
                    {"from": k, "to": k + 1, "rate": 1.0 + 0.01 * (k % 7)},
                    {"from": k + 1, "to": k, "rate": 0.8 + 0.02 * (k % 5)},
                )
            ],
        },
        "analyses": [{"op": "transient", "t": 60.0, "dt": 7.5}],
    }


class TestTransientSeries:
    """Every point of a CLI series equals a separate markov.transient run, bit for bit."""

    def assert_series_match_points(self, out, doc):
        chain, start = model_io.build_chain(model_io.parse_model(json.dumps(doc)))
        series = {s["name"]: s for s in json.loads(out)["series"]}
        times = series["availability"]["t"]
        for i, t in enumerate(times):
            pi = markov.transient(chain, start, t)
            assert series["availability"]["values"][i] == math.fsum(p for p, up in zip(pi, chain.operational) if up)
            for j, label in enumerate(chain.labels):
                assert series[f"pi[{label}]"]["values"][i] == pi[j]
        return times

    def test_grid_series(self, capsys, write_doc):
        doc = birth_death_doc()
        argv = ["markov", "transient", "--file", write_doc(doc), "--grid", "0:60:13", "--format", "json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert self.assert_series_match_points(out, doc) == [5.0 * k for k in range(13)]

    @pytest.mark.parametrize("grid", ["0:50:11", "7:7:4", "0:3:1"])
    def test_two_state_grid_series(self, capsys, write_doc, grid):
        # these grids take the pure-Python products, and each single point too
        argv = ["markov", "transient", "--file", write_doc(TWO_STATE_DOC), "--grid", grid, "--format", "json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert self.assert_series_match_points(out, TWO_STATE_DOC) == cli._parse_grid(grid)

    def test_document_t_dt_series(self, capsys, write_doc):
        doc = birth_death_doc()
        code, out, _ = run(capsys, ["markov", "transient", "--file", write_doc(doc), "--format", "json"])
        assert code == 0
        assert self.assert_series_match_points(out, doc) == [7.5 * k for k in range(9)]

    @pytest.mark.parametrize("t, dt, times", [
        (5.0, 20.0, [0.0, 5.0]),
        (1.0, 0.3, [0.0, 0.3, 0.6, 3 * 0.3, 1.0]),
        (0.3, 0.1, [0.0, 0.1, 0.2, 0.3]),
        (0.9, 0.3, [0.0, 0.3, 0.6, 0.9]),
        (2.1, 0.3, [0.3 * k for k in range(8)]),  # 2.1 / 0.3 rounds above 7, and 7 * 0.3 == 2.1
        (48.0, 2.0, [2.0 * k for k in range(25)]),
        (4.0, 4.0, [0.0, 4.0]),
        (0.0, 1.0, [0.0]),
    ])
    def test_document_series_ends_at_t(self, capsys, write_doc, t, dt, times):
        doc = {**birth_death_doc(6), "analyses": [{"op": "transient", "t": t, "dt": dt}]}
        code, out, _ = run(capsys, ["markov", "transient", "--file", write_doc(doc), "--format", "json"])
        assert code == 0
        assert self.assert_series_match_points(out, doc) == times
        report = json.loads(out)
        assert report["results"][0]["value"] == report["series"][0]["values"][-1]


finite_times = st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True)


class TestGridTimes:
    """The CLI's times are Python floats with the bits of numpy's, so ``mc reliability --grid`` keeps its bytes."""

    @given(finite_times, finite_times, st.integers(min_value=1, max_value=60))
    @settings(max_examples=300, deadline=None)
    def test_grid_has_the_bits_of_linspace(self, a, b, steps):
        t0, t1 = min(a, b), max(a, b)
        for lo, hi in ((t0, t1), (t0, t0)):
            grid = cli._parse_grid(f"{lo!r}:{hi!r}:{steps}")
            assert all(type(t) is float for t in grid)
            assert grid == np.linspace(lo, hi, steps).tolist()

    @pytest.mark.parametrize("spec", ["0:1:1", "0:5e-324:3", "5e-324:1e-323:5", "0:0:3", "2.5:2.5:1", "0:50:11",
                                      "0:1e308:3", "1e-300:1e300:7"])
    def test_grid_edges_have_the_bits_of_linspace(self, spec):
        t0, t1, steps = spec.split(":")
        assert cli._parse_grid(spec) == np.linspace(float(t0), float(t1), int(steps)).tolist()

    @given(st.floats(min_value=0.0, max_value=1e4), st.floats(min_value=0.1, max_value=1e6))
    @settings(max_examples=300, deadline=None)
    def test_step_grid_has_the_bits_of_arange_with_t_appended(self, t, dt):
        steps = math.ceil(t / dt * (1 - 1e-9))
        assert cli._step_grid(t, dt) == np.append(np.arange(steps) * dt, t).tolist()
        assert cli._step_grid(t, math.inf) == [t]


class TestNonFiniteGrid:
    @pytest.mark.parametrize("spec", ["0:nan:5", "0:inf:3", "nan:1:3", "0:1e999:2", "-inf:0:2"])
    @pytest.mark.parametrize("command", [["markov", "transient"], ["mc", "reliability"]])
    def test_usage_error_without_warnings(self, capsys, write_doc, command, spec):
        path = write_doc(TWO_STATE_DOC)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, [*command, "--file", path, "--grid", spec])
        assert code == 3
        assert err == f"error: usage: --grid needs finite T0 and T1, got {spec!r}\n"
        assert not out and not caught

    def test_term_count_past_the_cap_is_one_short_line(self, capsys, write_doc):
        argv = ["markov", "transient", "--file", write_doc(TWO_STATE_DOC), "--grid", "0:1e308:3"]
        code, out, err = run(capsys, argv)
        assert code == 2 and not out
        assert err == "error: numerical: uniformization needs 5e+306 terms (rate*t = 5e+306); split the horizon\n"

    def test_rate_t_near_the_largest_double_is_one_short_line(self, capsys, write_doc):
        # 2 * rate*t passes the largest double; the term-count floor doubles the log instead
        doc = {"kind": "markov", "parameters": {"lambda": 1e308, "mu": 1.0}}
        code, out, err = run(capsys, ["markov", "transient", "--file", write_doc(doc), "--grid", "0:1:2"])
        assert code == 2 and not out
        assert err == "error: numerical: uniformization needs 1e+308 terms (rate*t = 1e+308); split the horizon\n"


def overflow_chain(pairs):
    """States up, a, b; ``pairs`` lists the (from, to) of each transition of rate 1.5e308, and a, b repair to up."""
    states = [{"label": label, "operational": label == "up"} for label in ("up", "a", "b")]
    transitions = [{"from": i, "to": j, "rate": 1.5e308} for i, j in pairs]
    transitions += [{"from": i, "to": 0, "rate": 1.0} for i in (1, 2)]
    return {"states": states, "transitions": transitions}


class TestRateOverflow:
    """Finite rates out of one state that sum past the largest double: one line that names the state."""

    @pytest.mark.parametrize("command, payload, state", [
        ("markov solve", {"kind": "markov", "parameters": overflow_chain([(0, 1), (0, 2)])}, "0 (up)"),
        ("markov solve", {"kind": "markov", "parameters": overflow_chain([(0, 1), (0, 1)])}, "0 (up)"),
        ("sec msdr", {**MSDR_DOC, "parameters": {**MSDR_DOC["parameters"], "lambda_ms": 1.5e308,
                                                  "lambda_dr": 1.5e308}}, "0 (both_up)"),
        ("sec routofn", {**ROUTOFN_DOC, "parameters": {"r": 1, "subsystems": [
            {"type": "chain", **overflow_chain([(0, 1), (0, 1)])}]}}, "0 (up)"),
    ], ids=["two_rates", "repeated_pair", "msdr", "routofn"])
    def test_one_line_naming_the_state(self, capsys, write_doc, command, payload, state):
        code, out, err = run(capsys, [*command.split(), "--file", write_doc(payload)])
        assert code == 1
        assert err == f"error: validation: generator entries must be finite; state {state} has exit rate inf\n"
        assert not out


class TestWeibullMeanLifeRange:
    """Gamma(1 + 1/beta) passes the double range for small shapes; the mean life is then a number or exit 2."""

    def test_flag_sweep_exits_0_or_2(self, capsys):
        values = [repr(float(v)) for v in np.geomspace(5e-324, 1.7e308, 10)]
        codes = set()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for alpha in values:
                for beta in values:
                    for t in [*values, "0", "inf"]:
                        code = main(["weibull", "eval", "--alpha", alpha, "--beta", beta, "--t", t])
                        capsys.readouterr()
                        codes.add(code)
        assert codes == {0, 2}
        # beta/alpha overflows while exp underflows at the far corners; no inf * 0 or inf - inf is warned of
        assert [str(w.message) for w in caught] == []

    def test_corner_where_beta_over_alpha_overflows(self, capsys):
        code, out, err = run(capsys, ["weibull", "eval", "--alpha", "7.32023680974036e-254",
                                      "--beta", "5.22669911573612e+97", "--t", "5e-324", "--format", "json"])
        assert (code, err) == (0, "")
        values = {r["metric"]: r["value"] for r in json.loads(out)["results"]}
        assert values == {"pdf": 0.0, "cdf": 0.0, "hazard": 0.0, "reliability": 1.0, "mean_life": 7.32023680974036e-254}

    def test_mean_past_the_gamma_range_is_finite(self, capsys):
        from scipy.special import gammaln

        code, out, err = run(capsys, ["weibull", "eval", "--alpha", "1e-300", "--beta", "0.005", "--t", "1",
                                      "--format", "json"])
        assert (code, err) == (0, "")
        values = {r["metric"]: r["value"] for r in json.loads(out)["results"]}
        assert values["mean_life"] == pytest.approx(math.exp(math.log(1e-300) + gammaln(201.0)), rel=1e-12)

    @pytest.mark.parametrize("times", [[1, 2, 1e300], [1e-100, 1, 1e100]])
    def test_fit_with_an_infinite_mean_life_exits_2(self, capsys, write_doc, times):
        path = write_doc({"kind": "weibull", "parameters": {"data": {"times": times}}})
        code, out, err = run(capsys, ["weibull", "fit", "--file", path])
        assert (code, out, err) == (2, "", "error: numerical: mean_life is not finite: inf\n")

    @pytest.mark.parametrize("method", ["mle", "rank_regression"])
    def test_fit_over_times_400_decades_apart_exits_2(self, capsys, write_doc, method):
        # 1e-200/1e200 underflows to 0: the MLE takes log t - log scale there, as the laws do
        path = write_doc({"kind": "weibull", "parameters": {"data": {"times": [1e-200, 1.0, 1e200]}}})
        code, out, err = run(capsys, ["weibull", "fit", "--method", method, "--file", path])
        assert (code, out, err) == (2, "", "error: numerical: mean_life is not finite: inf\n")


def decades(top):
    """10**e for e in [-300, top], the two ends drawn as often as the rest, since the faults sit there."""
    exponent = st.one_of(st.sampled_from([-300.0, top]), st.floats(min_value=-300.0, max_value=top))
    return exponent.map(lambda e: 10.0 ** e)


SPREAD = decades(300.0)


@st.composite
def drawn_chains(draw):
    """Chain parameters: the two-state shortcut, or 2-4 states with rates across 600 decades."""
    if draw(st.booleans()):
        return {"lambda": draw(SPREAD), "mu": draw(SPREAD)}
    n = draw(st.integers(min_value=2, max_value=4))
    operational = [True] + draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    state = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(state, state).filter(lambda p: p[0] != p[1]), min_size=1, max_size=2 * n))
    params = {"states": [{"label": f"s{i}", "operational": op} for i, op in enumerate(operational)],
              "transitions": [{"from": i, "to": j, "rate": draw(SPREAD)} for i, j in pairs]}
    if draw(st.booleans()):
        params["start"] = draw(state)
    return params


def largest_exit_rate(params):
    """The uniformization rate of the chain of ``params``, or inf where an exit rate overflows."""
    if "lambda" in params:
        return max(params["lambda"], params["mu"])
    exits = {}
    for tr in params["transitions"]:
        exits.setdefault(tr["from"], []).append(tr["rate"])
    try:
        return max(math.fsum(rates) for rates in exits.values())
    except OverflowError:
        return math.inf


@st.composite
def drawn_commands(draw):
    """A command line without its ``--file``, and its document: None for ``weibull eval``, which takes flags."""
    command = draw(st.sampled_from(["weibull eval", "weibull fit", "markov solve", "markov metrics",
                                    "markov transient", "sec msdr", "sec routofn"]))
    argv = command.split()
    if command == "weibull eval":
        t = draw(st.one_of(st.just(0.0), SPREAD))
        return argv + [f"--{key}={value!r}" for key, value in (("alpha", draw(SPREAD)), ("beta", draw(SPREAD)),
                                                               ("t", t))], None
    if command == "weibull fit":
        times = draw(st.lists(SPREAD, min_size=1, max_size=8))
        data = {"times": times}
        if draw(st.booleans()):
            data["censored"] = draw(st.lists(st.booleans(), min_size=len(times), max_size=len(times)))
        argv += ["--method", draw(st.sampled_from(model_io.FIT_METHODS))]
        return argv, {"kind": "weibull", "parameters": {"data": data}}
    if command == "sec msdr":
        params = {key: draw(SPREAD) for key in ("lambda_ms", "lambda_dr", "mu_ms", "mu_dr")}
        params["single_repair_crew"] = draw(st.booleans())
        if draw(st.booleans()):
            params["attack"] = {"rate": draw(st.one_of(st.just(0.0), SPREAD)),
                                "applies_to": draw(st.sampled_from(["ms", "dr", "both"]))}
        return argv, {"kind": "msdr", "parameters": params, "analyses": [{"op": "msdr"}]}
    if command == "sec routofn":
        subsystem = st.one_of(
            st.floats(min_value=0.0, max_value=1.0).map(lambda p: {"type": "probability", "p": p}),
            st.builds(lambda lam, mu: {"type": "two_state", "lambda": lam, "mu": mu}, SPREAD, SPREAD),
            drawn_chains().filter(lambda params: "states" in params).map(lambda params: {"type": "chain", **params}))
        subsystems = draw(st.lists(subsystem, min_size=1, max_size=3))
        r = draw(st.integers(min_value=1, max_value=len(subsystems)))
        return argv, {"kind": "r_out_of_n", "parameters": {"r": r, "subsystems": subsystems},
                      "analyses": [{"op": "routofn"}]}
    params = draw(drawn_chains())
    doc = {"kind": "markov", "parameters": params}
    if command == "markov transient":
        rate_t = draw(decades(308.25))  # up to the largest double
        t = rate_t / largest_exit_rate(params) if draw(st.integers(min_value=0, max_value=9)) else 0.0
        # a sum of 10**4 up to the term cap's 5 million products is legitimate work, too slow to run here
        assume(math.isfinite(t) and not 1e4 < rate_t <= markov._MAX_UNIFORMIZATION_TERMS)
        if draw(st.booleans()):
            argv += ["--grid", f"0:{t!r}:{draw(st.integers(min_value=1, max_value=4))}"]
        else:
            doc["analyses"] = [{"op": "transient", "t": t}]
    return argv, doc


class TestNoTraceback:
    """Accepted or not, a drawn input ends in exit 0, 1 or 2 with only ``error:`` and ``warning:`` lines.

    The Monte Carlo commands are left out (a stiff chain walks for a time no
    bound holds yet), and so is ``sec routofn`` with a threshold entry, which
    walks; a transient's uniformization sums of 10**4 terms and more that
    stay under the term cap are left out by ``assume`` as legitimate work.
    """

    @given(case=drawn_commands())
    @settings(max_examples=400, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    def test_drawn_documents(self, capsys, tmp_path, case):
        argv, doc = case
        runs = [argv]
        if doc is not None:
            path = tmp_path / "model.json"
            path.write_text(json.dumps(doc))
            runs = [[*argv, "--file", str(path)], ["validate", str(path)]]
        for argv in runs:
            code, _, err = run(capsys, argv)
            assert code in (0, 1, 2), (argv, err)
            assert all(line.startswith(("error: ", "warning: ")) for line in err.splitlines()), (argv, err)


class TestMonteCarloMttfRange:
    """Failure times whose squared deviations (near 1e160), or whose sum (near 1e306), pass the double range."""

    @pytest.mark.parametrize("power", [530, 1017])  # 1017: the 1000 times sum past the largest double
    def test_tiny_failure_rate_scales_value_and_error_exactly(self, write_doc, power):
        def mttf(lam: float) -> dict:
            path = write_doc({"kind": "markov", "seed": 5, "parameters": {"lambda": lam, "mu": 1.0},
                              "analyses": [{"op": "mttf", "n_trials": 1000}]}, name=f"{lam!r}.json")
            proc = subprocess.run([sys.executable, "-m", "securakit", "mc", "mttf", "--file", path, "--format", "json"],
                                  capture_output=True, text=True, env=fresh_env(), timeout=60)
            assert (proc.returncode, proc.stderr) == (0, "")
            (result,) = json.loads(proc.stdout, parse_constant=lambda name: pytest.fail(f"not JSON: {name}"))["results"]
            return result

        # holding times are -log(u) / lambda: at lambda = 2**-power each one is 2**power times longer, exactly
        small, unit = mttf(math.ldexp(1.0, -power)), mttf(1.0)
        assert small["value"] == math.ldexp(unit["value"], power)
        assert small["uncertainty"] == math.ldexp(unit["uncertainty"], power)


class TestSeriesLimit:
    """A series longer than model_io.MAX_SERIES_POINTS is refused before anything is allocated."""

    @pytest.mark.parametrize("command", [["markov", "transient"], ["mc", "reliability"]])
    @pytest.mark.parametrize("steps", ["1000001", "100000000000000000000"])
    def test_grid_steps_is_a_usage_error(self, capsys, write_doc, command, steps):
        code, out, err = run(capsys, [*command, "--file", write_doc(TWO_STATE_DOC), "--grid", f"0:1:{steps}"])
        assert (code, out, err) == (3, "", f"error: usage: --grid STEPS must be at most 1000000, got {steps}\n")

    @pytest.mark.parametrize("command", [["validate"], ["markov", "transient", "--file"]])
    def test_document_t_dt_is_a_schema_error(self, capsys, write_doc, command):
        doc = {**TWO_STATE_DOC, "analyses": [{"op": "transient", "t": 1e300, "dt": 1e-300}]}
        code, out, err = run(capsys, [*command, write_doc(doc)])
        assert (code, out) == (1, "")
        assert err == "error: schema: analyses[0].dt: t/dt must be at most 999999, got inf\n"


class TestGridStartingWithMinus:
    @pytest.mark.parametrize("command", [["markov", "transient"], ["mc", "reliability"]])
    def test_negative_start_reaches_the_grid_check(self, capsys, write_doc, command):
        path = write_doc(TWO_STATE_DOC)
        code, out, err = run(capsys, [*command, "--file", path, "--grid", "-1:5:3"])
        assert code == 3
        assert err == "error: usage: --grid needs 0 <= T0 <= T1 and STEPS >= 1\n"
        assert not out

    def test_missing_value_is_still_a_usage_error(self, capsys, write_doc):
        code, _, err = run(capsys, ["mc", "reliability", "--file", write_doc(TWO_STATE_DOC), "--grid"])
        assert code == 3
        assert err == "error: usage: argument --grid: expected one argument\n"


class TestEventCapMessage:
    def test_horizon_capped_walk_names_the_horizon(self, capsys, write_doc):
        payload = json.loads(json.dumps(ROUTOFN_DOC))
        payload["parameters"]["subsystems"][0] = {"type": "two_state", "lambda": 1.0, "mu": 1.0}
        payload["analyses"].append(
            {"op": "threshold_reliability", "n_trials": 50, "horizon": 100.0, "max_events": 5}
        )
        code, _, err = run(capsys, ["sec", "routofn", "--file", write_doc(payload)])
        assert code == 2
        assert err == (
            "error: numerical: a trial exceeded 5 events before horizon 100; raise max_events\n"
        )


class TestValidateIsZeroCost:
    def test_huge_trial_counts_are_not_run(self, capsys, write_doc):
        payload = json.loads(json.dumps(TWO_STATE_DOC))
        payload["analyses"] = [{"op": "reliability", "n_trials": 2_000_000_000, "horizon": 1e6}]
        path = write_doc(payload)
        started = time.perf_counter()
        code, _, _ = run(capsys, ["validate", path])
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < 0.5


# the modules that a command which runs no engine must not load
ENGINES = ("numpy", "securakit.markov", "securakit.montecarlo", "securakit.weibull", "securakit.securability")
PRINT_ENGINES = f"print([m for m in {ENGINES!r} if m in sys.modules])\n"


def fresh_env() -> dict:
    """The environment of a new interpreter that imports securakit from the tree under test."""
    src = str(Path(securakit.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports securakit from the tree under test."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=fresh_env(), timeout=60)


class TestTransientDispatch:
    """Transient bytes do not follow numpy's SIMD level, nor, on a sparse chain, OpenBLAS's kernels.

    numpy ignores a feature name it does not know, so the test runs on any
    host; it has power only where numpy dispatches AVX-512 kernels.
    """

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("doc", [TWO_STATE_DOC, birth_death_doc(40)], ids=["two_state", "birth_death_40"])
    def test_same_stdout_without_avx512(self, write_doc, doc, fmt):
        argv = [sys.executable, "-m", "securakit", "markov", "transient", "--file", write_doc(doc),
                "--grid", "0:400:11", "--format", fmt]
        env = {k: v for k, v in fresh_env().items() if k != "NPY_DISABLE_CPU_FEATURES"}
        outs = []
        for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}):
            proc = subprocess.run(argv, capture_output=True, text=True, env={**env, **extra}, timeout=60)
            assert (proc.returncode, proc.stderr) == (0, "")
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("doc", [TWO_STATE_DOC, birth_death_doc(400)], ids=["two_state", "birth_death_400"])
    def test_sparse_chain_same_stdout_under_other_blas_kernels(self, write_doc, doc):
        # the two-state chain takes the pure-Python product and a 400-state ladder the CSR one, neither of which
        # calls a BLAS kernel; OpenBLAS ignores a core type it does not know, so this has power only where it
        # would pick a kernel other than Haswell's
        argv = [sys.executable, "-m", "securakit", "markov", "transient", "--file", write_doc(doc),
                "--grid", "0:400:11", "--format", "json"]
        env = {k: v for k, v in fresh_env().items() if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
        outs = []
        for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR", "OPENBLAS_CORETYPE": "Haswell"}):
            proc = subprocess.run(argv, capture_output=True, text=True, env={**env, **extra}, timeout=60)
            assert (proc.returncode, proc.stderr) == (0, "")
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


class TestColdStart:
    def test_validate_in_fresh_interpreter_loads_no_scipy(self, write_doc):
        path = write_doc(TWO_STATE_DOC)
        proc = fresh_python(
            "import sys, securakit.cli\n"
            f"assert securakit.cli.main(['validate', {path!r}, '--quiet']) == 0\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("payload, exit_code", [
        (TWO_STATE_DOC, 0),
        ({"kind": "markov", "parameters": {"lambda": -1, "mu": "x"}, "extra": 1}, 1),
    ])
    def test_validate_command_loads_no_engine(self, capsys, write_doc, payload, exit_code):
        path = write_doc(payload)
        # what ``python -m securakit validate PATH --quiet`` runs, then the engines it left loaded
        proc = fresh_python(
            "import runpy, sys\n"
            f"sys.argv = ['securakit', 'validate', {path!r}, '--quiet']\n"
            "try:\n"
            "    runpy.run_module('securakit', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            f"    {PRINT_ENGINES}"
        )
        code, _, err = run(capsys, ["validate", path, "--quiet"])
        assert proc.returncode == code == exit_code
        assert proc.stderr == err
        assert err.count("error: schema: ") == (3 if exit_code else 0)
        assert proc.stdout == "[]\n"

    def test_validate_of_a_number_past_the_largest_double_loads_no_engine(self, write_doc):
        path = write_doc({"kind": "weibull", "parameters": {"alpha": 10 ** 400, "beta": 2}})
        proc = fresh_python(
            f"import sys, securakit.cli\nprint(securakit.cli.main(['validate', {path!r}]))\n{PRINT_ENGINES}")
        assert proc.stdout == "1\n[]\n"
        assert proc.stderr == "error: schema: parameters.alpha: expected a finite number\n"

    def test_validate_of_deep_nesting_loads_no_engine(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(MALFORMED_DOCUMENTS[-1])
        assert MALFORMED_DOCUMENTS[-1] == "[" * 100_000 + "]" * 100_000
        proc = fresh_python(
            f"import sys, securakit.cli\nprint(securakit.cli.main(['validate', {str(path)!r}]))\n{PRINT_ENGINES}")
        assert proc.stdout == "1\n[]\n"
        assert proc.stderr == "error: schema: document: arrays or objects nest too deeply to parse\n"

    @pytest.mark.parametrize("command", ["mc reliability", "mc mttf"])
    def test_chain_monte_carlo_loads_no_securability(self, capsys, write_doc, command):
        path = write_doc(TWO_STATE_DOC)
        argv = [*command.split(), "--file", path]
        proc = fresh_python(
            "import runpy, sys\n"
            f"sys.argv = ['securakit', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('securakit', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            "    print('securakit.montecarlo' in sys.modules, 'securakit.securability' in sys.modules)\n"
        )
        code, out, err = run(capsys, argv)
        assert proc.returncode == code == 0, proc.stderr
        assert proc.stdout == out + "True False\n"

    def test_routofn_without_a_threshold_entry_loads_no_walker(self, capsys, write_doc):
        payload = {**ROUTOFN_DOC, "parameters": {"r": 1, "subsystems": [
            {"type": "two_state", "lambda": 0.01, "mu": 0.1}, {"type": "probability", "p": 0.9}]}}
        argv = ["sec", "routofn", "--file", write_doc(payload)]
        proc = fresh_python(
            "import runpy, sys\n"
            f"sys.argv = ['securakit', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('securakit', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            "    print([m for m in ('securakit.montecarlo', 'securakit.rng') if m in sys.modules])\n"
        )
        code, out, err = run(capsys, argv)
        assert proc.returncode == code == 0, proc.stderr
        assert proc.stdout == out + "[]\n"

    @pytest.mark.parametrize("argv, censored", [
        (["weibull", "eval", "--alpha", "2", "--beta", "2", "--t", "2"], None),
        (["weibull", "fit", "--method", "both"], [False, True, False, False, True, False, False, False, False, False]),
    ], ids=["weibull_eval", "weibull_fit"])
    def test_weibull_commands_load_no_numpy(self, capsys, write_doc, argv, censored):
        if censored is not None:
            data = {**WEIBULL_FIT_DOC["parameters"]["data"], "censored": censored}
            argv = [*argv, "--file", write_doc({**WEIBULL_FIT_DOC, "parameters": {"data": data}})]
        # what ``python -m securakit ARGV`` runs, then the modules it left loaded
        proc = fresh_python(
            "import runpy, sys\n"
            f"sys.argv = ['securakit', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('securakit', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            "    print([m for m in ('numpy', 'securakit.rng') if m in sys.modules])\n"
        )
        code, out, err = run(capsys, argv)
        assert proc.returncode == code == 0, proc.stderr
        assert proc.stderr == err
        assert err == ("" if censored is None else
                       "warning: rank regression ignores censored observations; consider method='mle'\n")
        assert proc.stdout == out + "[]\n"

    def test_validate_command_generates_no_code(self, write_doc):
        # dataclasses compile each record's methods with exec at import, and load inspect to do it
        path = write_doc(MSDR_DOC)
        proc = fresh_python(
            "import runpy, sys\n"
            f"sys.argv = ['securakit', 'validate', {path!r}]\n"
            "try:\n"
            "    runpy.run_module('securakit', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            "    print([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"ok: {path}\n[]\n"

    def test_no_module_imports_dataclasses(self):
        imports = []
        for path in sorted(Path(securakit.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    imports += [(path.name, alias.name) for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    imports.append((path.name, node.module))
        assert ("cli.py", "argparse") in imports  # the scan sees the imports
        assert [(name, module) for name, module in imports if module == "dataclasses"] == []

    def test_package_root_loads_no_submodule(self):
        proc = fresh_python(
            "import sys, securakit\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'securakit'), 'numpy' in sys.modules)\n"
            "import securakit.__main__\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'securakit'))\n"
            "try:\n"
            "    securakit.Ctmc\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "['securakit'] False\n"
            "['securakit', 'securakit.__main__']\n"
            "module 'securakit' has no attribute 'Ctmc'\n"
        )


    CHAIN_ROUTOFN = {"kind": "r_out_of_n", "seed": 3, "parameters": {"r": 1, "subsystems": [
        {"type": "two_state", "lambda": 0.01, "mu": 0.1}, {"type": "probability", "p": 0.9}]}}

    @pytest.mark.parametrize("argv, payload, numpy_loaded", [
        (["markov", "solve"], TWO_STATE_DOC, False),
        (["markov", "metrics"], TWO_STATE_DOC, False),
        (["sec", "msdr"], MSDR_DOC, False),
        (["sec", "routofn"], CHAIN_ROUTOFN, False),
        (["markov", "transient", "--grid", "0:10:3"], TWO_STATE_DOC, False),
        (["markov", "transient", "--grid", "0:10:3"], birth_death_doc(400), True),
        (["sec", "routofn"], {**CHAIN_ROUTOFN, "analyses": [{"op": "threshold_reliability", "n_trials": 100,
                                                               "horizon": 1.0}]}, True),
    ], ids=["markov_solve", "markov_metrics", "sec_msdr", "sec_routofn", "markov_transient",
            "markov_transient_birth_death_400", "sec_routofn_threshold"])
    def test_analytic_chain_commands_load_no_numpy(self, capsys, write_doc, argv, payload, numpy_loaded):
        argv = [*argv, "--file", write_doc(payload)]
        # what ``python -m securakit ARGV`` runs, then whether numpy was loaded
        proc = fresh_python(
            "import runpy, sys\n"
            f"sys.argv = ['securakit', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('securakit', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            "    print('numpy' in sys.modules)\n"
        )
        code, out, err = run(capsys, argv)
        assert proc.returncode == code == 0, proc.stderr
        assert proc.stdout == out + f"{numpy_loaded}\n"


class TestProgramEntry:
    def test_main_leaves_the_collector_as_it_found_it(self, capsys, write_doc):
        before = gc.isenabled(), gc.get_freeze_count()
        code, _, _ = run(capsys, ["markov", "solve", "--file", write_doc(TWO_STATE_DOC)])
        assert code == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize("command, payload", [
        ("weibull fit", WEIBULL_FIT_DOC),
        ("markov solve", TWO_STATE_DOC),
        ("sec msdr", MSDR_DOC),
        ("sec routofn", ROUTOFN_DOC),
    ])
    def test_module_run_ends_with_the_collector_off_and_the_heap_frozen(self, capsys, write_doc, command, payload):
        argv = [*command.split(), "--file", write_doc(payload)]
        # what ``python -m securakit ...`` runs, then the collector state it left
        proc = fresh_python(
            "import gc, runpy, sys\n"
            f"sys.argv = ['securakit', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('securakit', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            "    print('collector enabled:', gc.isenabled(), 'frozen:', gc.get_freeze_count() > 0)\n"
        )
        code, out, err = run(capsys, argv)
        assert proc.returncode == code == 0
        assert proc.stderr == err
        assert proc.stdout == out + "collector enabled: False frozen: True\n"

    @pytest.mark.parametrize("command", ["markov solve --file", "markov transient --file", "validate"])
    def test_closed_stdout_pipe_is_a_usage_error(self, write_doc, command):
        argv = [*command.split(), write_doc(TWO_STATE_DOC)]
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader has gone before the command writes
        try:
            proc = subprocess.run([sys.executable, "-m", "securakit", *argv], stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, env=fresh_env(), timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        assert proc.stderr == "error: usage: cannot write standard output: [Errno 32] Broken pipe\n"


HELP_DIR = Path(__file__).parent / "help"
# the root, every group and every command, each with its help pinned in HELP_DIR
HELP_COMMANDS = ["", "weibull", "markov", "mc", "sec", "weibull eval", "weibull fit", "markov solve",
                 "markov transient", "markov metrics", "mc reliability", "mc mttf", "sec msdr", "sec routofn",
                 "validate"]
USAGE_ERRORS = [
    [], ["-x"], ["bogus"], ["Markov", "solve"], ["--", "markov", "solve"], ["--format", "json", "markov", "solve"],
    ["--quiet", "validate", "f"], ["markov"], ["sec"], ["markov", "bogus"], ["mc", "solve", "--file", "f"],
    ["markov", "--file", "f", "solve"], ["markov", "solve"], ["markov", "solve", "--file", "f", "--seed", "1"],
    ["weibull", "eval", "--alpha", "x"], ["weibull", "eval", "--alpha", "1", "--beta", "1"],
    ["weibull", "fit", "--file", "f", "--method", "bogus"], ["mc", "mttf", "--file", "f", "--format", "xml"],
    ["mc", "reliability", "--file", "f", "--grid"], ["sec", "routofn", "--file", "f", "--threads", "two"],
    ["validate"], ["validate", "f", "--grid", "0:1:2"],
]


class TestParser:
    @pytest.mark.parametrize("command", HELP_COMMANDS, ids=lambda command: command or "root")
    def test_help_text_is_pinned(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main([*command.split(), "--help"])
        captured = capsys.readouterr()
        assert (exit_info.value.code, captured.err) == (0, "")
        assert captured.out == (HELP_DIR / "_".join(["securakit", *command.split()])).with_suffix(".txt").read_text()

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda argv: " ".join(argv) or "none")
    def test_usage_error_is_that_of_the_full_parser(self, capsys, argv):
        with pytest.raises(cli.UsageError) as full:
            cli.build_parser().parse_args(cli._attach_grid_values(argv))
        assert run(capsys, argv) == (3, "", f"error: usage: {full.value}\n")


class TestMalformedCorpus:
    def test_corpus_is_large_enough(self):
        assert len(MALFORMED_DOCUMENTS) >= 30

    @pytest.mark.parametrize("text", MALFORMED_DOCUMENTS, ids=range(len(MALFORMED_DOCUMENTS)))
    def test_every_document_yields_diagnostics_and_exit_1(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, ["validate", str(path)])
        assert code == 1
        assert err.strip()
        for line in err.strip().splitlines():
            assert line.startswith("error: ")
            assert line.count(":") >= 2  # category and path segments


# every document command on a document of another kind: exit 1 and exactly this line
WRONG_KIND = [
    ("weibull fit", MSDR_DOC, "weibull fit needs a document of kind weibull, got msdr"),
    ("markov solve", WEIBULL_FIT_DOC, "markov solve needs a document of kind markov or msdr, got weibull"),
    ("markov transient", ROUTOFN_DOC,
     "markov transient needs a document of kind markov or msdr, got r_out_of_n"),
    ("markov metrics", WEIBULL_FIT_DOC, "markov metrics needs a document of kind markov or msdr, got weibull"),
    ("mc reliability", ROUTOFN_DOC, "mc reliability needs a document of kind markov or msdr, got r_out_of_n"),
    ("mc mttf", WEIBULL_FIT_DOC, "mc mttf needs a document of kind markov or msdr, got weibull"),
    ("sec msdr", TWO_STATE_DOC, "sec msdr needs a document of kind msdr, got markov"),
    ("sec routofn", MSDR_DOC, "sec routofn needs a document of kind r_out_of_n, got msdr"),
]
# a chain document whose analyses hold only 'solve'
MISSING_ENTRY = [
    ("mc reliability", "mc reliability needs an analyses entry with op 'reliability'"),
    ("mc mttf", "mc mttf needs an analyses entry with op 'mttf'"),
    ("markov transient", "markov transient needs --grid or an analyses entry with 't'"),
]


class TestExitCodes:
    def test_numerical_error_exits_2(self, capsys):
        # hazard/density diverge at t=0 for shape < 1
        code, _, err = run(
            capsys, ["weibull", "eval", "--alpha", "1", "--beta", "0.5", "--t", "0"]
        )
        assert code == 2
        assert err.startswith("error: numerical:")

    def test_nan_result_exits_2(self, capsys):
        # the limits at t = inf are exact, with no NaN or warning; JSON has no Infinity, so the hazard fails
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["weibull", "eval", "--alpha", "1", "--beta", "2", "--t", "inf",
                                          "--format", "json"])
        assert (code, out, err) == (2, "", "error: numerical: hazard is not finite: inf\n")

    def test_exponential_limits_at_infinity_exit_0(self, capsys):
        code, out, err = run(capsys, ["weibull", "eval", "--alpha", "1", "--beta", "1", "--t", "inf",
                                      "--format", "json"])
        assert (code, err) == (0, "")
        values = {r["metric"]: r["value"] for r in json.loads(out)["results"]}
        assert (values["pdf"], values["cdf"], values["hazard"], values["reliability"]) == (0.0, 1.0, 1.0, 0.0)

    def test_infinite_result_exits_2(self, capsys):
        code, out, err = run(capsys, ["weibull", "eval", "--alpha", "1", "--beta", "3", "--t", "1e200",
                                      "--format", "json"])
        assert (code, out, err) == (2, "", "error: numerical: hazard is not finite: inf\n")

    def test_non_finite_mtta_exits_2(self, capsys, write_doc):
        attack = {"rate": 1e-320, "applies_to": "ms"}  # 1/rate overflows
        payload = {**MSDR_DOC, "parameters": {**MSDR_DOC["parameters"], "attack": attack}}
        code, out, err = run(capsys, ["sec", "msdr", "--file", write_doc(payload), "--format", "json"])
        assert (code, out, err) == (2, "", "error: numerical: mtta is not finite: inf\n")

    def test_overflow_to_a_finite_value_warns_nothing(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["weibull", "eval", "--alpha", "1", "--beta", "2", "--t", "1e300",
                                          "--format", "json"])
        assert (code, err) == (0, "")
        values = {r["metric"]: r["value"] for r in json.loads(out)["results"]}
        assert (values["pdf"], values["cdf"], values["reliability"]) == (0.0, 1.0, 0.0)
        assert values["hazard"] == pytest.approx(2e300, rel=1e-12)

    def test_time_over_scale_that_underflows_exits_0_without_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["weibull", "eval", "--alpha", "1e10", "--beta", "1", "--t", "1e-320",
                                          "--format", "json"])
        assert (code, err) == (0, "")
        values = {r["metric"]: r["value"] for r in json.loads(out)["results"]}
        assert (values["pdf"], values["hazard"], values["cdf"], values["reliability"]) == (1e-10, 1e-10, 0.0, 1.0)

    @pytest.mark.parametrize("n, lam, mu", [(6, 1e-5, 1e3), (12, 1e-2, 10.0)])
    def test_stiff_hitting_time_exits_0_with_the_exact_mttf(self, capsys, write_doc, n, lam, mu):
        # an LU solve gave a negative MTTF on these chains; the elimination gives the exact one
        code, out, err = run(capsys, ["markov", "metrics", "--file", write_doc(ladder_doc(n, lam, mu)),
                                      "--format", "json"])
        assert (code, err) == (0, "")
        mttf = next(r["value"] for r in json.loads(out)["results"] if r["metric"] == "mttf")
        exact = exact_hitting_times(ladder(n, lam, mu, repairable_top=True), {n - 1})[0]
        assert abs(Fraction(mttf) / exact - 1) <= 1e-13

    def test_hitting_time_past_the_double_range_names_the_chain_state(self, capsys, write_doc):
        # the MTTF of this ladder is about (mu/lam)**n: from about 600 states it passes the largest double
        code, out, err = run(capsys, ["markov", "metrics", "--file", write_doc(ladder_doc(700, 0.3, 1.0))])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == err.count("error:") == 1
        assert err.startswith("error: numerical: ") and "double range" in err
        assert re.search(r"state (\d+) \(s\1\)", err) and "singular" not in err

    def test_hitting_time_overflowing_over_a_subnormal_pivot_names_the_chain_state(self, capsys, write_doc):
        # at 600 states the pivot of state 0 is 4.4e-314, not 0: only the quotient by it overflows
        code, out, err = run(capsys, ["markov", "metrics", "--file", write_doc(ladder_doc(600, 0.3, 1.0))])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == err.count("error:") == 1
        assert err.startswith("error: numerical: expected hitting time from state 0 (s0) leaves the double range")

    def test_hitting_time_just_inside_the_double_range_exits_0(self, capsys, write_doc):
        code, out, err = run(capsys, ["markov", "metrics", "--file", write_doc(ladder_doc(580, 0.3, 1.0)),
                                      "--format", "json"])
        assert (code, err) == (0, "")
        mttf = next(r["value"] for r in json.loads(out)["results"] if r["metric"] == "mttf")
        assert mttf == pytest.approx(1.1392e303, rel=1e-4)

    def test_steady_state_ratio_past_the_double_range_exits_0(self, capsys, write_doc):
        # pi_down / pi_up = 1e600: the one quotient overflowed, and the residual check saw nan
        doc = {**TWO_STATE_DOC, "parameters": {"lambda": 1e300, "mu": 1e-300}}
        code, out, err = run(capsys, ["markov", "solve", "--file", write_doc(doc), "--format", "json"])
        assert (code, err) == (0, "")
        values = {r["metric"]: r["value"] for r in json.loads(out)["results"]}
        assert values == {"pi[up]": 0.0, "pi[down]": 1.0, "availability": 0.0}

    @pytest.mark.parametrize("command, entry, message", [
        ("markov metrics", {"op": "metrics"}, "markov metrics needs a chain with a non-operational state"),
        ("mc mttf", {"op": "mttf", "n_trials": 10}, "chain has no non-operational state"),
    ])
    def test_chain_without_a_failed_state_is_validation_error(self, capsys, write_doc, command, entry, message):
        doc = chain_doc([True, True], [(0, 1, 0.1), (1, 0, 0.2)], [entry], seed=1)
        code, out, err = run(capsys, [*command.split(), "--file", write_doc(doc)])
        assert (code, out, err) == (1, "", f"error: validation: {message}\n")

    def test_grid_with_a_non_number_is_usage_error(self, capsys, write_doc):
        code, out, err = run(capsys, ["markov", "transient", "--file", write_doc(TWO_STATE_DOC),
                                      "--grid", "0:a:3"])
        assert (code, out, err) == (3, "", "error: usage: --grid expects numbers T0:T1:STEPS, got '0:a:3'\n")

    def test_usage_error_unknown_flag(self, capsys):
        code, _, err = run(capsys, ["markov", "solve", "--bogus", "x"])
        assert code == 3
        assert err.startswith("error: usage:")

    def test_usage_error_bad_grid(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(TWO_STATE_DOC))
        code, _, err = run(
            capsys, ["markov", "transient", "--file", str(path), "--grid", "backwards"]
        )
        assert code == 3

    def test_missing_file_is_validation_error(self, capsys):
        code, _, err = run(capsys, ["markov", "solve", "--file", "/nonexistent/x.json"])
        assert code == 1

    @pytest.mark.parametrize("argv", [["validate", "{}"], ["markov", "solve", "--file", "{}"]])
    def test_document_that_is_not_utf8_is_validation_error(self, capsys, tmp_path, argv):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff" + json.dumps(TWO_STATE_DOC).encode())
        code, out, err = run(capsys, [a.format(path) for a in argv])
        assert (code, out) == (1, "")
        assert err == (f"error: validation: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte\n")

    @pytest.mark.parametrize("command, doc, message", WRONG_KIND, ids=[c for c, _, _ in WRONG_KIND])
    def test_wrong_kind_is_validation_error(self, capsys, write_doc, command, doc, message):
        code, out, err = run(capsys, [*command.split(), "--file", write_doc(doc)])
        assert (code, out, err) == (1, "", f"error: validation: {message}\n")

    @pytest.mark.parametrize("command, message", MISSING_ENTRY, ids=[c for c, _ in MISSING_ENTRY])
    def test_missing_entry_is_validation_error(self, capsys, write_doc, command, message):
        doc = {**TWO_STATE_DOC, "analyses": [{"op": "solve"}]}
        code, out, err = run(capsys, [*command.split(), "--file", write_doc(doc)])
        assert (code, out, err) == (1, "", f"error: validation: {message}\n")

    def test_weibull_fit_without_data_is_validation_error(self, capsys, write_doc):
        path = write_doc({"kind": "weibull", "parameters": {"alpha": 2.0, "beta": 1.5}})
        code, out, err = run(capsys, ["weibull", "fit", "--file", path])
        assert (code, out) == (1, "")
        assert err == "error: validation: weibull fit needs parameters.data in the document\n"

    def test_analysis_start_out_of_range_is_schema_error(self, capsys, write_doc):
        doc = {**TWO_STATE_DOC, "analyses": [{"op": "transient", "t": 1.0, "start": 2}]}
        code, out, err = run(capsys, ["markov", "transient", "--file", write_doc(doc)])
        assert (code, out) == (1, "")
        assert err == "error: schema: analyses[0].start: state id 2 out of range 0..1\n"

    def test_validation_error_lines_are_single_line_parsable(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "msdr", "parameters": {"lambda_ms": -1}}')
        code, _, err = run(capsys, ["sec", "msdr", "--file", str(path)])
        assert code == 1
        assert all(line.startswith("error: schema: ") for line in err.strip().splitlines())


# the document each command runs on in the flag tests
ROUTOFN_MC_DOC = {**ROUTOFN_DOC, "analyses": [{"op": "threshold_reliability", "n_trials": 2000, "horizon": 5.0}]}
FLAG_TARGETS = {
    "weibull eval": None, "weibull fit": WEIBULL_FIT_DOC, "markov solve": TWO_STATE_DOC,
    "markov transient": TWO_STATE_DOC, "markov metrics": TWO_STATE_DOC, "mc reliability": TWO_STATE_DOC,
    "mc mttf": TWO_STATE_DOC, "sec msdr": MSDR_DOC, "sec routofn": ROUTOFN_MC_DOC, "validate": MSDR_DOC,
}
MONTE_CARLO_COMMANDS = ("mc reliability", "mc mttf", "sec routofn")
# (command, flag, read): every flag that was on a command, and whether the command still takes it
FLAG_CASES = (
    [(command, ("--seed", "5"), command in MONTE_CARLO_COMMANDS) for command in FLAG_TARGETS]
    + [(command, ("--quiet",), command == "validate") for command in FLAG_TARGETS]
    + [(command, ("--threads", "0"), command != "sec msdr") for command in (*MONTE_CARLO_COMMANDS, "sec msdr")]
)


class TestFlags:
    @pytest.mark.parametrize("command, flag, read", FLAG_CASES,
                             ids=[f"{c} {f[0]}" for c, f, _ in FLAG_CASES])
    def test_each_command_takes_only_the_flags_it_reads(self, capsys, write_doc, command, flag, read):
        if command == "weibull eval":
            target = ["--alpha", "1", "--beta", "2", "--t", "1"]
        elif command == "validate":
            target = [write_doc(FLAG_TARGETS[command])]
        else:
            target = ["--file", write_doc(FLAG_TARGETS[command]), "--format", "json"]
        code, out, err = run(capsys, [*command.split(), *target, *flag])
        if not read:
            assert (code, out, err) == (3, "", f"error: usage: unrecognized arguments: {' '.join(flag)}\n")
        elif flag[0] == "--quiet":
            assert (code, out, err) == (0, "", "")
        elif flag[0] == "--threads":  # the handler reads the value, so 0 reaches its own check
            assert (code, out, err) == (3, "", "error: usage: thread count must be >= 1, got 0\n")
        else:
            assert (code, err) == (0, "")
            assert json.loads(out)["seed_used"] == 5


class TestRoundTripThroughCli:
    def test_csv_quotes_labels_with_commas_and_quotes(self, capsys, write_doc):
        labels = ["up, primary", 'say "down"']
        path = write_doc({"kind": "markov", "parameters": {
            "states": [{"label": labels[0], "operational": True}, {"label": labels[1], "operational": False}],
            "transitions": [{"from": 0, "to": 1, "rate": 0.1}, {"from": 1, "to": 0, "rate": 1.0}]}})
        code, out, _ = run(capsys, ["markov", "solve", "--file", path, "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert all(len(row) == 4 for row in rows)
        assert [row[0] for row in rows[1:3]] == [f"pi[{label}]" for label in labels]
        assert rows[1][1:] == ["0.909091", "analytic", ""]

    def test_json_report_parses_back(self, capsys, write_doc):
        from securakit.report import from_json

        path = write_doc(MSDR_DOC)
        _, out, _ = run(capsys, ["sec", "msdr", "--file", path, "--format", "json"])
        report = from_json(out)
        assert report.tool_version
        assert from_json(out) == report
