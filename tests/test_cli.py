"""CLI contract tests: exit codes, determinism, diagnostics, formats."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from malformed_corpus import MALFORMED_DOCUMENTS

import securakit
from securakit import markov, model_io, montecarlo
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

    def test_missing_seed_is_validation_error(self, capsys, write_doc):
        payload = {k: v for k, v in TWO_STATE_DOC.items() if k != "seed"}
        path = write_doc(payload)
        code, _, err = run(capsys, ["mc", "reliability", "--file", path])
        assert code == 1
        assert "seed" in err

    def test_env_threads_fallback(self, capsys, write_doc, monkeypatch):
        path = write_doc(TWO_STATE_DOC)
        monkeypatch.setenv("SECURAKIT_THREADS", "2")
        code, out, _ = run(capsys, ["mc", "reliability", "--file", path, "--format", "json"])
        assert code == 0
        monkeypatch.setenv("SECURAKIT_THREADS", "junk")
        code, _, err = run(capsys, ["mc", "reliability", "--file", path, "--format", "json"])
        assert code == 3
        assert "SECURAKIT_THREADS" in err


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
        pi0 = np.zeros(chain.n)
        pi0[start] = 1.0
        op_mask = chain.operational_mask()
        series = {s["name"]: s for s in json.loads(out)["series"]}
        times = series["availability"]["t"]
        for i, t in enumerate(times):
            pi = markov.transient(chain, pi0, t).pi
            assert series["availability"]["values"][i] == float(pi[op_mask].sum())
            for state in chain.space.states:
                assert series[f"pi[{state.label}]"]["values"][i] == float(pi[state.id])
        return times

    def test_grid_series(self, capsys, write_doc):
        doc = birth_death_doc()
        argv = ["markov", "transient", "--file", write_doc(doc), "--grid", "0:60:13", "--format", "json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert self.assert_series_match_points(out, doc) == [5.0 * k for k in range(13)]

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


class TestColdStart:
    def test_validate_in_fresh_interpreter_loads_no_scipy(self, write_doc):
        path = write_doc(TWO_STATE_DOC)
        code = (
            "import sys, securakit\n"
            f"assert securakit.cli.main(['validate', {path!r}, '--quiet']) == 0\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
        )
        src = str(Path(securakit.__file__).resolve().parents[1])
        paths = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


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

    @pytest.mark.parametrize("command, doc, message", WRONG_KIND, ids=[c for c, _, _ in WRONG_KIND])
    def test_wrong_kind_is_validation_error(self, capsys, write_doc, command, doc, message):
        code, out, err = run(capsys, [*command.split(), "--file", write_doc(doc)])
        assert (code, out, err) == (1, "", f"error: validation: {message}\n")

    @pytest.mark.parametrize("command, message", MISSING_ENTRY, ids=[c for c, _ in MISSING_ENTRY])
    def test_missing_entry_is_validation_error(self, capsys, write_doc, command, message):
        doc = {**TWO_STATE_DOC, "analyses": [{"op": "solve"}]}
        code, out, err = run(capsys, [*command.split(), "--file", write_doc(doc)])
        assert (code, out, err) == (1, "", f"error: validation: {message}\n")

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
    def test_json_report_parses_back(self, capsys, write_doc):
        from securakit.report import from_json

        path = write_doc(MSDR_DOC)
        _, out, _ = run(capsys, ["sec", "msdr", "--file", path, "--format", "json"])
        report = from_json(out)
        assert report.tool_version
        assert from_json(out) == report
