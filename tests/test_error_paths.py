"""Error paths, each with its exact text, run in process.

Each case reaches one ``raise`` (or one usage check) of the library or
the CLI that no other test reaches, so a changed message or a lost check
fails here.  The last test checks that every function the benchmark's
tracer wraps still resolves, so renaming one fails this suite rather than
a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pickle
from pathlib import Path

import numpy as np
import pytest

from exact_chains import triplets

from securakit import cli, markov, montecarlo
from securakit.errors import ConvergenceError, DomainError, SchemaError
from securakit.markov import Ctmc, _poisson_weights, _window, build_two_state, transient_grid
from securakit.montecarlo import MonteCarloConfig, _run_partitioned, simulate_trajectory
from securakit.rng import CounterRng
from securakit.securability import RoutOfNSystem
from securakit.weibull import WeibullModel, sample_lifetimes

ROOT = Path(__file__).resolve().parents[1]
MTTF_DOC = {"kind": "markov", "parameters": {"lambda": 0.01, "mu": 0.1},
            "analyses": [{"op": "mttf", "n_trials": 100}]}


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_out_of_range_is_usage_error(capsys, tmp_path, seed):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MTTF_DOC))
    code = cli.main(["mc", "mttf", "--file", str(path), "--seed", seed])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == f"error: usage: --seed must be in [0, 2**64), got {seed}\n"


def test_generator_of_the_wrong_shape():
    with pytest.raises(DomainError, match=r"^transition 0 -> 2 names a state outside 0\.\.1$"):
        Ctmc(("up", "down"), (True, False), triplets(np.zeros((3, 3))))


def test_transient_start_out_of_range():
    with pytest.raises(DomainError, match=r"^start state 2 out of range 0\.\.1$"):
        transient_grid(build_two_state(0.1, 1.0), 2, [1.0])


def test_uniformization_term_cap_after_the_window():
    # the floor of R passes the cap, the window's right edge does not
    with pytest.raises(ConvergenceError) as err:
        _poisson_weights(4.99e6, *_window(4.99e6))
    assert str(err.value) == "uniformization needs 5.01e+06 terms (rate*t = 4.99e+06); split the horizon"


def test_event_cap_below_one():
    with pytest.raises(DomainError, match="^max_events must be >= 1$"):
        MonteCarloConfig(n_trials=10, horizon=1.0, seed=0, max_events=0)


def test_trajectory_with_a_negative_horizon():
    with pytest.raises(DomainError, match=r"^horizon must be >= 0, got -1\.0$"):
        simulate_trajectory(build_two_state(0.1, 1.0), 0, -1.0, CounterRng(0))


def test_trajectory_past_its_event_cap():
    with pytest.raises(ConvergenceError, match="^trajectory exceeded 1 events$"):
        simulate_trajectory(build_two_state(1.0, 1.0), 0, 1e6, CounterRng(0), max_events=1)


def test_partition_with_no_worker():
    with pytest.raises(DomainError, match="^threads must be >= 1, got 0$"):
        _run_partitioned(lambda lo, hi: (lo, hi), 10, 0)


def test_worker_process_that_exits_without_a_result(monkeypatch):
    parent = os.getpid()

    def worker(lo, hi):
        if os.getpid() != parent:
            os._exit(0)
        return lo, hi

    monkeypatch.setattr(montecarlo, "_MIN_SLICE", 1)
    with pytest.raises(ChildProcessError) as err:
        _run_partitioned(worker, 10, 2)
    assert str(err.value) == "the worker process of trials 5..9 ended without a result"


def test_negative_draw_count():
    with pytest.raises(DomainError, match="^draw count must be >= 0, got -1$"):
        CounterRng(0).uniforms(-1)


def test_subsystem_of_an_unknown_type():
    with pytest.raises(DomainError) as err:
        RoutOfNSystem(r=1, subsystems=("x",))
    assert str(err.value) == "subsystem 0: expected ChainSubsystem, Ctmc, or probability, got str"


def test_empty_lifetime_sample():
    with pytest.raises(DomainError, match="^sample size must be >= 1, got 0$"):
        sample_lifetimes(WeibullModel(alpha=1.0, beta=2.0), 0, CounterRng(0))


def test_schema_error_survives_pickling():
    diagnostics = [("parameters.mu", "must be > 0, got -1"), ("document", "unknown top-level key")]
    restored = pickle.loads(pickle.dumps(SchemaError(diagnostics)))
    assert type(restored) is SchemaError
    assert restored.diagnostics == diagnostics
    assert str(restored) == "parameters.mu: must be > 0, got -1; document: unknown top-level key"


def test_every_traced_name_resolves_and_is_restored():
    """``bench/tracer.py`` wraps securakit functions by name; each must still exist."""
    spec = importlib.util.spec_from_file_location("securakit_bench_tracer", ROOT / "bench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    original = montecarlo.simulate_trajectory, markov.transient, cli.emit_report
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install_securakit(tracer)
        patches = list(tracer._patches)
        assert montecarlo.simulate_trajectory is not original[0]
    finally:
        tracer.uninstall()
    assert patches
    assert all(getattr(owner, attr) is func for owner, attr, func in patches)
    assert (montecarlo.simulate_trajectory, markov.transient, cli.emit_report) == original
