"""Benchmark of the ``securakit`` command.

Usage, from the root of a checkout::

    python3 bench/run.py --workload cli_cold --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload mc_walk --seed 1 --trace 1
    python3 bench/run.py --workload chain_scale --seed 1 --quick

The benchmark writes the workload's documents from ``--seed`` into a
temporary directory under ``bench/_work`` and drives the real command,
``python3 -m securakit`` with ``src`` on ``PYTHONPATH``, as one client in a
closed loop: one process at a time, the next started when the previous
one exits.  Monte Carlo commands get ``--threads`` equal to the number of
usable cores.  Every output is checked against an independent oracle
(``oracles.py``).

``--trace 0`` measures end to end.  It times ``import securakit`` in fresh
interpreters (``setup_s``), then cycles through the workload's command
list until ``--seconds`` are used up, always finishing one full pass.
``wall_s`` sums the median spawn-to-exit time of every entry of the
command list: the time of one pass.  ``ops_ok_frac`` is the share of
commands whose exit code and output passed their checks.  The median time
of each command, under its ``cmd.*`` name, goes to the line before the
result, with its sample count.

On a host whose cores are shared, the speed of a core drifts by a fifth
or more over minutes, far more than a change to the program moves these
times.  So every end-to-end sample is scaled to a reference speed: a
fixed calibration that runs no securakit code (:func:`calibration_s`) is
timed right before and right after the sample, and the sample counts as
``wall * CALIBRATION_REF_S / mean(before, after)``, that is, seconds on a
machine where the calibration takes ``CALIBRATION_REF_S``.  Medians are
taken over the scaled samples.  The line before the result records the
unscaled times and the calibration's own.

``--trace 1`` measures layers.  It parses ``python -X importtime``, spawns
each command once right after a fresh ``import securakit``, then calls
``securakit.cli.main`` in-process for each command: untraced, traced
(``tracer.py``), untraced again, and once more with ``--threads 1`` for
Monte Carlo commands, whose JSON must match the multi-threaded bytes.
Tracing overhead is traced minus untraced time; ``trace.unaccounted_s`` is
the spawned wall time that neither set-up nor in-process time explains.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment.  ``--quick`` runs the same commands and checks once, on small
documents, to test the benchmark itself.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
COMMAND_TIMEOUT_S = 120
# seconds the calibration takes at the reference speed (about its time on a
# 2-core x86-64 VM with Python 3.11, numpy 2.4 and scipy 1.17)
CALIBRATION_REF_S = 0.40

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_ok_frac": "fraction",
}

PER_LAYER = {
    "import.total_s": "s",
    "import.scipy_stats_s": "s",
    "import.errors": "count",
    "cli.self_s": "s",
    "cli.errors": "count",
    "model_io.parse_s": "s",
    "model_io.parse_us_per_transition": "us/transition",
    "model_io.build_s": "s",
    "model_io.self_s": "s",
    "model_io.errors": "count",
    "report.emit_s": "s",
    "report.emit_bytes": "bytes",
    "report.self_s": "s",
    "report.errors": "count",
    "markov.steady_state_s": "s",
    "markov.steady_state.calls": "count",
    "markov.mttf_absorbing_s": "s",
    "markov.mttr_s": "s",
    "markov.transient_s": "s",
    "markov.transient.calls": "count",
    "markov.transient_us_per_rate_t": "us/rate_t",
    "markov.self_s": "s",
    "markov.errors": "count",
    "rng.uniform_block_ns_per_draw": "ns/draw",
    "rng.uniform_block.draws": "count",
    "rng.scalar_us_per_draw": "us/draw",
    "rng.scalar.draws": "count",
    "rng.self_s": "s",
    "rng.errors": "count",
    "montecarlo.walk_self_s": "s",
    "montecarlo.rng_share": "ratio",
    "montecarlo.walks": "count",
    "montecarlo.us_per_trial": "us/trial",
    "montecarlo.thread_speedup": "ratio",
    "montecarlo.threshold_us_per_trial": "us/trial",
    "montecarlo.simulate_trajectory.calls": "count",
    "montecarlo.self_s": "s",
    "montecarlo.errors": "count",
    "securability.decompose_s": "s",
    "securability.service_availability_s": "s",
    "securability.self_s": "s",
    "securability.errors": "count",
    "weibull.fit_s.rank_regression": "s",
    "weibull.fit_s.mle": "s",
    "weibull.self_s": "s",
    "weibull.errors": "count",
    "trace.setup_s": "s",
    "trace.spawn_wall_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("SECURAKIT_THREADS", None)  # thread counts are always passed explicitly
    return env


def spawn(args, env, cwd) -> tuple[int | None, str, str, float]:
    """Run the interpreter with ``args``; return (exit code, stdout, stderr, wall s)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, encoding="utf-8",
            env=env, cwd=cwd, timeout=COMMAND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {COMMAND_TIMEOUT_S} s", time.perf_counter() - t0
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def calibration_s(env, cwd) -> float:
    """Wall time of a fresh interpreter running ``import numpy, scipy.linalg``.

    Like a securakit command, it starts Python and loads compiled modules
    and shared libraries, so it slows down with the machine in much the
    same way; but it runs no securakit code, so no change to the program
    can move it.
    """
    code, _, err, wall = spawn(["-c", "import numpy, scipy.linalg"], env, cwd)
    if code != 0:
        raise SystemExit(f"calibration failed: {err.strip()[-500:]}")
    return wall


class SpeedScale:
    """Scales each wall time by the calibrations taken right before and after it."""

    def __init__(self, env, cwd):
        self.env, self.cwd = env, cwd
        self.previous = calibration_s(env, cwd)
        self.times = [self.previous]

    def __call__(self, wall: float) -> float:
        after = calibration_s(self.env, self.cwd)
        self.times.append(after)
        scaled = wall * CALIBRATION_REF_S / ((self.previous + after) / 2)
        self.previous = after
        return scaled


def import_wall(env, cwd) -> float:
    """Wall time of a fresh interpreter running ``import securakit``."""
    code, _, err, wall = spawn(["-c", "import securakit"], env, cwd)
    if code != 0:
        raise SystemExit(f"import securakit failed: {err.strip()[-500:]}")
    return wall


class Judge:
    """Counts attempts and failures; one oracle call per distinct command."""

    def __init__(self, commands):
        self.commands = commands
        self.reference: dict[int, tuple] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, idx: int, code, out: str, err: str, context: str = "") -> None:
        self.attempted += 1
        if idx not in self.reference:
            self.reference[idx] = (code, out, self.commands[idx].check(code, out, err))
        code0, out0, problems = self.reference[idx]
        if (code, out) != (code0, out0):
            problems = [f"{context or 'repeat'} output differs from the first run"]
        if problems:
            self.failed += 1
            argv = " ".join(self.commands[idx].argv)
            for problem in problems[:5]:
                print(f"FAIL securakit {argv}: {problem}", file=sys.stderr)


def timed_run(commands, seconds: float, env, cwd, quick: bool):
    deadline = time.perf_counter() + seconds
    scale = SpeedScale(env, cwd)
    raw_setup, setup = [], []
    for _ in range(1 if quick else SETUP_SAMPLES):
        raw_setup.append(import_wall(env, cwd))
        setup.append(scale(raw_setup[-1]))
    judge = Judge(commands)
    raw, walls = defaultdict(list), defaultdict(list)
    i = 0
    while True:
        idx = i % len(commands)
        # one full pass always; after it, stop before a command that would overrun
        if i >= len(commands) and (quick or time.perf_counter() + raw[idx][-1] > deadline):
            break
        code, out, err, wall = spawn(["-m", "securakit", *commands[idx].argv], env, cwd)
        raw[idx].append(wall)
        walls[idx].append(scale(wall))
        judge.record(idx, code, out, err)
        i += 1

    metrics = {
        "setup_s": median(setup),
        "wall_s": sum(median(ws) for ws in walls.values()),
        "ops_ok_frac": (judge.attempted - judge.failed) / judge.attempted,
    }
    by_metric = defaultdict(list)
    for idx, ws in walls.items():
        by_metric[commands[idx].metric].extend(ws)
    extra = {
        "cmd_s": {name: median(ws) for name, ws in by_metric.items()},
        "samples": {name: len(ws) for name, ws in by_metric.items()},
        "unscaled": {"setup_s": median(raw_setup),
                     "wall_s": sum(median(ws) for ws in raw.values())},
        "calibration_s": {"median": median(scale.times), "min": min(scale.times),
                          "max": max(scale.times), "samples": len(scale.times),
                          "ref": CALIBRATION_REF_S},
    }
    return judge, metrics, extra


def importtime(env, cwd) -> tuple[bool, float, float]:
    """(ok, import securakit s, import scipy.stats s) from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import securakit"],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=COMMAND_TIMEOUT_S,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]))
    return (proc.returncode == 0, cumulative.get("securakit", 0) / 1e6,
            cumulative.get("scipy.stats", 0) / 1e6)


def _with_threads(argv, n: int) -> tuple[str, ...]:
    argv = list(argv)
    argv[argv.index("--threads") + 1] = str(n)
    return tuple(argv)


def _ratio(num: float, den: float) -> float:
    """A ratio whose base is zero (the workload never reaches that layer) reads 0."""
    return num / den if den else 0.0


def traced_run(commands, env, cwd, quick: bool):
    imports = [importtime(env, cwd) for _ in range(1 if quick else SETUP_SAMPLES)]
    judge = Judge(commands)
    # each command right after its own set-up sample, so a drift in machine
    # speed moves both sides of the accounting alike
    setup, spawn_wall = [], 0.0
    for idx, cmd in enumerate(commands):
        setup.append(import_wall(env, cwd))
        code, out, err, wall = spawn(["-m", "securakit", *cmd.argv], env, cwd)
        judge.record(idx, code, out, err)
        spawn_wall += wall

    sys.path.insert(0, str(SRC))
    from securakit import cli

    import tracer as tr

    def in_process(label):
        walls = []
        for idx, cmd in enumerate(commands):
            code, out, err, ns = tr.call_cli(cli.main, cmd.argv)
            judge.record(idx, code, out, err, label)
            walls.append(ns / 1e9)
        return walls

    untraced = in_process("untraced in-process")
    tracer = tr.Tracer()
    tr.install_securakit(tracer)
    traced = []
    try:
        for idx, cmd in enumerate(commands):
            code, out, err, ns = tracer.run_command(cli.main, idx, cmd.argv)
            judge.record(idx, code, out, err, "traced")
            traced.append(ns / 1e9)
    finally:
        tracer.uninstall()
    untraced = [(a + b) / 2 for a, b in zip(untraced, in_process("untraced in-process"))]
    one_thread = many_threads = 0.0
    for idx, cmd in enumerate(commands):
        if cmd.threaded:
            code, out, err, ns = tr.call_cli(cli.main, _with_threads(cmd.argv, 1))
            judge.record(idx, code, out, err, "--threads 1")
            one_thread += ns / 1e9
            many_threads += untraced[idx]

    tracer.attribute()
    layer = tracer.layer_self_s()
    t = tracer.total_s
    walk_s = sum(t(name) for name in tr.WALK_ESTIMATORS)
    walk_trials = sum(tracer.info_sum(name) for name in tr.WALK_ESTIMATORS)
    walk_rng_s = sum(
        s.self_ns for s in tracer.spans
        if s.name == "rng.uniform_block" and _under(s, tr.WALK_ESTIMATORS)
    ) / 1e9
    draws = tracer.info_sum("rng.uniform_block")
    scalar_n, scalar_ns = tracer.scalar_draws
    errors = tracer.errors
    metrics = {
        "import.total_s": median(i[1] for i in imports),
        "import.scipy_stats_s": median(i[2] for i in imports),
        "import.errors": sum(not i[0] for i in imports),
        "cli.self_s": layer["cli"],
        "cli.errors": errors["cli"],
        "model_io.parse_s": t("model_io.parse"),
        "model_io.parse_us_per_transition": _ratio(t("model_io.parse") * 1e6,
                                                   tracer.info_sum("model_io.parse")),
        "model_io.build_s": tracer.self_s("model_io.build"),
        "model_io.self_s": layer["model_io"],
        "model_io.errors": errors["model_io"],
        "report.emit_s": t("report.emit"),
        "report.emit_bytes": int(tracer.info_sum("report.emit")),
        "report.self_s": layer["report"],
        "report.errors": errors["report"],
        "markov.steady_state_s": t("markov.steady_state"),
        "markov.steady_state.calls": tracer.counts["markov.steady_state"],
        "markov.mttf_absorbing_s": t("markov.mttf_absorbing"),
        "markov.mttr_s": t("markov.mttr"),
        "markov.transient_s": t("markov.transient"),
        "markov.transient.calls": tracer.counts["markov.transient"],
        "markov.transient_us_per_rate_t": _ratio(t("markov.transient") * 1e6,
                                                 tracer.info_sum("markov.transient")),
        "markov.self_s": layer["markov"],
        "markov.errors": errors["markov"],
        "rng.uniform_block_ns_per_draw": _ratio(t("rng.uniform_block") * 1e9, draws),
        "rng.uniform_block.draws": int(draws),
        "rng.scalar_us_per_draw": _ratio(scalar_ns / 1e3, scalar_n),
        "rng.scalar.draws": scalar_n,
        "rng.self_s": layer["rng"],
        "rng.errors": errors["rng"],
        "montecarlo.walk_self_s": tracer.self_s("montecarlo.walk_batch"),
        "montecarlo.rng_share": _ratio(walk_rng_s, walk_s),
        "montecarlo.walks": sum(tracer.counts[name] for name in tr.WALK_ESTIMATORS),
        "montecarlo.us_per_trial": _ratio(walk_s * 1e6, walk_trials),
        "montecarlo.thread_speedup": _ratio(one_thread, many_threads),
        "montecarlo.threshold_us_per_trial": _ratio(
            t("montecarlo.estimate_threshold_reliability") * 1e6,
            tracer.info_sum("montecarlo.estimate_threshold_reliability")),
        "montecarlo.simulate_trajectory.calls": tracer.counts["montecarlo.simulate_trajectory"],
        "montecarlo.self_s": layer["montecarlo"],
        "montecarlo.errors": errors["montecarlo"],
        "securability.decompose_s": t("securability.decompose"),
        "securability.service_availability_s": t("securability.service_availability"),
        "securability.self_s": layer["securability"],
        "securability.errors": errors["securability"],
        "weibull.fit_s.rank_regression": t("weibull.fit.rank_regression"),
        "weibull.fit_s.mle": t("weibull.fit.mle"),
        "weibull.self_s": layer["weibull"],
        "weibull.errors": errors["weibull"],
        "trace.setup_s": median(setup),
        "trace.spawn_wall_s": spawn_wall,
        "trace.untraced_s": sum(untraced),
        "trace.traced_s": sum(traced),
        "trace.overhead_s": sum(traced) - sum(untraced),
        "trace.unaccounted_s": spawn_wall - sum(setup) - sum(untraced),
    }
    accounted = sum(layer.values())
    extra = {
        "layer_self_sum_s": accounted,
        "threads_1_mc_s": one_thread,
        "threads_n_mc_s": many_threads,
        "spans": len(tracer.spans),
    }
    return judge, metrics, extra


def _under(span, names) -> bool:
    while span is not None:
        if span.name in names:
            return True
        span = span.parent
    return False


def environment(args, threads: int) -> dict:
    import numpy
    import scipy

    return {
        "git_revision": git_revision(),
        "nproc": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="securakit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small documents and a single pass, to test the benchmark")
    args = parser.parse_args(argv)

    if not (SRC / "securakit" / "__init__.py").is_file():
        print(f"error: no securakit sources under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC, quiet=1):
        print("error: securakit sources do not compile", file=sys.stderr)
        return 2

    threads = usable_cores()
    sizes = workloads.QUICK if args.quick else workloads.FULL
    env = child_env()
    work_root = BENCH / "_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        commands = workloads.build(args.workload, args.seed, Path(tmp), sizes, threads)
        if args.trace:
            judge, metrics, extra = traced_run(commands, env, tmp, args.quick)
            units = PER_LAYER
        else:
            judge, metrics, extra = timed_run(commands, args.seconds, env, tmp, args.quick)
            units = END_TO_END
    if set(metrics) != set(units):
        raise SystemExit(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")

    print(json.dumps({"env": environment(args, threads), **extra}, sort_keys=True))
    print(json.dumps({
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
