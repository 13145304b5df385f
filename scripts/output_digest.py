#!/usr/bin/env python3
"""Digest of every benchmark command's output, to check that a refactor keeps it byte-identical.

Writes the documents of each benchmark workload with ``bench/workloads.py``
and runs every command of its list in process through
``securakit.cli.main``, with the ``securakit`` of the tree this script sits
in.  Each command runs with ``--format`` json, table and csv, and a
command that takes ``--threads`` runs at 2 workers and at 1.  One line is
printed per run: workload, seed, argv (document paths are bare file
names), exit code, and the sha256 of stdout and of stderr.  After them,
every document of ``tests/malformed_corpus.py`` runs through ``securakit
validate`` and prints one line the same way, so the diff covers the
diagnostics too.  A corpus line, and the file ``validate`` reads, is named
by the first 12 hex digits of the sha256 of the document text, so a
document added anywhere in the corpus adds one line and renames no other.

Usage: python scripts/output_digest.py --seeds 7 11 [--quick]

Copy this script into a checkout of the parent commit, run it there and
on the change, then diff the two outputs: an empty diff means every
output kept its bytes.  Running the same script in both trees keeps an
edit to the script itself out of the diff.

It also checks that results do not depend on the worker count: the
script exits 1, naming the argv, when a command's 2-worker run differs
from its 1-worker run in stdout or exit code.  The quick documents have
fewer trials than one worker's minimum slice, so the script sets
``montecarlo._MIN_SLICE`` to 1 in process: 2 worker processes then really
split every Monte Carlo command's trials.

It checks too that threshold reliability does not depend on how its chain
subsystems are grouped into walks: the script exits 1, naming the argv,
when a threaded ``sec routofn`` run differs from the same run with
``montecarlo._MERGED_LANES`` set to 1, which walks one subsystem at a
time.  That run prints no line of its own, so the digest of a tree
without the check stays comparable.

One line per seed is newer than the rest and covers the estimator that no
command runs: after the mc_walk commands, ``estimate_occupancy`` runs on
that workload's MS/DR chain with its mttf entry's trial count and the
document's seed, target state 3, burn-in 100 and horizon 1100 (the gate
C09 setting), and the line holds the sha256 of the estimate's value and
standard error.  It runs at 2 workers and at 1, and the script exits 1
when the two differ.  A digest of a tree older than that line lacks it.

The last line is newer still and covers ``markov transient`` at full
size, where the quick chains are small (the two-state chain takes the
pure-Python product and the 40-state one the CSR product, with the same
bits): whatever ``--seeds`` and ``--quick`` say, the full-size seed-7
chain_scale ``markov transient`` runs once, with ``--format json``, on its
400-state birth-death chain, and the line holds its argv, exit code, and
the sha256 of stdout and stderr, like the others.  A digest of a tree
older than that line lacks it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import workloads  # noqa: E402
from malformed_corpus import MALFORMED_DOCUMENTS  # noqa: E402
from securakit import cli, model_io, montecarlo  # noqa: E402

THREADS = 2


def _variants(argv: tuple[str, ...]):
    """The command at every --format, as (argv, its --threads 1 argv or None)."""
    for fmt in ("json", "table", "csv"):
        out = list(argv)
        out[out.index("--format") + 1] = fmt
        serial = None
        if "--threads" in out:
            serial = list(out)
            serial[serial.index("--threads") + 1] = "1"
        yield out, serial


def _run(argv: list[str]) -> tuple[str, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = str(cli.main(argv))
        except Exception as exc:  # an escaped exception is an output too; its traceback names this tree
            code = f"raised {type(exc).__name__}: {exc}"
    return code, stdout.getvalue(), stderr.getvalue()


def _run_one_subsystem_per_walk(argv: list[str]) -> tuple[str, str, str]:
    merged, montecarlo._MERGED_LANES = montecarlo._MERGED_LANES, 1
    try:
        return _run(argv)
    finally:
        montecarlo._MERGED_LANES = merged


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _occupancy(path: str) -> tuple[str, list[str]]:
    """The C09-style occupancy of the MS/DR document at ``path``: its digest text at 2 and at 1 thread."""
    doc = model_io.parse_model(Path(path).read_text(encoding="utf-8"))
    chain, start, entry = model_io.build_model(doc, "mttf")
    cfg = montecarlo.MonteCarloConfig(n_trials=entry["n_trials"], horizon=1100.0, seed=doc.seed)
    argv = f"estimate_occupancy {path} target=(3,) burn_in=100 horizon=1100"
    runs = [montecarlo.estimate_occupancy(chain, start, cfg, (3,), burn_in=100.0, threads=threads)
            for threads in (THREADS, 1)]
    return argv, [f"{est.value!r} {est.std_error!r}" for est in runs]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--quick", action="store_true", help="the benchmark's quick document sizes")
    args = ap.parse_args()
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"securakit was imported from {cli.__file__}, not from {ROOT / 'src'}")
    sizes = workloads.QUICK if args.quick else workloads.FULL
    montecarlo._MIN_SLICE = 1
    here = Path.cwd()
    mismatched = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for workload in workloads.WORKLOADS:
                workdir = Path(tmp) / f"{workload}-{seed}"
                workdir.mkdir()
                # relative paths keep the temporary directory out of argv and out of the outputs
                os.chdir(workdir)
                try:
                    for command in workloads.build(workload, seed, Path("."), sizes, THREADS):
                        for threaded, serial in _variants(command.argv):
                            results = []
                            for argv in filter(None, (threaded, serial)):
                                code, out, err = _run(argv)
                                results.append((code, out))
                                print(workload, seed, " ".join(argv), f"exit={code}",
                                      f"stdout={_sha(out)}", f"stderr={_sha(err)}", flush=True)
                            if serial is not None and results[0] != results[1]:
                                mismatched.append(f"thread-dependent output: {' '.join(threaded)} "
                                                  "differs from its --threads 1 run")
                            # a threaded routofn run is a threshold reliability run
                            if serial is not None and "routofn" in threaded and \
                                    _run_one_subsystem_per_walk(threaded)[:2] != results[0]:
                                mismatched.append(f"grouping-dependent output: {' '.join(threaded)} "
                                                  "differs from its run with one subsystem per walk")
                    if workload == "mc_walk":
                        argv, (threaded, serial) = _occupancy(command.argv[command.argv.index("--file") + 1])
                        print(workload, seed, argv, f"value_se={_sha(threaded)}", flush=True)
                        if threaded != serial:
                            mismatched.append(f"thread-dependent output: {argv} differs from its 1-thread run")
                finally:
                    os.chdir(here)
        os.chdir(tmp)
        try:
            for text in MALFORMED_DOCUMENTS:
                key = _sha(text)[:12]
                name = f"malformed_{key}.json"
                Path(name).write_text(text, encoding="utf-8")
                code, out, err = _run(["validate", name])
                print("malformed_corpus", key, "validate", name, f"exit={code}",
                      f"stdout={_sha(out)}", f"stderr={_sha(err)}", flush=True)
            Path("chain_scale-full").mkdir()
            os.chdir("chain_scale-full")
            commands = workloads.build("chain_scale", 7, Path("."), workloads.FULL, THREADS)
            argv = next(command.argv for command in commands if command.argv[:2] == ("markov", "transient"))
            code, out, err = _run(list(argv))
            print("chain_scale", 7, "full", " ".join(argv), f"exit={code}",
                  f"stdout={_sha(out)}", f"stderr={_sha(err)}", flush=True)
        finally:
            os.chdir(here)
    for line in mismatched:
        print(line, file=sys.stderr)
    if mismatched:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
