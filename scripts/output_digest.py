#!/usr/bin/env python3
"""Digest of every benchmark command's output, to check that a refactor keeps it byte-identical.

Writes the documents of each benchmark workload with ``bench/workloads.py``
and runs every command of its list in process through
``securakit.cli.main``, with the ``securakit`` of the tree this script sits
in.  Each command runs with ``--format`` json, table and csv, and a
command that takes ``--threads`` runs at 2 threads and at 1.  One line is
printed per run: workload, seed, argv (document paths are bare file
names), exit code, and the sha256 of stdout and of stderr.

Usage: python scripts/output_digest.py --seeds 7 11 [--quick]

Run it on a checkout of the parent commit and on the change, then diff
the two outputs: an empty diff means every output kept its bytes.

It also checks that results do not depend on the thread count: the
script exits 1, naming the argv, when a command's 2-thread run differs
from its 1-thread run in stdout or exit code.  The quick documents have
fewer trials than one thread's minimum slice, so the script sets
``montecarlo._MIN_SLICE`` to 1 in process: 2 threads then really split
every Monte Carlo command's trials.
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
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from securakit import cli, montecarlo  # noqa: E402

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


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
                                mismatched.append(" ".join(threaded))
                finally:
                    os.chdir(here)
    for argv in mismatched:
        print(f"thread-dependent output: {argv} differs from its --threads 1 run", file=sys.stderr)
    if mismatched:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
