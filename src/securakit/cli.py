"""Command-line front end: run model documents through the analysis engines.

Subcommands::

    securakit weibull eval --alpha A --beta B --t T
    securakit weibull fit --file MODEL [--method rank_regression|mle|both]
    securakit markov solve|transient|metrics --file MODEL
    securakit mc reliability|mttf --file MODEL [--seed S] [--threads N]
    securakit sec msdr --file MODEL
    securakit sec routofn --file MODEL [--seed S] [--threads N]
    securakit validate MODEL [--quiet]

Every command takes ``--format {json,csv,table}`` (default table) and ``--out
PATH``; a flag the command does not read is a usage error, except that
``validate`` accepts ``--format`` and ``--out`` and ignores them.  ``markov
transient`` and ``mc reliability`` accept ``--grid t0:t1:steps`` and emit a
series block for plotting.  ``--seed`` overrides any in-document seed;
``--threads`` is the number of worker processes, the command's own
included; it defaults to the number of usable cores, and results are
independent of it by the stream design.

Exit codes: 0 success, 1 validation error, 2 numerical/convergence error,
3 usage error, which includes an output that cannot be written: an
unwritable ``--out`` or a standard output whose reader has gone.  Errors
are reported one per line on stderr as ``error: <category>: <detail>``,
and warnings as ``warning: <detail>``.

Each handler imports the engines it calls, so ``validate`` runs without
numpy and a command loads only the engines it uses; likewise the parser
builds the commands and flags of the invoked group only.  :func:`main`
leaves the garbage collector as it finds it: the program entry,
:func:`securakit.__main__.run`, is what turns it off for a command.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from itertools import compress
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import model_io
from .errors import NumericalError, SchemaError, UsageError, ValidationError
from .model_io import ModelDocument
from .report import FORMATS, AnalysisReport, Result, Series, emit_report

if TYPE_CHECKING:
    from .montecarlo import MonteCarloConfig

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); remap to the usage code
        raise UsageError(message)


class _Context(NamedTuple):
    """What an op handler gets: the checked document, its built model and its analyses entry."""

    args: argparse.Namespace
    command: str
    op: str
    doc: ModelDocument
    model: object  # Ctmc, RoutOfNSystem or FailureSample, by document kind
    start: int | None  # chain documents only: the entry's start, else the document's
    entry: dict | None  # the document's first analyses entry of the op

    @property
    def settings(self) -> dict:
        return self.entry or {}


def _load_document(path: str) -> ModelDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    return model_io.parse_model(text)


def _write_stdout(text: str) -> None:
    """Write ``text`` to standard output and flush it; a reader that has gone is a usage error."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # what is left in the buffer goes to devnull, so the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise UsageError(f"cannot write standard output: {exc}") from exc


def _monte_carlo(ctx: _Context) -> tuple[MonteCarloConfig, int]:
    """The entry's trial settings with the seed resolved, and the worker process count.

    Handlers call it when they reach their Monte Carlo step, so an error
    from earlier work (``sec routofn``'s decomposition) is reported first.
    """
    from .montecarlo import MonteCarloConfig

    if ctx.entry is None:
        raise ValidationError(f"{ctx.command} needs an analyses entry with op '{ctx.op}'")
    s = ctx.entry
    seed = ctx.args.seed
    if seed is None:
        seed = s.get("seed", ctx.doc.seed)
        if seed is None:
            raise ValidationError(
                "randomized analyses need an explicit seed: set document 'seed', analysis 'seed', or --seed"
            )
    elif not 0 <= seed < 2 ** 64:
        raise UsageError(f"--seed must be in [0, 2**64), got {seed}")
    threads = ctx.args.threads
    if threads is None:  # the cores this process may run on, where the platform tells
        threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if threads < 1:
        raise UsageError(f"thread count must be >= 1, got {threads}")
    # mttf reads no horizon; an absent threshold or max_events keeps the config's default
    optional = {key: s[key] for key in ("threshold", "max_events") if key in s}
    cfg = MonteCarloConfig(n_trials=s["n_trials"], horizon=s.get("horizon", 0.0), seed=seed, **optional)
    return cfg, threads


def _parse_grid(spec: str) -> list[float]:
    """The times ``T0:T1:STEPS`` names: the floats of ``np.linspace(T0, T1, STEPS)``, to the bit."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"--grid expects T0:T1:STEPS, got {spec!r}")
    try:
        t0, t1, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"--grid expects numbers T0:T1:STEPS, got {spec!r}") from exc
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise UsageError(f"--grid needs finite T0 and T1, got {spec!r}")
    if t0 < 0 or t1 < t0 or steps < 1:
        raise UsageError("--grid needs 0 <= T0 <= T1 and STEPS >= 1")
    if steps > model_io.MAX_SERIES_POINTS:
        raise UsageError(f"--grid STEPS must be at most {model_io.MAX_SERIES_POINTS}, got {steps}")
    delta, div = t1 - t0, steps - 1
    if not div:
        return [0.0 * delta + t0]
    step = delta / div
    # numpy's steps: k * step + t0, or (k / div) * delta + t0 where the step underflows to 0, and T1 last
    return [(k * step if step else k / div * delta) + t0 for k in range(div)] + [t1]


def _step_grid(t: float, dt: float) -> list[float]:
    """0, dt, 2*dt, ... up to and including ``t``, a step within rounding of t being t itself: the
    floats of ``np.append(np.arange(k) * dt, t)``, to the bit."""
    return [k * dt for k in range(math.ceil(t / dt * (1 - 1e-9)))] + [t]


def _state_rows(chain, pi) -> list[Result]:
    return [Result(f"pi[{label}]", p, "analytic") for label, p in zip(chain.labels, pi)]


def _weibull_eval(args) -> AnalysisReport:
    from . import weibull as wb

    model = wb.WeibullModel(alpha=args.alpha, beta=args.beta)
    t = args.t
    results = [
        Result("pdf", wb.pdf(t, model), "analytic"),
        Result("cdf", wb.cdf(t, model), "analytic"),
        Result("hazard", wb.hazard(t, model), "analytic"),
        Result("reliability", wb.reliability(t, model), "analytic"),
        Result("mean_life", wb.mean_life(model), "analytic"),
    ]
    echo = {"kind": "weibull", "parameters": {"alpha": args.alpha, "beta": args.beta}, "t": t}
    return AnalysisReport(model_echo=echo, results=results)


def _validate(args) -> None:
    _load_document(args.file)
    if not args.quiet:
        _write_stdout(f"ok: {args.file}\n")


def _weibull_fit(ctx: _Context) -> AnalysisReport:
    from . import weibull as wb

    method = ctx.args.method or ctx.settings.get("method") or "both"
    results = []
    for m in ("rank_regression", "mle") if method == "both" else (method,):
        # every run prints the fit's warnings as lines of its own, not once per process with a source line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            fitted = wb.fit(ctx.model, method=m)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        results.append(Result("alpha", fitted.alpha, m))
        results.append(Result("beta", fitted.beta, m))
        results.append(Result("mean_life", wb.mean_life(fitted), m))
    return AnalysisReport({}, results)


def _markov_solve(ctx: _Context) -> AnalysisReport:
    from . import markov

    chain = ctx.model
    pi = markov.steady_state(chain)
    availability = math.fsum(p for p, up in zip(pi, chain.operational) if up)
    return AnalysisReport({}, _state_rows(chain, pi) + [Result("availability", availability, "analytic")])


def _markov_transient(ctx: _Context) -> AnalysisReport:
    from . import markov

    chain, settings = ctx.model, ctx.settings
    if ctx.args.grid is not None:
        times = _parse_grid(ctx.args.grid)
    elif "t" in settings:
        times = _step_grid(settings["t"], settings.get("dt", math.inf))
    else:
        raise ValidationError("markov transient needs --grid or an analyses entry with 't'")
    dists = markov.transient_grid(chain, ctx.start, times)
    availability = [math.fsum(compress(row, chain.operational)) for row in dists]
    series = [Series("availability", times, availability)]
    series += [Series(f"pi[{label}]", times, list(column)) for label, column in zip(chain.labels, zip(*dists))]
    return AnalysisReport({}, [Result("availability", availability[-1], "analytic")], series)


def _markov_metrics(ctx: _Context) -> AnalysisReport:
    from . import markov

    chain = ctx.model
    failed = ctx.settings.get("failed")
    if failed is None:
        failed = next((i for i, up in enumerate(chain.operational) if not up), None)
        if failed is None:
            raise ValidationError("markov metrics needs a chain with a non-operational state")
    results = [Result("mttf", markov.mttf_absorbing(chain, ctx.start), "analytic")]
    try:
        results.append(Result("mttf", markov.mttf_rate_sum(chain), "paper_rate_sum"))
    except ValidationError:
        pass  # the rate-sum estimate needs every operational state to exit directly
    results.append(Result("mttr", markov.mttr(chain, failed), "analytic"))
    results.append(Result("availability", markov.availability_steady(chain), "analytic"))
    return AnalysisReport({}, results)


def _mc_reliability(ctx: _Context) -> AnalysisReport:
    from . import montecarlo

    cfg, threads = _monte_carlo(ctx)
    grid = _parse_grid(ctx.args.grid) if ctx.args.grid is not None else []
    # the headline estimate at the horizon comes from the same trials as the grid
    curve = montecarlo.estimate_reliability_curve(ctx.model, ctx.start, cfg, [*grid, cfg.horizon], threads=threads)
    series = [Series("reliability", grid, curve.value[:-1].tolist())] if grid else []
    value, std_error = float(curve.value[-1]), float(curve.std_error[-1])
    results = [Result("reliability", value, "monte_carlo", uncertainty=std_error)]
    return AnalysisReport({}, results, series, seed_used=cfg.seed)


def _mc_mttf(ctx: _Context) -> AnalysisReport:
    from . import montecarlo

    cfg, threads = _monte_carlo(ctx)
    estimate = montecarlo.estimate_mttf(ctx.model, ctx.start, cfg, threads=threads)
    results = [Result("mttf", estimate.value, "monte_carlo", uncertainty=estimate.std_error)]
    return AnalysisReport({}, results, seed_used=cfg.seed)


def _sec_msdr(ctx: _Context) -> AnalysisReport:
    from . import markov, securability

    chain = ctx.model
    pi = markov.steady_state(chain)
    service = securability.msdr_service_availability(chain, pi)
    results = [Result("service_availability", service, "analytic"), *_state_rows(chain, pi)]
    results.append(Result("mttf", markov.mttf_absorbing(chain, ctx.start), "analytic"))
    threat = model_io.build_threat(ctx.doc)
    if threat is not None and threat.attack_rate > 0:
        results.append(Result("mtta", securability.mtta(threat), "analytic"))
    return AnalysisReport({"model_notes": securability.MSDR_MODEL_NOTES}, results)


def _sec_routofn(ctx: _Context) -> AnalysisReport:
    from . import securability

    results = securability.decompose(ctx.model)
    if ctx.entry is None:  # no walk: the Monte Carlo engine stays unloaded
        return AnalysisReport({}, results)
    from . import montecarlo

    cfg, threads = _monte_carlo(ctx)
    est = montecarlo.estimate_threshold_reliability(ctx.model, cfg, threads=threads)
    results.append(Result("threshold_reliability", est.value, "monte_carlo", uncertainty=est.std_error))
    return AnalysisReport({}, results, seed_used=cfg.seed)


class _Command(NamedTuple):
    op: str | None  # the document op it runs; None: the handler takes the parsed arguments
    help: str
    handler: Callable


_GROUP_HELP = {
    "weibull": "Weibull failure-law analyses",
    "markov": "Markov-chain analyses",
    "mc": "Monte Carlo estimation",
    "sec": "combined safety + security models",
}
# every command, in --help order; the document kinds a command accepts are those whose ops hold its op
_COMMANDS = {
    ("weibull", "eval"): _Command(None, "evaluate the law at a time point", _weibull_eval),
    ("weibull", "fit"): _Command("fit", "fit parameters to failure data", _weibull_fit),
    ("markov", "solve"): _Command("solve", "steady-state distribution and availability", _markov_solve),
    ("markov", "transient"): _Command("transient", "time-dependent state probabilities", _markov_transient),
    ("markov", "metrics"): _Command("metrics", "MTTF, MTTR, and availability", _markov_metrics),
    ("mc", "reliability"): _Command("reliability", "survival probability over the mission horizon",
                                    _mc_reliability),
    ("mc", "mttf"): _Command("mttf", "mean time to failure", _mc_mttf),
    ("sec", "msdr"): _Command("msdr", "main-system / disaster-recovery chain", _sec_msdr),
    ("sec", "routofn"): _Command("threshold_reliability", "r-out-of-n:G composition", _sec_routofn),
    ("validate", None): _Command(None, "validate a model document without running analyses", _validate),
}


def build_parser(argv: list[str] | None = None) -> _Parser:
    """The parser of every command, or, given ``argv``, of the one group it reaches.

    Every top-level entry is built, since root help and an invalid choice
    list them all.  argparse dispatches on the first argument that is no
    option, so the first argument naming an entry names the group reached;
    an argument before it that names none is an invalid choice at the root.
    """
    root = _Parser(prog="securakit", description="reliability and securability analysis toolkit")
    sub = root.add_subparsers(dest="command", required=True)
    entries = {}
    for (group, name), command in _COMMANDS.items():
        if group not in entries:
            entries[group] = sub.add_parser(group, help=command.help if name is None else _GROUP_HELP[group])
    reached = entries if argv is None else [next((arg for arg in argv if arg in entries), None)]
    groups = {}
    for (group, name), command in _COMMANDS.items():
        if group not in reached:
            continue
        if name is None:
            p = entries[group]
            p.add_argument("file")
        else:
            if group not in groups:
                groups[group] = entries[group].add_subparsers(dest="subcommand", required=True)
            p = groups[group].add_parser(name, help=command.help)
            if command.op is None:
                for flag in ("--alpha", "--beta", "--t"):
                    p.add_argument(flag, type=float, required=True)
            else:
                p.add_argument("--file", required=True)
        if command.op == "fit":
            p.add_argument("--method", choices=model_io.FIT_METHODS, default=None)
        if command.op in ("transient", "reliability"):
            p.add_argument("--grid", metavar="T0:T1:STEPS", default=None)
        p.add_argument("--format", choices=FORMATS, default="table")
        p.add_argument("--out", metavar="PATH", default=None)
        if "seed" in model_io._OP_SETTINGS.get(command.op, {}):
            p.add_argument("--seed", type=int, default=None, help="overrides any in-document seed")
            p.add_argument("--threads", type=int, default=None,
                           help="worker processes, this one included (default: the usable cores)")
        if command.handler is _validate:
            p.add_argument("--quiet", action="store_true")
    return root


def _run(args) -> AnalysisReport | None:
    """Run one command: load and check its document, build the model, then call the op handler."""
    command = _COMMANDS[(args.command, getattr(args, "subcommand", None))]
    if command.op is None:
        return command.handler(args)
    name = f"{args.command} {args.subcommand}"
    doc = _load_document(args.file)
    kinds = tuple(kind for kind, row in model_io._KINDS.items() if command.op in row.ops)
    if doc.kind not in kinds:
        raise ValidationError(f"{name} needs a document of kind {' or '.join(kinds)}, got {doc.kind}")
    model, start, entry = model_io.build_model(doc, command.op)
    rep = command.handler(_Context(args, name, command.op, doc, model, start, entry))
    rep.model_echo = {
        "kind": doc.kind,
        "time_unit": doc.time_unit,
        "parameters": doc.parameters,
        "analyses": doc.analyses,
        **rep.model_echo,
    }
    return rep


def _attach_grid_values(argv: list[str]) -> list[str]:
    """Write ``--grid SPEC`` as ``--grid=SPEC``, so argparse keeps a spec like ``-1:5:3``."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--grid" and ":" in arg:
            out[-1] = f"--grid={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        argv = _attach_grid_values(sys.argv[1:] if argv is None else argv)
        args = build_parser(argv).parse_args(argv)
        rep = _run(args)
        if rep is not None:
            text = emit_report(rep, args.format)
            if args.out:
                try:
                    Path(args.out).write_text(text, encoding="utf-8")
                except OSError as exc:
                    raise UsageError(f"cannot write {args.out}: {exc}") from exc
            else:
                _write_stdout(text)
        return EXIT_OK
    except SchemaError as exc:
        for path, message in exc.diagnostics:
            print(f"error: schema: {path}: {message}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE

