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
PATH``; a flag the command does not read is a usage error.  ``markov
transient`` and ``mc reliability`` accept ``--grid t0:t1:steps`` and emit a
series block for plotting.  ``--seed`` overrides any in-document seed;
``--threads`` defaults to ``SECURAKIT_THREADS`` or the number of usable
cores, and results are independent of the thread count by the stream design.

Exit codes: 0 success, 1 validation error, 2 numerical/convergence error,
3 usage error.  Errors are reported one per line on stderr as
``error: <category>: <detail>``.

Each handler imports the engines it calls, so ``validate`` runs without
numpy and a command loads only the engines it uses.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import model_io
from .errors import NumericalError, SchemaError, UsageError, ValidationError
from .model_io import AnalysisRequest, ModelDocument
from .report import AnalysisReport, Result, Series, emit_report

if TYPE_CHECKING:
    import numpy as np

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
    request: AnalysisRequest | None

    @property
    def settings(self) -> dict:
        return self.request.settings if self.request else {}


def _load_document(path: str) -> ModelDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    return model_io.parse_model(text)


def _monte_carlo(ctx: _Context) -> tuple[MonteCarloConfig, int]:
    """The entry's trial settings with the seed resolved, and the thread count.

    Handlers call it when they reach their Monte Carlo step, so an error
    from earlier work (``sec routofn``'s decomposition) is reported first.
    """
    from .montecarlo import MonteCarloConfig

    if ctx.request is None:
        raise ValidationError(f"{ctx.command} needs an analyses entry with op '{ctx.op}'")
    s = ctx.request.settings
    seed = ctx.args.seed
    if seed is None:
        seed = s.get("seed", ctx.doc.seed)
        if seed is None:
            raise ValidationError(
                "randomized analyses need an explicit seed: set document 'seed', analysis 'seed', or --seed"
            )
    elif not 0 <= seed < 2 ** 64:
        raise UsageError(f"--seed must be in [0, 2**64), got {seed}")
    threads, env = ctx.args.threads, os.environ.get("SECURAKIT_THREADS")
    if threads is None and env is not None:
        try:
            threads = int(env)
        except ValueError as exc:
            raise UsageError(f"SECURAKIT_THREADS must be an integer, got {env!r}") from exc
    elif threads is None:  # the cores this process may run on, where the platform tells
        threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if threads < 1:
        raise UsageError(f"thread count must be >= 1, got {threads}")
    cfg = MonteCarloConfig(
        n_trials=s["n_trials"],
        horizon=float(s.get("horizon", 0.0)),
        seed=seed,
        threshold=float(s.get("threshold", 1.0)),
        max_events=int(s.get("max_events", 10 ** 9)),
    )
    return cfg, threads


def _parse_grid(spec: str) -> np.ndarray:
    import numpy as np

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
    return np.linspace(t0, t1, steps)


def _state_rows(chain, pi) -> list[Result]:
    return [Result(f"pi[{s.label}]", float(pi.pi[s.id]), "analytic") for s in chain.space.states]


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
        print(f"ok: {args.file}")


def _weibull_fit(ctx: _Context) -> AnalysisReport:
    from . import weibull as wb

    method = ctx.args.method or ctx.settings.get("method") or "both"
    results = []
    for m in ("rank_regression", "mle") if method == "both" else (method,):
        fitted = wb.fit(ctx.model, method=m)
        results.append(Result("alpha", fitted.alpha, m))
        results.append(Result("beta", fitted.beta, m))
        results.append(Result("mean_life", wb.mean_life(fitted), m))
    return AnalysisReport({}, results)


def _markov_solve(ctx: _Context) -> AnalysisReport:
    from . import markov

    chain = ctx.model
    pi = markov.steady_state(chain)
    availability = float(pi.pi[chain.operational_mask()].sum())
    return AnalysisReport({}, _state_rows(chain, pi) + [Result("availability", availability, "analytic")])


def _markov_transient(ctx: _Context) -> AnalysisReport:
    import numpy as np

    from . import markov

    chain, settings = ctx.model, ctx.settings
    if ctx.args.grid is not None:
        grid = _parse_grid(ctx.args.grid)
    elif "t" in settings:
        # 0, dt, 2*dt, ... up to and including t; a step within rounding of t is t itself
        t_final, dt = settings["t"], settings.get("dt", math.inf)
        grid = np.append(np.arange(math.ceil(t_final / dt * (1 - 1e-9))) * dt, t_final)
    else:
        raise ValidationError("markov transient needs --grid or an analyses entry with 't'")
    pi0 = np.zeros(chain.n)
    pi0[ctx.start] = 1.0
    dists = markov.transient_grid(chain, pi0, grid).pi
    times = grid.tolist()
    # compress keeps the rows C-contiguous, so each row sums in the order a 1-d sum does
    availability = np.compress(chain.operational_mask(), dists, axis=1).sum(axis=1).tolist()
    series = [Series("availability", times, availability)]
    series += [Series(f"pi[{s.label}]", times, dists[:, s.id].tolist()) for s in chain.space.states]
    return AnalysisReport({}, [Result("availability", availability[-1], "analytic")], series)


def _markov_metrics(ctx: _Context) -> AnalysisReport:
    import numpy as np

    from . import markov

    chain = ctx.model
    failed = ctx.settings.get("failed")
    if failed is None:
        non_op = np.flatnonzero(~chain.operational_mask())
        if non_op.size == 0:
            raise ValidationError("markov metrics needs a chain with a non-operational state")
        failed = int(non_op[0])
    results = [Result("mttf", markov.mttf_absorbing(chain, ctx.start), "analytic")]
    try:
        results.append(Result("mttf", markov.mttf_rate_sum(chain), "paper_rate_sum"))
    except ValidationError:
        pass  # the rate-sum estimate needs every operational state to exit directly
    results.append(Result("mttr", markov.mttr(chain, failed), "analytic"))
    results.append(Result("availability", markov.availability_steady(chain), "analytic"))
    return AnalysisReport({}, results)


def _mc_reliability(ctx: _Context) -> AnalysisReport:
    import numpy as np

    from . import montecarlo

    cfg, threads = _monte_carlo(ctx)
    grid = _parse_grid(ctx.args.grid) if ctx.args.grid is not None else np.empty(0)
    # the headline estimate at the horizon comes from the same trials as the grid
    curve = montecarlo.estimate_reliability_curve(
        ctx.model, ctx.start, cfg, np.append(grid, cfg.horizon), threads=threads
    )
    series = [Series("reliability", grid.tolist(), curve.value[:-1].tolist())] if grid.size else []
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
    # 1 - pi(both_down), the only non-operational state: service_availability without a second solve
    service = 1.0 - float(pi.pi[~chain.operational_mask()].sum())
    results = [Result("service_availability", service, "analytic"), *_state_rows(chain, pi)]
    results.append(Result("mttf", markov.mttf_absorbing(chain, ctx.start), "analytic"))
    threat = model_io.build_threat(ctx.doc)
    if threat is not None and threat.attack_rate > 0:
        results.append(Result("mtta", securability.mtta(threat), "analytic"))
    return AnalysisReport({"model_notes": securability.MSDR_MODEL_NOTES}, results)


def _sec_routofn(ctx: _Context) -> AnalysisReport:
    from . import montecarlo, securability

    results = securability.decompose(ctx.model)
    if ctx.request is None:
        return AnalysisReport({}, results)
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


def build_parser() -> _Parser:
    root = _Parser(prog="securakit", description="reliability and securability analysis toolkit")
    sub = root.add_subparsers(dest="command", required=True)
    groups = {}
    for (group, name), command in _COMMANDS.items():
        if name is None:
            p = sub.add_parser(group, help=command.help)
            p.add_argument("file")
        else:
            if group not in groups:
                groups[group] = sub.add_parser(group, help=_GROUP_HELP[group]).add_subparsers(
                    dest="subcommand", required=True
                )
            p = groups[group].add_parser(name, help=command.help)
            if command.op is None:
                for flag in ("--alpha", "--beta", "--t"):
                    p.add_argument(flag, type=float, required=True)
            else:
                p.add_argument("--file", required=True)
        if command.op == "fit":
            p.add_argument("--method", choices=("rank_regression", "mle", "both"), default=None)
        if command.op in ("transient", "reliability"):
            p.add_argument("--grid", metavar="T0:T1:STEPS", default=None)
        p.add_argument("--format", choices=("json", "csv", "table"), default="table")
        p.add_argument("--out", metavar="PATH", default=None)
        if command.op in model_io.MC_OPS:
            p.add_argument("--seed", type=int, default=None, help="overrides any in-document seed")
            p.add_argument("--threads", type=int, default=None,
                           help="worker threads (default: SECURAKIT_THREADS or the usable cores)")
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
    kinds = tuple(kind for kind, ops in model_io.OPS.items() if command.op in ops)
    if doc.kind not in kinds:
        raise ValidationError(f"{name} needs a document of kind {' or '.join(kinds)}, got {doc.kind}")
    start = None
    if doc.kind == "weibull":
        if "data" not in doc.parameters:
            raise ValidationError(f"{name} needs parameters.data in the document")
        model = model_io.build_failure_sample(doc)
    elif doc.kind == "r_out_of_n":
        model = model_io.build_r_out_of_n(doc)
    else:
        model, start = model_io.build_chain(doc)
    request = next((r for r in doc.analyses if r.op == command.op), None)
    if start is not None:
        start = int(request.settings.get("start", start) if request else start)
        if not 0 <= start < model.n:
            raise ValidationError(f"start state {start} out of range 0..{model.n - 1}")
    rep = command.handler(_Context(args, name, command.op, doc, model, start, request))
    rep.model_echo = {
        "kind": doc.kind,
        "time_unit": doc.time_unit,
        "parameters": doc.parameters,
        "analyses": [{"op": r.op, **r.settings} for r in doc.analyses],
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
        args = build_parser().parse_args(_attach_grid_values(sys.argv[1:] if argv is None else argv))
        rep = _run(args)
        if rep is not None:
            text = emit_report(rep, args.format)
            if args.out:
                try:
                    Path(args.out).write_text(text, encoding="utf-8")
                except OSError as exc:
                    raise UsageError(f"cannot write {args.out}: {exc}") from exc
            else:
                sys.stdout.write(text)
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


if __name__ == "__main__":
    raise SystemExit(main())
