"""Command-line front end: run model documents through the analysis engines.

Subcommands::

    securakit weibull eval --alpha A --beta B --t T
    securakit weibull fit --file MODEL [--method rank_regression|mle|both]
    securakit markov solve|transient|metrics --file MODEL
    securakit mc reliability|mttf --file MODEL [--seed S] [--threads N]
    securakit sec msdr|routofn --file MODEL
    securakit validate MODEL

Global flags: ``--format {json,csv,table}`` (default table), ``--out PATH``,
``--seed`` (overrides any in-document seed), ``--quiet``.  ``markov
transient`` and ``mc reliability`` accept ``--grid t0:t1:steps`` and emit a
series block for plotting.  Monte Carlo subcommands accept ``--threads``
(default: machine parallelism, or the ``SECURAKIT_THREADS`` environment
variable); results are independent of the thread count by the stream
design.

Exit codes: 0 success, 1 validation error, 2 numerical/convergence error,
3 usage error.  Errors are reported one per line on stderr as
``error: <category>: <detail>``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import markov, model_io, montecarlo, securability
from . import weibull as wb
from .errors import (
    NumericalError,
    SchemaError,
    UsageError,
    ValidationError,
)
from .model_io import ModelDocument
from .montecarlo import MonteCarloConfig
from .report import AnalysisReport, Result, Series, emit_report

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); remap to the usage code
        raise UsageError(message)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "table"), default="table")
    parser.add_argument("--out", metavar="PATH", default=None)
    parser.add_argument("--seed", type=int, default=None, help="overrides any in-document seed")
    parser.add_argument("--quiet", action="store_true")


def _mc_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: SECURAKIT_THREADS or machine parallelism)")


def build_parser() -> _Parser:
    root = _Parser(prog="securakit", description="reliability and securability analysis toolkit")
    sub = root.add_subparsers(dest="command", required=True)

    weibull_cmd = sub.add_parser("weibull", help="Weibull failure-law analyses")
    weibull_sub = weibull_cmd.add_subparsers(dest="subcommand", required=True)
    ev = weibull_sub.add_parser("eval", help="evaluate the law at a time point")
    ev.add_argument("--alpha", type=float, required=True)
    ev.add_argument("--beta", type=float, required=True)
    ev.add_argument("--t", type=float, required=True)
    _common_flags(ev)
    ft = weibull_sub.add_parser("fit", help="fit parameters to failure data")
    ft.add_argument("--file", required=True)
    ft.add_argument("--method", choices=("rank_regression", "mle", "both"), default=None)
    _common_flags(ft)

    markov_cmd = sub.add_parser("markov", help="Markov-chain analyses")
    markov_sub = markov_cmd.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("solve", "steady-state distribution and availability"),
        ("transient", "time-dependent state probabilities"),
        ("metrics", "MTTF, MTTR, and availability"),
    ):
        p = markov_sub.add_parser(name, help=help_text)
        p.add_argument("--file", required=True)
        if name == "transient":
            p.add_argument("--grid", metavar="T0:T1:STEPS", default=None)
        _common_flags(p)

    mc_cmd = sub.add_parser("mc", help="Monte Carlo estimation")
    mc_sub = mc_cmd.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("reliability", "survival probability over the mission horizon"),
        ("mttf", "mean time to failure"),
    ):
        p = mc_sub.add_parser(name, help=help_text)
        p.add_argument("--file", required=True)
        if name == "reliability":
            p.add_argument("--grid", metavar="T0:T1:STEPS", default=None)
        _common_flags(p)
        _mc_flags(p)

    sec_cmd = sub.add_parser("sec", help="combined safety + security models")
    sec_sub = sec_cmd.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("msdr", "main-system / disaster-recovery chain"),
        ("routofn", "r-out-of-n:G composition"),
    ):
        p = sec_sub.add_parser(name, help=help_text)
        p.add_argument("--file", required=True)
        _common_flags(p)
        _mc_flags(p)

    val = sub.add_parser("validate", help="validate a model document without running analyses")
    val.add_argument("file")
    _common_flags(val)
    return root


def _load_document(path: str) -> ModelDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    return model_io.parse_model(text)


def _require_kind(doc: ModelDocument, kinds: tuple[str, ...], command: str) -> None:
    if doc.kind not in kinds:
        raise ValidationError(f"{command} needs a document of kind {' or '.join(kinds)}, got {doc.kind}")


def _resolve_seed(args, request, doc: ModelDocument) -> int:
    if args.seed is not None:
        if not 0 <= args.seed < 2 ** 64:
            raise UsageError(f"--seed must be in [0, 2**64), got {args.seed}")
        return args.seed
    if request is not None and request.settings.get("seed") is not None:
        return request.settings["seed"]
    if doc.seed is not None:
        return doc.seed
    raise ValidationError(
        "randomized analyses need an explicit seed: set document 'seed', analysis 'seed', or --seed"
    )


def _resolve_threads(args) -> int:
    value = getattr(args, "threads", None)
    if value is None:
        env = os.environ.get("SECURAKIT_THREADS")
        if env is not None:
            try:
                value = int(env)
            except ValueError as exc:
                raise UsageError(f"SECURAKIT_THREADS must be an integer, got {env!r}") from exc
        else:
            value = os.cpu_count() or 1
    if value < 1:
        raise UsageError(f"thread count must be >= 1, got {value}")
    return value


def _parse_grid(spec: str) -> np.ndarray:
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
    return np.linspace(t0, t1, steps)


def _echo(doc: ModelDocument) -> dict:
    return {
        "kind": doc.kind,
        "time_unit": doc.time_unit,
        "parameters": doc.parameters,
        "analyses": [{"op": r.op, **r.settings} for r in doc.analyses],
    }


def _require_analysis(doc: ModelDocument, op: str, command: str):
    request = doc.find_analysis(op)
    if request is None:
        raise ValidationError(f"{command} needs an analyses entry with op '{op}'")
    return request


def _mc_config(request, seed: int) -> MonteCarloConfig:
    s = request.settings
    return MonteCarloConfig(
        n_trials=s["n_trials"],
        horizon=float(s.get("horizon", 0.0)),
        seed=seed,
        threshold=float(s.get("threshold", 1.0)),
        max_events=int(s.get("max_events", 10 ** 9)),
    )


def _run_weibull_eval(args) -> AnalysisReport:
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


def _run_weibull_fit(args) -> AnalysisReport:
    doc = _load_document(args.file)
    _require_kind(doc, ("weibull",), "weibull fit")
    if "data" not in doc.parameters:
        raise ValidationError("weibull fit needs parameters.data in the document")
    sample = model_io.build_failure_sample(doc)
    request = doc.find_analysis("fit")
    method = args.method or (request.settings.get("method") if request else None) or "both"
    methods = ("rank_regression", "mle") if method == "both" else (method,)
    results = []
    for m in methods:
        fitted = wb.fit(sample, method=m)
        results.append(Result("alpha", fitted.alpha, m))
        results.append(Result("beta", fitted.beta, m))
        results.append(Result("mean_life", wb.mean_life(fitted), m))
    return AnalysisReport(model_echo=_echo(doc), results=results)


def _run_markov_solve(args) -> AnalysisReport:
    doc = _load_document(args.file)
    _require_kind(doc, ("markov", "msdr"), "markov solve")
    chain, _ = model_io.build_chain(doc)
    pi = markov.steady_state(chain)
    results = [
        Result(f"pi[{state.label}]", float(pi.pi[state.id]), "analytic")
        for state in chain.space.states
    ]
    availability = float(pi.pi[chain.operational_mask()].sum())
    results.append(Result("availability", availability, "analytic"))
    return AnalysisReport(model_echo=_echo(doc), results=results)


def _run_markov_transient(args) -> AnalysisReport:
    doc = _load_document(args.file)
    _require_kind(doc, ("markov", "msdr"), "markov transient")
    chain, default_start = model_io.build_chain(doc)
    request = doc.find_analysis("transient")
    settings = request.settings if request else {}
    start = int(settings.get("start", default_start))
    if not 0 <= start < chain.n:
        raise ValidationError(f"start state {start} out of range 0..{chain.n - 1}")
    if args.grid is not None:
        grid = _parse_grid(args.grid)
    elif "t" in settings:
        t_final = settings["t"]
        dt = settings.get("dt")
        grid = np.arange(0.0, t_final + dt / 2, dt) if dt else np.array([t_final])
    else:
        raise ValidationError("markov transient needs --grid or an analyses entry with 't'")
    pi0 = np.zeros(chain.n)
    pi0[start] = 1.0
    times = [float(t) for t in grid]
    dists = markov.transient_grid(chain, pi0, times)
    op_mask = chain.operational_mask()
    availability = [float(d.pi[op_mask].sum()) for d in dists]
    results = [Result("availability", availability[-1], "analytic")]
    series = [Series("availability", times, availability)]
    for state in chain.space.states:
        series.append(Series(f"pi[{state.label}]", times, [float(d.pi[state.id]) for d in dists]))
    return AnalysisReport(model_echo=_echo(doc), results=results, series=series)


def _run_markov_metrics(args) -> AnalysisReport:
    doc = _load_document(args.file)
    _require_kind(doc, ("markov", "msdr"), "markov metrics")
    chain, default_start = model_io.build_chain(doc)
    request = doc.find_analysis("metrics")
    settings = request.settings if request else {}
    start = int(settings.get("start", default_start))
    op_mask = chain.operational_mask()
    failed = settings.get("failed")
    if failed is None:
        non_op = np.flatnonzero(~op_mask)
        if non_op.size == 0:
            raise ValidationError("markov metrics needs a chain with a non-operational state")
        failed = int(non_op[0])
    results = [Result("mttf", markov.mttf_absorbing(chain, start), "analytic")]
    try:
        results.append(Result("mttf", markov.mttf_rate_sum(chain), "paper_rate_sum"))
    except ValidationError:
        pass  # the rate-sum estimate needs every operational state to exit directly
    results.append(Result("mttr", markov.mttr(chain, failed), "analytic"))
    results.append(Result("availability", markov.availability_steady(chain), "analytic"))
    return AnalysisReport(model_echo=_echo(doc), results=results)


def _run_mc_reliability(args) -> AnalysisReport:
    doc = _load_document(args.file)
    _require_kind(doc, ("markov", "msdr"), "mc reliability")
    chain, start = model_io.build_chain(doc)
    request = _require_analysis(doc, "reliability", "mc reliability")
    start = int(request.settings.get("start", start))
    seed = _resolve_seed(args, request, doc)
    threads = _resolve_threads(args)
    cfg = _mc_config(request, seed)
    series = []
    if args.grid is not None:
        grid = _parse_grid(args.grid)
        *curve, estimate = montecarlo.estimate_reliability_curve(
            chain, start, cfg, np.append(grid, cfg.horizon), threads=threads
        )
        series.append(Series("reliability", [float(t) for t in grid], [e.value for e in curve]))
    else:
        estimate = montecarlo.estimate_reliability(chain, start, cfg, threads=threads)
    results = [Result("reliability", estimate.value, "monte_carlo", uncertainty=estimate.std_error)]
    return AnalysisReport(model_echo=_echo(doc), results=results, series=series, seed_used=seed)


def _run_mc_mttf(args) -> AnalysisReport:
    doc = _load_document(args.file)
    _require_kind(doc, ("markov", "msdr"), "mc mttf")
    chain, start = model_io.build_chain(doc)
    request = _require_analysis(doc, "mttf", "mc mttf")
    start = int(request.settings.get("start", start))
    seed = _resolve_seed(args, request, doc)
    threads = _resolve_threads(args)
    cfg = _mc_config(request, seed)
    estimate = montecarlo.estimate_mttf(chain, start, cfg, threads=threads)
    results = [Result("mttf", estimate.value, "monte_carlo", uncertainty=estimate.std_error)]
    return AnalysisReport(model_echo=_echo(doc), results=results, seed_used=seed)


def _run_sec_msdr(args) -> AnalysisReport:
    doc = _load_document(args.file)
    _require_kind(doc, ("msdr",), "sec msdr")
    rates, crew = model_io.build_msdr_inputs(doc)
    chain = securability.build_msdr(rates, single_repair_crew=crew)
    pi = markov.steady_state(chain)
    # 1 - pi(both_down), the only non-operational state: service_availability without a second solve
    service = 1.0 - float(pi.pi[~chain.operational_mask()].sum())
    results = [Result("service_availability", service, "analytic")]
    echo = _echo(doc)
    echo["model_notes"] = securability.MSDR_MODEL_NOTES
    for state in chain.space.states:
        results.append(Result(f"pi[{state.label}]", float(pi.pi[state.id]), "analytic"))
    results.append(Result("mttf", markov.mttf_absorbing(chain, 0), "analytic"))
    threat = model_io.build_threat(doc)
    if threat is not None and threat.attack_rate > 0:
        results.append(Result("mtta", securability.mtta(threat), "analytic"))
    return AnalysisReport(model_echo=echo, results=results)


def _run_sec_routofn(args) -> AnalysisReport:
    doc = _load_document(args.file)
    _require_kind(doc, ("r_out_of_n",), "sec routofn")
    system = model_io.build_r_out_of_n(doc)
    rep = securability.decompose(system)
    rep.model_echo = _echo(doc)
    request = doc.find_analysis("threshold_reliability")
    if request is not None:
        seed = _resolve_seed(args, request, doc)
        threads = _resolve_threads(args)
        cfg = _mc_config(request, seed)
        est = montecarlo.estimate_threshold_reliability(system, cfg, threads=threads)
        rep.results.append(
            Result("threshold_reliability", est.value, "monte_carlo", uncertainty=est.std_error)
        )
        rep.seed_used = seed
    return rep


def _run_validate(args) -> None:
    _load_document(args.file)
    if not args.quiet:
        print(f"ok: {args.file}")


def _dispatch(args) -> AnalysisReport | None:
    command = (args.command, getattr(args, "subcommand", None))
    handlers = {
        ("weibull", "eval"): _run_weibull_eval,
        ("weibull", "fit"): _run_weibull_fit,
        ("markov", "solve"): _run_markov_solve,
        ("markov", "transient"): _run_markov_transient,
        ("markov", "metrics"): _run_markov_metrics,
        ("mc", "reliability"): _run_mc_reliability,
        ("mc", "mttf"): _run_mc_mttf,
        ("sec", "msdr"): _run_sec_msdr,
        ("sec", "routofn"): _run_sec_routofn,
    }
    if args.command == "validate":
        _run_validate(args)
        return None
    return handlers[command](args)


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
        rep = _dispatch(args)
        if rep is not None:
            text = emit_report(rep, args.format)
            if args.out:
                Path(args.out).write_text(text, encoding="utf-8")
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
