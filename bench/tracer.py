"""In-process tracing of ``securakit`` layers, from outside the package.

:class:`Tracer` replaces public functions of the package's modules with
wrappers that record a span per call (name, layer, start, end, parent,
command id, thread) and keep counts at the same boundaries.  Nothing under
``src/`` changes: functions are patched where callers look them up (for
example ``montecarlo.uniform_block``, which the walker imported by name,
and ``cli.emit_report``), and :meth:`Tracer.uninstall` puts the originals
back.  Spans stay in memory until the run ends.

Scalar random draws are too fine-grained for a span each: their count and
time are added to the enclosing span instead.

Self time is wall-clock attribution: at every instant of a command, the
innermost open spans (one per busy thread) share that instant equally.
With one thread this is a span's duration minus the part its children
cover; with worker threads the shares still add up to the command's wall
time, so layer self times plus interpreter start account for a spawned
command's duration.
"""

from __future__ import annotations

import functools
import io
import threading
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter_ns

LAYERS = ("cli", "model_io", "report", "markov", "rng", "montecarlo", "securability", "weibull")
WALK_ESTIMATORS = (
    "montecarlo.estimate_reliability",
    "montecarlo.estimate_reliability_curve",
    "montecarlo.estimate_mttf",
    "montecarlo.estimate_occupancy",
)


class Span:
    __slots__ = ("name", "layer", "cmd", "tid", "parent", "depth", "start", "end",
                 "child_ns", "scalar_ns", "info", "self_ns", "open_children", "is_open")

    def __init__(self, name, layer, cmd, tid, parent, start):
        self.name, self.layer, self.cmd, self.tid, self.parent = name, layer, cmd, tid, parent
        self.depth = parent.depth + 1 if parent is not None else 0
        self.start, self.end = start, start
        self.child_ns = 0      # time covered by children on the same thread
        self.scalar_ns = 0     # time in scalar draws made directly inside this span
        self.info = 0.0        # per-call quantity: trials, draws, bytes, rate*t, transitions
        self.self_ns = 0.0     # wall-clock share, filled in by attribute()
        self.open_children = 0
        self.is_open = False

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


class _ThreadState:
    def __init__(self):
        self.stack: list[Span] = []
        self.scalar_draws = 0
        self.scalar_ns = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cmd = None
        self._root_stack: list[Span] = []

    # ------------------------------------------------------------ recording

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def _enclosing(self, state: _ThreadState):
        # a worker thread's first span hangs under the span that started the workers
        if state.stack:
            return state.stack[-1]
        return self._root_stack[-1] if self._root_stack else None

    def _open(self, name: str, layer: str) -> Span:
        state = self._state()
        span = Span(name, layer, self._cmd, threading.get_ident(), self._enclosing(state), 0)
        state.stack.append(span)
        span.start = perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        self._state().stack.pop()
        parent = span.parent
        if parent is not None and parent.tid == span.tid:
            parent.child_ns += span.duration_ns
        self.spans.append(span)

    def wrap(self, owner, attr: str, layer: str, name: str | None = None, info=None, name_of=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``info(result, args, kwargs)`` gives the call's quantity; ``name_of(args,
        kwargs)`` overrides the span name per call.
        """
        original = getattr(owner, attr)
        base = name or f"{layer}.{attr.lstrip('_')}"
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else base
            span = tracer._open(span_name, layer)
            try:
                result = original(*args, **kwargs)
            except Exception:
                if span.parent is None or span.parent.layer != layer:
                    with tracer._lock:
                        tracer.errors[layer] += 1
                raise
            finally:
                tracer._close(span)
            if info is not None:
                span.info = float(info(result, args, kwargs))
            with tracer._lock:
                tracer.counts[span_name] += 1
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_scalar_draw(self, cls, attr: str) -> None:
        """Count and time scalar draws, crediting them to the enclosing span."""
        original = getattr(cls, attr)
        tracer = self

        @functools.wraps(original)
        def draw(rng_self):
            t0 = perf_counter_ns()
            u = original(rng_self)
            dt = perf_counter_ns() - t0
            state = tracer._state()
            state.scalar_draws += 1
            state.scalar_ns += dt
            host = tracer._enclosing(state)
            if host is not None:
                host.scalar_ns += dt
            return u

        setattr(cls, attr, draw)
        self._patches.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def run_command(self, main, cmd_id: int, argv) -> tuple[int, str, str, int]:
        """:func:`call_cli` as command ``cmd_id`` under a root ``cli.main`` span."""
        self._cmd = cmd_id
        self._root_stack = self._state().stack
        span = self._open("cli.main", "cli")
        try:
            code, out, err, _ = call_cli(main, argv)
        finally:
            self._close(span)
            self._cmd = None
        return code, out, err, span.duration_ns

    @property
    def scalar_draws(self) -> tuple[int, int]:
        return (sum(s.scalar_draws for s in self._threads), sum(s.scalar_ns for s in self._threads))

    # ------------------------------------------------------------ analysis

    def attribute(self) -> None:
        """Fill ``self_ns`` of every span by sweeping each command's timeline."""
        by_cmd = defaultdict(list)
        for span in self.spans:
            by_cmd[span.cmd].append(span)
        for spans in by_cmd.values():
            _sweep(spans)

    def layer_self_s(self) -> dict[str, float]:
        """Wall-clock self time per layer, scalar draws moved to ``rng``."""
        out = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            moved = 0.0
            if span.scalar_ns:
                own = span.duration_ns - span.child_ns
                moved = span.self_ns * min(1.0, span.scalar_ns / own) if own > 0 else 0.0
            out[span.layer] += (span.self_ns - moved) / 1e9
            out["rng"] += moved / 1e9
        return out

    def total_s(self, name: str) -> float:
        return sum(s.duration_ns for s in self.spans if s.name == name) / 1e9

    def self_s(self, name: str) -> float:
        return sum(s.self_ns for s in self.spans if s.name == name) / 1e9

    def info_sum(self, name: str) -> float:
        return sum(s.info for s in self.spans if s.name == name)


def call_cli(main, argv) -> tuple[int, str, str, int]:
    """Run ``main(argv)`` in-process; return (exit code, stdout, stderr, wall ns)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter_ns()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), perf_counter_ns() - t0


def _sweep(spans: list[Span]) -> None:
    events = []
    for span in spans:
        events.append((span.start, 1, span.depth, span))
        events.append((span.end, 0, -span.depth, span))
    # closes before opens at one instant; parents open before and close after children
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    leaves: set[Span] = set()
    prev = None
    for t, is_open, _, span in events:
        if leaves and prev is not None and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                leaf.self_ns += share
        prev = t
        parent = span.parent
        parent_open = parent is not None and parent.is_open
        if is_open:
            span.is_open = True
            leaves.add(span)
            if parent_open:
                parent.open_children += 1
                leaves.discard(parent)
        else:
            span.is_open = False
            leaves.discard(span)
            if parent_open:
                parent.open_children -= 1
                if parent.open_children == 0:
                    leaves.add(parent)


# ---------------------------------------------------------------- securakit


def _transitions(doc, args, kwargs) -> int:
    params = doc.parameters
    n = len(params.get("transitions", ()))
    for sub in params.get("subsystems", ()):
        if isinstance(sub, dict):
            n += len(sub.get("transitions", ()))
    return n


def _trials(result, args, kwargs) -> int:
    return next(a for a in (*args, *kwargs.values()) if hasattr(a, "n_trials")).n_trials


def _rate_t(result, args, kwargs) -> float:
    chain = args[0]
    t = args[2] if len(args) > 2 else kwargs["t"]
    return float(max(-chain.generator.diagonal())) * float(t)


def _fit_name(args, kwargs) -> str:
    method = kwargs.get("method", args[1] if len(args) > 1 else "rank_regression")
    return f"weibull.fit.{method}"


def install_securakit(tracer: Tracer) -> None:
    """Wrap the public boundaries of every securakit layer the CLI reaches."""
    from securakit import cli, markov, model_io, montecarlo, rng, securability, weibull

    tracer.wrap(model_io, "parse_model", "model_io", "model_io.parse", info=_transitions)
    for attr in ("build_chain", "build_msdr_chain", "build_msdr_inputs", "build_threat",
                 "build_r_out_of_n", "build_failure_sample"):
        tracer.wrap(model_io, attr, "model_io", "model_io.build")
    tracer.wrap(cli, "emit_report", "report", "report.emit",
                info=lambda text, a, k: len(text.encode("utf-8")))
    tracer.wrap(markov, "transient", "markov", info=_rate_t)
    for attr in ("steady_state", "mttf_absorbing", "mttr", "mttf_rate_sum", "availability_steady",
                 "availability_at", "reliability_at", "vet_absorption"):
        tracer.wrap(markov, attr, "markov")
    draws = lambda u, a, k: u.size  # noqa: E731
    tracer.wrap(montecarlo, "uniform_block", "rng", "rng.uniform_block", info=draws)
    tracer.wrap(rng, "uniform_block", "rng", "rng.uniform_block", info=draws)
    tracer.wrap_scalar_draw(rng.CounterRng, "uniform")
    for name in WALK_ESTIMATORS:
        tracer.wrap(montecarlo, name.split(".")[1], "montecarlo", info=_trials)
    tracer.wrap(montecarlo, "estimate_threshold_reliability", "montecarlo", info=_trials)
    tracer.wrap(montecarlo, "_walk_batch", "montecarlo", "montecarlo.walk_batch")
    tracer.wrap(montecarlo, "simulate_trajectory", "montecarlo")
    for attr in ("decompose", "service_availability", "build_msdr", "mtta",
                 "subsystem_availability", "r_out_of_n_availability"):
        tracer.wrap(securability, attr, "securability")
    tracer.wrap(weibull, "fit", "weibull", name_of=_fit_name)
    for attr in ("pdf", "cdf", "hazard", "reliability", "mean_life"):
        tracer.wrap(weibull, attr, "weibull")
