"""Analysis report container and its serialized forms.

JSON is the canonical machine format: emission is deterministic (sorted
keys, fixed separators), so repeated runs of a seeded analysis produce
byte-identical documents.  The bytes are those of ``json.dumps(payload,
indent=2, sort_keys=True)``, whose indented form runs CPython's pure-Python
encoder, but a small recursive writer makes them: strings go through the C
``encode_basestring_ascii``, a list of finite floats is one join of their
``float.__repr__``, a list object is written once however many series share
it (every series of a transient report shares one ``t`` list), and every
other value goes through its own leaf formatter.  The round trip
``from_json(to_json(r)) == r`` holds by construction: ``to_json`` writes
each record's attributes, and
``from_json`` passes them back to its constructor by name, so a field is
named once, as a parameter of its record's constructor.  CSV exists for
plotting pipelines (one row per result, one section per series) and the
table form is for humans; neither carries the round-trip guarantee.
"""

from __future__ import annotations

import io
import json
import math
from json.encoder import encode_basestring_ascii

from . import __version__ as TOOL_VERSION
from .errors import DomainError, NumericalError

METHOD_LABELS = frozenset({"analytic", "paper_rate_sum", "monte_carlo", "rank_regression", "mle"})


class _Record:
    """A record compared by value: equal to another of its class whose attributes are equal."""

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented


class Result(_Record):
    """One named metric with the method that produced it.

    ``uncertainty`` is the standard error for sampled metrics and ``None``
    for exact ones.  A value or an uncertainty that is not finite (JSON has
    no NaN or Infinity) raises :class:`NumericalError`.
    """

    def __init__(self, metric: str, value: float, method: str, uncertainty: float | None = None):
        if method not in METHOD_LABELS:
            raise DomainError(f"method must be one of {sorted(METHOD_LABELS)}, got {method!r}")
        if not math.isfinite(value):
            raise NumericalError(f"{metric} is not finite: {value}")
        if uncertainty is not None and not math.isfinite(uncertainty):
            raise NumericalError(f"{metric} uncertainty is not finite: {uncertainty}")
        self.metric, self.value, self.method, self.uncertainty = metric, value, method, uncertainty


class Series(_Record):
    """Named (t, value) curve for plotting."""

    def __init__(self, name: str, t: list[float], values: list[float]):
        if len(t) != len(values):
            raise DomainError("series t and values must have equal length")
        self.name, self.t, self.values = name, t, values


class AnalysisReport(_Record):
    """Metric bundle with provenance: every value carries a method label."""

    def __init__(self, model_echo: dict, results: list[Result], series: list[Series] = (),
                 tool_version: str = TOOL_VERSION, seed_used: int | None = None):
        self.model_echo, self.results, self.series = model_echo, results, list(series)
        self.tool_version, self.seed_used = tool_version, seed_used


def to_json(report: AnalysisReport) -> str:
    # each record's attributes, taken shallowly: a series' lists are written, not copied
    payload = vars(report) | {"results": [vars(r) for r in report.results],
                              "series": [vars(s) for s in report.series]}
    return _json(payload, "", {}) + "\n"


def _json(value, pad: str, written: dict) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it, nested at indent ``pad``.

    Dict keys must be strings.  ``written`` maps ``(id(list), pad)`` to the
    text of each list written so far in this payload, so a list object that
    several series share is written once.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, (list, tuple)):
        key = (id(value), pad)
        if key not in written:
            written[key] = _json_array(value, pad, written)
        return written[key]
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [f"{encode_basestring_ascii(key)}: {_json(item, inner, written)}"
                 for key, item in sorted(value.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_array(items, pad: str, written: dict) -> str:
    if not items:
        return "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    try:  # a list of floats is one join; of their reprs, only those of inf and nan hold an "n"
        text = sep.join(map(float.__repr__, items))
    except TypeError:  # an item that is no float
        text = None
    if text is None or "n" in text:
        text = sep.join([_json(item, inner, written) for item in items])
    return "[\n" + inner + text + "\n" + pad + "]"


def from_json(text: str) -> AnalysisReport:
    """The report ``text`` holds; a key that is no field of its record raises ``TypeError``."""
    payload = json.loads(text)
    payload["results"] = [Result(**r) for r in payload["results"]]
    if "series" in payload:
        payload["series"] = [Series(**s) for s in payload["series"]]
    version = payload.pop("tool_version")  # required: the field's default names this build, not the report's
    return AnalysisReport(**payload, tool_version=version)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def to_csv(report: AnalysisReport) -> str:
    """CSV rows; a field holding a comma, quote or line break is quoted, as ``csv.reader`` expects."""
    import csv  # only this view needs it, so other commands do not load it

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("metric", "value", "method", "uncertainty"))
    for r in report.results:
        unc = _fmt(r.uncertainty) if r.uncertainty is not None else ""
        writer.writerow((r.metric, _fmt(r.value), r.method, unc))
    for s in report.series:
        writer.writerows(((), (f"# series: {s.name}",), ("t", "value")))
        out.writelines(f"{t!r},{v!r}\n" for t, v in zip(s.t, s.values))  # numbers: nothing to quote
    return out.getvalue()


def to_table(report: AnalysisReport) -> str:
    width = max([len("metric")] + [len(r.metric) for r in report.results]) + 2
    lines = [
        f"{'metric':<{width}}{'value':>14}  {'method':<15}{'uncertainty':>12}",
        f"{'-' * 6:<{width}}{'-' * 5:>14}  {'-' * 6:<15}{'-' * 11:>12}",
    ]
    for r in report.results:
        unc = _fmt(r.uncertainty) if r.uncertainty is not None else "-"
        lines.append(f"{r.metric:<{width}}{_fmt(r.value):>14}  {r.method:<15}{unc:>12}")
    for s in report.series:
        lines.append("")
        lines.append(f"series: {s.name} ({len(s.t)} points)")
        lines.append(f"{'t':>14}{'value':>16}")
        for t, v in zip(s.t, s.values):
            lines.append(f"{_fmt(t):>14}{_fmt(v):>16}")
    if report.seed_used is not None:
        lines.append("")
        lines.append(f"seed: {report.seed_used}")
    return "\n".join(lines) + "\n"


# format name -> writer, in the order the CLI offers them
_WRITERS = {"json": to_json, "csv": to_csv, "table": to_table}
FORMATS = tuple(_WRITERS)


def emit_report(report: AnalysisReport, format: str = "json") -> str:
    """Serialize a report as ``json`` (canonical), ``csv``, or ``table``."""
    if format not in FORMATS:
        raise DomainError(f"format must be one of {FORMATS}, got {format!r}")
    return _WRITERS[format](report)
