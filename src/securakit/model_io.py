"""Declarative model documents: parsing, validation, and domain-object builders.

A model document is a single JSON object declaring one model and the
analyses to run against it::

    {
      "kind": "msdr",
      "time_unit": "hours",
      "seed": 42,
      "parameters": {"lambda_ms": 0.01, "lambda_dr": 0.01,
                     "mu_ms": 0.1, "mu_dr": 0.1},
      "analyses": [{"op": "msdr"},
                   {"op": "mttf", "n_trials": 100000}]
    }

Validation is exhaustive: every violation is collected with a path to the
offending key (``parameters.mu_dr``, ``analyses[1].n_trials``) and raised
as one :class:`SchemaError`, so a document never reaches the analysis
engines unless every downstream type invariant already holds.  Randomized
analyses require an explicit seed (document- or analysis-level, or the
CLI flag); none is ever auto-generated.

Each kind is one row of ``_KINDS``: the parameter keys it allows, their
validator, its builder, which :func:`build_model` calls for any kind, and
the ops its analyses may name.
Parsing and validation are pure Python.  The builders import the engines
they construct (and numpy) when called, so validating a document loads
neither.

See ``docs/model_schema.md`` for the full schema with one complete
example per kind.
"""

from __future__ import annotations

import json
import math
import sys
from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import SchemaError, ValidationError

if TYPE_CHECKING:
    from .markov import Ctmc
    from .securability import MsDrRates, RoutOfNSystem, ThreatProfile
    from .weibull import FailureSample

_SEED_BOUND = 2 ** 64
_TRIALS_BOUND = 2 ** 32
MAX_SERIES_POINTS = 10 ** 6  # in one series: --grid STEPS, or ceil(t/dt) + 1 for a transient entry


class ModelDocument:
    """Validated model description: kind, parameters, requested analyses.

    Each ``analyses`` entry is its checked dict: ``op`` first, then the
    settings the document gave, in document order.
    """

    def __init__(self, kind: str, parameters: dict, analyses: list[dict] = (), time_unit: str | None = None,
                 seed: int | None = None):
        self.kind, self.parameters, self.analyses = kind, parameters, list(analyses)
        self.time_unit, self.seed = time_unit, seed


# the bounds a number may be held to, by the text that follows "must" in the diagnostic
_RULES = {
    "be > 0": lambda x: x > 0,
    "be >= 0": lambda x: x >= 0,
    "lie in [0, 1]": lambda x: 0 <= x <= 1,
    "lie in (0, 1]": lambda x: 0 < x <= 1,
}


class _Check:
    """Diagnostic collector with typed accessors.

    Each accessor returns the value it checked, or None once it has
    reported why the value fails.
    """

    def __init__(self):
        self.diags: list[tuple[str, str]] = []

    def error(self, path: str, message: str) -> None:
        self.diags.append((path, message))

    def _typed(self, value, path, types, what):
        """``value`` if it is one of ``types``, where a bool passes only as a bool."""
        if isinstance(value, types) and isinstance(value, bool) == (types is bool):
            return value
        self.error(path, f"expected {what}, got {type(value).__name__}")
        return None

    def _within(self, ok: bool, path, rule: str, value) -> bool:
        """Report ``must <rule>, got <value>`` unless ``ok``; returns ``ok``."""
        if not ok:
            self.error(path, f"must {rule}, got {value}")
        return ok

    def keys(self, obj: dict, allowed, base: str, message: str, validate=None) -> dict:
        """Report each key of ``obj`` outside ``allowed`` at ``base.key``, in document order.

        ``validate(key, value, path)`` checks each allowed key as it comes, so
        its diagnostics keep the document order too; the values it accepts
        are returned by key.
        """
        valid = {}
        for key, value in obj.items():
            path = f"{base}.{key}" if base else key
            if key not in allowed:
                self.error(path, message)
            elif validate is not None and (x := validate(key, value, path)) is not None:
                valid[key] = x
        return valid

    def fields(self, value, path, spec: dict):
        """The object at ``path``: its unknown keys first, then each key of ``spec`` in spec order.

        ``spec`` maps a key to its check ``f(check, value, path)``, which
        sees a missing key as None.  Returns each key's checked value.
        """
        if self.obj(value, path) is None:
            return None
        self.keys(value, spec, path, "unknown key")
        return {key: check(self, value.get(key), f"{path}.{key}") for key, check in spec.items()}

    def each(self, value, path, check, min_len=0):
        """The array at ``path``: ``check(self, item, path[i])`` of each item, in order."""
        if self.array(value, path, min_len) is None:
            return None
        return [check(self, item, f"{path}[{i}]") for i, item in enumerate(value)]

    def obj(self, value, path):
        return self._typed(value, path, dict, "an object")

    def array(self, value, path, min_len=0):
        if self._typed(value, path, list, "an array") is None:
            return None
        if len(value) < min_len:
            self.error(path, f"expected at least {min_len} element(s), got {len(value)}")
            return None
        return value

    def string(self, value, path, choices=None):
        if self._typed(value, path, str, "a string") is None:
            return None
        if choices and value not in choices:
            self.error(path, f"expected one of {list(choices)}, got {value!r}")
            return None
        return value

    def boolean(self, value, path):
        return self._typed(value, path, bool, "true/false")

    def number(self, value, path, rule: str | None = None):
        """A finite number as a float; ``rule`` names its bound in ``_RULES``."""
        if self._typed(value, path, (int, float), "a number") is None:
            return None
        try:
            x = float(value)
        except OverflowError:  # an int past the largest double
            x = math.inf
        if not math.isfinite(x):
            self.error(path, "expected a finite number")
            return None
        return x if rule is None or self._within(_RULES[rule](x), path, rule, value) else None

    def integer(self, value, path, *, lo=None, hi=None):
        if self._typed(value, path, int, "an integer") is None:
            return None
        ok = (lo is None or self._within(value >= lo, path, f"be >= {lo}", value)) and (
            hi is None or self._within(value < hi, path, f"be < {hi}", value))
        return value if ok else None

    def state_id(self, idx, n, path) -> None:
        """Report a checked state id ``idx`` at or above a known state count ``n``."""
        if idx is not None and n is not None and idx >= n:
            self.error(path, f"state id {idx} out of range 0..{n - 1}")


# setting validators, called as f(check, value, path)
_TRIALS = partial(_Check.integer, lo=1, hi=_TRIALS_BOUND)
_SEED = partial(_Check.integer, lo=0, hi=_SEED_BOUND)
_INDEX = partial(_Check.integer, lo=0)
_POSITIVE = partial(_Check.number, rule="be > 0")
_NONNEG = partial(_Check.number, rule="be >= 0")

FIT_METHODS = ("rank_regression", "mle", "both")
_MC_COMMON = {"n_trials": (True, _TRIALS), "seed": (False, _SEED), "max_events": (False, _TRIALS)}
# settings accepted per op: name -> (required, validator); the ops with a seed are the Monte Carlo ones
_OP_SETTINGS = {
    "eval": {"t": (True, _NONNEG)},
    "fit": {"method": (False, partial(_Check.string, choices=FIT_METHODS))},
    "solve": {},
    "msdr": {},
    "routofn": {},
    "transient": {"t": (False, _NONNEG), "start": (False, _INDEX), "dt": (False, _POSITIVE)},
    "metrics": {"start": (False, _INDEX), "failed": (False, _INDEX)},
    "reliability": {**_MC_COMMON, "horizon": (True, _NONNEG)},
    "mttf": _MC_COMMON,
    "threshold_reliability": {**_MC_COMMON, "horizon": (True, _NONNEG),
                              "threshold": (False, partial(_Check.number, rule="lie in (0, 1]"))},
}
_EDGE = {"from": _INDEX, "to": _INDEX, "rate": _POSITIVE}
_ATTACK = {"rate": _NONNEG, "applies_to": partial(_Check.string, choices=("ms", "dr", "both"))}


def _validate_start(check: _Check, obj: dict, base: str, n: int | None) -> None:
    """A chain's ``start``: optional, and when present a state id below ``n`` (if known)."""
    if "start" in obj:
        check.state_id(_INDEX(check, obj["start"], f"{base}.start"), n, f"{base}.start")


def _validate_two_state(check: _Check, obj: dict, base: str) -> int:
    """The ``lambda``/``mu`` shortcut of an up/down chain; returns its state count, 2."""
    for key in ("lambda", "mu"):
        _POSITIVE(check, obj.get(key), f"{base}.{key}")
    return 2


def _validate_chain(check: _Check, params: dict, base: str) -> int | None:
    """An explicit chain declaration: its states, transitions and start.

    Returns the state count once ``states`` is a valid array, else None.
    """
    labels = set()

    def label(check, value, path):
        name = check.string(value, path)
        if name is not None and name in labels:
            check.error(path, f"duplicate label {name!r}")
        labels.add(name)
        return name

    state = {"label": label, "operational": _Check.boolean}
    states = check.each(params.get("states"), f"{base}.states", partial(_Check.fields, spec=state), 1)
    n = len(states) if states is not None else None
    if states is not None and not any(st and st["operational"] for st in states):
        check.error(f"{base}.states", "at least one state must be operational")

    def transition(check, value, path):
        tr = check.fields(value, path, _EDGE)
        if tr is not None:
            check.state_id(tr["from"], n, f"{path}.from")
            check.state_id(tr["to"], n, f"{path}.to")
            if tr["from"] is not None and tr["from"] == tr["to"]:
                check.error(path, "self-transitions are not allowed")

    check.each(params.get("transitions"), f"{base}.transitions", transition, 1)
    _validate_start(check, params, base, n)
    return n


def _validate_weibull_params(check: _Check, params: dict):
    has_model = "alpha" in params or "beta" in params
    if has_model:
        for key in ("alpha", "beta"):
            _POSITIVE(check, params.get(key), f"parameters.{key}")
    if "data" in params:
        data = check.obj(params["data"], "parameters.data")
        if data is not None:
            check.keys(data, ("times", "censored"), "parameters.data", "unknown key")
            times = check.each(data.get("times"), "parameters.data.times", _POSITIVE, 1)
            flags = check.each(data["censored"], "parameters.data.censored", _Check.boolean) \
                if "censored" in data else None
            if times is not None and flags is not None:
                if len(flags) != len(times):
                    check.error("parameters.data.censored", "length must match times")
                elif all(flags):
                    check.error("parameters.data.censored", "at least one uncensored entry is required")
    elif not has_model:
        check.error("parameters", "kind=weibull needs alpha/beta (for eval) or data (for fit)")


def _validate_markov_params(check: _Check, params: dict) -> int | None:
    shortcut = "lambda" in params or "mu" in params
    explicit = "states" in params or "transitions" in params
    if shortcut and explicit:
        check.error("parameters", "give either lambda/mu or states/transitions, not both")
    elif shortcut:
        n = _validate_two_state(check, params, "parameters")
        _validate_start(check, params, "parameters", n)
        return n
    elif explicit:
        return _validate_chain(check, params, "parameters")
    else:
        check.error("parameters", "kind=markov needs lambda/mu or states/transitions")
    return None


def _validate_msdr_params(check: _Check, params: dict) -> int:
    for key in _KINDS["msdr"].params[:4]:  # the four rates, which lead the msdr row
        if key not in params:
            check.error(f"parameters.{key}", "required key missing")
        else:
            _POSITIVE(check, params[key], f"parameters.{key}")
    if "single_repair_crew" in params:
        check.boolean(params["single_repair_crew"], "parameters.single_repair_crew")
    if "attack" in params:
        check.fields(params["attack"], "parameters.attack", _ATTACK)
    return 4


# per r-out-of-n subsystem type: the keys it allows and the validator of their values
_SUBSYSTEMS = {
    "probability": (("type", "p"),
                    lambda check, obj, base: check.number(obj.get("p"), f"{base}.p", "lie in [0, 1]")),
    "two_state": (("type", "lambda", "mu"), _validate_two_state),
    "chain": (("type", "states", "transitions", "start"), _validate_chain),
}


def _validate_r_out_of_n_params(check: _Check, params: dict):
    subs = check.array(params.get("subsystems"), "parameters.subsystems", min_len=1)
    r = check.integer(params.get("r"), "parameters.r", lo=1)
    if r is not None and subs is not None:
        check._within(r <= len(subs), "parameters.r", f"be <= number of subsystems ({len(subs)})", r)
    for i, sub in enumerate(subs or ()):
        base = f"parameters.subsystems[{i}]"
        obj = check.obj(sub, base)
        kind = check.string(obj.get("type"), f"{base}.type", choices=_SUBSYSTEMS) if obj is not None else None
        if kind is not None:
            allowed, validate = _SUBSYSTEMS[kind]
            check.keys(obj, allowed, base, "unknown key")
            validate(check, obj, base)


class _Kind(NamedTuple):
    """A document kind: the parameter keys it allows, their validator, its model builder and its ops.

    ``validate(check, params)`` returns the chain's state count where it is
    known, else None.  ``build(doc)`` returns ``(model, start)``, ``start``
    None for a kind without a chain; it calls the public builder by its
    module name, so a patched builder is the one called.  ``ops`` are the
    analyses its documents may request; the CLI takes the kinds a command
    accepts from them.
    """

    params: tuple[str, ...]
    validate: Callable[[_Check, dict], int | None]
    build: Callable[[ModelDocument], tuple]
    ops: tuple[str, ...]


_CHAIN_OPS = ("solve", "transient", "metrics", "reliability", "mttf")
_KINDS = {
    "weibull": _Kind(("alpha", "beta", "data"), _validate_weibull_params,
                     lambda doc: (build_failure_sample(doc), None), ("eval", "fit")),
    "markov": _Kind(("lambda", "mu", "states", "transitions", "start"), _validate_markov_params,
                    lambda doc: build_chain(doc), _CHAIN_OPS),
    "msdr": _Kind(("lambda_ms", "lambda_dr", "mu_ms", "mu_dr", "single_repair_crew", "attack"),
                  _validate_msdr_params, lambda doc: (build_msdr_chain(doc), 0), ("msdr", *_CHAIN_OPS)),
    "r_out_of_n": _Kind(("r", "subsystems"), _validate_r_out_of_n_params,
                        lambda doc: (build_r_out_of_n(doc), None), ("routofn", "threshold_reliability")),
}


def _validate_analyses(check: _Check, kind: str, analyses) -> list[dict]:
    requests: list[dict] = []
    entries = check.array(analyses, "analyses")
    if entries is None:
        return requests
    for i, entry in enumerate(entries):
        base = f"analyses[{i}]"
        obj = check.obj(entry, base)
        if obj is None:
            continue
        op = check.string(obj.get("op"), f"{base}.op", choices=_KINDS[kind].ops)
        if op is None:
            continue
        spec = _OP_SETTINGS[op]
        settings = check.keys(
            obj, ("op", *spec), base, f"unknown setting for op {op!r}",
            lambda key, value, path: None if key == "op" else spec[key][1](check, value, path),
        )
        for key, (required, _) in spec.items():
            if required and key not in obj:
                check.error(f"{base}.{key}", f"required setting missing for op {op!r}")
        if (ratio := settings.get("t", 0.0) / settings.get("dt", float("inf"))) > MAX_SERIES_POINTS - 1:
            check.error(f"{base}.dt", f"t/dt must be at most {MAX_SERIES_POINTS - 1}, got {ratio:g}")
        requests.append({"op": op, **settings})
    return requests


def parse_model(text: str) -> ModelDocument:
    """Parse and validate a model document.

    Raises :class:`SchemaError` carrying one (path, message) diagnostic per
    violation; on success every parameter already satisfies the invariants
    of the domain types it will construct.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError([
            ("document", f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
        ]) from exc
    except ValueError as exc:  # an integer literal past the digits Python converts
        raise SchemaError([("document", f"a number has over {sys.get_int_max_str_digits()} digits")]) from exc
    except RecursionError as exc:  # the decoder recurses once per level of nesting
        raise SchemaError([("document", "arrays or objects nest too deeply to parse")]) from exc
    check = _Check()
    root = check.obj(payload, "document")
    if root is None:
        raise SchemaError(check.diags)

    check.keys(root, ("kind", "time_unit", "seed", "parameters", "analyses"), "", "unknown top-level key")
    kind = check.string(root.get("kind"), "kind", choices=_KINDS)
    time_unit = check.string(root["time_unit"], "time_unit") if "time_unit" in root else None
    seed = _SEED(check, root["seed"], "seed") if "seed" in root else None
    params = check.obj(root.get("parameters"), "parameters")

    n_states = None
    if kind is not None and params is not None:
        row = _KINDS[kind]
        check.keys(params, row.params, "parameters", f"unknown key for kind={kind}")
        n_states = row.validate(check, params)

    analyses: list[dict] = []
    if kind is not None and "analyses" in root:
        analyses = _validate_analyses(check, kind, root["analyses"])

    if kind == "weibull" and params is not None:
        if any(r["op"] == "eval" for r in analyses) and not ("alpha" in params and "beta" in params):
            check.error("parameters", "op 'eval' needs parameters.alpha and parameters.beta")
        if any(r["op"] == "fit" for r in analyses) and "data" not in params:
            check.error("parameters.data", "op 'fit' needs failure data")
    for i, req in enumerate(analyses):
        for key in ("start", "failed"):
            check.state_id(req.get(key), n_states, f"analyses[{i}].{key}")

    if check.diags:
        raise SchemaError(check.diags)
    return ModelDocument(
        kind=kind,
        parameters=params,
        analyses=analyses,
        time_unit=time_unit,
        seed=seed,
    )


def build_model(
    doc: ModelDocument, op: str | None
) -> tuple[Ctmc | RoutOfNSystem | FailureSample, int | None, dict | None]:
    """The model ``op`` runs on, its chain's start state and the document's first ``op`` entry.

    The start is the entry's ``start``, else the document's; it is None for
    a kind without a chain.  The entry is None when the document has none.
    """
    model, start = _KINDS[doc.kind].build(doc)
    entry = next((e for e in doc.analyses if e["op"] == op), None)
    if start is not None and entry is not None:
        start = entry.get("start", start)
    return model, start, entry


def _chain_of(obj: dict) -> tuple[Ctmc, int]:
    """Chain plus start state from a ``lambda``/``mu`` shortcut or a ``states``/``transitions`` declaration."""
    from .markov import Ctmc, build_two_state

    if "lambda" in obj:
        return build_two_state(obj["lambda"], obj["mu"]), obj.get("start", 0)
    labels = [s["label"] for s in obj["states"]]
    flags = [s["operational"] for s in obj["states"]]
    transitions = ((tr["from"], tr["to"], tr["rate"]) for tr in obj["transitions"])
    return Ctmc(labels, flags, transitions), obj.get("start", 0)


def build_chain(doc: ModelDocument) -> tuple[Ctmc, int]:
    """Chain plus start state for ``markov`` documents."""
    return _chain_of(doc.parameters)


def build_msdr_chain(doc: ModelDocument) -> Ctmc:
    from .securability import build_msdr

    rates, crew = build_msdr_inputs(doc)
    return build_msdr(rates, single_repair_crew=crew)


def build_msdr_inputs(doc: ModelDocument) -> tuple[MsDrRates, bool]:
    """MS/DR rates with any declared attack rate folded in, plus crew policy."""
    from .securability import MsDrRates, combine_failure_and_attack

    p = doc.parameters
    lam_ms, lam_dr = p["lambda_ms"], p["lambda_dr"]
    threat = build_threat(doc)
    if threat is not None:
        if threat.applies_to in ("ms", "both"):
            lam_ms = combine_failure_and_attack(lam_ms, threat)
        if threat.applies_to in ("dr", "both"):
            lam_dr = combine_failure_and_attack(lam_dr, threat)
    rates = MsDrRates(lambda_ms=lam_ms, lambda_dr=lam_dr, mu_ms=p["mu_ms"], mu_dr=p["mu_dr"])
    return rates, bool(p.get("single_repair_crew", False))


def build_threat(doc: ModelDocument) -> ThreatProfile | None:
    from .securability import ThreatProfile

    attack = doc.parameters.get("attack")
    if attack is None:
        return None
    return ThreatProfile(attack_rate=attack["rate"], applies_to=attack["applies_to"])


def build_failure_sample(doc: ModelDocument) -> FailureSample:
    from .weibull import FailureSample

    if "data" not in doc.parameters:
        raise ValidationError("weibull fit needs parameters.data in the document")
    data = doc.parameters["data"]
    return FailureSample(times=data["times"], censored=data.get("censored", ()))


def build_r_out_of_n(doc: ModelDocument) -> RoutOfNSystem:
    from .securability import ChainSubsystem, RoutOfNSystem

    subs = tuple(obj["p"] if obj["type"] == "probability" else ChainSubsystem(*_chain_of(obj))
                 for obj in doc.parameters["subsystems"])
    return RoutOfNSystem(r=doc.parameters["r"], subsystems=subs)
