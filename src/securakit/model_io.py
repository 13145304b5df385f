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

See ``docs/model_schema.md`` for the full schema with one complete
example per kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import SchemaError
from .markov import Ctmc, StateSpace, build_two_state
from .report import AnalysisReport, emit_report, from_json  # noqa: F401  (public surface)
from .securability import (
    ChainSubsystem, MsDrRates, RoutOfNSystem, ThreatProfile, build_msdr, combine_failure_and_attack,
)
from .weibull import FailureSample, WeibullModel

_SEED_BOUND = 2 ** 64
_TRIALS_BOUND = 2 ** 32
MAX_SERIES_POINTS = 10 ** 6  # in one series: --grid STEPS, or ceil(t/dt) + 1 for a transient entry


@dataclass
class AnalysisRequest:
    """One requested operation and its validated settings."""

    op: str
    settings: dict = field(default_factory=dict)


@dataclass
class ModelDocument:
    """Validated model description: kind, parameters, requested analyses."""

    kind: str
    parameters: dict
    analyses: list[AnalysisRequest] = field(default_factory=list)
    time_unit: str | None = None
    seed: int | None = None


class _Check:
    """Diagnostic collector with typed accessors."""

    def __init__(self):
        self.diags: list[tuple[str, str]] = []

    def error(self, path: str, message: str) -> None:
        self.diags.append((path, message))

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

    def obj(self, value, path):
        if not isinstance(value, dict):
            self.error(path, f"expected an object, got {type(value).__name__}")
            return None
        return value

    def array(self, value, path, min_len=0):
        if not isinstance(value, list):
            self.error(path, f"expected an array, got {type(value).__name__}")
            return None
        if len(value) < min_len:
            self.error(path, f"expected at least {min_len} element(s), got {len(value)}")
            return None
        return value

    def string(self, value, path, choices=None):
        if not isinstance(value, str):
            self.error(path, f"expected a string, got {type(value).__name__}")
            return None
        if choices and value not in choices:
            self.error(path, f"expected one of {list(choices)}, got {value!r}")
            return None
        return value

    def boolean(self, value, path):
        if not isinstance(value, bool):
            self.error(path, f"expected true/false, got {type(value).__name__}")
            return None
        return value

    def number(self, value, path, *, positive=False, nonneg=False, unit=False, unit_open=False):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.error(path, f"expected a number, got {type(value).__name__}")
            return None
        x = float(value)
        if x != x or x in (float("inf"), float("-inf")):
            self.error(path, "expected a finite number")
            return None
        if positive and not x > 0:
            self.error(path, f"must be > 0, got {value}")
            return None
        if nonneg and not x >= 0:
            self.error(path, f"must be >= 0, got {value}")
            return None
        if unit and not 0.0 <= x <= 1.0:
            self.error(path, f"must lie in [0, 1], got {value}")
            return None
        if unit_open and not 0.0 < x <= 1.0:
            self.error(path, f"must lie in (0, 1], got {value}")
            return None
        return x

    def integer(self, value, path, *, lo=None, hi=None):
        if isinstance(value, bool) or not isinstance(value, int):
            self.error(path, f"expected an integer, got {type(value).__name__}")
            return None
        if lo is not None and value < lo:
            self.error(path, f"must be >= {lo}, got {value}")
            return None
        if hi is not None and value >= hi:
            self.error(path, f"must be < {hi}, got {value}")
            return None
        return value

    def state_id(self, idx, n, path) -> None:
        """Report a checked state id ``idx`` at or above a known state count ``n``."""
        if idx is not None and n is not None and idx >= n:
            self.error(path, f"state id {idx} out of range 0..{n - 1}")


# setting validators, called as f(check, value, path)
_TRIALS = partial(_Check.integer, lo=1, hi=_TRIALS_BOUND)
_SEED = partial(_Check.integer, lo=0, hi=_SEED_BOUND)
_INDEX = partial(_Check.integer, lo=0)
_NONNEG = partial(_Check.number, nonneg=True)

# analyses permitted per document kind; the CLI takes the kinds a command accepts from here
_CHAIN_OPS = ("solve", "transient", "metrics", "reliability", "mttf")
OPS = {
    "weibull": ("eval", "fit"),
    "markov": _CHAIN_OPS,
    "msdr": ("msdr",) + _CHAIN_OPS,
    "r_out_of_n": ("routofn", "threshold_reliability"),
}
# the Monte Carlo ops: the only ones that read a seed or a thread count
MC_OPS = ("reliability", "mttf", "threshold_reliability")
_MC_COMMON = {"n_trials": (True, _TRIALS), "seed": (False, _SEED), "max_events": (False, _TRIALS)}
# settings accepted per op: name -> (required, validator)
_OP_SETTINGS = {
    "eval": {"t": (True, _NONNEG)},
    "fit": {"method": (False, partial(_Check.string, choices=("rank_regression", "mle", "both")))},
    "solve": {},
    "msdr": {},
    "routofn": {},
    "transient": {"t": (False, _NONNEG), "start": (False, _INDEX),
                  "dt": (False, partial(_Check.number, positive=True))},
    "metrics": {"start": (False, _INDEX), "failed": (False, _INDEX)},
    "reliability": {**_MC_COMMON, "horizon": (True, _NONNEG)},
    "mttf": _MC_COMMON,
    "threshold_reliability": {**_MC_COMMON, "horizon": (True, _NONNEG),
                              "threshold": (False, partial(_Check.number, unit_open=True))},
}


def _validate_start(check: _Check, obj: dict, base: str, n: int | None) -> None:
    """A chain's ``start``: optional, and when present a state id below ``n`` (if known)."""
    if "start" in obj:
        check.state_id(_INDEX(check, obj["start"], f"{base}.start"), n, f"{base}.start")


def _validate_chain(check: _Check, params: dict, base: str) -> None:
    """An explicit chain declaration: its states, transitions and start."""
    states = check.array(params.get("states"), f"{base}.states", min_len=1)
    n = len(states) if states is not None else None
    any_op = False
    if states is not None:
        for i, st in enumerate(states):
            obj = check.obj(st, f"{base}.states[{i}]")
            if obj is None:
                continue
            check.keys(obj, ("label", "operational"), f"{base}.states[{i}]", "unknown key")
            check.string(obj.get("label"), f"{base}.states[{i}].label")
            flag = check.boolean(obj.get("operational"), f"{base}.states[{i}].operational")
            any_op = any_op or bool(flag)
        if not any_op:
            check.error(f"{base}.states", "at least one state must be operational")
    transitions = check.array(params.get("transitions"), f"{base}.transitions", min_len=1)
    if transitions is not None:
        for i, tr in enumerate(transitions):
            obj = check.obj(tr, f"{base}.transitions[{i}]")
            if obj is None:
                continue
            check.keys(obj, ("from", "to", "rate"), f"{base}.transitions[{i}]", "unknown key")
            src = check.integer(obj.get("from"), f"{base}.transitions[{i}].from", lo=0)
            dst = check.integer(obj.get("to"), f"{base}.transitions[{i}].to", lo=0)
            check.number(obj.get("rate"), f"{base}.transitions[{i}].rate", positive=True)
            check.state_id(src, n, f"{base}.transitions[{i}].from")
            check.state_id(dst, n, f"{base}.transitions[{i}].to")
            if src is not None and dst is not None and src == dst:
                check.error(f"{base}.transitions[{i}]", "self-transitions are not allowed")
    _validate_start(check, params, base, n)


def _validate_weibull_params(check: _Check, params: dict):
    has_model = "alpha" in params or "beta" in params
    if has_model:
        check.number(params.get("alpha"), "parameters.alpha", positive=True)
        check.number(params.get("beta"), "parameters.beta", positive=True)
    if "data" in params:
        data = check.obj(params["data"], "parameters.data")
        if data is not None:
            check.keys(data, ("times", "censored"), "parameters.data", "unknown key")
            times = check.array(data.get("times"), "parameters.data.times", min_len=1)
            if times is not None:
                for i, t in enumerate(times):
                    check.number(t, f"parameters.data.times[{i}]", positive=True)
            if "censored" in data:
                flags = check.array(data["censored"], "parameters.data.censored")
                if flags is not None:
                    for i, c in enumerate(flags):
                        check.boolean(c, f"parameters.data.censored[{i}]")
                    if times is not None and len(flags) != len(times):
                        check.error("parameters.data.censored", "length must match times")
                    elif times is not None and all(
                        isinstance(c, bool) and c for c in flags
                    ):
                        check.error("parameters.data.censored", "at least one uncensored entry is required")
    elif not has_model:
        check.error("parameters", "kind=weibull needs alpha/beta (for eval) or data (for fit)")


def _validate_markov_params(check: _Check, params: dict):
    shortcut = "lambda" in params or "mu" in params
    explicit = "states" in params or "transitions" in params
    if shortcut and explicit:
        check.error("parameters", "give either lambda/mu or states/transitions, not both")
    elif shortcut:
        check.number(params.get("lambda"), "parameters.lambda", positive=True)
        check.number(params.get("mu"), "parameters.mu", positive=True)
        _validate_start(check, params, "parameters", 2)
    elif explicit:
        _validate_chain(check, params, "parameters")
    else:
        check.error("parameters", "kind=markov needs lambda/mu or states/transitions")


def _validate_msdr_params(check: _Check, params: dict):
    for key in ("lambda_ms", "lambda_dr", "mu_ms", "mu_dr"):
        if key not in params:
            check.error(f"parameters.{key}", "required key missing")
        else:
            check.number(params[key], f"parameters.{key}", positive=True)
    if "single_repair_crew" in params:
        check.boolean(params["single_repair_crew"], "parameters.single_repair_crew")
    if "attack" in params:
        attack = check.obj(params["attack"], "parameters.attack")
        if attack is not None:
            check.keys(attack, ("rate", "applies_to"), "parameters.attack", "unknown key")
            check.number(attack.get("rate"), "parameters.attack.rate", nonneg=True)
            check.string(attack.get("applies_to"), "parameters.attack.applies_to", choices=("ms", "dr", "both"))


# keys allowed per r-out-of-n subsystem type
_SUBSYSTEM_KEYS = {
    "probability": ("type", "p"),
    "two_state": ("type", "lambda", "mu"),
    "chain": ("type", "states", "transitions", "start"),
}


def _validate_r_out_of_n_params(check: _Check, params: dict):
    subs = check.array(params.get("subsystems"), "parameters.subsystems", min_len=1)
    r = check.integer(params.get("r"), "parameters.r", lo=1)
    if r is not None and subs is not None and r > len(subs):
        check.error("parameters.r", f"must be <= number of subsystems ({len(subs)}), got {r}")
    if subs is None:
        return
    for i, sub in enumerate(subs):
        base = f"parameters.subsystems[{i}]"
        obj = check.obj(sub, base)
        if obj is None:
            continue
        kind = check.string(obj.get("type"), f"{base}.type", choices=_SUBSYSTEM_KEYS)
        if kind is None:
            continue
        check.keys(obj, _SUBSYSTEM_KEYS[kind], base, "unknown key")
        if kind == "probability":
            check.number(obj.get("p"), f"{base}.p", unit=True)
        elif kind == "two_state":
            check.number(obj.get("lambda"), f"{base}.lambda", positive=True)
            check.number(obj.get("mu"), f"{base}.mu", positive=True)
        else:
            _validate_chain(check, obj, base)


# per kind: the parameter keys it allows and the validator of their values
_KIND_PARAMS = {
    "weibull": (("alpha", "beta", "data"), _validate_weibull_params),
    "markov": (("lambda", "mu", "states", "transitions", "start"), _validate_markov_params),
    "msdr": (
        ("lambda_ms", "lambda_dr", "mu_ms", "mu_dr", "single_repair_crew", "attack"), _validate_msdr_params
    ),
    "r_out_of_n": (("r", "subsystems"), _validate_r_out_of_n_params),
}


def _validate_analyses(check: _Check, kind: str, analyses) -> list[AnalysisRequest]:
    requests: list[AnalysisRequest] = []
    entries = check.array(analyses, "analyses")
    if entries is None:
        return requests
    for i, entry in enumerate(entries):
        base = f"analyses[{i}]"
        obj = check.obj(entry, base)
        if obj is None:
            continue
        op = check.string(obj.get("op"), f"{base}.op", choices=OPS[kind])
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
        requests.append(AnalysisRequest(op=op, settings=settings))
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
    check = _Check()
    root = check.obj(payload, "document")
    if root is None:
        raise SchemaError(check.diags)

    check.keys(root, ("kind", "time_unit", "seed", "parameters", "analyses"), "", "unknown top-level key")
    kind = check.string(root.get("kind"), "kind", choices=OPS)
    time_unit = check.string(root["time_unit"], "time_unit") if "time_unit" in root else None
    seed = _SEED(check, root["seed"], "seed") if "seed" in root else None
    params = check.obj(root.get("parameters"), "parameters")

    if kind is not None and params is not None:
        allowed, validate = _KIND_PARAMS[kind]
        check.keys(params, allowed, "parameters", f"unknown key for kind={kind}")
        validate(check, params)

    analyses: list[AnalysisRequest] = []
    if kind is not None and "analyses" in root:
        analyses = _validate_analyses(check, kind, root["analyses"])

    if kind == "weibull" and params is not None:
        if any(r.op == "eval" for r in analyses) and not ("alpha" in params and "beta" in params):
            check.error("parameters", "op 'eval' needs parameters.alpha and parameters.beta")
        if any(r.op == "fit" for r in analyses) and "data" not in params:
            check.error("parameters.data", "op 'fit' needs failure data")
    if kind in ("markov", "msdr") and params is not None:
        n_states = None
        if kind == "msdr":
            n_states = 4
        elif "lambda" in params:
            n_states = 2
        elif isinstance(params.get("states"), list):
            n_states = len(params["states"])
        for i, req in enumerate(analyses):
            for key in ("start", "failed"):
                check.state_id(req.settings.get(key), n_states, f"analyses[{i}].{key}")

    if check.diags:
        raise SchemaError(check.diags)
    return ModelDocument(
        kind=kind,
        parameters=params,
        analyses=analyses,
        time_unit=time_unit,
        seed=seed,
    )


def _chain_from_declaration(obj: dict) -> Ctmc:
    labels = [s["label"] for s in obj["states"]]
    flags = [s["operational"] for s in obj["states"]]
    space = StateSpace.from_labels(labels, flags)
    rates = np.zeros((space.n, space.n))
    for tr in obj["transitions"]:
        rates[tr["from"], tr["to"]] += tr["rate"]
    return Ctmc.from_transition_rates(space, rates)


def build_chain(doc: ModelDocument) -> tuple[Ctmc, int]:
    """Chain plus start state for ``markov`` and ``msdr`` documents."""
    if doc.kind == "msdr":
        return build_msdr_chain(doc), 0
    params = doc.parameters
    if "lambda" in params:
        return build_two_state(params["lambda"], params["mu"]), params.get("start", 0)
    return _chain_from_declaration(params), params.get("start", 0)


def build_msdr_chain(doc: ModelDocument) -> Ctmc:
    rates, crew = build_msdr_inputs(doc)
    return build_msdr(rates, single_repair_crew=crew)


def build_msdr_inputs(doc: ModelDocument) -> tuple[MsDrRates, bool]:
    """MS/DR rates with any declared attack rate folded in, plus crew policy."""
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
    attack = doc.parameters.get("attack")
    if attack is None:
        return None
    return ThreatProfile(attack_rate=attack["rate"], applies_to=attack["applies_to"])


def build_weibull_model(doc: ModelDocument) -> WeibullModel:
    return WeibullModel(alpha=doc.parameters["alpha"], beta=doc.parameters["beta"])


def build_failure_sample(doc: ModelDocument) -> FailureSample:
    data = doc.parameters["data"]
    times = tuple(float(t) for t in data["times"])
    censored = tuple(bool(c) for c in data.get("censored", ()))
    return FailureSample(times=times, censored=censored)


def build_r_out_of_n(doc: ModelDocument) -> RoutOfNSystem:
    subs = []
    for obj in doc.parameters["subsystems"]:
        if obj["type"] == "probability":
            subs.append(obj["p"])
        elif obj["type"] == "two_state":
            subs.append(ChainSubsystem(chain=build_two_state(obj["lambda"], obj["mu"]), start=0))
        else:
            subs.append(
                ChainSubsystem(chain=_chain_from_declaration(obj), start=obj.get("start", 0))
            )
    return RoutOfNSystem(r=doc.parameters["r"], subsystems=tuple(subs))
