"""Model document parsing/validation and report serialization tests."""

import copy
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from securakit import model_io
from securakit.errors import SchemaError, ValidationError
from securakit.model_io import (
    ModelDocument,
    build_chain,
    build_failure_sample,
    build_msdr_inputs,
    build_r_out_of_n,
    build_weibull_model,
    parse_model,
)
from securakit.report import AnalysisReport, Result, Series, emit_report, from_json, to_csv


def doc(payload) -> str:
    return json.dumps(payload)


MINIMAL_MARKOV = {
    "kind": "markov",
    "parameters": {"lambda": 0.01, "mu": 0.1},
}

MSDR = {
    "kind": "msdr",
    "time_unit": "hours",
    "seed": 42,
    "parameters": {"lambda_ms": 0.01, "lambda_dr": 0.01, "mu_ms": 0.1, "mu_dr": 0.1},
    "analyses": [{"op": "msdr"}, {"op": "mttf", "n_trials": 1000}],
}


class TestParseModel:
    def test_minimal_markov_roundtrip(self):
        parsed = parse_model(doc(MINIMAL_MARKOV))
        assert parsed.kind == "markov"
        assert parsed.parameters["lambda"] == 0.01
        assert parsed.parameters["mu"] == 0.1
        chain, start = build_chain(parsed)
        assert start == 0
        assert chain.generator[0, 1] == 0.01

    def test_msdr_document(self):
        parsed = parse_model(doc(MSDR))
        assert parsed.seed == 42
        assert parsed.time_unit == "hours"
        rates, crew = build_msdr_inputs(parsed)
        assert rates.mu_dr == 0.1
        assert crew is False

    def test_missing_required_key_names_it(self):
        payload = {k: v for k, v in MSDR.items()}
        payload["parameters"] = {k: v for k, v in MSDR["parameters"].items() if k != "mu_dr"}
        with pytest.raises(SchemaError) as err:
            parse_model(doc(payload))
        assert any(path == "parameters.mu_dr" for path, _ in err.value.diagnostics)

    def test_negative_rate_cites_positivity(self):
        payload = json.loads(doc(MSDR))
        payload["parameters"]["lambda_ms"] = -1
        with pytest.raises(SchemaError) as err:
            parse_model(doc(payload))
        diag = dict(err.value.diagnostics)
        assert "parameters.lambda_ms" in diag
        assert "> 0" in diag["parameters.lambda_ms"]

    def test_syntax_error_is_position_annotated(self):
        with pytest.raises(SchemaError) as err:
            parse_model('{"kind": "markov",')
        (path, message), = err.value.diagnostics
        assert path == "document"
        assert "line" in message and "column" in message

    def test_all_violations_reported_together(self):
        payload = {
            "kind": "msdr",
            "parameters": {"lambda_ms": -1, "lambda_dr": 0, "mu_ms": 0.1},
            "analyses": [{"op": "nope"}],
        }
        with pytest.raises(SchemaError) as err:
            parse_model(doc(payload))
        paths = [p for p, _ in err.value.diagnostics]
        assert "parameters.lambda_ms" in paths
        assert "parameters.lambda_dr" in paths
        assert "parameters.mu_dr" in paths
        assert "analyses[0].op" in paths

    def test_unknown_keys_rejected(self):
        payload = json.loads(doc(MINIMAL_MARKOV))
        payload["extra"] = 1
        payload["parameters"]["typo"] = 2
        with pytest.raises(SchemaError) as err:
            parse_model(doc(payload))
        paths = [p for p, _ in err.value.diagnostics]
        assert "extra" in paths
        assert "parameters.typo" in paths

    def test_mc_settings_validated(self):
        payload = json.loads(doc(MSDR))
        payload["analyses"] = [{"op": "reliability", "n_trials": 0, "horizon": -2}]
        with pytest.raises(SchemaError) as err:
            parse_model(doc(payload))
        paths = [p for p, _ in err.value.diagnostics]
        assert "analyses[0].n_trials" in paths
        assert "analyses[0].horizon" in paths

    def test_required_settings_enforced(self):
        payload = json.loads(doc(MSDR))
        payload["analyses"] = [{"op": "reliability"}]
        with pytest.raises(SchemaError) as err:
            parse_model(doc(payload))
        paths = [p for p, _ in err.value.diagnostics]
        assert "analyses[0].n_trials" in paths
        assert "analyses[0].horizon" in paths

    def test_explicit_chain_document(self):
        payload = {
            "kind": "markov",
            "parameters": {
                "states": [
                    {"label": "up", "operational": True},
                    {"label": "down", "operational": False},
                ],
                "transitions": [
                    {"from": 0, "to": 1, "rate": 0.2},
                    {"from": 1, "to": 0, "rate": 0.5},
                ],
                "start": 0,
            },
        }
        chain, start = build_chain(parse_model(doc(payload)))
        assert chain.n == 2
        assert chain.generator[0, 1] == 0.2
        assert start == 0

    def test_transition_out_of_range(self):
        payload = {
            "kind": "markov",
            "parameters": {
                "states": [{"label": "up", "operational": True}],
                "transitions": [{"from": 0, "to": 3, "rate": 0.2}],
            },
        }
        with pytest.raises(SchemaError) as err:
            parse_model(doc(payload))
        assert any("parameters.transitions[0].to" == p for p, _ in err.value.diagnostics)

    def test_weibull_eval_needs_model_parameters(self):
        payload = {
            "kind": "weibull",
            "parameters": {"data": {"times": [1.0, 2.0, 3.0]}},
            "analyses": [{"op": "eval", "t": 1.0}],
        }
        with pytest.raises(SchemaError):
            parse_model(doc(payload))

    def test_weibull_fit_document(self):
        payload = {
            "kind": "weibull",
            "parameters": {"data": {"times": [1.0, 2.0, 3.0], "censored": [False, False, True]}},
            "analyses": [{"op": "fit", "method": "mle"}],
        }
        sample = build_failure_sample(parse_model(doc(payload)))
        assert sample.times == (1.0, 2.0, 3.0)
        assert sample.censored == (False, False, True)

    def test_weibull_all_censored_rejected(self):
        payload = {
            "kind": "weibull",
            "parameters": {"data": {"times": [1.0, 2.0], "censored": [True, True]}},
        }
        with pytest.raises(SchemaError):
            parse_model(doc(payload))

    def test_r_out_of_n_document(self):
        payload = {
            "kind": "r_out_of_n",
            "parameters": {
                "r": 2,
                "subsystems": [
                    {"type": "probability", "p": 0.9},
                    {"type": "two_state", "lambda": 0.01, "mu": 0.1},
                    {
                        "type": "chain",
                        "states": [
                            {"label": "ok", "operational": True},
                            {"label": "bad", "operational": False},
                        ],
                        "transitions": [
                            {"from": 0, "to": 1, "rate": 0.1},
                            {"from": 1, "to": 0, "rate": 0.9},
                        ],
                    },
                ],
            },
        }
        system = build_r_out_of_n(parse_model(doc(payload)))
        assert system.r == 2 and system.n == 3

    def test_r_exceeding_n_rejected(self):
        payload = {
            "kind": "r_out_of_n",
            "parameters": {"r": 4, "subsystems": [{"type": "probability", "p": 0.9}]},
        }
        with pytest.raises(SchemaError) as err:
            parse_model(doc(payload))
        assert any(p == "parameters.r" for p, _ in err.value.diagnostics)

    def test_weibull_model_builder(self):
        payload = {"kind": "weibull", "parameters": {"alpha": 2.0, "beta": 1.5}}
        model = build_weibull_model(parse_model(doc(payload)))
        assert model.alpha == 2.0 and model.beta == 1.5

    def test_attack_block(self):
        payload = json.loads(doc(MSDR))
        payload["parameters"]["attack"] = {"rate": 0.005, "applies_to": "ms"}
        rates, _ = build_msdr_inputs(parse_model(doc(payload)))
        assert rates.lambda_ms == pytest.approx(0.015)
        assert rates.lambda_dr == 0.01


# a present key is validated, null included; the shapes below crashed a command or were misread
TWO_STATE_START = {"kind": "markov", "parameters": {"lambda": 0.01, "mu": 0.1, "start": 1}}
EXPLICIT_CHAIN = {
    "kind": "markov",
    "parameters": {
        "states": [{"label": "up", "operational": True}, {"label": "down", "operational": False}],
        "transitions": [{"from": 0, "to": 1, "rate": 0.1}, {"from": 1, "to": 0, "rate": 0.9}],
    },
}
FIT_DATA = {"kind": "weibull", "parameters": {"alpha": 2.0, "beta": 1.5, "data": {"times": [1.0, 2.0]}},
            "analyses": [{"op": "fit"}]}


def _with(payload, path, value):
    payload = copy.deepcopy(payload)
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


REJECTED_SHAPES = [
    (_with(TWO_STATE_START, ("parameters", "start"), "x"), "parameters.start", "expected an integer, got str"),
    (_with(TWO_STATE_START, ("parameters", "start"), None), "parameters.start",
     "expected an integer, got NoneType"),
    (_with(TWO_STATE_START, ("parameters", "start"), True), "parameters.start", "expected an integer, got bool"),
    (_with(TWO_STATE_START, ("parameters", "start"), 1.7), "parameters.start", "expected an integer, got float"),
    (_with(TWO_STATE_START, ("parameters", "start"), 5), "parameters.start", "state id 5 out of range 0..1"),
    (_with(TWO_STATE_START, ("parameters", "start"), -1), "parameters.start", "must be >= 0, got -1"),
    (_with(EXPLICIT_CHAIN, ("parameters", "start"), None), "parameters.start",
     "expected an integer, got NoneType"),
    (
        {"kind": "r_out_of_n", "parameters": {"r": 1, "subsystems": [
            {"type": "chain", **EXPLICIT_CHAIN["parameters"], "start": None}]}},
        "parameters.subsystems[0].start", "expected an integer, got NoneType",
    ),
    (_with(FIT_DATA, ("parameters", "data", "censored"), None), "parameters.data.censored",
     "expected an array, got NoneType"),
    (_with(FIT_DATA, ("parameters", "data"), None), "parameters.data", "expected an object, got NoneType"),
    (_with({**FIT_DATA, "analyses": []}, ("parameters", "data"), None), "parameters.data",
     "expected an object, got NoneType"),
    (_with(MSDR, ("parameters", "attack"), None), "parameters.attack", "expected an object, got NoneType"),
    (_with(MSDR, ("analyses", 1, "horizon"), 10.0), "analyses[1].horizon", "unknown setting for op 'mttf'"),
    ({**MINIMAL_MARKOV, "analyses": [{"op": "transient", "t": 1e300, "dt": 1e-300}]}, "analyses[0].dt",
     "t/dt must be at most 999999, got inf"),
    ({**MINIMAL_MARKOV, "analyses": [{"op": "transient", "t": 1e6, "dt": 1.0}]}, "analyses[0].dt",
     "t/dt must be at most 999999, got 1e+06"),
]


@pytest.mark.parametrize("payload, path, message", REJECTED_SHAPES, ids=range(len(REJECTED_SHAPES)))
def test_present_keys_are_validated(payload, path, message):
    with pytest.raises(SchemaError) as err:
        parse_model(doc(payload))
    assert err.value.diagnostics == [(path, message)]


@pytest.mark.parametrize("entry", [
    {"op": "transient", "t": 999_999.0, "dt": 1.0},  # the series 0, 1, ..., 999 999: MAX_SERIES_POINTS points
    {"op": "transient", "t": 1e12},  # without dt the series is the one point t
])
def test_series_within_limit_is_accepted(entry):
    assert parse_model(doc({**MINIMAL_MARKOV, "analyses": [entry]})).analyses[0].settings == {
        k: v for k, v in entry.items() if k != "op"}


def test_diagnostics_keep_document_order():
    payload = {**MINIMAL_MARKOV, "bogus": 1, "analyses": [
        {"op": "reliability", "horizon": -1, "extra": 1, "n_trials": 0, "seed": None},
        {"mode": 1, "op": "mttf", "n_trials": 1},
    ]}
    with pytest.raises(SchemaError) as err:
        parse_model(doc(payload))
    assert err.value.diagnostics == [
        ("bogus", "unknown top-level key"),
        ("analyses[0].horizon", "must be >= 0, got -1"),
        ("analyses[0].extra", "unknown setting for op 'reliability'"),
        ("analyses[0].n_trials", "must be >= 1, got 0"),
        ("analyses[0].seed", "expected an integer, got NoneType"),
        ("analyses[1].mode", "unknown setting for op 'mttf'"),
    ]


def _schema_examples() -> list[dict]:
    """The model documents given as examples in docs/model_schema.md."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "model_schema.md").read_text(encoding="utf-8")
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", text, re.S)]
    return [b for b in blocks if "kind" in b]


def _slots(node, path=()):
    """Every (path, value) in a JSON document, the root included."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _slots(child, path + (key,))


SEED_DOCUMENTS = _schema_examples() + [TWO_STATE_START]
ODD_VALUES = [None, "x", True, 1.7, 5, 2, 1, 0, -1, [], {}, {"rate": 1}]
EXTRA_KEYS = ["start", "data", "censored", "attack", "horizon", "seed", "time_unit", "t", "dt", "bogus"]


@st.composite
def mutated_documents(draw):
    """A schema example with one to three keys set to null, a wrong type or an extra key."""
    payload = copy.deepcopy(draw(st.sampled_from(SEED_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(_slots(payload))))
        value = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        if isinstance(node, dict) and draw(st.booleans()):
            node[draw(st.sampled_from(EXTRA_KEYS))] = value
        elif path:
            payload = _with(payload, path, value)
    return payload


def test_schema_examples_are_valid_documents():
    examples = _schema_examples()
    assert sorted(d["kind"] for d in examples) == ["markov", "msdr", "r_out_of_n", "weibull"]
    for example in examples:
        parse_model(doc(example))


@given(mutated_documents())
@settings(max_examples=400, deadline=None)
def test_accepted_documents_build(payload):
    """A document parse_model accepts builds, or fails only with a ValidationError."""
    try:
        parsed = parse_model(doc(payload))
    except SchemaError:
        return
    params = parsed.parameters
    try:
        if parsed.kind == "weibull":
            if "alpha" in params:
                build_weibull_model(parsed)
            if "data" in params:
                build_failure_sample(parsed)
        elif parsed.kind == "r_out_of_n":
            build_r_out_of_n(parsed)
        else:
            chain, start = build_chain(parsed)
            for req in parsed.analyses:
                resolved = req.settings.get("start", start)
                assert type(resolved) is int and 0 <= resolved < chain.n
    except ValidationError:
        pass


class TestParserNeverCrashes:
    @given(st.text(max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_text(self, text):
        try:
            result = parse_model(text)
            assert isinstance(result, ModelDocument)
        except SchemaError as err:
            assert err.diagnostics

    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.floats(allow_nan=False, allow_infinity=False),
                st.integers(min_value=-(2 ** 63), max_value=2 ** 63),
                st.text(max_size=20),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(st.text(max_size=10), children, max_size=4),
            ),
            max_leaves=25,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_json(self, payload):
        try:
            result = parse_model(json.dumps(payload))
            assert isinstance(result, ModelDocument)
        except SchemaError as err:
            assert err.diagnostics


class TestReports:
    def sample_report(self) -> AnalysisReport:
        return AnalysisReport(
            model_echo={"kind": "markov", "parameters": {"lambda": 0.01, "mu": 0.1}},
            results=[
                Result("availability", 0.1 / 0.11, "analytic"),
                Result("mttf", 99.62, "monte_carlo", uncertainty=0.31),
            ],
            series=[Series("availability", [0.0, 1.0, 2.0], [1.0, 0.99, 0.985])],
            seed_used=42,
        )

    def test_json_roundtrip_identity(self):
        report = self.sample_report()
        assert from_json(emit_report(report, "json")) == report

    def test_json_preserves_15_significant_digits(self):
        report = AnalysisReport(model_echo={}, results=[Result("pi", math.pi, "analytic")])
        restored = from_json(emit_report(report, "json"))
        assert restored.results[0].value == math.pi

    def test_json_emission_is_deterministic(self):
        a = emit_report(self.sample_report(), "json")
        b = emit_report(self.sample_report(), "json")
        assert a == b

    def test_csv_result_row_contract(self):
        report = AnalysisReport(
            model_echo={}, results=[Result("availability", 0.1 / 0.11, "analytic")]
        )
        assert "availability,0.909091,analytic," in to_csv(report).splitlines()

    def test_csv_series_sections(self):
        text = to_csv(self.sample_report())
        lines = text.splitlines()
        header = lines.index("t,value")
        assert lines[header - 1] == "# series: availability"
        assert len(lines) - header - 1 == 3  # exactly one row per point

    def test_table_contains_rows(self):
        text = emit_report(self.sample_report(), "table")
        assert "availability" in text
        assert "0.909091" in text
        assert "monte_carlo" in text

    def test_unknown_format_rejected(self):
        from securakit.errors import DomainError

        with pytest.raises(DomainError):
            emit_report(self.sample_report(), "yaml")

    def test_method_labels_enforced(self):
        from securakit.errors import DomainError

        with pytest.raises(DomainError):
            Result("x", 1.0, "guesswork")

    def test_series_length_mismatch_rejected(self):
        from securakit.errors import DomainError

        with pytest.raises(DomainError):
            Series("s", [1.0], [1.0, 2.0])


def test_model_io_reexports_report_surface():
    assert model_io.emit_report is emit_report
    assert model_io.AnalysisReport is AnalysisReport
