"""Shared corpus of malformed model documents for robustness gates."""

# several faults in one document; tests/test_model_io.py pins each one's full diagnostic list
MULTI_FAULT_DOCUMENTS = [
    (
        '{"kind": "markov", "parameters": {"states": [{"label": 1, "operational": "yes", "color": "red"},'
        ' {"label": "down", "operational": false}], "transitions": [{"from": 0, "to": 1, "rate": 1}]}}'
    ),
    (
        '{"kind": "markov", "parameters": {"states": [{"label": "up", "operational": true},'
        ' {"label": "down", "operational": false}], "transitions": [{"rate": -1, "to": 7, "from": "0", "weight": 2}]}}'
    ),
    '{"analyses": "all", "parameters": [], "seed": 1.5, "time_unit": 3, "kind": 7, "extra": null}',
    (
        '{"kind": "msdr", "parameters": {"lambda_ms": "0.01", "mu_ms": 0.1,'
        ' "attack": {"vector": "phishing", "applies_to": "ms", "rate": 0.1}}}'
    ),
    (
        '{"kind": "r_out_of_n", "parameters": {"r": 6, "subsystems": [{"type": "probability", "p": 2, "q": 1},'
        ' {"type": "two_state", "lambda": 0, "mu": "fast"}, {"type": "chain", "states": [{"label": "a",'
        ' "operational": false}], "transitions": [{"from": 0, "to": 0, "rate": 1}], "start": 3},'
        ' {"type": "gizmo"}, "sub"]}}'
    ),
    '{"kind": "weibull", "parameters": {"alpha": -1, "beta": 2, "data": {"times": [1, "2", 0, null], "censored": [true, 1]}}}',
]

MALFORMED_DOCUMENTS = [
    # syntax / structure
    "",
    "not json at all",
    '{"kind": "markov",',
    "[1, 2, 3]",
    '"just a string"',
    "null",
    "42",
    # unknown / missing fields
    '{"parameters": {"lambda": 0.1, "mu": 0.1}}',
    '{"kind": "mystery", "parameters": {}}',
    '{"kind": "markov"}',
    '{"kind": "markov", "parameters": {"lambda": 0.1, "mu": 0.1}, "bogus": 1}',
    '{"kind": "markov", "parameters": {"lambda": 0.1, "mu": 0.1, "extra": 2}}',
    '{"kind": "markov", "parameters": {"lambda": 0.1}}',
    '{"kind": "markov", "parameters": {}}',
    # wrong types
    '{"kind": "markov", "parameters": {"lambda": "fast", "mu": 0.1}}',
    '{"kind": "markov", "parameters": {"lambda": true, "mu": 0.1}}',
    '{"kind": "markov", "parameters": {"lambda": 0.1, "mu": 0.1}, "seed": "forty-two"}',
    '{"kind": "markov", "parameters": {"lambda": 0.1, "mu": 0.1}, "seed": -1}',
    '{"kind": "markov", "parameters": {"lambda": 0.1, "mu": 0.1}, "analyses": {"op": "solve"}}',
    '{"kind": "markov", "parameters": {"lambda": 0.1, "mu": 0.1}, "analyses": [5]}',
    # semantic violations
    '{"kind": "markov", "parameters": {"lambda": -0.1, "mu": 0.1}}',
    '{"kind": "markov", "parameters": {"lambda": 0.0, "mu": 0.1}}',
    '{"kind": "msdr", "parameters": {"lambda_ms": 0.01, "lambda_dr": 0.01, "mu_ms": 0.1}}',
    '{"kind": "msdr", "parameters": {"lambda_ms": -1, "lambda_dr": 0.01, "mu_ms": 0.1, "mu_dr": 0.1}}',
    (
        '{"kind": "msdr", "parameters": {"lambda_ms": 0.01, "lambda_dr": 0.01, "mu_ms": 0.1,'
        ' "mu_dr": 0.1, "attack": {"rate": -5, "applies_to": "ms"}}}'
    ),
    (
        '{"kind": "msdr", "parameters": {"lambda_ms": 0.01, "lambda_dr": 0.01, "mu_ms": 0.1,'
        ' "mu_dr": 0.1, "attack": {"rate": 0.1, "applies_to": "everything"}}}'
    ),
    '{"kind": "weibull", "parameters": {}}',
    '{"kind": "weibull", "parameters": {"alpha": 0, "beta": 1}}',
    '{"kind": "weibull", "parameters": {"alpha": 1, "beta": -2}}',
    '{"kind": "weibull", "parameters": {"data": {"times": []}}}',
    '{"kind": "weibull", "parameters": {"data": {"times": [1, -2]}}}',
    '{"kind": "weibull", "parameters": {"data": {"times": [1, 2], "censored": [true]}}}',
    '{"kind": "weibull", "parameters": {"data": {"times": [1, 2], "censored": [true, true]}}}',
    '{"kind": "r_out_of_n", "parameters": {"r": 0, "subsystems": [{"type": "probability", "p": 0.5}]}}',
    '{"kind": "r_out_of_n", "parameters": {"r": 2, "subsystems": [{"type": "probability", "p": 0.5}]}}',
    '{"kind": "r_out_of_n", "parameters": {"r": 1, "subsystems": [{"type": "probability", "p": 1.5}]}}',
    '{"kind": "r_out_of_n", "parameters": {"r": 1, "subsystems": [{"type": "widget"}]}}',
    '{"kind": "r_out_of_n", "parameters": {"r": 1, "subsystems": []}}',
    (
        '{"kind": "markov", "parameters": {"states": [{"label": "up", "operational": true}],'
        ' "transitions": [{"from": 0, "to": 5, "rate": 0.1}]}}'
    ),
    (
        '{"kind": "markov", "parameters": {"states": [{"label": "a", "operational": false},'
        ' {"label": "b", "operational": false}], "transitions": [{"from": 0, "to": 1, "rate": 1}]}}'
    ),
    (
        '{"kind": "markov", "parameters": {"states": [{"label": "a", "operational": true},'
        ' {"label": "b", "operational": false}], "transitions": [{"from": 0, "to": 0, "rate": 1}]}}'
    ),
    '{"kind": "markov", "parameters": {"lambda": 0.1, "mu": 0.1}, "analyses": [{"op": "reliability"}]}',
    (
        '{"kind": "markov", "parameters": {"lambda": 0.1, "mu": 0.1},'
        ' "analyses": [{"op": "reliability", "n_trials": 0, "horizon": 1}]}'
    ),
    (
        '{"kind": "markov", "parameters": {"lambda": 0.1, "mu": 0.1},'
        ' "analyses": [{"op": "transient", "t": -1}]}'
    ),
    (
        '{"kind": "markov", "parameters": {"lambda": 0.1, "mu": 0.1},'
        ' "analyses": [{"op": "metrics", "start": 9}]}'
    ),
    (
        '{"kind": "r_out_of_n", "parameters": {"r": 1, "subsystems": [{"type": "probability", "p": 0.5}]},'
        ' "analyses": [{"op": "threshold_reliability", "n_trials": 100, "horizon": 1, "threshold": 0}]}'
    ),
    # a present key is validated, null included: each of these once passed and then crashed a command
    '{"kind": "markov", "parameters": {"lambda": 0.1, "mu": 0.1, "start": "x"}}',
    '{"kind": "markov", "parameters": {"lambda": 0.1, "mu": 0.1, "start": null}}',
    (
        '{"kind": "markov", "parameters": {"states": [{"label": "up", "operational": true},'
        ' {"label": "down", "operational": false}], "transitions": [{"from": 0, "to": 1, "rate": 1}],'
        ' "start": null}}'
    ),
    (
        '{"kind": "r_out_of_n", "parameters": {"r": 1, "subsystems": [{"type": "chain",'
        ' "states": [{"label": "a", "operational": true}, {"label": "b", "operational": false}],'
        ' "transitions": [{"from": 0, "to": 1, "rate": 1}], "start": null}]}}'
    ),
    '{"kind": "weibull", "parameters": {"data": {"times": [1, 2], "censored": null}}}',
    '{"kind": "weibull", "parameters": {"alpha": 1, "beta": 2, "data": null}, "analyses": [{"op": "fit"}]}',
    (
        '{"kind": "markov", "parameters": {"lambda": 0.1, "mu": 0.1},'
        ' "analyses": [{"op": "mttf", "n_trials": 10, "horizon": 5}]}'
    ),
    # a t/dt series past the point limit once passed and then crashed markov transient
    (
        '{"kind": "markov", "parameters": {"lambda": 0.1, "mu": 0.1},'
        ' "analyses": [{"op": "transient", "t": 1e300, "dt": 1e-300}]}'
    ),
    # a rejected states array once still gave a state count of 0, and a bogus range diagnostic
    (
        '{"kind": "markov", "parameters": {"states": [], "transitions": [{"from": 0, "to": 1, "rate": 0.1}]},'
        ' "analyses": [{"op": "metrics", "failed": 2}]}'
    ),
    *MULTI_FAULT_DOCUMENTS,
    # a fit entry with a law but no data; tests read the entries after this one by negative index
    '{"kind": "weibull", "parameters": {"alpha": 1, "beta": 2}, "analyses": [{"op": "fit"}]}',
    # a number past the largest double once crashed validate; a longer integer literal crashed json.loads
    '{"kind": "weibull", "parameters": {"alpha": 1' + "0" * 399 + ', "beta": 2}}',
    '{"kind": "weibull", "parameters": {"alpha": 1' + "0" * 5000 + ', "beta": 2}}',
    # nesting past the interpreter's recursion limit crashed json.loads
    "[" * 100_000 + "]" * 100_000,
]
