"""Shared corpus of malformed model documents for robustness gates."""

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
]
