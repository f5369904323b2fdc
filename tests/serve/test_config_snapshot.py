"""Serve-config snapshots: exact round trip, and malformed input fails
with ConfigurationError (incident bundles are external input)."""

import copy

import pytest

from repro.errors import ConfigurationError
from repro.serve.dispatcher import (
    ServeConfig,
    serve_config_from_dict,
    serve_config_to_dict,
)


def _snapshot() -> dict:
    return serve_config_to_dict(ServeConfig())


def test_round_trip_is_exact():
    assert serve_config_from_dict(_snapshot()) == ServeConfig()


def _drop(doc, *path):
    for key in path[:-1]:
        doc = doc[key]
    del doc[path[-1]]


def _set(value, *path):
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


@pytest.mark.parametrize("mutate", [
    # missing sections / fields
    lambda d: _drop(d, "policy"),
    lambda d: _drop(d, "max_queue"),
    lambda d: _drop(d, "profile", "vit"),
    lambda d: _drop(d, "clock", "freq_hz"),
    # unknown sections / fields
    _set(1, "bogus"),
    _set(3, "policy", "bogus"),
    _set(1, "profile", "vit", "bogus"),
    # wrong types
    _set("lots", "max_queue"),
    _set(True, "max_sessions_per_unit"),
    _set("8", "policy", "max_batch"),
    _set(None, "mem"),
    _set([], "clock"),
    _set("yes", "compiled"),
    _set(1.5, "profile", "dim"),
    _set("x", "precision"),
], ids=[
    "missing-policy", "missing-max_queue", "missing-profile.vit",
    "missing-clock.freq_hz", "unknown-top", "unknown-policy.bogus",
    "unknown-vit.bogus", "str-max_queue", "bool-max_sessions",
    "str-max_batch", "null-mem", "list-clock", "str-compiled",
    "float-dim", "str-precision",
])
def test_malformed_snapshot_raises_configuration_error(mutate):
    doc = copy.deepcopy(_snapshot())
    mutate(doc)
    with pytest.raises(ConfigurationError):
        serve_config_from_dict(doc)


def test_non_object_snapshot_raises_configuration_error():
    with pytest.raises(ConfigurationError):
        serve_config_from_dict(["not", "a", "dict"])


def test_optional_sections_default():
    doc = _snapshot()
    for key in ("precision", "modes", "compiled"):
        doc.pop(key)
    assert serve_config_from_dict(doc) == ServeConfig()
