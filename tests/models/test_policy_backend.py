"""PolicyBackend pins: every named regime is a policy, bit-identically.

The registry/policy refactor replaced the class-per-format backend zoo
with :class:`~repro.models.backend.PolicyBackend`, and the legacy alias
classes were later retired onto ``get_backend(name)`` =
``PolicyBackend(get_policy(name))``.  These tests pin, by the SHA-256 of
the TinyLM logits and a greedy decode:

* every paper regime (:data:`~repro.models.policy.REGIMES`) against the
  value recorded on the pre-registry tree, and
* the parametric bitwidth families (``bfp4-mixed``, ``int6-all``, ...)
  against the values the retired ``man_bits=``/``bits=`` constructors
  produced.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.models.backend import PolicyBackend, get_backend
from repro.models.decoder import TinyLM
from repro.models.policy import REGIMES

# Recorded on the pre-refactor tree: TinyLM(seed=0), tokens from
# default_rng(0) with shape (2, seq_len), forward logits hashed raw.
PRE_REFACTOR_LOGITS_SHA256 = {
    "bfp8-all":
        "500d3d2abd606a2912631fa7fafb8f06aa7ac1494164d125b9507984fef0e9d1",
    "bfp8-mixed":
        "249e62cd17ef485d8011754192d1b08962ac2d862804ce393ccd0f97c14c261e",
    "fp32":
        "0aa7981b545ad8609429429a0d9ffd25aadc2762bf91b261bdd504acce7e02f5",
    "ibert":
        "f5475241300e47bde7a83bc86791804f26cc709201b23df13b913025d9ee5b65",
    "int8-all":
        "6dce73506fad90e2435675bc0e3ddfc809b893b7242dc9e7efbeea058d9bc31a",
    "int8-linear":
        "fb07e81e89814ef8053055a409ef8cdd6d15e76f5d56ed800ba225327300df0c",
}

# Greedy decode from tokens[0, :4] for 6 steps (prompt + generated).
PRE_REFACTOR_GENERATION = {
    name: [13, 10, 8, 4, 2, 4, 6, 3, 3, 3]
    for name in PRE_REFACTOR_LOGITS_SHA256
}
PRE_REFACTOR_GENERATION["ibert"] = [13, 10, 8, 4, 2, 4, 3, 10, 10, 10]

# Recorded with the retired constructors BFP8MixedBackend(man_bits=4),
# BFP8AllBackend(man_bits=6), INT8LinearBackend(bits=4) and
# INT8AllBackend(bits=6), same fixture: (logits SHA-256, greedy decode).
PARAMETRIC_PINS = {
    "bfp4-mixed": (
        "4a5a1c53437310aab124efa951b27968bf0facf6a092d76b237f3d386ff266c7",
        [13, 10, 8, 4, 2, 4, 6, 3, 10, 3],
    ),
    "bfp6-all": (
        "385def9e9dd7ad940e4ae771020c8e85970bd8daeca918d49270b0bb39be6d1b",
        [13, 10, 8, 4, 2, 4, 6, 3, 3, 3],
    ),
    "int4-linear": (
        "2a86d871ae0ece00eda22fa38b436cc639918908fbf77bc617f2e35333c68a30",
        [13, 10, 8, 4, 0, 12, 3, 2, 3, 3],
    ),
    "int6-all": (
        "f00f671a2a306303f2ea6db9db4a2c4a340f525c1f4c37535c09798311371491",
        [13, 10, 8, 4, 2, 4, 3, 6, 3, 3],
    ),
}


def _fixture():
    model = TinyLM(seed=0)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, model.vocab, size=(2, model.seq_len))
    return model, tokens


def _sha256(logits: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(logits).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PRE_REFACTOR_LOGITS_SHA256))
def test_legacy_backend_bit_identical_to_pre_refactor(name):
    model, tokens = _fixture()
    logits = model.forward(tokens, get_backend(name))
    assert _sha256(logits) == PRE_REFACTOR_LOGITS_SHA256[name]
    gen = model.generate_cached(tokens[0, :4], 6, get_backend(name))
    assert list(gen) == PRE_REFACTOR_GENERATION[name]


@pytest.mark.parametrize("name", sorted(PARAMETRIC_PINS))
def test_parametric_family_bit_identical_to_retired_constructors(name):
    sha, generation = PARAMETRIC_PINS[name]
    model, tokens = _fixture()
    backend = get_backend(name)
    assert backend.name == name
    assert _sha256(model.forward(tokens, backend)) == sha
    gen = model.generate_cached(tokens[0, :4], 6, get_backend(name))
    assert list(gen) == generation


def test_backends_registry_unchanged():
    # The paper's regime set is a public contract (results tables, CLI);
    # new policies belong in POLICY_PRESETS, not REGIMES.
    assert REGIMES == (
        "fp32", "bfp8-mixed", "bfp8-all", "int8-linear", "int8-all", "ibert",
    )
    assert sorted(REGIMES) == sorted(PRE_REFACTOR_LOGITS_SHA256)


def test_policy_backend_strict_policy_raises_on_unmatched_layer():
    from repro.errors import ConfigurationError
    from repro.models.policy import PolicyRule, PrecisionPolicy

    policy = PrecisionPolicy(
        rules=(PolicyRule("head", "linear", "bfp8"),), default=None
    )
    model, tokens = _fixture()
    with pytest.raises(ConfigurationError, match="no rule"):
        model.forward(tokens, PolicyBackend(policy))


def test_strict_per_layer_policy_builds_and_matches_bfp8_mixed():
    """A ``default=None`` policy enumerating every TinyLM scope constructs
    a backend (nothing resolves the root layer ``""``) and decodes
    bit-identically to the ``bfp8-mixed`` preset it spells out."""
    from repro.models.policy import PolicyRule, PrecisionPolicy

    rules = []
    for layer in ("block*", "final_norm", "head"):
        rules += [
            PolicyRule(layer, "linear", "bfp8"),
            PolicyRule(layer, "attention", "bfp8"),
            PolicyRule(layer, "nonlinear", "fp32"),
            PolicyRule(layer, "residual", "fp32"),
        ]
    strict = PrecisionPolicy(name="strict", rules=tuple(rules), default=None)
    model, tokens = _fixture()
    np.testing.assert_array_equal(
        model.forward(tokens, PolicyBackend(strict)),
        model.forward(tokens, get_backend("bfp8-mixed")),
    )
    gen = model.generate_cached(tokens[0, :4], 6, PolicyBackend(strict))
    assert list(gen) == PRE_REFACTOR_GENERATION["bfp8-mixed"]
