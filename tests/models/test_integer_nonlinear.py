"""Tests for the I-BERT-style integer non-linear baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.models.backend import get_backend
from repro.models.integer_nonlinear import i_exp, i_gelu, i_softmax, i_sqrt


class TestIExp:
    def test_moderate_range_accuracy(self, rng):
        """Within a few ln2 of zero, i-exp tracks exp to a few percent."""
        scale = 1 / 128
        x = -rng.random(500) * 3.0
        q = np.round(x / scale).astype(np.int64)
        e, es = i_exp(q, scale)
        ref = np.exp(q * scale)
        assert (np.abs(e * es - ref) / ref).max() < 0.05

    def test_monotone_nonincreasing_in_magnitude(self):
        scale = 1 / 64
        q = np.arange(0, -500, -5, dtype=np.int64)
        e, _ = i_exp(q, scale)
        assert (np.diff(e) <= 0).all()

    def test_coarse_scale_does_not_crash(self):
        e, es = i_exp(np.array([-3, -1, 0], np.int64), 1.0)
        assert np.isfinite(e * es).all()

    def test_scale_validation(self):
        with pytest.raises(ConfigurationError):
            i_exp(np.array([0], np.int64), 0.0)


class TestISoftmax:
    @given(st.integers(0, 500))
    @settings(max_examples=20)
    def test_close_to_float_softmax(self, seed):
        rng = np.random.default_rng(seed)
        scale = 1 / 64
        logits = rng.normal(size=(4, 12)) * 3
        q = np.round(logits / scale).astype(np.int64)
        sm, ss = i_softmax(q, scale)
        x = q * scale
        ref = np.exp(x - x.max(-1, keepdims=True))
        ref /= ref.sum(-1, keepdims=True)
        assert np.abs(sm * ss - ref).max() < 0.02

    def test_rows_sum_near_one(self, rng):
        scale = 1 / 64
        q = np.round(rng.normal(size=(8, 16)) * 2 / scale).astype(np.int64)
        sm, ss = i_softmax(q, scale)
        assert np.allclose((sm * ss).sum(-1), 1.0, atol=0.02)


class TestIGelu:
    def test_accuracy(self, rng):
        from scipy.special import erf

        scale = 1 / 64
        x = rng.normal(size=500) * 3
        q = np.round(x / scale).astype(np.int64)
        g, gs = i_gelu(q, scale)
        xs = q * scale
        ref = xs * 0.5 * (1 + erf(xs / np.sqrt(2)))
        assert np.abs(g * gs - ref).max() < 0.05  # I-BERT-level error

    def test_saturation_tails(self):
        scale = 1 / 64
        q = np.array([-6 * 64, 6 * 64], np.int64)
        g, gs = i_gelu(q, scale)
        assert g[0] * gs == pytest.approx(0.0, abs=0.05)
        assert g[1] * gs == pytest.approx(6.0, rel=0.02)


class TestISqrt:
    @given(st.integers(0, 10**15))
    @settings(max_examples=100)
    def test_exact_floor_sqrt(self, n):
        out = int(i_sqrt(np.array([n], np.int64))[0])
        assert out * out <= n < (out + 1) * (out + 1)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            i_sqrt(np.array([-1], np.int64))


class TestIBERTBackend:
    def test_registered(self):
        assert get_backend("ibert").name == "ibert"

    def test_softmax_close_on_benign_inputs(self, rng):
        from repro.models.layers import softmax

        be = get_backend("ibert")
        x = (rng.normal(size=(4, 8)) * 2).astype(np.float32)
        out = be.nonlinear("softmax", softmax, x)
        assert np.abs(out - softmax(x)).max() < 0.05

    def test_layernorm_path(self, rng):
        from repro.models.layers import LayerNorm

        be = get_backend("ibert")
        ln = LayerNorm(16)
        x = (rng.normal(size=(4, 16)) * 3 + 1).astype(np.float32)
        out = ln.forward(x, be)
        ref = ln.forward(x)
        assert np.abs(out - ref).max() < 0.2

    def test_worse_than_mixed_on_decoder(self):
        """The paper's argument: integer-only non-linear pipelines need
        retraining; the bfp8/fp32 regime does not.  Post-training, I-BERT
        style inference loses badly on the decoder workload."""
        from repro.models.data import additive_lm_sequences
        from repro.models.decoder import TinyLM
        from repro.models.training import next_token_accuracy, train_lm

        data = additive_lm_sequences(n=400, seq_len=10, vocab=6, seed=11)
        lm = TinyLM(vocab=6, seq_len=10, dim=24, depth=2, n_heads=4, seed=12)
        train_lm(lm, data.tokens[:320], epochs=8, seed=13)
        test = data.tokens[320:]
        mixed = next_token_accuracy(lm, test, get_backend("bfp8-mixed"))
        ibert = next_token_accuracy(lm, test, get_backend("ibert"))
        assert ibert < mixed - 0.1
