"""Tests for multi-head self-attention."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models.attention import MultiHeadSelfAttention
from repro.models.layers import softmax


def _naive_mhsa(attn: MultiHeadSelfAttention, x: np.ndarray) -> np.ndarray:
    """Direct NumPy evaluation of the same parameters."""
    b, n, d = x.shape
    h, hd = attn.n_heads, attn.head_dim
    qkv = x @ attn.qkv.params["w"] + attn.qkv.params["b"]
    qkv = qkv.reshape(b, n, 3, h, hd).transpose(2, 0, 3, 1, 4)
    q, k, v = qkv[0], qkv[1], qkv[2]
    scores = (q @ k.transpose(0, 1, 3, 2)) * attn.scale
    probs = softmax(scores)
    ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(b, n, d)
    return ctx @ attn.proj.params["w"] + attn.proj.params["b"]


class TestForward:
    def test_matches_naive(self, rng):
        attn = MultiHeadSelfAttention(16, 4, rng=rng)
        x = rng.normal(size=(2, 6, 16)).astype(np.float32)
        out = attn.forward(x)
        ref = _naive_mhsa(attn, x.astype(np.float64))
        assert np.allclose(out, ref, atol=1e-4)

    def test_output_shape(self, rng):
        attn = MultiHeadSelfAttention(12, 3, rng=rng)
        out = attn.forward(rng.normal(size=(3, 5, 12)).astype(np.float32))
        assert out.shape == (3, 5, 12)

    def test_dim_head_divisibility(self):
        with pytest.raises(ConfigurationError):
            MultiHeadSelfAttention(10, 3)

    def test_permutation_equivariance(self, rng):
        """Without positions, MHSA commutes with token permutation."""
        attn = MultiHeadSelfAttention(8, 2, rng=rng)
        x = rng.normal(size=(1, 5, 8)).astype(np.float32)
        perm = rng.permutation(5)
        out1 = attn.forward(x)[:, perm]
        out2 = attn.forward(x[:, perm])
        assert np.allclose(out1, out2, atol=1e-5)


class TestBackward:
    def test_input_gradient_fd(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng=rng)
        x = rng.normal(size=(1, 4, 8)).astype(np.float32)
        dout = rng.normal(size=(1, 4, 8)).astype(np.float32)
        attn.zero_grad()
        attn.forward(x)
        dx = attn.backward(dout)
        eps = 1e-3
        for idx in [(0, 0, 0), (0, 3, 7), (0, 2, 4)]:
            xp, xm = x.copy(), x.copy()
            xp[idx] += eps
            xm[idx] -= eps
            fp = float((attn.forward(xp).astype(np.float64) * dout).sum())
            fm = float((attn.forward(xm).astype(np.float64) * dout).sum())
            num = (fp - fm) / (2 * eps)
            assert abs(num - dx[idx]) <= 5e-3 * max(1.0, abs(num))

    def test_param_grads_populated(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng=rng)
        attn.zero_grad()
        x = rng.normal(size=(2, 3, 8)).astype(np.float32)
        attn.forward(x)
        attn.backward(np.ones((2, 3, 8), np.float32))
        assert np.abs(attn.qkv.grads["w"]).max() > 0
        assert np.abs(attn.proj.grads["w"]).max() > 0


class TestBackendRouting:
    def test_matmuls_counted(self, rng):
        from repro.models.backend import get_backend

        attn = MultiHeadSelfAttention(8, 2, rng=rng)
        be = get_backend("fp32")
        attn.forward(rng.normal(size=(1, 4, 8)).astype(np.float32), be)
        # qkv + proj + per-head scores and context (2 heads each)
        assert be.matmul_count == 2 + 2 * 2
