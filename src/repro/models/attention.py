"""Multi-head self-attention with explicit backward (NumPy)."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.models.backend import ComputeBackend, get_backend
from repro.models.layers import Linear, Module, Softmax

__all__ = ["MultiHeadSelfAttention"]


class MultiHeadSelfAttention(Module):
    """Standard MHSA: fused QKV projection, scaled dot-product, output proj.

    The four matmuls (QKV, Q@K^T, P@V, output projection) go through the
    compute backend — on the modeled hardware these are the bfp8 workloads;
    the softmax goes through the backend's non-linear hook (fp32 workload).
    """

    def __init__(
        self,
        dim: int,
        n_heads: int,
        rng: np.random.Generator | None = None,
        *,
        causal: bool = False,
    ) -> None:
        super().__init__()
        if dim % n_heads:
            raise ConfigurationError(f"dim {dim} not divisible by heads {n_heads}")
        self.dim, self.n_heads = dim, n_heads
        self.head_dim = dim // n_heads
        self.scale = 1.0 / np.sqrt(self.head_dim)
        self.causal = causal
        rng = rng or np.random.default_rng(0)
        self.qkv = Linear(dim, 3 * dim, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)
        self.attn_softmax = Softmax()
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, backend: ComputeBackend | None = None) -> np.ndarray:
        backend = backend or get_backend("fp32")
        b, n, d = x.shape
        h, hd = self.n_heads, self.head_dim
        qkv = self.qkv.forward(x, backend)  # (b, n, 3d)
        qkv = qkv.reshape(b, n, 3, h, hd).transpose(2, 0, 3, 1, 4)  # (3, b, h, n, hd)
        q, k, v = qkv[0], qkv[1], qkv[2]

        # scores: per-head matmuls through the backend
        scores = self._bmm(backend, q, k.transpose(0, 1, 3, 2)) * self.scale
        if self.causal:
            # Future positions are masked before softmax; the mask itself is
            # control logic, not arithmetic (free on the host side).
            mask = np.triu(np.ones((n, n), dtype=bool), k=1)
            scores = np.where(mask, np.float32(-1e9), scores).astype(np.float32)
        probs = self.attn_softmax.forward(scores, backend)
        ctx = self._bmm(backend, probs, v)  # (b, h, n, hd)
        ctx = ctx.transpose(0, 2, 1, 3).reshape(b, n, d)
        out = self.proj.forward(ctx, backend)
        self._cache = (q, k, v, probs)
        return out

    @staticmethod
    def _bmm(backend: ComputeBackend, a: np.ndarray, b_: np.ndarray) -> np.ndarray:
        """Batched matmul routed through the backend as ONE kernel call.

        Both operands are activation/KV-derived, so they bypass the
        prepared-operand cache; the batched entry point replaces the old
        per-head Python loop with a single fused emulation kernel.
        """
        lead = a.shape[:-2]
        a2 = a.reshape(-1, *a.shape[-2:])
        b2 = b_.reshape(-1, *b_.shape[-2:])
        out = backend.matmul_batched(a2, b2)
        return out.reshape(*lead, *out.shape[-2:])

    def forward_step(
        self,
        x: np.ndarray,
        kv_cache: dict,
        backend: ComputeBackend | None = None,
    ) -> np.ndarray:
        """Incremental decode: one new token attends over the KV cache.

        ``x`` has shape ``(b, 1, dim)``; ``kv_cache`` holds ``"k"``/``"v"``
        arrays of shape ``(b, h, t, hd)`` (empty arrays for ``t = 0``) and
        is updated in place.  Only causal attention supports stepping.
        """
        if not self.causal:
            raise ConfigurationError("forward_step requires causal attention")
        backend = backend or get_backend("fp32")
        b, n, d = x.shape
        if n != 1:
            raise ConfigurationError("forward_step consumes exactly one token")
        h, hd = self.n_heads, self.head_dim
        qkv = self.qkv.forward(x, backend)
        qkv = qkv.reshape(b, 1, 3, h, hd).transpose(2, 0, 3, 1, 4)
        q, k_new, v_new = qkv[0], qkv[1], qkv[2]  # (b, h, 1, hd)
        arena = kv_cache.get("arena")
        if arena is not None:
            # Preallocated KV arena: one in-place write, zero-copy views
            # (no per-token re-stack — see repro.runtime.plan.KvArena).
            arena.append(k_new, v_new)
            k, v = arena.views()
            kv_cache["k"], kv_cache["v"] = k, v
        elif kv_cache["k"].size == 0:
            kv_cache["k"], kv_cache["v"] = k_new, v_new
            k, v = k_new, v_new
        else:
            kv_cache["k"] = np.concatenate([kv_cache["k"], k_new], axis=2)
            kv_cache["v"] = np.concatenate([kv_cache["v"], v_new], axis=2)
            k, v = kv_cache["k"], kv_cache["v"]
        scores = self._bmm(backend, q, k.transpose(0, 1, 3, 2)) * self.scale
        probs = self.attn_softmax.forward(scores.astype(np.float32), backend)
        ctx = self._bmm(backend, probs, v).transpose(0, 2, 1, 3).reshape(b, 1, d)
        return self.proj.forward(ctx.astype(np.float32), backend)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "forward() must run before backward()"
        q, k, v, probs = self._cache
        b, h, n, hd = q.shape
        d = self.dim
        dctx = self.proj.backward(dout)  # (b, n, d)
        dctx = dctx.reshape(b, n, h, hd).transpose(0, 2, 1, 3)  # (b, h, n, hd)

        p64 = probs.astype(np.float64)
        dprobs = dctx.astype(np.float64) @ v.astype(np.float64).transpose(0, 1, 3, 2)
        dv = p64.transpose(0, 1, 3, 2) @ dctx.astype(np.float64)
        self.attn_softmax._y = probs
        dscores = self.attn_softmax.backward(dprobs.astype(np.float32)).astype(np.float64)
        dscores *= self.scale
        dq = dscores @ k.astype(np.float64)
        dk = dscores.transpose(0, 1, 3, 2) @ q.astype(np.float64)

        dqkv = np.stack([dq, dk, dv])  # (3, b, h, n, hd)
        dqkv = dqkv.transpose(1, 3, 0, 2, 4).reshape(b, n, 3 * d).astype(np.float32)
        return self.qkv.backward(dqkv)
