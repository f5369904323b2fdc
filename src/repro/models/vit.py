"""Transformer encoders: the ViT/DeiT vision model and a sequence classifier.

:class:`VisionTransformer` mirrors the DeiT architecture (patch embedding,
class token, learned positional embedding, pre-norm encoder blocks, linear
head) and is the workload of Table IV.  :class:`SequenceClassifier` is a
compact text-style Transformer used for the trainable accuracy experiments
(the paper's accuracy claim is about arithmetic, not about ImageNet
specifics — see DESIGN.md substitutions).

Every :class:`~repro.models.layers.Linear` routes its weight through
``backend.prepare_weight`` — under the quantizing backends the weight is
block-/int-quantized once into the shared prepared-operand cache
(:mod:`repro.perf.prepared`) and reused across forwards, matching the
Y-stationary weight residency of the modeled hardware.  Call
:meth:`Module.prepare` to warm the cache explicitly before timing.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.models.attention import MultiHeadSelfAttention
from repro.models.backend import ComputeBackend, get_backend
from repro.models.layers import GELU, Embedding, LayerNorm, Linear, Module

__all__ = ["MLP", "TransformerBlock", "PatchEmbed", "VisionTransformer",
           "SequenceClassifier"]


class MLP(Module):
    """The Transformer feed-forward block: Linear -> GELU -> Linear."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.fc1 = Linear(dim, hidden, rng=rng)
        self.act = GELU()
        self.fc2 = Linear(hidden, dim, rng=rng)

    def forward(self, x: np.ndarray, backend: ComputeBackend | None = None) -> np.ndarray:
        return self.fc2.forward(
            self.act.forward(self.fc1.forward(x, backend), backend), backend
        )

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return self.fc1.backward(self.act.backward(self.fc2.backward(dout)))


class TransformerBlock(Module):
    """Pre-norm encoder block: x + MHSA(LN(x)); x + MLP(LN(x))."""

    def __init__(
        self,
        dim: int,
        n_heads: int,
        mlp_ratio: float = 4.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, n_heads, rng=rng)
        self.ln2 = LayerNorm(dim)
        self.mlp = MLP(dim, int(dim * mlp_ratio), rng=rng)

    def prepare(self, backend: ComputeBackend) -> None:
        # Warm under the same scope names forward() pushes, so prepare-time
        # weight quantization resolves the same per-layer policy format.
        with backend.scope("attn"):
            self.attn.prepare(backend)
        with backend.scope("mlp"):
            self.mlp.prepare(backend)

    def forward(self, x: np.ndarray, backend: ComputeBackend | None = None) -> np.ndarray:
        backend = backend or get_backend("fp32")
        # The residual stream lives in the regime's storage format: a real
        # integer pipeline keeps these tensors quantized too.
        with backend.scope("attn"):
            x = backend.requantize(
                x + self.attn.forward(self.ln1.forward(x, backend), backend)
            )
        with backend.scope("mlp"):
            x = backend.requantize(
                x + self.mlp.forward(self.ln2.forward(x, backend), backend)
            )
        return x.astype(np.float32)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        d = dout + self.ln2.backward(self.mlp.backward(dout))
        d = d + self.ln1.backward(self.attn.backward(d))
        return d.astype(np.float32)


class PatchEmbed(Module):
    """Non-overlapping patch embedding (a conv expressed as a matmul)."""

    def __init__(
        self,
        image_size: int = 224,
        patch_size: int = 16,
        in_chans: int = 3,
        dim: int = 384,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if image_size % patch_size:
            raise ConfigurationError("image size must be divisible by patch size")
        self.image_size, self.patch_size = image_size, patch_size
        self.in_chans, self.dim = in_chans, dim
        self.n_patches = (image_size // patch_size) ** 2
        self.proj = Linear(patch_size * patch_size * in_chans, dim, rng=rng)

    def forward(self, images: np.ndarray, backend: ComputeBackend | None = None) -> np.ndarray:
        b, c, h, w = images.shape
        p = self.patch_size
        if (c, h, w) != (self.in_chans, self.image_size, self.image_size):
            raise ConfigurationError(f"unexpected image shape {images.shape}")
        x = images.reshape(b, c, h // p, p, w // p, p)
        x = x.transpose(0, 2, 4, 1, 3, 5).reshape(b, self.n_patches, c * p * p)
        return self.proj.forward(x.astype(np.float32), backend)


class VisionTransformer(Module):
    """DeiT-style ViT encoder with class token and linear head."""

    def __init__(
        self,
        *,
        image_size: int = 224,
        patch_size: int = 16,
        in_chans: int = 3,
        dim: int = 384,
        depth: int = 12,
        n_heads: int = 6,
        mlp_ratio: float = 4.0,
        n_classes: int = 1000,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.patch_embed = PatchEmbed(image_size, patch_size, in_chans, dim, rng=rng)
        self.dim, self.depth, self.n_heads = dim, depth, n_heads
        self.n_tokens = self.patch_embed.n_patches + 1
        self.params["cls_token"] = rng.normal(0, 0.02, (1, 1, dim)).astype(np.float32)
        self.params["pos_embed"] = rng.normal(
            0, 0.02, (1, self.n_tokens, dim)
        ).astype(np.float32)
        self.blocks = [
            TransformerBlock(dim, n_heads, mlp_ratio, rng=rng) for _ in range(depth)
        ]
        self.norm = LayerNorm(dim)
        self.head = Linear(dim, n_classes, rng=rng)

    def prepare(self, backend: ComputeBackend) -> None:
        with backend.scope("patch_embed"):
            self.patch_embed.prepare(backend)
        for i, blk in enumerate(self.blocks):
            with backend.scope(f"block{i}"):
                blk.prepare(backend)
        with backend.scope("head"):
            self.head.prepare(backend)

    def forward(self, images: np.ndarray, backend: ComputeBackend | None = None) -> np.ndarray:
        backend = backend or get_backend("fp32")
        with backend.scope("patch_embed"):
            x = self.patch_embed.forward(images, backend)
        b = x.shape[0]
        cls = np.broadcast_to(self.params["cls_token"], (b, 1, self.dim))
        x = np.concatenate([cls, x], axis=1) + self.params["pos_embed"]
        x = x.astype(np.float32)
        for i, blk in enumerate(self.blocks):
            with backend.scope(f"block{i}"):
                x = blk.forward(x, backend)
        with backend.scope("final_norm"):
            x = self.norm.forward(x, backend)
        with backend.scope("head"):
            return self.head.forward(x[:, 0], backend)


class SequenceClassifier(Module):
    """Small trainable Transformer for token-sequence classification.

    Mean-pooled encoder output into a linear head.  Supports full backward
    for the synthetic-task accuracy experiments.
    """

    def __init__(
        self,
        *,
        vocab: int = 32,
        seq_len: int = 16,
        dim: int = 32,
        depth: int = 2,
        n_heads: int = 4,
        mlp_ratio: float = 4.0,
        n_classes: int = 2,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.seq_len, self.dim = seq_len, dim
        self.embed = Embedding(vocab, dim, rng=rng)
        self.params["pos_embed"] = rng.normal(0, 0.02, (1, seq_len, dim)).astype(
            np.float32
        )
        self.blocks = [
            TransformerBlock(dim, n_heads, mlp_ratio, rng=rng) for _ in range(depth)
        ]
        self.norm = LayerNorm(dim)
        self.head = Linear(dim, n_classes, rng=rng)
        self._n: int | None = None

    def forward(self, tokens: np.ndarray, backend: ComputeBackend | None = None) -> np.ndarray:
        backend = backend or get_backend("fp32")
        if tokens.shape[-1] != self.seq_len:
            raise ConfigurationError(
                f"expected sequences of length {self.seq_len}, got {tokens.shape}"
            )
        x = self.embed.forward(tokens) + self.params["pos_embed"]
        x = x.astype(np.float32)
        for i, blk in enumerate(self.blocks):
            with backend.scope(f"block{i}"):
                x = blk.forward(x, backend)
        with backend.scope("final_norm"):
            x = self.norm.forward(x, backend)
        self._n = x.shape[1]
        pooled = x.mean(axis=1)
        with backend.scope("head"):
            return self.head.forward(pooled, backend)

    def backward(self, dlogits: np.ndarray) -> None:
        assert self._n is not None
        dpooled = self.head.backward(dlogits)
        d = np.repeat(dpooled[:, None, :], self._n, axis=1) / self._n
        d = self.norm.backward(d.astype(np.float32))
        for blk in reversed(self.blocks):
            d = blk.backward(d)
        self.grads["pos_embed"] = self.grads.get("pos_embed", 0) + d.sum(
            0, keepdims=True
        ).astype(np.float32)
        self.embed.backward(d)
