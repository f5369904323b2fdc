"""Compiled decode plans: trace once, replay many (configure-once decode).

The paper's fixed-function bfp array wins because every expensive decision
— number format, operand residency, alignment policy — is made at
*configuration* time, not per MAC.  The emulated decode path used to
re-make those decisions in Python on every token: per-layer scope pushes,
policy/format resolution, prepared-cache fingerprint revalidation, monitor
taps and KV re-stacking.  This module hoists all of it out of the loop:

* :class:`DecodePlan` traces one ``TinyLM.forward_step_batch`` per
  (backend, batch-group shape) into a flat sequence of fused ops with the
  prepared-weight handles, resolved formats and fused gate+up projection
  bound up front; :meth:`DecodePlan.replay` executes it with no per-layer
  Python dispatch and **bit-identical** logits versus the eager path.
* :class:`KvArena` keeps a batch group's K/V in one preallocated buffer
  with capacity-doubling in-place appends — no per-token
  ``np.concatenate`` re-stack/copy.
* Numerics-monitor taps become *sampled*: 1-in-N replay steps (default
  ``DEFAULT_TAP_SAMPLE``) re-run the full eager path with every tap live,
  recorded in a small ring buffer, so quantization health survives
  compilation without the per-step overhead.

Weight-mutation contract: a plan holds prepared-weight handles and skips
the per-call fingerprint revalidation (that is the point).  After mutating
model weights in place, call ``repro.perf.prepared.get_cache().clear()`` —
it bumps the cache generation, which invalidates every cached plan.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from repro.arith.bfp_matmul import (
    PSU_WIDTH,
    activation_blocks,
    bfp_batched_tiles,
)
from repro.errors import ConfigurationError, HardwareContractError
from repro.formats.bfp8 import BLOCK_COLS
from repro.formats.registry import BfpFormat
from repro.models.attention import MultiHeadSelfAttention
from repro.models.backend import PolicyBackend
from repro.models.decoder import DecoderBlock, RMSNorm, SwiGLUMLP, TinyLM
from repro.models.layers import Embedding, Linear, Softmax
from repro.obs.numerics import NULL_MONITOR, get_monitor, set_monitor
from repro.perf.prepared import get_cache

__all__ = [
    "KvArena",
    "bind_group_cache",
    "DecodePlan",
    "PlanUnsupported",
    "fast_emulate_blocks",
    "compiled_active",
    "set_compiled_default",
    "set_tap_sampling",
    "resolve_plan",
    "plan_stats",
    "DEFAULT_TAP_SAMPLE",
]

#: replay steps between full-tap eager samples when the monitor is enabled
DEFAULT_TAP_SAMPLE = 32
_TAP_SAMPLE = DEFAULT_TAP_SAMPLE

_COMPILED_DEFAULT = True

_PLAN_CACHE_ATTR = "_decode_plans"
_PLAN_CACHE_MAX = 8


class PlanUnsupported(Exception):
    """The model/backend pair cannot be traced; callers fall back to eager."""


# ---------------------------------------------------------------------------
# KV arenas: preallocated per-group K/V with in-place appends
# ---------------------------------------------------------------------------


class KvArena:
    """A batch group's K/V cache in one preallocated, growable buffer.

    Layout is ``(rows, n_heads, capacity, head_dim)`` float32 — the same
    axes the attention step consumes, so :meth:`views` is a zero-copy
    slice.  Appends write in place; capacity doubles (capped at
    ``max_capacity``, the context window) so a decode of T tokens does
    O(log T) copies instead of T re-stacks.  ``grow_*``/``stack_*``
    counters make the no-copy property testable.
    """

    __slots__ = (
        "n_heads", "head_dim", "length", "capacity", "max_capacity",
        "_k", "_v", "grow_events", "grow_copied", "stack_events",
        "stack_copied",
    )

    def __init__(
        self,
        rows: int,
        n_heads: int,
        head_dim: int,
        *,
        capacity: int = 0,
        max_capacity: int | None = None,
    ) -> None:
        self.n_heads = int(n_heads)
        self.head_dim = int(head_dim)
        self.max_capacity = max_capacity
        self.length = 0
        self.capacity = int(capacity)
        shape = (int(rows), self.n_heads, self.capacity, self.head_dim)
        self._k = np.zeros(shape, dtype=np.float32)
        self._v = np.zeros(shape, dtype=np.float32)
        self.grow_events = 0
        self.grow_copied = 0
        self.stack_events = 0
        self.stack_copied = 0

    @property
    def rows(self) -> int:
        return self._k.shape[0]

    def _grow(self, needed: int) -> None:
        new_cap = max(4, self.capacity * 2, needed)
        if self.max_capacity is not None:
            new_cap = max(min(new_cap, self.max_capacity), needed)
        shape = (self.rows, self.n_heads, new_cap, self.head_dim)
        k = np.zeros(shape, dtype=np.float32)
        v = np.zeros(shape, dtype=np.float32)
        if self.length:
            k[:, :, : self.length] = self._k[:, :, : self.length]
            v[:, :, : self.length] = self._v[:, :, : self.length]
            self.grow_copied += 2 * self._k[:, :, : self.length].size
        self._k, self._v = k, v
        self.capacity = new_cap
        self.grow_events += 1

    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Write one new position in place: operands are ``(rows, h, 1, hd)``."""
        if self.length + 1 > self.capacity:
            self._grow(self.length + 1)
        self._k[:, :, self.length] = k_new[:, :, 0]
        self._v[:, :, self.length] = v_new[:, :, 0]
        self.length += 1

    def views(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(rows, h, t, hd)`` K/V views of the filled prefix."""
        return self._k[:, :, : self.length], self._v[:, :, : self.length]

    def row_kv(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """One session's ``(1, h, t, hd)`` K/V views."""
        return (
            self._k[row : row + 1, :, : self.length],
            self._v[row : row + 1, :, : self.length],
        )

    def load_row(self, row: int, k: np.ndarray, v: np.ndarray, length: int) -> None:
        """Copy one session's K/V into a row (arena-formation path)."""
        if length:
            self._k[row, :, :length] = k[0, :, :length]
            self._v[row, :, :length] = v[0, :, :length]
            self.stack_copied += 2 * length * self.n_heads * self.head_dim
        self.length = length


def _entry_length(entry: dict) -> int:
    arena = entry.get("arena")
    if arena is not None:
        return arena.length
    k = entry["k"]
    return 0 if k.size == 0 else k.shape[2]


def bind_group_cache(
    entries: list[dict],
    n_heads: int,
    head_dim: int,
    *,
    max_capacity: int | None = None,
) -> KvArena:
    """Bind a batch group's per-session cache entries to one shared arena.

    Fast path: when the group is exactly the rows of one arena, in order,
    the arena is reused zero-copy (the steady state of a stable batch).
    Otherwise the sessions' K/V are stacked once into a fresh arena — the
    one-time cost the per-step ``np.concatenate`` used to pay every token
    — and each entry is re-bound to its row.  Legacy plain-dict caches
    (no ``"arena"`` key) are adopted the same way.
    """
    first = entries[0].get("arena")
    if (
        first is not None
        and first.rows == len(entries)
        and all(
            e.get("arena") is first and e.get("row") == i
            for i, e in enumerate(entries)
        )
    ):
        return first
    lengths = [_entry_length(e) for e in entries]
    if any(t != lengths[0] for t in lengths):
        raise ConfigurationError(
            "sessions at one position must have equal KV length"
        )
    length = lengths[0]
    arena = KvArena(
        len(entries), n_heads, head_dim,
        capacity=max(4, length + 1), max_capacity=max_capacity,
    )
    arena.stack_events = 1
    for i, entry in enumerate(entries):
        src = entry.get("arena")
        if src is not None:
            k, v = src.row_kv(entry["row"])
        else:
            k, v = entry["k"], entry["v"]
        arena.load_row(i, k, v, length)
        entry["arena"] = arena
        entry["row"] = i
        entry["k"], entry["v"] = arena.row_kv(i)
    return arena


# ---------------------------------------------------------------------------
# Fast bfp replay kernel (bit-identical to _emulate_blocks, f64 throughout)
# ---------------------------------------------------------------------------


def _fast_ok(man_bits: int, kb: int) -> bool:
    """Whether f64 arithmetic is exact for this mantissa width / K depth.

    Every intermediate is an integer bounded by ``kb * 2^(2*man_bits+1)``
    (products of two ``man_bits`` mantissas summed over 8-wide blocks,
    scaled partials only shrink); exactness needs that below 2^53.
    """
    return 2 * man_bits + 1 + max(kb, 1).bit_length() <= 52


def fast_emulate_blocks(
    a_man: np.ndarray,
    a_exp: np.ndarray,
    b_flat: np.ndarray,
    b_exp: np.ndarray,
) -> np.ndarray:
    """Float64 twin of ``_emulate_blocks(..., exact_accumulate=False)``.

    Same operands, same result to the bit, different machine: mantissa
    products run as one batched float64 BLAS matmul (exact — bounded
    integers), and the truncating alignment ``x >> d`` becomes
    ``floor(x * 2^-d)`` (identical for integer-valued f64, including the
    ``d = 63`` sign saturation).  Maximal runs of alignment steps where
    every PSU keeps its exponent are summed in one vectorized pass —
    integer-valued f64 adds at a common scale are order-independent —
    so the sequential Python loop only walks the exponent *changes*.
    Callers gate on :func:`_fast_ok` so every intermediate stays below
    2^53.
    """
    a_exp = np.asarray(a_exp, dtype=np.int64)
    b_exp = np.asarray(b_exp, dtype=np.int64)
    rb, kb, r = a_man.shape[-4], a_man.shape[-3], a_man.shape[-2]
    cb = b_exp.shape[-1]
    nc = b_flat.shape[-1]
    lead = np.broadcast_shapes(a_man.shape[:-4], b_flat.shape[:-3])
    if kb == 0 or cb == 0:
        return np.zeros((*lead, rb * r, nc), dtype=np.float64)
    c = nc // cb
    a_sw = np.asarray(a_man, dtype=np.float64).swapaxes(-4, -3)
    prods = np.matmul(a_sw, b_flat[..., :, None, :, :])
    exps = a_exp.swapaxes(-2, -1)[..., None] + b_exp[..., None, :]
    run = np.maximum.accumulate(exps, axis=-3)
    pv = prods.reshape(*prods.shape[:-1], cb, c)  # (..., Kb, Rb, r, Cb, c)
    psu = np.ascontiguousarray(pv[..., 0, :, :, :, :])
    if kb > 1:
        keeps = run[..., :-1, :, :] >= exps[..., 1:, :, :]
        ds = np.minimum(np.abs(run[..., :-1, :, :] - exps[..., 1:, :, :]), 63)
        sc = np.exp2(-ds.astype(np.float64))
        kb_axis = keeps.ndim - 3
        uniform = keeps.all(
            axis=tuple(i for i in range(keeps.ndim) if i != kb_axis)
        )
        bk = 1
        while bk < kb:
            if uniform[bk - 1]:
                end = bk + 1
                while end < kb and uniform[end - 1]:
                    end += 1
                seg = np.multiply(
                    pv[..., bk:end, :, :, :, :],
                    sc[..., bk - 1 : end - 1, :, None, :, None],
                )
                np.floor(seg, out=seg)
                psu += seg.sum(axis=-5)
                bk = end
            else:
                d = sc[..., bk - 1, :, None, :, None]
                keep = keeps[..., bk - 1, :, None, :, None]
                prod = pv[..., bk, :, :, :, :]
                psu = np.where(
                    keep, psu + np.floor(prod * d), prod + np.floor(psu * d)
                )
                bk += 1
    limit = float(1 << (PSU_WIDTH - 1))
    if psu.size and (psu.min() < -limit or psu.max() >= limit):
        raise HardwareContractError("emulated PSU overflowed 48 bits")
    # +0.0 normalizes any -0.0 from all-zero f64 products: the integer
    # path decodes those lanes to +0.0 and the logits are SHA-pinned.
    dense = (psu + 0.0) * np.exp2(run[..., -1, :, :].astype(np.float64))[
        ..., :, None, :, None
    ]
    return dense.reshape(*lead, rb * r, nc)


def _flatten_cols_f64(b_man: np.ndarray) -> np.ndarray:
    """``_flatten_cols`` twin that widens straight to float64."""
    kb, cb, h, c = b_man.shape[-4:]
    return np.ascontiguousarray(
        b_man.astype(np.float64).swapaxes(-2, -3)
    ).reshape(*b_man.shape[:-4], kb, h, cb * c)


# ---------------------------------------------------------------------------
# Fused ops
# ---------------------------------------------------------------------------


class _LinearOp:
    """One linear layer, resolved at trace time.

    Holds the format and the prepared-weight handle (no per-call cache
    lookup or fingerprint revalidation); block-fp weights additionally
    keep their mantissas pre-widened to float64 for the fast kernel.
    """

    __slots__ = ("fmt", "prepared", "bias", "d_in", "d_out", "fast",
                 "wman", "wexp", "man_bits")

    def __init__(self, fmt, lin: Linear) -> None:
        self.fmt = fmt
        w = lin.params["w"]
        self.prepared = fmt.prepare_weight(w)
        self.bias = lin.params.get("b")
        self.d_in, self.d_out = lin.d_in, lin.d_out
        self._bind_fast()

    def _bind_fast(self) -> None:
        from repro.arith.bfp_matmul import BfpWeight
        from repro.perf.prepared import PreparedTensor

        kb = -(-self.d_in // BLOCK_COLS)
        self.fast = (
            isinstance(self.fmt, BfpFormat)
            and isinstance(self.prepared, PreparedTensor)
            and isinstance(self.prepared.payload, BfpWeight)
            and _fast_ok(self.fmt.man_bits, kb)
        )
        if self.fast:
            bw = self.prepared.payload
            self.wman = bw.man64.astype(np.float64)
            self.wexp = bw.exp64
            self.man_bits = self.fmt.man_bits
        else:
            self.wman = self.wexp = None
            self.man_bits = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        flat = x.reshape(-1, self.d_in)
        if self.fast:
            am = activation_blocks(flat, man_bits=self.man_bits)
            dense = fast_emulate_blocks(
                am.mantissas, am.exponents, self.wman, self.wexp
            )
            y = dense[: flat.shape[0], : self.d_out].astype(np.float32)
        else:
            y = self.fmt.matmul(flat, self.prepared)
        if self.bias is not None:
            y = y + self.bias
        return y.reshape(*x.shape[:-1], self.d_out).astype(np.float32)


class _FusedLinearOp(_LinearOp):
    """Gate+up projections fused into one weight pass.

    Valid only for non-exact block-fp with ``hidden % 8 == 0``: column
    blocks are independent and the kernel is integer-exact, so the fused
    result's column halves are bit-identical to the two split matmuls
    (the concatenation the eager SwiGLU path builds anyway).
    """

    def __init__(self, fmt, gate: Linear, up: Linear) -> None:
        fused = np.concatenate([gate.params["w"], up.params["w"]], axis=1)
        self.fmt = fmt
        self.prepared = fmt.prepare_weight(fused)
        self.bias = None
        self.d_in, self.d_out = gate.d_in, gate.d_out + up.d_out
        self._bind_fast()


class _AttnMatmulOp:
    """Batched attention matmul (Q.K^T / P.V), format-resolved at trace."""

    __slots__ = ("fmt", "fast", "man_bits")

    def __init__(self, fmt, *, kb_max: int) -> None:
        self.fmt = fmt
        self.fast = isinstance(fmt, BfpFormat) and _fast_ok(fmt.man_bits, kb_max)
        self.man_bits = fmt.man_bits if self.fast else 0

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.fast:
            a_man, a_exp, b_man, b_exp, m, n = bfp_batched_tiles(
                a, b, man_bits=self.man_bits
            )
            dense = fast_emulate_blocks(
                a_man, a_exp, _flatten_cols_f64(b_man), b_exp
            )
            return dense[:, :m, :n].astype(np.float32)
        return self.fmt.matmul_batched(a, b)


class _NonlinearShim:
    """Just enough backend surface for RMSNorm/Softmax.forward to run
    through the module's own code with a pre-resolved format."""

    __slots__ = ("_fmt",)

    def __init__(self, fmt) -> None:
        self._fmt = fmt

    def nonlinear(self, kind, fn, x):
        return self._fmt.nonlinear(kind, fn, x)


def _swiglu_fn(mod: SwiGLUMLP):
    """The eager SwiGLU closure, rebuilt so replay fills ``mod._cache``."""

    def fn(gu: np.ndarray) -> np.ndarray:
        half = gu.shape[-1] // 2
        gg, uu = gu[..., :half], gu[..., half:]
        act = mod._silu(gg.astype(np.float64)).astype(np.float32)
        mod._cache = (gg, uu, act)
        return act * uu

    return fn


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


@dataclass
class _BlockOps:
    norm1: RMSNorm
    norm2: RMSNorm
    mlp: SwiGLUMLP
    softmax: Softmax
    nl_attn: _NonlinearShim
    nl_mlp: _NonlinearShim
    res_attn: object
    res_mlp: object
    qkv: _LinearOp
    proj: _LinearOp
    gate_up: _LinearOp  # fused or gate (with .up set) — see build
    up: _LinearOp | None
    down: _LinearOp
    attn_mm: _AttnMatmulOp
    swiglu: object


class DecodePlan:
    """A traced ``forward_step_batch`` for one (backend, batch) shape."""

    def __init__(self, model: TinyLM, backend: PolicyBackend, batch: int) -> None:
        self.batch = batch
        self.backend_name = backend.name
        self.sample_every = _TAP_SAMPLE
        self.replays = 0
        self.sampled = 0
        self._tap_counter = 0
        self.samples: deque = deque(maxlen=64)
        self._trace(model, backend)

    # -- trace ---------------------------------------------------------------
    def _trace(self, model: TinyLM, backend: PolicyBackend) -> None:
        def exact(obj, cls):
            if type(obj) is not cls:
                raise PlanUnsupported(
                    f"{type(obj).__name__} is not a traceable {cls.__name__}"
                )
            return obj

        exact(model, TinyLM)
        exact(model.embed, Embedding)
        exact(model.norm, RMSNorm)
        exact(model.head, Linear)
        self.embed = model.embed
        self.pos_embed = model.params["pos_embed"]
        self.final_norm = model.norm
        b = self.batch
        d, vocab = model.dim, model.vocab
        kb_attn = -(-max(model.seq_len, 1) // BLOCK_COLS)
        self.n_heads = self.head_dim = 0
        self.scale = 1.0
        self.blocks: list[_BlockOps] = []
        count = rows = macs = 0
        macs_t = 0
        for i, blk in enumerate(model.blocks):
            exact(blk, DecoderBlock)
            attn = exact(blk.attn, MultiHeadSelfAttention)
            if not attn.causal:
                raise PlanUnsupported("decode plans require causal attention")
            exact(blk.norm1, RMSNorm)
            exact(blk.norm2, RMSNorm)
            mlp = exact(blk.mlp, SwiGLUMLP)
            for lin in (attn.qkv, attn.proj, mlp.gate, mlp.up, mlp.down):
                exact(lin, Linear)
            exact(attn.attn_softmax, Softmax)
            apath, mpath = f"block{i}.attn", f"block{i}.mlp"
            lin_a = backend._fmt_at(apath, "linear")
            lin_m = backend._fmt_at(mpath, "linear")
            att_f = backend._fmt_at(apath, "attention")
            h, hd = attn.n_heads, attn.head_dim
            hidden = mlp.gate.d_out
            fuse = isinstance(lin_m, BfpFormat) and hidden % BLOCK_COLS == 0
            self.blocks.append(_BlockOps(
                norm1=blk.norm1,
                norm2=blk.norm2,
                mlp=mlp,
                softmax=attn.attn_softmax,
                nl_attn=_NonlinearShim(backend._fmt_at(apath, "nonlinear")),
                nl_mlp=_NonlinearShim(backend._fmt_at(mpath, "nonlinear")),
                res_attn=backend._fmt_at(apath, "residual"),
                res_mlp=backend._fmt_at(mpath, "residual"),
                qkv=_LinearOp(lin_a, attn.qkv),
                proj=_LinearOp(lin_a, attn.proj),
                gate_up=(
                    _FusedLinearOp(lin_m, mlp.gate, mlp.up)
                    if fuse else _LinearOp(lin_m, mlp.gate)
                ),
                up=None if fuse else _LinearOp(lin_m, mlp.up),
                down=_LinearOp(lin_m, mlp.down),
                attn_mm=_AttnMatmulOp(
                    att_f, kb_max=max(kb_attn, -(-hd // BLOCK_COLS))
                ),
                swiglu=_swiglu_fn(mlp),
            ))
            self.n_heads, self.head_dim = h, hd
            self.scale = attn.scale
            # Op statistics are bumped per replay with the exact eager
            # counts, fusion notwithstanding (gate and up each count).
            count += 5 + 2 * b * h
            rows += 5 * b + 2 * b * h
            macs += b * (d * 3 * d + d * d + 2 * d * hidden + hidden * d)
            macs_t += 2 * b * h * hd
        self.head = _LinearOp(backend._fmt_at("head", "linear"), model.head)
        self.nl_final = _NonlinearShim(backend._fmt_at("final_norm", "nonlinear"))
        self.dim, self.vocab = d, vocab
        self._count = count + 1
        self._rows = rows + b
        self._macs = macs + b * d * vocab
        self._macs_t = macs_t

    # -- sampled taps --------------------------------------------------------
    def take_sample(self, position: int, batch: int) -> bool:
        """True when this step must run eagerly with full monitor taps."""
        if not get_monitor().enabled:
            return False
        self._tap_counter += 1
        if (self._tap_counter - 1) % self.sample_every:
            return False
        self.sampled += 1
        self.samples.append({
            "step": self._tap_counter,
            "position": int(position),
            "batch": int(batch),
        })
        return True

    # -- replay --------------------------------------------------------------
    def replay(
        self,
        toks: np.ndarray,
        pos: int,
        arenas: list[KvArena],
        backend: PolicyBackend,
    ) -> np.ndarray:
        mon = get_monitor()
        if mon.enabled:
            # Non-sampled steps run tap-free even for formats whose
            # kernels tap internally (minifloat quantize, int observe).
            set_monitor(NULL_MONITOR)
            try:
                return self._replay(toks, pos, arenas, backend)
            finally:
                set_monitor(mon)
        return self._replay(toks, pos, arenas, backend)

    def _replay(self, toks, pos, arenas, backend) -> np.ndarray:
        b = self.batch
        h, hd, d = self.n_heads, self.head_dim, self.dim
        x = self.embed.forward(toks)
        x = (x + self.pos_embed[:, pos : pos + 1]).astype(np.float32)
        t = 0
        for ops, arena in zip(self.blocks, arenas):
            nrm = ops.norm1.forward(x, ops.nl_attn)
            qkv = ops.qkv(nrm)
            qkv = qkv.reshape(b, 1, 3, h, hd).transpose(2, 0, 3, 1, 4)
            q, k_new, v_new = qkv[0], qkv[1], qkv[2]
            arena.append(k_new, v_new)
            k, v = arena.views()
            t = arena.length
            s = ops.attn_mm(
                q.reshape(b * h, 1, hd),
                k.transpose(0, 1, 3, 2).reshape(b * h, hd, t),
            )
            scores = s.reshape(b, h, 1, t) * self.scale
            probs = ops.softmax.forward(scores.astype(np.float32), ops.nl_attn)
            ctx = ops.attn_mm(
                probs.reshape(b * h, 1, t), v.reshape(b * h, t, hd)
            )
            ctx = ctx.reshape(b, h, 1, hd).transpose(0, 2, 1, 3).reshape(b, 1, d)
            x = ops.res_attn.requantize(
                x + ops.proj(ctx.astype(np.float32))
            )
            nrm2 = ops.norm2.forward(x, ops.nl_mlp)
            if ops.up is None:
                gu = ops.gate_up(nrm2)
            else:
                gu = np.concatenate(
                    [ops.gate_up(nrm2), ops.up(nrm2)], axis=-1
                )
            gated = ops.nl_mlp.nonlinear("swiglu", ops.swiglu, gu)
            x = ops.res_mlp.requantize(x + ops.down(gated))
            x = x.astype(np.float32)
        x = self.final_norm.forward(x, self.nl_final)
        logits = self.head(x)[:, 0]
        backend.matmul_count += self._count
        backend.matmul_rows += self._rows
        backend.matmul_macs += self._macs + t * self._macs_t
        self.replays += 1
        return logits

    def stats(self) -> dict:
        return {
            "backend": self.backend_name,
            "batch": self.batch,
            "replays": self.replays,
            "sampled_taps": self.sampled,
            "sample_every": self.sample_every,
        }


# ---------------------------------------------------------------------------
# Plan cache + activation policy
# ---------------------------------------------------------------------------


@dataclass
class _PlanEntry:
    backend: PolicyBackend
    policy: object
    cache: object
    generation: int
    plan: DecodePlan | None


def set_compiled_default(value: bool) -> bool:
    """Flip the process-wide compiled-decode default; returns the old one."""
    global _COMPILED_DEFAULT
    previous = _COMPILED_DEFAULT
    _COMPILED_DEFAULT = bool(value)
    return previous


def set_tap_sampling(every: int) -> int:
    """Set the 1-in-N sampled-tap period for new plans; returns the old N."""
    global _TAP_SAMPLE
    previous = _TAP_SAMPLE
    _TAP_SAMPLE = max(1, int(every))
    return previous


def compiled_active(backend, override: bool | None = None) -> bool:
    """Whether a decode step should go through a compiled plan.

    Explicit ``override`` wins.  With no override, compiled is the
    default (:func:`set_compiled_default`) but defers to eager whenever
    something wants full per-op observation: an attached profiler, a
    non-empty scope stack (outer scopes change policy layer paths), an
    enabled numerics monitor, or a non-policy backend.
    """
    if override is False:
        return False
    if not isinstance(backend, PolicyBackend):
        return False
    if backend.profiler is not None or backend._scopes:
        return False
    if override is None and (not _COMPILED_DEFAULT or get_monitor().enabled):
        return False
    return True


def resolve_plan(model, backend, batch: int) -> DecodePlan | None:
    """The model's plan for this (backend, batch) shape, building on miss.

    Cache keys are ``(id(backend), batch)``; entries hold strong refs to
    the backend, its policy and the prepared-operand cache (plus its
    generation), so any of those changing re-traces.  An untraceable
    model caches a ``None`` marker — the eager fallback — rather than
    re-raising per token.
    """
    cache = get_cache()
    plans = model.__dict__.get(_PLAN_CACHE_ATTR)
    if plans is None:
        plans = model.__dict__[_PLAN_CACHE_ATTR] = OrderedDict()
    key = (id(backend), batch)
    entry = plans.get(key)
    if entry is not None:
        if (
            entry.backend is backend
            and entry.policy is backend.policy
            and entry.cache is cache
            and entry.generation == cache.generation
        ):
            return entry.plan
        del plans[key]
    try:
        plan: DecodePlan | None = DecodePlan(model, backend, batch)
    except PlanUnsupported:
        plan = None
    plans[key] = _PlanEntry(backend, backend.policy, cache, cache.generation, plan)
    while len(plans) > _PLAN_CACHE_MAX:
        plans.popitem(last=False)
    return plan


def plan_stats(model) -> list[dict]:
    """Stats for every live plan on a model (profile CLI / tests)."""
    plans = model.__dict__.get(_PLAN_CACHE_ATTR) or {}
    return [e.plan.stats() for e in plans.values() if e.plan is not None]
