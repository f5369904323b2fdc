"""Per-layer host-time ledger, recorded from outside the program.

The traced run wraps each layer's public entry points (listed in
:data:`LAYERS`) for the duration of a ``with LayerTracer():`` block and
restores the originals on exit.  Each wrapped call is one span: its
*self* time is its duration minus the time covered by wrapped calls made
inside it, so self times over all entry points add up to the duration of
the outermost spans.  Nothing inside ``src/`` is modified; the untraced
run executes the unmodified program.

A function entry point is rebound in every loaded ``repro`` module that
imported it by name, so call sites that bound it at import time
(``from repro.arith.bfp_matmul import activation_blocks``) see the
wrapper too.  A method is replaced on the class that defines it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

#: Layer (module group) -> entry points, as ``module:qualname``.
LAYERS: dict[str, tuple[str, ...]] = {
    "runtime.plan": (
        "repro.runtime.plan:DecodePlan.replay",
        "repro.runtime.plan:fast_emulate_blocks",
        "repro.runtime.plan:KvArena.append",
        "repro.runtime.plan:bind_group_cache",
    ),
    "arith.bfp_matmul": (
        "repro.arith.bfp_matmul:activation_blocks",
        "repro.arith.bfp_matmul:bfp_batched_tiles",
        "repro.arith.bfp_matmul:bfp_matmul_prepared",
        "repro.arith.bfp_matmul:bfp_matmul_from_tiles",
    ),
    "formats": (
        "repro.formats.bfp8:quantize_tiles",
        "repro.formats.blocking:BfpMatrix.from_dense",
        "repro.formats.registry:QuantFormat.requantize",
        "repro.formats.registry:BfpFormat.requantize",
        "repro.formats.registry:QuantFormat.nonlinear",
    ),
    "models": (
        "repro.models.decoder:TinyLM.forward_step_batch",
        "repro.models.vit:VisionTransformer.forward",
        "repro.models.backend:PolicyBackend.matmul",
        "repro.models.backend:PolicyBackend.matmul_batched",
        "repro.models.backend:PolicyBackend.nonlinear",
        "repro.models.decoder:RMSNorm.forward",
        "repro.models.layers:LayerNorm.forward",
        "repro.models.layers:Softmax.forward",
    ),
    "perf.prepared": (
        "repro.perf.prepared:PreparedOperandCache.prepare",
        "repro.perf.prepared:PreparedOperandCache.prepare_bfp",
    ),
    "serve.dispatcher": (
        "repro.serve.dispatcher:simulate",
        "repro.cluster.simulate:simulate_cluster",
        "repro.serve.dispatcher:Dispatcher.try_dispatch",
        "repro.serve.dispatcher:Dispatcher.admit",
        "repro.serve.dispatcher:Dispatcher.on_finish",
        "repro.serve.dispatcher:Dispatcher.on_wake",
        "repro.serve.dispatcher:Dispatcher.observe_queue",
    ),
    "serve.batcher": (
        "repro.serve.batcher:DynamicBatcher.pop_ready",
        "repro.serve.batcher:DynamicBatcher.add",
        "repro.serve.batcher:DynamicBatcher.next_expiry",
    ),
    "serve.sessions": (
        "repro.serve.sessions:SessionTable.free_slots",
        "repro.serve.sessions:SessionTable.active",
        "repro.serve.sessions:SessionTable.open",
        "repro.serve.sessions:SessionTable.step",
    ),
    "serve.metrics": (
        "repro.serve.metrics:MetricsCollector.record_arrival",
        "repro.serve.metrics:MetricsCollector.record_rejection",
        "repro.serve.metrics:MetricsCollector.record_dispatch",
        "repro.serve.metrics:MetricsCollector.record_first_token",
        "repro.serve.metrics:MetricsCollector.record_token",
        "repro.serve.metrics:MetricsCollector.record_completion",
        "repro.serve.metrics:MetricsCollector.record_queue_depth",
        "repro.serve.metrics:MetricsCollector.summary",
    ),
    "cost": (
        "repro.cost.model:PolicyCostModel.job_cycles",
        "repro.cluster.sharding:ShardedCostModel.batch_cycles",
        "repro.cluster.sharding:ShardedCostModel.batch_breakdown",
    ),
    "hw.system": (
        "repro.hw.system:UnitPool.assign",
    ),
    "cluster": (
        "repro.cluster.router:Router.route",
        "repro.cluster.autoscaler:Autoscaler.decide",
        "repro.cluster.interconnect:InterconnectModel.allreduce_cycles",
    ),
    "obs": (
        "repro.obs.tracer:Tracer.span",
        "repro.obs.tracer:Tracer.async_span",
        "repro.obs.tracer:Tracer.counter",
        "repro.obs.tracer:Tracer.flow",
        "repro.obs.tracer:Tracer.to_json",
        "repro.obs.tracer:SpanContext.child",
        "repro.obs.slo:SLOTracker.record_completion",
        "repro.obs.slo:SLOTracker.record_rejection",
        "repro.obs.slo:SLOTracker.fleet_burn",
        "repro.obs.metrics:MetricsRegistry.counter",
        "repro.obs.metrics:MetricsRegistry.histogram",
    ),
    "serve.request": (
        "repro.serve.request:poisson_trace",
        "repro.serve.request:diurnal_trace",
    ),
}

#: Model-op label of an entry point; self time inside it (and inside
#: unlabelled entry points it calls) is credited to that op.  ``"@feed"``
#: resolves to the op of the last quantize entry that ran: the shared
#: f64 kernel serves linear layers after ``activation_blocks`` and
#: attention after ``bfp_batched_tiles``.
OPS: dict[str, str] = {
    "repro.models.backend:PolicyBackend.matmul": "linear",
    "repro.models.backend:PolicyBackend.matmul_batched": "attention",
    "repro.models.backend:PolicyBackend.nonlinear": "nonlinear",
    "repro.models.decoder:RMSNorm.forward": "nonlinear",
    "repro.models.layers:LayerNorm.forward": "nonlinear",
    "repro.models.layers:Softmax.forward": "nonlinear",
    "repro.formats.registry:QuantFormat.nonlinear": "nonlinear",
    "repro.arith.bfp_matmul:activation_blocks": "quantize",
    "repro.arith.bfp_matmul:bfp_batched_tiles": "quantize",
    "repro.formats.registry:QuantFormat.requantize": "quantize",
    "repro.formats.registry:BfpFormat.requantize": "quantize",
    "repro.runtime.plan:fast_emulate_blocks": "@feed",
}
FEEDS = {
    "repro.arith.bfp_matmul:activation_blocks": "linear",
    "repro.arith.bfp_matmul:bfp_batched_tiles": "attention",
}
MODEL_OPS = ("linear", "attention", "nonlinear", "quantize")


def _resolve(target: str):
    modname, qual = target.split(":")
    owner = importlib.import_module(modname)
    *path, name = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Patch:
    """Reversible rebinding of entry points (a context manager)."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, target: str, make: Callable[[Callable], Callable]) -> None:
        owner, name = _resolve(target)
        if isinstance(owner, type):
            # The defining class only: wrapping an inherited attribute
            # would silently shadow overrides in sibling subclasses.
            raw = owner.__dict__[name]
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(make(raw.__func__))
            else:
                new = make(raw)
            self._set(owner, name, raw, new)
            return
        raw = getattr(owner, name)
        new = make(raw)
        for modname, mod in list(sys.modules.items()):
            if modname == "repro" or modname.startswith("repro."):
                for attr, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, attr, raw, new)

    def _set(self, owner, name: str, raw, new) -> None:
        self._undo.append((owner, name, raw))
        setattr(owner, name, new)

    def restore(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


@dataclass
class EntryStats:
    calls: int = 0
    self_s: float = 0.0


class LayerTracer(Patch):
    """Self-time and call-count ledger over :data:`LAYERS`.

    ``observe`` maps an entry point to ``fn(args, kwargs, result)``, run
    after the call (outside the span) for counters that need arguments
    or results: batcher hits, prepared-cache hits, cost-model keys.
    """

    def __init__(self, observe: dict[str, Callable] | None = None) -> None:
        super().__init__()
        self.entries: dict[str, EntryStats] = {}
        self.op_self_s: dict[str, float] = defaultdict(float)
        self.observe = observe or {}
        self._stack: list[list] = []  # [child seconds, op label]
        self._feed: str | None = None

    def __enter__(self) -> "LayerTracer":
        for targets in LAYERS.values():
            for target in targets:
                self.wrap(target, functools.partial(self._make, target))
        return self

    def _make(self, target: str, fn: Callable) -> Callable:
        st = self.entries.setdefault(target, EntryStats())
        stack = self._stack
        clock = time.perf_counter
        op_fixed = OPS.get(target)
        feed = FEEDS.get(target)
        observe = self.observe.get(target)
        ops = self.op_self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if feed is not None:
                self._feed = feed
            if op_fixed == "@feed":
                op = self._feed
            elif op_fixed is not None:
                op = op_fixed
            else:
                op = stack[-1][1] if stack else None
            frame = [0.0, op]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                own = dt - frame[0]
                st.calls += 1
                st.self_s += own
                ops[op] += own
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -- reading -------------------------------------------------------------
    def snapshot(self) -> dict[str, tuple[int, float]]:
        """``entry -> (calls, self_s)`` so far; diff two to get a phase."""
        return {k: (v.calls, v.self_s) for k, v in self.entries.items()}

    def ops_snapshot(self) -> dict[str, float]:
        return dict(self.op_self_s)


def diff(after: dict, before: dict) -> dict[str, tuple[int, float]]:
    """Per-entry ``(calls, self_s)`` between two :meth:`snapshot` s."""
    return {
        k: (c - before.get(k, (0, 0.0))[0], s - before.get(k, (0, 0.0))[1])
        for k, (c, s) in after.items()
    }


def by_layer(phase: dict[str, tuple[int, float]]) -> dict[str, tuple[int, float]]:
    """Fold a per-entry phase into ``layer -> (calls, self_s)``."""
    out = {}
    for layer, targets in LAYERS.items():
        calls = sum(phase.get(t, (0, 0.0))[0] for t in targets)
        self_s = sum(phase.get(t, (0, 0.0))[1] for t in targets)
        out[layer] = (calls, self_s)
    return out
