"""The four benchmark workloads (see README.md for why each exists).

Every workload follows one protocol, driven by ``run.py``:

* ``__init__(seed)`` draws the inputs from the seed alone;
* ``setup()`` builds everything a user pays for before the first result
  (model, prepared weights, first decode step, request trace) — it runs
  several times and the median counts;
* ``audit()`` runs once, untimed: references, conservation checks, the
  output digest and the modelled (simulated-FPGA) metrics;
* ``run_pass(i, tick)`` runs one unit of work, times only the work,
  then checks the output against the audit.  It calls ``tick(seconds)``
  after each timed chunk (a decode step, an image, a simulation) — the
  runner uses the gap to sample machine speed — and returns the chunk
  times keyed by position (decode step, image index), so the same work
  can be compared across passes;
* ``finalize()`` runs checks that need every input processed once.

Outputs are checked, never assumed: a mismatch is recorded in
``self.checks`` and fails the run.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from collections import Counter

import numpy as np

#: Output digests at the default seed (0); any other seed is checked for
#: run-to-run identity only.
PINS = {
    "decode": "4d159a0c828a4a37ed051d02a38a00974486559d44cdc27466c8188c23d4cba0",
    "vit": "88a9025e31accdd70ad1763aa60fdec96a70b247b7e2d592ee442efea0b4b9b6",
    "serve-steady":
        "4af1303600183429176116081433122dab880717408cbb6f83b65d2445efe3aa",
    "cluster-diurnal":
        "443155a56a732257d2d144c81ba6e8af59602806cc82c0729c38d63d285b9aa0",
}
DEFAULT_SEED = 0


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def summary_bytes(summary: dict) -> bytes:
    return json.dumps(summary, sort_keys=True, default=str).encode()


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Workload:
    name = ""
    #: modules whose import time counts toward setup
    modules: tuple[str, ...] = ()
    #: what one op is, and the unit of the host rate
    op_name = ""
    rate_name = ""
    rate_unit = ""
    #: passes the timed loop runs at least, whatever ``--seconds`` says
    min_passes = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.checks: list[tuple[str, bool, str]] = []
        self.digest = ""
        self.modelled: dict[str, float] = {}
        self.observed: Counter = Counter()

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def check_pin(self) -> None:
        pin = PINS[self.name]
        if self.seed == DEFAULT_SEED:
            self.check("digest pinned at seed 0", self.digest == pin,
                       "" if self.digest == pin else f"pinned {pin}")

    # -- per pass ------------------------------------------------------------
    def pass_ops(self) -> int:
        """Ops (the JSON ``attempted`` unit) in one pass."""
        raise NotImplementedError

    def pass_units(self) -> int:
        """Units of the host rate (tokens, images, requests) per pass."""
        return self.pass_ops()

    def pass_failed(self, i: int) -> int:
        """Operations of pass ``i`` that failed (simulated rejections)."""
        return 0

    def finalize(self) -> None:
        pass

    def observers(self) -> dict:
        """Traced-run hooks: entry point -> fn(args, kwargs, result).

        The default counts prepared-operand cache hits.
        """
        observed = self.observed

        def prepare(args, kwargs, result):
            observed["prepared_hits"] += bool(result[1])

        return {"repro.perf.prepared:PreparedOperandCache.prepare": prepare}

    def layer_extras(self, calls: dict[str, int]) -> dict[str, float]:
        """Named ratios from one traced pass's per-entry call counts."""
        return {}


# ---------------------------------------------------------------------------
# decode: compiled TinyLM decode, batch 4 in lockstep
# ---------------------------------------------------------------------------


class Decode(Workload):
    name = "decode"
    modules = ("numpy", "repro.models.decoder", "repro.models.backend",
               "repro.runtime.plan")
    op_name = "decode steps (4 sessions each)"
    rate_name = "decode_tok_s"
    rate_unit = "tokens/s"

    VOCAB, DIM, DEPTH, HEADS, SEQ_LEN = 32, 384, 2, 4, 128
    WEIGHT_SEED = 7
    SESSIONS, PROMPT, CONTEXT = 4, 8, 100

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.prompts = rng.integers(0, self.VOCAB, (self.SESSIONS, self.PROMPT))
        self._alive: list = []  # plan caches key on id(backend): no reuse

    def setup(self) -> None:
        from repro.models.backend import BFP8MixedBackend
        from repro.models.decoder import TinyLM
        from repro.perf.prepared import PreparedOperandCache, set_cache

        set_cache(PreparedOperandCache())  # every rep quantizes afresh
        self.model = TinyLM(vocab=self.VOCAB, seq_len=self.SEQ_LEN,
                            dim=self.DIM, depth=self.DEPTH,
                            n_heads=self.HEADS, seed=self.WEIGHT_SEED)
        self.backend = BFP8MixedBackend()
        self._alive.append(self.backend)
        self.model.prepare(self.backend)
        caches = [self.model.init_cache() for _ in range(self.SESSIONS)]
        self.model.forward_step_batch(
            [int(t) for t in self.prompts[:, 0]], [0] * self.SESSIONS,
            caches, self.backend, compiled=True,
        )

    def _decode(self, compiled: bool, times: dict | None = None,
                tick=None) -> np.ndarray:
        """Greedy lockstep decode to ``CONTEXT``; logits of every step.

        ``times`` (when given) receives each step's seconds by position,
        and ``tick`` each step's seconds as the step ends.
        """
        model, backend, s = self.model, self.backend, self.SESSIONS
        clock = time.perf_counter
        caches = [model.init_cache() for _ in range(s)]
        out = np.empty((self.CONTEXT, s, self.VOCAB), dtype=np.float32)
        toks = [int(t) for t in self.prompts[:, 0]]
        for pos in range(self.CONTEXT):
            t0 = clock()
            logits = model.forward_step_batch(
                toks, [pos] * s, caches, backend, compiled=compiled)
            if pos + 1 < self.PROMPT:
                toks = [int(t) for t in self.prompts[:, pos + 1]]
            else:
                toks = [int(t) for t in np.argmax(logits, axis=1)]
            if times is not None:
                times[pos] = dt = clock() - t0
                tick(dt)
            out[pos] = logits
        return out

    def audit(self) -> None:
        from repro.cost import PolicyCostModel
        from repro.serve.dispatcher import ModelProfile

        self.reference = self._decode(compiled=False)
        self.digest = sha256(self.reference.tobytes())
        self.check_pin()
        profile = ModelProfile(vocab=self.VOCAB, dim=self.DIM,
                               depth=self.DEPTH, n_heads=self.HEADS,
                               context=self.SEQ_LEN)
        cost = PolicyCostModel(profile)
        cycles = sum(cost.job_cycles("decode", self.SESSIONS, pos + 1)
                     for pos in range(self.CONTEXT))
        self.modelled = {
            "model.tok_s": (self.CONTEXT * self.SESSIONS
                            * cost.clock.freq_hz / cycles),
            "model.kcycles": cycles / 1e3,
        }

    def pass_ops(self) -> int:
        return self.CONTEXT

    def pass_units(self) -> int:
        return self.SESSIONS * self.CONTEXT

    def run_pass(self, i: int, tick) -> dict[int, float]:
        times: dict[int, float] = {}
        out = self._decode(compiled=True, times=times, tick=tick)
        if not np.array_equal(out, self.reference):
            self.check(f"pass {i}: compiled logits == eager reference",
                       False, "bitwise mismatch")
        return times

    def finalize(self) -> None:
        self.check("compiled logits == eager reference, every pass",
                   all(ok for n, ok, _ in self.checks if n.startswith("pass")))

# ---------------------------------------------------------------------------
# vit: DeiT-Tiny, batch-1 images, eager bfp8 path
# ---------------------------------------------------------------------------


class Vit(Workload):
    name = "vit"
    modules = ("numpy", "repro.models.vit", "repro.models.backend")
    op_name = "images"
    rate_name = "vit_img_s"
    rate_unit = "images/s"
    WEIGHT_SEED = 0
    IMAGES = 2
    min_passes = IMAGES
    #: bfp8 vs fp32 logits, relative L2; measured about 0.04
    MAX_REL_ERR = 0.1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.images = rng.normal(
            size=(self.IMAGES, 1, 3, 224, 224)).astype(np.float32)
        self.outputs: dict[int, np.ndarray] = {}

    def setup(self) -> None:
        from repro.models.backend import BFP8MixedBackend
        from repro.models.configs import DEIT_TINY
        from repro.models.vit import VisionTransformer
        from repro.perf.prepared import PreparedOperandCache, set_cache

        set_cache(PreparedOperandCache())
        c = DEIT_TINY
        self.model = VisionTransformer(
            image_size=c.image_size, patch_size=c.patch_size,
            in_chans=c.in_chans, dim=c.dim, depth=c.depth,
            n_heads=c.n_heads, mlp_ratio=c.mlp_ratio,
            n_classes=c.n_classes, seed=self.WEIGHT_SEED,
        )
        self.backend = BFP8MixedBackend()
        self.model.prepare(self.backend)

    def audit(self) -> None:
        from repro.cost import PolicyCostModel
        from repro.serve.dispatcher import ModelProfile

        cost = PolicyCostModel(ModelProfile())  # its ViT is DeiT-Tiny
        cycles = cost.job_cycles("vit", 1)
        self.modelled = {
            "model.img_s": cost.clock.freq_hz / cycles,
            "model.kcycles": cycles / 1e3,
        }

    def pass_ops(self) -> int:
        return 1

    def run_pass(self, i: int, tick) -> dict[int, float]:
        k = i % self.IMAGES
        t0 = time.perf_counter()
        out = self.model.forward(self.images[k], self.backend)
        dt = time.perf_counter() - t0
        tick(dt)
        first = self.outputs.setdefault(k, out)
        if not np.array_equal(out, first):
            self.check(f"pass {i}: image {k} logits repeat bitwise", False)
        return {k: dt}

    def finalize(self) -> None:
        from repro.models.backend import FP32Backend

        self.check("every image processed",
                   len(self.outputs) == self.IMAGES)
        self.check("repeated images give identical logits",
                   all(ok for n, ok, _ in self.checks if n.startswith("pass")))
        outs = [self.outputs[k] for k in sorted(self.outputs)]
        self.digest = sha256(*(o.tobytes() for o in outs))
        self.check_pin()
        fp32 = FP32Backend()
        for k, out in enumerate(outs):
            ref = self.model.forward(self.images[k], fp32)
            err = float(np.linalg.norm(out - ref) / np.linalg.norm(ref))
            self.check(f"image {k}: bfp8 vs fp32 rel err <= "
                       f"{self.MAX_REL_ERR}", err <= self.MAX_REL_ERR,
                       f"{err:.4f}")

# ---------------------------------------------------------------------------
# serving simulations
# ---------------------------------------------------------------------------


class _Serving(Workload):
    """Shared audit, modelled metrics and counters of the two sim loads.

    A run simulates ``TRACES`` request traces drawn from the seed, in
    turn: the same requests per seed as one long trace, in chunks short
    enough to pair each with the machine-speed probes around it.
    """

    modules = ("numpy", "repro.serve.dispatcher", "repro.serve.request")
    op_name = "simulated requests"
    rate_name = "sim_req_s"
    rate_unit = "requests/s"
    REQUESTS = 2000  # per trace
    TRACES = 1

    @property
    def min_passes(self) -> int:
        return self.TRACES

    def pass_ops(self) -> int:
        return self.REQUESTS

    def pass_failed(self, i: int) -> int:
        return self.rejected[i % self.TRACES]

    def setup(self) -> None:
        self.traces = [self._trace(self.seed * self.TRACES + k)
                       for k in range(self.TRACES)]

    def _trace(self, seed: int) -> list:
        raise NotImplementedError

    def _simulate(self, trace):
        """One simulation (the timed work); returns its report."""
        raise NotImplementedError

    def _export(self, k: int, tick) -> dict:
        """Timed work after the simulation (trace export), by position."""
        return {}

    def _blob(self, report) -> bytes:
        """Everything the simulation produced, for the digest."""
        return summary_bytes(report.summary)

    def _check_report(self, report) -> list[tuple[str, bool, str]]:
        """Capacity checks of one audited simulation."""
        raise NotImplementedError

    def audit(self) -> None:
        self.digests, self.rejected = [], []
        results: dict[str, list[tuple[bool, str]]] = {}
        for k, trace in enumerate(self.traces):
            for name, ok, detail in self._audit_one(k, trace):
                results.setdefault(name, []).append((ok, detail))
        for name, outcomes in results.items():
            self.check(f"{name}, all {self.TRACES} traces",
                       all(ok for ok, _ in outcomes),
                       "; ".join(d for _, d in outcomes if d))
        self.digest = sha256(*(d.encode() for d in self.digests))
        self.check_pin()

    def _audit_one(self, k: int, trace: list) -> list[tuple[str, bool, str]]:
        """Conservation ledger of one hooked (untimed) simulation."""
        from ledger import Patch

        admitted: Counter = Counter()
        completed: Counter = Counter()
        rejected: Counter = Counter()
        on_time = 0

        def hook(counter, on_completion=False):
            def make(fn):
                def wrapper(*args, **kwargs):
                    nonlocal on_time
                    req = args[1]
                    counter[req.rid] += 1
                    if on_completion:
                        now = args[2]
                        on_time += req.deadline is None or now <= req.deadline
                    return fn(*args, **kwargs)
                return wrapper
            return make

        rss0 = rss_mib()
        with Patch() as p:
            p.wrap("repro.serve.dispatcher:Dispatcher.admit", hook(admitted))
            p.wrap("repro.serve.metrics:MetricsCollector.record_completion",
                   hook(completed, on_completion=True))
            p.wrap("repro.serve.metrics:MetricsCollector.record_rejection",
                   hook(rejected))
            report = self._simulate(trace)
            self._export(k, lambda dt: None)
        summary = report.summary
        self.digests.append(sha256(self._blob(report)))
        self.rejected.append(summary["rejected"])

        rids = {r.rid for r in trace}
        edge = summary.get("edge_rejected", 0)
        checks = [
            ("arrivals == trace length",
             summary["arrivals"] == len(trace) == len(rids), ""),
            ("each request admitted at most once",
             max(admitted.values(), default=1) == 1, ""),
            ("edge rejections == trace minus admitted",
             len(rids - set(admitted)) == edge, ""),
            ("each admitted request completed or rejected once",
             set(completed) | set(rejected) == set(admitted)
             and not set(completed) & set(rejected)
             and max(completed.values(), default=1) == 1
             and max(rejected.values(), default=1) == 1, ""),
            ("summary counts match the ledger",
             summary["completed"] == len(completed)
             and summary["rejected"] == len(rejected) + edge, ""),
        ]
        llm_tokens = sum(r.gen_tokens for r in trace
                         if r.kind == "llm" and r.rid in completed)
        checks.append(("tokens_out == sum over completed llm requests",
                       summary["tokens_out"] == llm_tokens,
                       f"{summary['tokens_out']} vs {llm_tokens}"))
        checks += self._check_report(report)
        if k:
            return checks
        # The traced run replays trace 0: its summary and memory growth
        # (the first simulation in the process) are the reported ones.
        self.bytes_per_request = (rss_mib() - rss0) * 2**20 / self.REQUESTS
        self.summary = summary
        self.modelled = {
            "model.tok_s": summary["tokens_per_s"],
            "model.p50_ms": summary["latency_p50_ms"],
            "model.p99_ms": summary["latency_p99_ms"],
            "model.ttft_p99_ms": summary["ttft_p99_ms"],
            "model.goodput_rps": on_time / summary["horizon_s"],
        }
        return checks

    def run_pass(self, i: int, tick) -> dict:
        k = i % self.TRACES
        t0 = time.perf_counter()
        report = self._simulate(self.traces[k])
        dt = time.perf_counter() - t0
        tick(dt)
        times = {k: dt, **self._export(k, tick)}
        if sha256(self._blob(report)) != self.digests[k]:
            self.check(f"pass {i}: simulated summary == audit", False)
        return times

    def finalize(self) -> None:
        self.check("every pass reproduced the audited simulation",
                   all(ok for n, ok, _ in self.checks if n.startswith("pass")))

    # -- traced-run counters -------------------------------------------------
    def observers(self) -> dict:
        obs = self.observed

        def pop_ready(args, kwargs, result):
            obs["pop_hits"] += result is not None

        def job_cycles(args, kwargs, result):
            cost, phase, batch = args[0], args[1], args[2]
            ctx = args[3] if len(args) > 3 else kwargs.get("context", 0)
            key = (phase, batch, cost.bucket_context(phase, ctx)
                   if phase != "vit" else 0)
            obs[key] = 1  # tuple keys: the distinct cost-model lookups

        return {"repro.serve.batcher:DynamicBatcher.pop_ready": pop_ready,
                "repro.cost.model:PolicyCostModel.job_cycles": job_cycles}

    def events(self, calls: dict[str, int]) -> int:
        """Heap events of one simulation: arrivals, finishes, wakes,
        autoscale ticks and replica spawns."""
        d = "repro.serve.dispatcher:Dispatcher."
        return (self.REQUESTS + calls[d + "on_finish"] + calls[d + "on_wake"]
                + calls["repro.cluster.autoscaler:Autoscaler.decide"]
                + self.summary.get("replicas_spawned", 1) - 1)

    def layer_extras(self, calls: dict[str, int]) -> dict[str, float]:
        d = "repro.serve.dispatcher:Dispatcher."
        pops = calls["repro.serve.batcher:DynamicBatcher.pop_ready"]
        dispatches = calls["repro.serve.metrics:MetricsCollector.record_dispatch"]
        cost_calls = calls["repro.cost.model:PolicyCostModel.job_cycles"]
        keys = sum(1 for k in self.observed if isinstance(k, tuple))
        events = self.events(calls)
        spans = (calls["repro.obs.tracer:Tracer.span"]
                 + calls["repro.obs.tracer:Tracer.async_span"]
                 + calls["repro.obs.tracer:SpanContext.child"])
        return {
            "serve.dispatcher.calls_per_event": calls[d + "try_dispatch"] / events,
            "serve.dispatcher.launch_frac": dispatches / pops,
            "serve.batcher.hit_frac": self.observed["pop_hits"] / pops,
            "serve.batcher.polls_per_event": pops / events,
            "serve.metrics.bytes_per_request": self.bytes_per_request,
            "cost.calls_per_dispatch": cost_calls / dispatches,
            "cost.distinct_key_frac": keys / cost_calls,
            "cluster.affinity_hit_rate": self.summary.get("affinity_hit_rate", 0.0),
            "obs.spans_per_request": spans / self.REQUESTS,
            "obs.export_bytes": len(getattr(self, "export", "")),
        }


class ServeSteady(_Serving):
    name = "serve-steady"
    TRACES = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.serve.dispatcher import ServeConfig

        self.config = ServeConfig()

    def _trace(self, seed: int) -> list:
        from repro.serve.request import TrafficConfig, poisson_trace

        return poisson_trace(self.REQUESTS, TrafficConfig(), seed=seed)

    def _simulate(self, trace):
        from repro.obs.metrics import NULL_REGISTRY
        from repro.serve.dispatcher import simulate

        return simulate(trace, self.config, registry=NULL_REGISTRY)

    def _check_report(self, report) -> list[tuple[str, bool, str]]:
        busy = sum(t.busy_cycles for t in report.pool.timelines)
        capacity = report.metrics.last_completion * report.pool.n_units
        return [("busy cycles <= horizon x units", busy <= capacity,
                 f"{busy / capacity:.3f}")]

    def layer_extras(self, calls: dict[str, int]) -> dict[str, float]:
        events = self.events(calls)
        observed = calls["repro.serve.dispatcher:Dispatcher.observe_queue"]
        self.check("traced: single-pool events == observe_queue calls",
                   events == observed, f"{events} vs {observed}")
        return super().layer_extras(calls)


class ClusterDiurnal(_Serving):
    name = "cluster-diurnal"
    modules = _Serving.modules + ("repro.cluster", "repro.obs.tracer",
                                  "repro.obs.slo", "repro.obs.metrics")
    TRACES = 2
    RATE_RPS = 800.0
    USERS = 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.cluster import (AutoscalerConfig, ClusterConfig,
                                   ClusterSpec, ShardPlan)

        self.config = ClusterConfig(
            spec=ClusterSpec(boards=4, plan=ShardPlan(tp=3)),
            autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=4,
                                        scale_up_burn_rate=2.0),
        )

    def _trace(self, seed: int) -> list:
        from repro.serve.request import (DiurnalConfig, TrafficConfig,
                                         diurnal_trace)

        return diurnal_trace(
            self.REQUESTS, TrafficConfig(rate_rps=self.RATE_RPS),
            DiurnalConfig(period_s=0.6, amplitude=0.9),
            seed=seed, n_users=self.USERS,
        )

    def _simulate(self, trace):
        from repro.cluster import simulate_cluster
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.slo import SLOClass, SLOConfig, SLOTracker
        from repro.obs.tracer import RequestPathConfig, Tracer

        self.tracer = Tracer(meta={"seed": self.seed,
                                   "requests": self.REQUESTS})
        slo = SLOTracker(SLOConfig(classes=(SLOClass("vit", 0.99),
                                            SLOClass("llm", 0.99))))
        return simulate_cluster(
            trace, self.config, tracer=self.tracer,
            registry=MetricsRegistry(), slo=slo, path=RequestPathConfig(),
        )

    def _export(self, k: int, tick) -> dict:
        """The Perfetto export, timed as its own chunk of the pass."""
        t0 = time.perf_counter()
        self.export = self.tracer.to_json()
        dt = time.perf_counter() - t0
        tick(dt)
        self.tracer = None  # the spans die with the report, untimed
        return {(k, "export"): dt}

    def _blob(self, report) -> bytes:
        return report.to_json().encode() + self.export.encode()

    def _check_report(self, report) -> list[tuple[str, bool, str]]:
        summary = report.summary
        worst = max(r["utilization"] for r in report.per_replica)
        return [
            ("busy cycles <= active span x lanes, every replica",
             worst <= 1.0 and summary["utilization"] <= 1.0,
             f"{worst:.3f}, {summary['scale_ups']} scale-ups, "
             f"{summary['scale_downs']} scale-downs"),
        ]


WORKLOADS = {w.name: w for w in (Decode, Vit, ServeSteady, ClusterDiurnal)}
