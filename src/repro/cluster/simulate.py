"""Cluster serving simulation: a fleet of replicas behind one router.

The fleet runs on the same :class:`~repro.serve.engine.EventEngine` as the
single-pool simulator — one heap loop, one replica per
:class:`~repro.serve.dispatcher.Dispatcher`.  This module adds only what
a fleet has and a single pool does not: arrivals hit the cluster edge
(a fleet-wide admission bound), get routed
(:class:`~repro.cluster.router.Router`: session affinity, then
join-the-shortest-queue with seeded ties), and land in one replica's
batcher; each replica dispatches onto its own *lanes* (shard groups of
``tp * pp`` units, :class:`~repro.cluster.sharding.ShardedCostModel`
pricing compute + interconnect per batch).  It also assembles the fleet
summary.

When an :class:`~repro.cluster.autoscaler.AutoscalerConfig` is given, a
periodic autoscale event samples fleet pressure and spawns or drains
replicas mid-trace: new replicas become routable after a provisioning
delay; draining replicas finish their queued and resident work before
their boards return to the free pool (live KV is never evicted).  Every
decision lands in the report as a
:class:`~repro.cluster.autoscaler.ScaleEvent`.

Determinism carries over from the single-pool simulator: integer cycle
time, ``(cycle, sequence)`` event order, a seeded trace and a seeded
router — one ``(trace seed, router seed)`` pair replays byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.router import Router
from repro.cluster.sharding import ShardedCostModel
from repro.cluster.topology import Board, ClusterSpec, Replica
from repro.errors import ConfigurationError
from repro.hw.system import UnitPool
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.recorder import NULL_RECORDER, FlightRecorder
from repro.obs.slo import NULL_SLO, SLOTracker
from repro.obs.tracer import NULL_TRACER, RequestPathConfig, Tracer
from repro.serve.dispatcher import Dispatcher, ServeConfig
from repro.serve.engine import EventEngine, shed
from repro.serve.metrics import MetricsCollector, percentiles
from repro.serve.request import Request

__all__ = ["ClusterConfig", "ClusterReport", "simulate_cluster"]


@dataclass(frozen=True)
class ClusterConfig:
    """One cluster run: serving config, fleet shape, scaling policy.

    ``spike`` (a :class:`~repro.obs.incident_cli.SpikeInjection`, or
    ``None``) injects a deterministic latency spike into every replica's
    cost model, exactly as ``simulate(spike=...)`` does for one pool.
    """

    serve: ServeConfig = ServeConfig()
    spec: ClusterSpec = ClusterSpec()
    autoscaler: AutoscalerConfig | None = None
    initial_replicas: int = 1
    max_cluster_queue: int = 4096
    router_seed: int = 0
    spike: object | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.initial_replicas <= self.spec.max_replicas:
            raise ConfigurationError(
                f"initial_replicas must be in [1, {self.spec.max_replicas}]"
            )
        if self.max_cluster_queue <= 0:
            raise ConfigurationError("cluster admission bound must be positive")
        a = self.autoscaler
        if a is not None:
            if a.max_replicas > self.spec.max_replicas:
                raise ConfigurationError(
                    f"autoscaler max_replicas ({a.max_replicas}) exceeds "
                    f"fleet capacity ({self.spec.max_replicas})"
                )
            if not a.min_replicas <= self.initial_replicas <= a.max_replicas:
                raise ConfigurationError(
                    "initial_replicas outside the autoscaler's "
                    f"[{a.min_replicas}, {a.max_replicas}] band"
                )


@dataclass
class ClusterReport:
    """Outcome of one cluster run: fleet summary, per-replica rows, events."""

    summary: dict
    per_replica: list[dict]
    scale_events: list[dict]
    config: ClusterConfig
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER, repr=False)

    def to_json(self) -> str:
        return json.dumps(
            {
                "summary": self.summary,
                "per_replica": self.per_replica,
                "scale_events": self.scale_events,
            },
            indent=2,
            sort_keys=True,
        )

    def render(self, title: str = "cluster-sim") -> str:
        from repro.eval.reporting import render_metrics

        lines = [render_metrics(title, self.summary)]
        lines.append("")
        lines.append(
            f"{'replica':>8} {'state':>9} {'boards':>8} {'completed':>9} "
            f"{'util':>6} {'p95 ms':>8} {'p99 ms':>8} {'ic %':>6}"
        )
        for row in self.per_replica:
            lines.append(
                f"{row['rid']:>8} {row['state']:>9} "
                f"{','.join(str(b) for b in row['boards']):>8} "
                f"{row['completed']:>9} {row['utilization']:>6.2f} "
                f"{row['latency_p95_ms']:>8.3f} {row['latency_p99_ms']:>8.3f} "
                f"{100 * row['interconnect_share']:>6.2f}"
            )
        if self.scale_events:
            lines.append("")
            for ev in self.scale_events:
                lines.append(
                    f"  cycle {ev['cycle']:>12}  {ev['action']:<10} "
                    f"r{ev['rid']}  active={ev['n_active']}  "
                    f"({ev['reason']})"
                )
        return "\n".join(lines)


def simulate_cluster(
    requests: list[Request],
    config: ClusterConfig = ClusterConfig(),
    *,
    tracer: Tracer = NULL_TRACER,
    registry: MetricsRegistry | None = None,
    slo: SLOTracker = NULL_SLO,
    path: RequestPathConfig | None = None,
    recorder: FlightRecorder = NULL_RECORDER,
) -> ClusterReport:
    """Run the cluster serving simulation over a request trace.

    Besides the engine's own ``finish``/``wake`` events, the fleet
    handles three tags: ``arrive`` (a request at the cluster edge),
    ``spawn`` (a provisioning replica becoming routable) and ``autoscale``
    (a periodic policy sample).

    ``slo`` (default: disabled) is the fleet-wide SLO tracker — every
    replica reports completions/rejections into it, the router uses its
    burn rates for affinity bypass, the autoscaler for burn-triggered
    scale-ups, and the summary gains an ``"slo"`` section.  ``path``
    turns on request-path stage decomposition in the trace: boards
    become trace processes, units threads, and sampled requests carry
    named stage children across the edge -> router -> replica -> shard
    path (one :class:`~repro.obs.tracer.SpanContext` per request).

    ``recorder`` (default: disabled) is shared across the fleet: every
    replica's dispatcher feeds it, edge rejections and scale decisions
    land in its decision ring, and scale events are annotated with the
    incident open at decision time.  Cluster bundles are capture-only
    (``replay.supported = false``): the router's RNG and the
    autoscaler's window state span capture epochs, so the single-pool
    epoch-replay argument does not hold here.
    """
    spec = config.spec
    clock = config.serve.clock
    reg = get_registry() if registry is None else registry
    router = Router(config.router_seed, slo=slo)
    scaler = (
        Autoscaler(config.autoscaler, clock)
        if config.autoscaler is not None
        else None
    )

    boards = [Board(b) for b in range(spec.boards)]
    engine = EventEngine(recorder=recorder, spike=config.spike, slo=slo)
    replicas: list[Replica] = engine.replicas

    def spawn_replica(now: int, active_at: int) -> Replica | None:
        rid = len(replicas)
        free = [b for b in boards if b.free][: spec.boards_per_replica]
        if len(free) < spec.boards_per_replica:
            return None
        for b in free:
            b.owner = rid
        owned = tuple(b.bid for b in free)
        r = Replica(rid, owned, spawned_at=active_at,
                    state="active" if active_at <= now else "provisioning")
        r.cost = ShardedCostModel(
            config.serve, spec.plan,
            interconnect=spec.interconnect,
            tp_cross_board=spec.tp_cross_board,
            pp_cross_boundaries=spec.pp_cross_boundaries,
        )
        # Lane -> board process for the trace: a lane's units live on the
        # board holding its first shard unit (boards as processes,
        # replica lanes as threads under them).
        lane_procs = tuple(
            f"board{owned[(lane * spec.plan.degree) // spec.units_per_board]}"
            for lane in range(spec.lanes_per_replica)
        )
        r.dispatcher = Dispatcher(
            config.serve,
            UnitPool(spec.lanes_per_replica),
            engine.sink(rid),
            # Priced through the (optionally spiked) wrapper; ``r.cost``
            # stays the sharded model the summary's accumulators read.
            cost=engine.priced(r.cost),
            tracer=tracer,
            registry=reg,
            track_prefix=f"r{rid}.",
            slo=slo,
            path=path,
            processes=lane_procs,
            metric_prefix=f"cluster.r{rid}.",
            recorder=recorder,
        )
        replicas.append(r)
        if active_at > now:
            engine.push(active_at, "spawn", rid)
        return r

    def retire(r: Replica, now: int) -> None:
        r.state, r.retired_at = "retired", now
        for b in boards:
            if b.owner == r.rid:
                b.owner = None
        note_active(now)

    _last_active = -1

    def note_active(now: int) -> None:
        nonlocal _last_active
        n = sum(1 for r in replicas if r.active)
        if tracer.enabled and n != _last_active:
            tracer.counter("cluster.active_replicas", cycle=now, value=n)
            _last_active = n

    for _ in range(config.initial_replicas):
        spawn_replica(0, 0)
    note_active(0)

    arrivals_remaining = len(requests)
    cluster_queue_samples: list[tuple[int, int]] = []

    def fleet_depth() -> int:
        return sum(r.dispatcher.depth() for r in replicas if r.active)

    def work_pending() -> bool:
        return arrivals_remaining > 0 or any(
            r.state == "provisioning" or not r.drained()
            for r in replicas if r.state != "retired")

    def run_autoscale(now: int) -> None:
        pending_up = sum(1 for r in replicas if r.state == "provisioning")
        free_capacity = (
            sum(1 for b in boards if b.free) // spec.boards_per_replica
        )
        burn = slo.fleet_burn(now)
        action = scaler.decide(
            now, replicas, pending_up=pending_up,
            free_capacity=free_capacity, burn_rate=burn,
        )
        if action is None:
            return
        depth, util = scaler._last_signals
        n_active = sum(1 for r in replicas if r.active)
        if action == "up":
            r = spawn_replica(now, now + scaler.provision)
            if r is None:  # pragma: no cover - guarded by free_capacity
                return
            if depth > scaler.cfg.scale_up_queue:
                reason = f"queue {depth:.1f} > {scaler.cfg.scale_up_queue:g}"
            elif util > scaler.cfg.scale_up_utilization:
                reason = f"util {util:.2f} > {scaler.cfg.scale_up_utilization:g}"
            else:
                reason = (f"burn {burn:.2f} > "
                          f"{scaler.cfg.scale_up_burn_rate:g}")
            ev = scaler.record(
                now, "scale_up", r.rid, n_active + pending_up + 1,
                depth, util, reason, burn,
                incident=recorder.active_incident_id(),
            )
        else:
            # Drain the shallowest-queue active replica; ties go to the
            # youngest (highest rid) so long-lived replicas keep their
            # warm sessions.
            active = [r for r in replicas if r.active]
            victim = min(
                active, key=lambda r: (r.dispatcher.depth(), -r.rid)
            )
            victim.state = "draining"
            router.forget(victim.rid)
            ev = scaler.record(
                now, "scale_down", victim.rid, n_active - 1, depth, util,
                f"queue {depth:.1f} < {scaler.cfg.scale_down_queue:g} and "
                f"util {util:.2f} < {scaler.cfg.scale_down_utilization:g}",
                burn,
                incident=recorder.active_incident_id(),
            )
            if victim.drained():
                retire(victim, now)
        note_active(now)
        recorder.record_scale(now, ev.as_dict())
        reg.counter(f"cluster.{ev.action}").inc()
        if tracer.enabled:
            tracer.span(
                f"{ev.action} r{ev.rid}",
                track="cluster",
                start=now,
                end=now,
                cat="autoscale",
                args=ev.as_dict(),
            )

    def arrive(now: int, req: Request) -> list[Replica]:
        nonlocal arrivals_remaining
        arrivals_remaining -= 1
        target = (router.route(req, replicas, now)
                  if fleet_depth() < config.max_cluster_queue else None)
        if target is None:  # edge bound hit (or no routable replica)
            engine.edge_rejected += 1
            shed(req, now, slo, recorder, reg, "cluster.edge_rejections")
            return []
        if target.dispatcher.admit(req, now):
            ctx = target.dispatcher.trace_ctx(req)
            if ctx is not None:
                ctx.child(
                    "route", start=req.arrival, end=now,
                    args={"replica": target.rid,
                          "queue_depth": target.dispatcher.depth()},
                )
        return [target]

    def spawn(now: int, rid: int) -> list[Replica]:
        r = replicas[rid]  # provisioning until now: never routed or drained
        r.state = "active"
        note_active(now)
        return [r]

    def autoscale(now: int, _) -> list[Replica]:
        run_autoscale(now)
        if work_pending():
            engine.push(now + scaler.interval, "autoscale")
        return [r for r in replicas if r.state != "retired"]

    engine.handlers.update(arrive=arrive, spawn=spawn, autoscale=autoscale)
    engine.on_retire = retire
    engine.after_event = lambda now: cluster_queue_samples.append(
        (now, fleet_depth()))
    engine.run(requests, [(scaler.interval, "autoscale")] if scaler else [])
    edge_rejected = engine.edge_rejected
    scale_events = scaler.events if scaler else []
    lookups = router.affinity_hits + router.affinity_misses

    # -- merge ----------------------------------------------------------------
    merged = MetricsCollector()
    total_busy = 0
    for r in replicas:
        m = r.dispatcher.metrics
        merged.arrivals += m.arrivals
        merged.rejections += m.rejections
        merged.completed += m.completed
        merged.tokens_out += m.tokens_out
        merged.deadline_misses += m.deadline_misses
        merged.latencies.extend(m.latencies)
        merged.ttft.extend(m.ttft)
        merged.last_completion = max(merged.last_completion, m.last_completion)
        for phase, sizes in m.batch_sizes.items():
            merged.batch_sizes.setdefault(phase, []).extend(sizes)
        total_busy += r.dispatcher.busy_cycles
    merged.queue_samples = cluster_queue_samples
    horizon = merged.last_completion

    summary = merged.summary(clock=clock, busy_cycles=total_busy)
    capacity = sum(
        r.active_span(horizon) * r.dispatcher.pool.n_units for r in replicas
    )
    summary["utilization"] = total_busy / capacity if capacity else 0.0
    summary["arrivals"] = merged.arrivals + edge_rejected
    summary["rejected"] = merged.rejections + edge_rejected
    summary["rejection_rate"] = (
        summary["rejected"] / summary["arrivals"] if summary["arrivals"] else 0.0
    )
    compute_total = sum(r.cost.compute_cycles_total for r in replicas)
    inter_total = sum(r.cost.interconnect_cycles_total for r in replicas)
    lane_total = compute_total + inter_total
    summary.update(
        {
            "edge_rejected": edge_rejected,
            "replicas_spawned": len(replicas),
            "replicas_final": sum(1 for r in replicas if r.active),
            "scale_ups": sum(e.action == "scale_up" for e in scale_events),
            "scale_downs": sum(e.action == "scale_down" for e in scale_events),
            "interconnect_share": inter_total / lane_total if lane_total else 0.0,
            "interconnect_cycles": inter_total,
            "affinity_hit_rate": (router.affinity_hits / lookups
                                  if lookups else 0.0),
            "shard_plan": spec.plan.describe(),
            "lanes_per_replica": spec.lanes_per_replica,
            "active_sessions_peak_kv_mib": sum(
                r.dispatcher.sessions.peak_kv_bytes for r in replicas
            ) / 2**20,
        }
    )
    if slo.enabled:
        summary["slo"] = slo.snapshot(horizon)
        summary["slo_router_bypasses"] = router.slo_bypasses
    if recorder.enabled:
        summary["recorder"] = recorder.finalize(horizon)

    per_replica: list[dict] = []
    f = clock.freq_hz
    for r in replicas:
        m = r.dispatcher.metrics
        span = r.active_span(horizon)
        lanes = r.dispatcher.pool.n_units
        _, p95, p99 = percentiles(m.latencies)
        mean_q, _, _, _ = m._queue_stats()
        per_replica.append(
            {
                "rid": r.rid,
                "state": r.state,
                "boards": list(r.boards),
                "spawned_at": r.spawned_at,
                "retired_at": r.retired_at,
                "lanes": lanes,
                "plan": spec.plan.describe(),
                "arrivals": m.arrivals,
                "completed": m.completed,
                "rejected": m.rejections,
                "tokens_out": m.tokens_out,
                "dispatches": sum(len(v) for v in m.batch_sizes.values()),
                "busy_cycles": r.dispatcher.busy_cycles,
                "utilization": (
                    r.dispatcher.busy_cycles / (span * lanes)
                    if span and lanes else 0.0
                ),
                "latency_p95_ms": p95 / f * 1e3,
                "latency_p99_ms": p99 / f * 1e3,
                "mean_queue_depth": mean_q,
                "interconnect_share": r.cost.interconnect_share,
            }
        )

    if reg.enabled:
        reg.counter("cluster.arrivals").inc(summary["arrivals"])
        reg.counter("cluster.tokens_out").inc(merged.tokens_out)
        reg.gauge("cluster.replicas_spawned").set(len(replicas))
        reg.gauge("cluster.horizon_cycles").set(horizon)
        # Per-replica/board-labeled fleet metrics: the dispatcher already
        # namespaces its live counters under ``cluster.r<rid>.``; these
        # summary gauges make per-replica utilization (and which boards
        # backed it) verifiable straight from a --metrics-out dump.
        for r, row in zip(replicas, per_replica):
            base = f"cluster.r{r.rid}"
            reg.gauge(f"{base}.utilization").set(row["utilization"])
            reg.gauge(f"{base}.busy_cycles").set(row["busy_cycles"])
            reg.counter(f"{base}.completed").inc(row["completed"])
            reg.counter(f"{base}.tokens_out").inc(row["tokens_out"])
            reg.gauge(f"{base}.interconnect_share").set(
                row["interconnect_share"]
            )
            for bid in r.boards:
                reg.gauge(f"cluster.board{bid}.replica").set(r.rid)

    return ClusterReport(summary, per_replica,
                         [e.as_dict() for e in scale_events], config, tracer)
