"""The serving event engine: one heap loop for a single pool or a fleet.

:func:`repro.serve.dispatcher.simulate` runs the single pool as a
one-replica fleet (no edge bound, no router, no autoscaler);
:func:`repro.cluster.simulate.simulate_cluster` registers its edge-admit,
spawn and autoscale handlers on the same loop.  The engine owns the heap,
routes each replica's tagged ``finish``/``wake`` events back to it, runs
the post-event dispatch and drain check, marks the flight recorder's idle
points, injects the latency spike, and checks conservation at drain.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import ConservationError
from repro.obs.recorder import NULL_RECORDER, FlightRecorder
from repro.obs.slo import NULL_SLO, SLOTracker

__all__ = ["EventSink", "Replica", "EventEngine", "shed"]

#: Event sink signature: ``push(cycle, tag, payload)``.
EventSink = Callable[[int, str, object], None]


@dataclass
class Replica:
    """One servable model instance: boards, lanes, dispatcher, lifecycle.

    ``state`` walks (``provisioning`` ->) ``active`` (routable) ->
    ``draining`` (finishes its queued/resident work, accepts nothing new)
    -> ``retired`` (boards freed).  The simulator attaches ``dispatcher`` and
    ``cost``; the single pool is replica 0 on no named boards.
    """

    rid: int
    boards: tuple[int, ...]
    spawned_at: int
    dispatcher: object = field(default=None, repr=False)
    cost: object = field(default=None, repr=False)
    state: str = "active"
    retired_at: int | None = None

    @property
    def active(self) -> bool:
        return self.state == "active"

    def active_span(self, horizon: int) -> int:
        """Cycles this replica existed (spawn to retirement or horizon)."""
        end = self.retired_at if self.retired_at is not None else horizon
        return max(end - self.spawned_at, 0)

    def idle(self) -> bool:
        """Every lane free and nothing queued (an idle point)."""
        d = self.dispatcher
        return len(d.idle) == d.pool.n_units and d.batcher.empty()

    def drained(self) -> bool:
        """Idle, with no resident KV sessions either."""
        return self.idle() and self.dispatcher.active_sessions() == 0


def shed(req, now: int, slo, recorder: FlightRecorder, registry,
         counter: str) -> None:
    """The one rejection fan-out (SLO, recorder + burn, registry
    ``counter``); the caller keeps its own tally."""
    slo.record_rejection(req, now)
    if recorder.enabled:
        recorder.record_rejection(req, now)
        if slo.enabled:
            recorder.observe_burn(now, slo.fleet_burn(now))
    if registry.enabled:
        registry.counter(counter).inc()


class EventEngine:
    """The serving event loop over :attr:`replicas` (index = replica id).

    The simulator registers ``handlers`` (at least ``arrive``): event tag ->
    ``handler(cycle, payload)``, returning the replicas the event touched.
    ``after_event(cycle)`` runs after every event, and ``on_retire(replica,
    cycle)`` retires a draining replica once it has drained.  ``slo`` is
    the run's SLO tracker, checked against the replicas at drain.
    """

    def __init__(self, *, recorder: FlightRecorder = NULL_RECORDER,
                 spike: object | None = None,
                 slo: SLOTracker = NULL_SLO) -> None:
        self.events: list[tuple[int, int, str, object]] = []
        self._seq = itertools.count()
        self.replicas: list[Replica] = []
        self.recorder = recorder
        self.spike = spike
        self.slo = slo
        self.handlers: dict[str, Callable] = {}
        self.after_event: Callable[[int], None] | None = None
        self.on_retire: Callable[[Replica, int], None] | None = None
        #: Arrivals shed before reaching any replica (the cluster edge).
        self.edge_rejected = 0

    def push(self, t: int, tag: str, payload: object = None) -> None:
        heapq.heappush(self.events, (t, next(self._seq), tag, payload))

    def sink(self, rid: int) -> EventSink:
        """Replica ``rid``'s event sink: tags events with its id."""
        events, seq = self.events, self._seq

        def push(t: int, tag: str, payload: object = None) -> None:
            heapq.heappush(events, (t, next(seq), tag, (rid, payload)))

        return push

    def priced(self, cost):
        """``cost`` with the run's latency spike folded in (if any)."""
        if self.spike is None:
            return cost
        from repro.obs.incident_cli import SpikedCostModel

        return SpikedCostModel(cost, self.spike)

    def run(self, requests: list,
            timers: Iterable[tuple[int, str]] = ()) -> int:
        """Queue the arrivals, then the ``(cycle, tag)`` timers; process
        every event; check conservation.  Returns the last event cycle."""
        for req in sorted(requests, key=lambda r: (r.arrival, r.rid)):
            self.push(req.arrival, "arrive", req)
        for t, tag in timers:
            self.push(t, tag)
        events, replicas, handlers = self.events, self.replicas, self.handlers
        after, recorder = self.after_event, self.recorder
        rec_on = recorder.enabled
        now = 0
        while events:
            now, _, tag, payload = heapq.heappop(events)
            if tag == "finish":
                rid, (unit, batch) = payload
                touched = (replicas[rid],)
                replicas[rid].dispatcher.on_finish(unit, batch, now)
            elif tag == "wake":
                touched = (replicas[payload[0]],)
                touched[0].dispatcher.on_wake(now)
            else:
                touched = handlers[tag](now, payload)
            for r in touched:
                d = r.dispatcher
                d.try_dispatch(now)
                d.observe_queue(now)
                if r.state == "draining" and r.drained():
                    self.on_retire(r, now)
            if after is not None:
                after(now)
            if rec_on and all(r.idle() for r in replicas
                              if r.state != "retired"):
                # Every live unit free and every batcher empty: the
                # recorder's capture-epoch boundary (replay re-simulates
                # exactly one epoch from its arrival rows).
                recorder.end_event(now, True)
        self.check_conservation(len(requests))
        return now

    def check_conservation(self, arrivals: int) -> None:
        """Raise :class:`~repro.errors.ConservationError` unless every
        arrival completed or was shed once, every completed llm request
        got exactly its ``gen_tokens``, the SLO tracker (when on) counted
        the replicas' deadline misses, every replica drained, and no
        replica was busy beyond its active span x lanes."""
        metrics = [r.dispatcher.metrics for r in self.replicas]
        done = sum(m.completed for m in metrics)
        shed_ = sum(m.rejections for m in metrics) + self.edge_rejected
        if arrivals != done + shed_:
            raise ConservationError(
                f"{arrivals} arrivals != {done} completed + {shed_} rejected")
        tokens = sum(m.tokens_out for m in metrics)
        owed = sum(m.tokens_owed for m in metrics)
        if tokens != owed:
            raise ConservationError(
                f"{tokens} tokens out != {owed} gen_tokens of the "
                f"completed llm requests")
        misses = sum(m.deadline_misses for m in metrics)
        if self.slo.enabled and self.slo.deadline_misses != misses:
            raise ConservationError(
                f"SLO tracker counted {self.slo.deadline_misses} deadline "
                f"misses, the replicas {misses}")
        horizon = max((m.last_completion for m in metrics), default=0)
        for r in self.replicas:
            d = r.dispatcher
            capacity = r.active_span(horizon) * d.pool.n_units
            if not r.drained() or d.busy_cycles > capacity:
                raise ConservationError(
                    f"replica {r.rid} at drain: {d.depth()} queued, "
                    f"{d.active_sessions()} open KV sessions, "
                    f"{d.pool.n_units - len(d.idle)} busy units, "
                    f"{d.busy_cycles} busy of {capacity} capacity cycles")
