"""The indexed dispatch scan launches exactly what the full scan did.

:meth:`~repro.serve.dispatcher.Dispatcher.try_dispatch` polls only the
idle units that can launch: a decode step pinned to the unit is queued,
the ViT batch has closed, or the prefill batch has closed and the unit
has a free KV slot.  :class:`FullScanDispatcher` below is the reference
scan it replaced: poll every idle unit, lowest first, and restart from
the lowest after each launch.  Hypothesis draws the traffic, pool shape,
slot counts, queue bound and batching window; the serialized reports of
the two must be byte-identical, single-pool and on an autoscaled fleet.
"""

import json
from collections import Counter
from unittest import mock

from hypothesis import given, strategies as st

import repro.cluster.simulate as cluster_simulate
import repro.serve.dispatcher as serve_dispatcher
from repro.cluster import (AutoscalerConfig, ClusterConfig, ClusterSpec,
                           ShardPlan, simulate_cluster)
from repro.models.configs import DEIT_TINY
from repro.obs.tracer import Tracer
from repro.perf.throughput import ClockConfig
from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.dispatcher import CostModel, Dispatcher, ServeConfig, simulate
from repro.serve.request import TrafficConfig, poisson_trace

#: Heap events and batcher polls of the golden trace (seed 123, 400
#: requests, default config).  The full scan polled 36974 times, 6.6
#: per event.
GOLDEN_EVENTS = 5563
GOLDEN_POLLS = 4929


class FullScanDispatcher(Dispatcher):
    """Reference: poll every idle unit in ascending order, restart the
    scan after each launch, stop at the first scan that launches nothing."""

    polls = 0

    def try_dispatch(self, now: int) -> None:
        while self.idle:
            for u in sorted(self.idle):
                FullScanDispatcher.polls += 1
                batch = self.batcher.pop_ready(
                    now, u,
                    prefill_slots=self.sessions.free_slots(u),
                    decode_sessions=self.sessions.active(u),
                )
                if batch is not None:
                    self._launch(u, batch, now)
                    break
            else:
                break
        self._arm_wake(now)


def _reference():
    """Patch the reference scan into both simulators."""
    FullScanDispatcher.polls = 0
    patches = [mock.patch.object(m, "Dispatcher", FullScanDispatcher)
               for m in (serve_dispatcher, cluster_simulate)]
    for p in patches:
        p.start()
    return patches


def _assert_same(run):
    """``run()`` (a tuple of serialized outputs) is byte-identical under
    the shipped scan and under the reference.  A mismatch is reported at
    its first differing byte: pytest's diff of two large JSON documents
    is too slow to build while hypothesis shrinks."""
    shipped = run()
    patches = _reference()
    try:
        reference = run()
    finally:
        for p in patches:
            p.stop()
    assert FullScanDispatcher.polls > 0  # the reference really ran
    for a, b in zip(shipped, reference):
        if a != b:
            i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                     min(len(a), len(b)))
            lo = max(i - 80, 0)
            raise AssertionError(f"outputs differ at byte {i}: "
                                 f"{a[lo:i + 80]!r} != {b[lo:i + 80]!r}")


@st.composite
def traffic(draw):
    p_lo = draw(st.integers(1, 96))
    g_lo = draw(st.integers(1, 12))
    return TrafficConfig(
        rate_rps=draw(st.sampled_from([60.0, 500.0, 3000.0, 20000.0])),
        vit_fraction=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
        prompt_tokens=(p_lo, p_lo + draw(st.integers(0, 64))),
        gen_tokens=(g_lo, g_lo + draw(st.integers(0, 24))),
    )


@st.composite
def serve_configs(draw, n_units=True):
    clock = (ClockConfig(n_units=draw(st.sampled_from([1, 2, 3, 15])))
             if n_units else ClockConfig())
    return ServeConfig(
        policy=BatchPolicy(
            max_batch=draw(st.integers(1, 8)),
            max_wait_us=draw(st.sampled_from([0.0, 20.0, 200.0, 3000.0])),
            vit_max_batch=draw(st.integers(1, 3)),
        ),
        max_queue=draw(st.sampled_from([1, 3, 16, 512])),
        max_sessions_per_unit=draw(st.sampled_from([1, 2, 3, 8])),
        clock=clock,
    )


@given(traffic(), serve_configs(), st.integers(10, 150),
       st.integers(0, 2**16))
def test_single_pool_matches_full_scan(cfg, config, n, seed):
    trace = poisson_trace(n, cfg, seed=seed)

    def run():
        # The per-unit job logs pin which unit took each batch, which
        # the report's aggregates alone cannot tell apart.
        report = simulate(trace, config)
        return (report.to_json(),
                json.dumps([t.jobs for t in report.pool.timelines]))

    _assert_same(run)


@given(traffic(), serve_configs(n_units=False), st.integers(10, 150),
       st.integers(0, 2**16), st.sampled_from([1, 3]))
def test_autoscaled_fleet_matches_full_scan(cfg, serve, n, seed, tp):
    trace = poisson_trace(n, cfg, seed=seed, n_users=6)
    config = ClusterConfig(
        serve=serve,
        spec=ClusterSpec(boards=2, plan=ShardPlan(tp=tp)),
        autoscaler=AutoscalerConfig(
            min_replicas=1, max_replicas=2, interval_us=500.0,
            cooldown_us=1_000.0, provision_us=200.0,
            scale_up_queue=4.0, scale_down_queue=1.0),
        max_cluster_queue=64,
    )

    def run():
        # The trace's per-lane dispatch spans pin the lane of each batch.
        tracer = Tracer()
        report = simulate_cluster(trace, config, tracer=tracer)
        return report.to_json(), tracer.to_json()

    _assert_same(run)


# -- deterministic work counters ----------------------------------------------

def _count(monkeypatch, counts, cls, name):
    fn = getattr(cls, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


def test_golden_trace_polls_at_most_once_per_event(monkeypatch):
    counts = Counter()
    _count(monkeypatch, counts, DynamicBatcher, "pop_ready")
    for name in ("try_dispatch", "on_finish", "on_wake"):
        _count(monkeypatch, counts, Dispatcher, name)
    simulate(poisson_trace(400, TrafficConfig(), seed=123), ServeConfig())
    events = 400 + counts["on_finish"] + counts["on_wake"]
    assert (events, counts["pop_ready"]) == (GOLDEN_EVENTS, GOLDEN_POLLS)
    assert counts["try_dispatch"] == events
    assert counts["pop_ready"] <= events


def test_cost_model_compiles_each_distinct_job_once(monkeypatch):
    import repro.perf.latency as latency

    keys = Counter()
    for name in ("decoder_batch_unit_cycles", "vit_batch_unit_cycles"):
        fn = getattr(latency, name)

        def counted(*args, _fn=fn, **kwargs):
            keys[args] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(latency, name, counted)
    report = simulate(poisson_trace(400, TrafficConfig(), seed=123),
                      ServeConfig())
    assert set(keys.values()) == {1}
    assert len(keys) < report.summary["dispatches"]
    # The memo is per instance: a fresh model looks its keys up again,
    # once each (three decode contexts share one 16-token bucket).
    before = Counter(keys)
    model = CostModel(ServeConfig()).core
    for context in (17, 20, 32, 17):
        model.job_cycles("decode", 4, context)
    model.job_cycles("vit", 1)
    model.job_cycles("vit", 1)
    assert keys - before == Counter({("decode", 4, 32): 1, (DEIT_TINY, 1): 1})
