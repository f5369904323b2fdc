"""Serving-run tracing: coverage, determinism, and registry publishing."""

import hashlib
import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RequestPathConfig, Tracer, validate_chrome_trace
from repro.serve.dispatcher import ServeConfig, simulate
from repro.serve.request import TrafficConfig, poisson_trace

TRAFFIC = TrafficConfig(rate_rps=150.0, vit_fraction=0.2)


@pytest.fixture(scope="module")
def traced_run():
    trace = poisson_trace(120, TRAFFIC, seed=5)
    tracer = Tracer(meta={"seed": 5})
    registry = MetricsRegistry()
    report = simulate(trace, ServeConfig(), tracer=tracer, registry=registry)
    return report, tracer, registry


def test_dispatch_spans_cover_all_busy_cycles(traced_run):
    """Acceptance bar: per-unit spans cover >= 99% of reported busy cycles."""
    report, tracer, _ = traced_run
    span_busy = tracer.busy_cycles(cat="dispatch")
    pool_busy = sum(t.busy_cycles for t in report.pool.timelines)
    assert pool_busy > 0
    assert span_busy >= 0.99 * pool_busy
    assert span_busy <= pool_busy  # spans never exceed the pool's accounting


def test_every_completed_request_has_an_async_span(traced_run):
    report, tracer, _ = traced_run
    assert len(tracer.async_spans) == report.summary["completed"]
    rids = {a.span_id for a in tracer.async_spans}
    assert len(rids) == len(tracer.async_spans)  # unique per request


def test_trace_export_validates(traced_run):
    _, tracer, _ = traced_run
    stats = validate_chrome_trace(json.loads(tracer.to_json()))
    assert stats["X"] == len(tracer.spans)
    assert stats["b"] == stats["e"] == len(tracer.async_spans)


def test_same_seed_traces_are_byte_identical():
    def run():
        trace = poisson_trace(60, TRAFFIC, seed=11)
        tracer = Tracer(meta={"seed": 11})
        simulate(trace, ServeConfig(), tracer=tracer)
        return tracer.to_json()

    assert run() == run()


#: SHA-256 of the seed-0 single-pool export below.  The cluster golden
#: pins the fleet trace; this pins the single-pool one (pid 0 only,
#: request-path stages, flows, queue-depth counters) across serializer
#: changes.  It changes only with an intentional change to what is traced.
SINGLE_POOL_EXPORT_SHA256 = (
    "32279a36c1d06bedf74f6080ccb5ee845b0a85640d8e8a5905c45b92662f7dc2"
)


def test_single_pool_export_bytes_are_pinned():
    trace = poisson_trace(
        200, TrafficConfig(rate_rps=1200.0, vit_fraction=0.25), seed=0)
    tracer = Tracer(meta={"seed": 0, "requests": 200})
    simulate(trace, ServeConfig(), tracer=tracer, path=RequestPathConfig())
    export = tracer.to_json()
    assert len(export) == 1362687
    assert hashlib.sha256(export.encode()).hexdigest() == (
        SINGLE_POOL_EXPORT_SHA256)


def test_registry_receives_serving_metrics(traced_run):
    report, _, registry = traced_run
    d = registry.as_dict()
    assert d["counters"]["serve.arrivals"] == report.summary["arrivals"]
    assert d["counters"]["serve.tokens_out"] == report.summary["tokens_out"]
    assert d["histograms"]["serve.queue_depth"]["count"] > 0
    fills = [k for k in d["histograms"] if k.startswith("serve.batch_fill.")]
    assert fills  # per-phase batch-fill histograms present


def test_null_tracer_run_matches_traced_summary(traced_run):
    """Tracing must not perturb the simulation (zero-overhead path)."""
    report, _, _ = traced_run
    trace = poisson_trace(120, TRAFFIC, seed=5)
    plain = simulate(trace, ServeConfig())
    assert plain.summary == report.summary
