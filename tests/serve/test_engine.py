"""The shared serving event engine: one loop, conservation at drain."""

import pytest

from repro.cluster import ClusterConfig, ClusterSpec, simulate_cluster
from repro.cluster.router import Router
from repro.errors import ConservationError, ReproError
from repro.hw.system import UnitPool
from repro.obs.slo import NULL_SLO, SLOConfig, SLOTracker
from repro.serve.dispatcher import CostModel, Dispatcher, ServeConfig, simulate
from repro.serve.engine import EventEngine, Replica
from repro.serve.metrics import MetricsCollector
from repro.serve.request import TrafficConfig, poisson_trace


def _trace(n=120, seed=3):
    return poisson_trace(n, TrafficConfig(rate_rps=400.0), seed=seed)


def _engine(config=ServeConfig(), slo=NULL_SLO):
    """A single-pool engine built the way ``simulate`` builds it."""
    engine = EventEngine(slo=slo)
    d = Dispatcher(config, UnitPool(config.clock.n_units), engine.sink(0),
                   cost=CostModel(config), slo=slo)
    solo = Replica(0, (), spawned_at=0, dispatcher=d)
    engine.replicas.append(solo)
    engine.handlers["arrive"] = lambda now, req: (d.admit(req, now), solo)[1:]
    return engine, d


def test_engine_reproduces_simulate():
    trace = _trace()
    engine, d = _engine()
    engine.run(trace)
    report = simulate(trace)
    assert d.metrics.completed == report.summary["completed"] == len(trace)
    assert d.busy_cycles == sum(t.busy_cycles for t in report.pool.timelines)


def test_conservation_error_is_a_repro_error():
    # Raised, not asserted: ``python -O`` cannot strip the check.
    assert issubclass(ConservationError, ReproError)


def test_corrupted_completion_count_raises():
    trace = _trace()
    engine, d = _engine()
    engine.run(trace)
    engine.check_conservation(len(trace))  # the honest run conserves
    d.metrics.completed += 1
    with pytest.raises(ConservationError, match="arrivals"):
        engine.check_conservation(len(trace))


def test_corrupted_busy_cycles_raise():
    trace = _trace()
    engine, d = _engine()
    engine.run(trace)
    d.pool.timelines[0].busy_cycles += (
        d.metrics.last_completion * d.pool.n_units + 1)
    with pytest.raises(ConservationError, match="capacity"):
        engine.check_conservation(len(trace))


def test_open_session_at_drain_raises():
    trace = _trace()
    engine, d = _engine()
    engine.run(trace)
    llm = next(r for r in trace if r.kind == "llm")
    d.sessions.open(llm, 0)
    with pytest.raises(ConservationError, match="open KV sessions"):
        engine.check_conservation(len(trace))


def test_corrupted_token_count_raises():
    trace = _trace()
    engine, d = _engine()
    engine.run(trace)
    assert d.metrics.tokens_out == d.metrics.tokens_owed > 0
    d.metrics.tokens_out += 1
    with pytest.raises(ConservationError, match="tokens out"):
        engine.check_conservation(len(trace))


def test_lost_token_is_caught_during_the_run(monkeypatch):
    monkeypatch.setattr(MetricsCollector, "record_token", lambda self: None)
    with pytest.raises(ConservationError, match="tokens out"):
        simulate(_trace())


def test_corrupted_deadline_misses_raise():
    trace = poisson_trace(200, TrafficConfig(rate_rps=5000.0), seed=4)
    engine, d = _engine(slo=SLOTracker(SLOConfig()))
    engine.run(trace)
    assert engine.slo.deadline_misses == d.metrics.deadline_misses > 0
    d.metrics.deadline_misses -= 1
    with pytest.raises(ConservationError, match="deadline misses"):
        engine.check_conservation(len(trace))


def test_deadline_misses_unchecked_without_slo():
    trace = _trace()
    engine, d = _engine()
    engine.run(trace)
    d.metrics.deadline_misses += 1  # nothing to agree with
    engine.check_conservation(len(trace))


def test_lost_rejection_is_caught_during_the_run(monkeypatch):
    # A metrics collector that forgets rejections breaks conservation;
    # the engine's drain check catches it inside simulate().
    monkeypatch.setattr(MetricsCollector, "record_rejection",
                        lambda self, req: None)
    trace = poisson_trace(200, TrafficConfig(rate_rps=5000.0), seed=1)
    with pytest.raises(ConservationError):
        simulate(trace, ServeConfig(max_queue=4))


def test_single_pool_never_routes(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("single-pool run called Router.route")

    monkeypatch.setattr(Router, "route", fail)
    report = simulate(_trace())
    assert report.summary["completed"] == 120


def test_cluster_edge_rejections_are_conserved():
    trace = poisson_trace(300, TrafficConfig(rate_rps=8000.0), seed=2,
                          n_users=8)
    report = simulate_cluster(trace, ClusterConfig(
        serve=ServeConfig(max_queue=8), spec=ClusterSpec(boards=1),
        max_cluster_queue=8))
    s = report.summary
    assert s["edge_rejected"] > 0
    assert s["completed"] + s["rejected"] == s["arrivals"] == 300
