"""Cluster serving must be bit-identical across event-engine refactors.

The serve golden (``tests/serve/test_refactor_golden.py``) pins the
single-pool loop; this file pins the fleet loop the same way.  One seeded
run exercises every cluster code path at once: a 4-board ``tp=3`` fleet
on a diurnal trace, an autoscaler that spawns and drains replicas (with
SLO burn coupling), full request-path tracing, an SLO tracker, a flight
recorder, an injected latency spike, and bounds tight enough to shed at
both the cluster edge and a replica's intake queue.  ``report.to_json()``
must match the committed bytes, and the Perfetto export and the
recorder's incident bundles must match their committed SHA-256s.

Regenerate (only for an intentional semantic change, and say so) with
``PYTHONPATH=src python tests/cluster/test_refactor_golden.py``.
"""

import hashlib
import json
from pathlib import Path

from repro.cluster import (
    AutoscalerConfig,
    ClusterConfig,
    ClusterSpec,
    ShardPlan,
    simulate_cluster,
)
from repro.obs.incident_cli import SpikeInjection
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder, RecorderConfig, canonical_sha256
from repro.obs.slo import SLOClass, SLOConfig, SLOTracker
from repro.obs.tracer import RequestPathConfig, Tracer
from repro.serve.dispatcher import ServeConfig
from repro.serve.request import DiurnalConfig, TrafficConfig, diurnal_trace

DATA = Path(__file__).parent / "data"
GOLDEN_REPORT = DATA / "golden_cluster_seed7_r600.json"
GOLDEN_DIGESTS = DATA / "golden_cluster_seed7_r600_digests.json"


def _run():
    trace = diurnal_trace(
        600, TrafficConfig(rate_rps=800.0),
        DiurnalConfig(period_s=0.3, amplitude=0.9),
        seed=7, n_users=32,
    )
    config = ClusterConfig(
        serve=ServeConfig(max_queue=12),
        spec=ClusterSpec(boards=4, plan=ShardPlan(tp=3)),
        autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=4,
                                    scale_up_burn_rate=2.0),
        max_cluster_queue=30,
        spike=SpikeInjection(start_cycle=60_000_000, end_cycle=75_000_000,
                             extra_cycles=3_000_000),
    )
    tracer = Tracer(meta={"seed": 7, "requests": 600})
    slo = SLOTracker(SLOConfig(classes=(SLOClass("vit", 0.99),
                                        SLOClass("llm", 0.99))))
    recorder = FlightRecorder(RecorderConfig(), run="cluster-golden",
                              tracer=tracer, replayable=False,
                              replayable_reason="cluster capture")
    report = simulate_cluster(trace, config, tracer=tracer,
                              registry=MetricsRegistry(), slo=slo,
                              path=RequestPathConfig(), recorder=recorder)
    digests = {
        "tracer_sha256": hashlib.sha256(tracer.to_json().encode()).hexdigest(),
        "incidents_sha256": canonical_sha256(recorder.incidents),
    }
    return report, digests


def test_cluster_run_matches_golden():
    report, digests = _run()
    assert report.to_json() == GOLDEN_REPORT.read_text().rstrip("\n")
    assert digests == json.loads(GOLDEN_DIGESTS.read_text())


def test_golden_run_exercises_the_fleet_paths():
    """The pinned run must keep covering what it is there to pin."""
    s = json.loads(GOLDEN_REPORT.read_text())["summary"]
    assert s["scale_ups"] >= 1 and s["scale_downs"] >= 1
    assert s["replicas_spawned"] >= 2
    assert 0 < s["edge_rejected"] < s["rejected"]  # both rejection sites
    assert s["slo"]["classes"]
    assert s["recorder"]["incidents"] >= 1


if __name__ == "__main__":
    report, digests = _run()
    DATA.mkdir(exist_ok=True)
    GOLDEN_REPORT.write_text(report.to_json() + "\n")
    GOLDEN_DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True)
                              + "\n")
