"""Smoke test for the ``python -m repro`` command-line entry point."""

import json
import subprocess
import sys
from pathlib import Path


def test_cli_fast_report(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = proc.stdout
    # Every fast table/figure appears in the combined report.
    for marker in (
        "Table I", "Table II", "Fig. 6", "Fig. 7", "Table III", "Table IV",
        "Bitwidth sweep", "Half-precision",
    ):
        assert marker in out, marker
    written = {p.name for p in Path(tmp_path).glob("*.txt")}
    assert "table2_hardware_utilization.txt" in written
    assert "fig7_throughput.txt" in written
    assert len(written) == 8


def test_cli_serve_sim_observability_outputs(tmp_path):
    trace_out = tmp_path / "run.perfetto.json"
    json_out = tmp_path / "summary.json"
    metrics_out = tmp_path / "metrics.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve-sim",
         "--requests", "100", "--seed", "1", "--slo",
         "--trace-out", str(trace_out),
         "--json-out", str(json_out),
         "--metrics-out", str(metrics_out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "trace written to" in proc.stdout

    from repro.obs.tracer import validate_chrome_trace

    doc = json.loads(trace_out.read_text())
    stats = validate_chrome_trace(doc)
    assert stats["X"] > 0 and stats["b"] == stats["e"]
    assert doc["otherData"]["seed"] == 1

    doc = json.loads(json_out.read_text())
    assert doc["schema_version"] == 1
    summary = doc["summary"]
    assert summary["arrivals"] == 100
    assert "queue_depth_p99" in summary and "batch_size_hist" in summary
    # The compiled-plan ledger and the SLO snapshot ride along in the
    # artifact and round-trip the full report (satellite: --json-out is
    # self-contained, no re-simulation needed to read the plan story).
    plans = doc["plans"]
    assert plans is not None and plans["dispatches"] >= plans["replays"] > 0
    assert doc["slo"] is not None and doc["slo"] == summary["slo"]
    assert set(doc["slo"]["classes"]) == {"vit", "llm"}

    metrics = json.loads(metrics_out.read_text())
    assert metrics["counters"]["serve.arrivals"] == 100


def test_cli_incident_capture_and_replay(tmp_path):
    """Mirror of the CI ``incident-smoke`` job: a recorded run with an
    injected latency fault captures exactly one bundle, and
    ``incident-replay`` reproduces it from the bundle alone (exit 0);
    a tampered expectation diverges (exit 1)."""
    inc_dir = tmp_path / "incidents"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve-sim",
         "--requests", "400", "--seed", "5", "--rate", "100", "--slo",
         "--record", "--incident-dir", str(inc_dir),
         "--inject-spike-at-us", "1000000",
         "--inject-spike-duration-us", "200000",
         "--inject-spike-extra-us", "300000"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "flight recorder: 1 incident(s)" in proc.stdout

    bundles = sorted(inc_dir.rglob("*.json"))
    assert len(bundles) == 1
    bundle = json.loads(bundles[0].read_text())
    assert bundle["schema_version"] == 1
    assert bundle["replay"]["supported"], bundle["replay"]
    assert bundle["expected"]["deadline_misses"] > 0

    replay = subprocess.run(
        [sys.executable, "-m", "repro", "incident-replay", str(bundles[0])],
        capture_output=True, text=True, timeout=300,
    )
    assert replay.returncode == 0, replay.stdout + replay.stderr[-2000:]
    assert "reproduced exactly" in replay.stdout

    tampered = dict(bundle)
    tampered["expected"] = dict(
        bundle["expected"],
        deadline_misses=bundle["expected"]["deadline_misses"] + 1)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(tampered))
    diverged = subprocess.run(
        [sys.executable, "-m", "repro", "incident-replay", str(bad)],
        capture_output=True, text=True, timeout=300,
    )
    assert diverged.returncode == 1
    assert "DIVERGED" in diverged.stdout

    report = subprocess.run(
        [sys.executable, "-m", "repro", "incident-report",
         "--dir", str(inc_dir)],
        capture_output=True, text=True, timeout=300,
    )
    assert report.returncode == 0
    assert "1 incident(s)" in report.stdout
    assert "replayable" in report.stdout


def test_cli_profile_schedule(tmp_path):
    trace_out = tmp_path / "deit.perfetto.json"
    json_out = tmp_path / "profile.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "profile", "--model", "decoder-decode",
         "--depth", "2", "--dim", "128", "--heads", "4", "--context", "64",
         "--vocab", "512",
         "--trace-out", str(trace_out), "--json-out", str(json_out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "workload split" in proc.stdout

    from repro.obs.tracer import validate_chrome_trace

    stats = validate_chrome_trace(json.loads(trace_out.read_text()))
    assert stats["X"] > 0
    doc = json.loads(json_out.read_text())
    assert doc["summary"]["latency_cycles"] > 0
    assert doc["workload_split"]


def test_cli_profile_functional(tmp_path):
    json_out = tmp_path / "functional.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "profile", "--functional",
         "--backend", "bfp8-mixed", "--gen-tokens", "2",
         "--json-out", str(json_out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "functional profile" in proc.stdout
    assert "backend stats" in proc.stdout
    doc = json.loads(json_out.read_text())
    assert doc["backend"] == "bfp8-mixed"
    assert doc["profile"]["total_cycles"] > 0
    assert doc["backend_stats"]["matmuls"] > 0
    # Mixed regime: both precisions appear in the attribution.
    assert set(doc["profile"]["by_precision"]) == {"bfp8", "fp32"}


def _repro(*argv, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_cli_profile_backend_accepts_every_preset(tmp_path):
    """``--backend`` and ``--policy`` resolve through one registry: a
    policy preset named via ``--backend`` profiles exactly like it."""
    by_precision = {}
    for flag in ("--backend", "--policy"):
        json_out = tmp_path / f"{flag.strip('-')}.json"
        proc = _repro("profile", "--functional", flag, "mixed-fp8",
                      "--gen-tokens", "1", "--no-compiled",
                      "--json-out", str(json_out))
        assert proc.returncode == 0, proc.stderr[-2000:]
        by_precision[flag] = json.loads(json_out.read_text())["profile"][
            "by_precision"]
    assert by_precision["--backend"] == by_precision["--policy"]
    assert {"bfp8", "fp8-e4m3", "fp32"} <= set(by_precision["--backend"])


def test_cli_unknown_regime_is_a_usage_error():
    for argv in (("--functional", "--backend", "fp64"), ("--policy", "bogus")):
        proc = _repro("profile", *argv)
        assert proc.returncode == 2, proc.stdout + proc.stderr[-2000:]
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("repro: error:")


def test_cli_numerics_report_outputs(tmp_path):
    json_out = tmp_path / "numerics.json"
    md_out = tmp_path / "numerics.md"
    metrics_out = tmp_path / "metrics.json"
    trace_out = tmp_path / "numerics.perfetto.json"
    proc = _repro(
        "numerics-report", "--seed", "0", "--gen-tokens", "2",
        "--json-out", str(json_out), "--markdown-out", str(md_out),
        "--metrics-out", str(metrics_out), "--trace-out", str(trace_out),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "| layer " in proc.stdout  # markdown table printed

    from repro.obs.baseline import validate_report
    from repro.obs.tracer import validate_chrome_trace

    doc = validate_report(json.loads(json_out.read_text()))
    assert doc["config"]["backend"] == "bfp8-mixed"
    assert doc["logits_sqnr_db"] > 20.0
    layers = {e["layer"] for e in doc["entries"]}
    assert "block0.attn" in layers and "head" in layers
    assert all(e["precision"] == "bfp8" for e in doc["entries"])

    assert "# Numerics report" in md_out.read_text()
    metrics = json.loads(metrics_out.read_text())
    assert any(k.startswith("numerics.") for k in metrics["counters"])
    stats = validate_chrome_trace(json.loads(trace_out.read_text()))
    assert stats["X"] > 0


def test_cli_numerics_check_passes_against_self(tmp_path):
    golden = tmp_path / "golden.json"
    proc = _repro("numerics-report", "--gen-tokens", "2",
                  "--json-out", str(golden))
    assert proc.returncode == 0, proc.stderr[-2000:]
    proc = _repro("numerics-report", "--gen-tokens", "2",
                  "--check", str(golden))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "No drift" in proc.stdout


def test_cli_numerics_check_catches_mantissa_truncation(tmp_path):
    # The acceptance gate: injecting a 1-bit mantissa truncation into the
    # bfp path must trip the drift check against an 8-bit golden.
    golden = tmp_path / "golden.json"
    proc = _repro("numerics-report", "--gen-tokens", "2",
                  "--json-out", str(golden))
    assert proc.returncode == 0, proc.stderr[-2000:]
    proc = _repro("numerics-report", "--gen-tokens", "2", "--man-bits", "7",
                  "--check", str(golden))
    assert proc.returncode == 1, proc.stdout[-2000:]
    assert "DRIFT" in proc.stdout
    assert "precision bfp8 -> bfp7" in proc.stdout
    assert "SQNR degraded" in proc.stdout


def test_cli_numerics_check_against_committed_golden():
    golden = (Path(__file__).resolve().parents[2]
              / "results" / "NUMERICS_golden_tinylm_bfp8.json")
    proc = _repro("numerics-report", "--check", str(golden))
    assert proc.returncode == 0, (proc.stdout[-2000:], proc.stderr[-1000:])
    assert "No drift" in proc.stdout


def test_cli_slo_report_round_trip(tmp_path):
    """serve-sim --cluster --slo -> slo-report must reproduce the miss
    rate from the trace alone, and the SLO artifact must be written."""
    trace_out = tmp_path / "cluster.perfetto.json"
    json_out = tmp_path / "cluster.json"
    slo_out = tmp_path / "cluster.slo.json"
    proc = _repro(
        "serve-sim", "--cluster", "--requests", "150", "--seed", "7",
        "--rate", "400", "--slo",
        "--trace-out", str(trace_out), "--json-out", str(json_out),
        "--slo-out", str(slo_out),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    slo_doc = json.loads(slo_out.read_text())
    assert "slo" in slo_doc and "classes" in slo_doc["slo"]

    report_out = tmp_path / "slo_report.json"
    proc = _repro("slo-report", "--trace", str(trace_out),
                  "--summary", str(json_out),
                  "--json-out", str(report_out))
    assert proc.returncode == 0, (proc.stdout[-2000:], proc.stderr[-1000:])
    assert "summary cross-check OK" in proc.stdout
    report = json.loads(report_out.read_text())
    assert report["coverage_min"] == 1.0
    assert report["sampled_requests"] == report["requests"]

    # a doctored summary must trip the cross-check
    ref = json.loads(json_out.read_text())
    (ref.get("summary", ref))["deadline_miss_rate"] = 0.123
    bad = tmp_path / "doctored.json"
    bad.write_text(json.dumps(ref))
    proc = _repro("slo-report", "--trace", str(trace_out),
                  "--summary", str(bad))
    assert proc.returncode == 1
    assert "cross-check FAILED" in proc.stdout


def test_cli_bench_gate(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    (results / "BENCH_demo.json").write_text(json.dumps({
        "bench": "demo", "seed": 0, "git_rev": "aaa",
        "summary": {"tps": 100.0},
    }))
    (results / "bench_baselines.json").write_text(json.dumps({
        "metrics": {"demo:tps": {"value": 100.0, "direction": "higher",
                                 "tolerance": 0.10}},
    }))
    proc = _repro("bench-gate", "--results", str(results))
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert "1 pinned metrics ok" in proc.stdout
    assert (results / "history" / "demo.ndjson").exists()

    # a >10% regression fails the gate
    (results / "BENCH_demo.json").write_text(json.dumps({
        "bench": "demo", "seed": 0, "git_rev": "bbb",
        "summary": {"tps": 80.0},
    }))
    proc = _repro("bench-gate", "--results", str(results))
    assert proc.returncode == 1
    assert "FAIL demo:tps" in proc.stdout

    # --update-baselines re-pins and the gate goes green again
    proc = _repro("bench-gate", "--results", str(results),
                  "--update-baselines")
    assert proc.returncode == 0, proc.stdout[-2000:]
    proc = _repro("bench-gate", "--results", str(results))
    assert proc.returncode == 0, proc.stdout[-2000:]


def test_cli_serve_sim_prom_metrics_and_numerics(tmp_path):
    metrics_out = tmp_path / "metrics.prom"
    numerics_out = tmp_path / "serve_numerics.json"
    proc = _repro(
        "serve-sim", "--requests", "60", "--seed", "3",
        "--metrics-out", str(metrics_out), "--metrics-format", "prom",
        "--numerics-out", str(numerics_out), "--numerics-requests", "2",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    text = metrics_out.read_text()
    assert "# TYPE repro_serve_arrivals_total counter" in text
    assert "repro_serve_arrivals_total 60" in text
    assert 'quantile="0.95"' in text

    from repro.obs.baseline import validate_report

    doc = validate_report(json.loads(numerics_out.read_text()))
    assert doc["config"]["model"] == "tinylm-serve-replay"
    assert "numerics report written to" in proc.stdout


def test_cli_incident_replay_rejects_malformed_bundle(tmp_path):
    """A bundle whose serve-config capture is malformed is a clean
    configuration error (exit 2), not a traceback."""
    from repro.serve.dispatcher import ServeConfig, serve_config_to_dict

    serve_config = serve_config_to_dict(ServeConfig())
    serve_config["policy"]["bogus"] = 1
    bundle = {
        "id": "inc-000",
        "replay": {"supported": True},
        "capture": {"serve_config": serve_config},
        "subtrace": {"requests": []},
    }
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(bundle))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "incident-replay", str(path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert "policy" in proc.stdout
