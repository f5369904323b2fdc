"""``python -m repro serve-sim`` — run the serving simulation from the shell.

Generates a seeded Poisson trace, runs the event-driven dispatcher, and
prints the serving summary (p50/p95/p99 latency, TTFT, tokens/s,
utilization, rejection rate).  ``--compare-batch1`` replays the *same*
trace with batching disabled to quantify what dynamic batching buys.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.obs.cli import modes_from_args, policy_from_args
from repro.serve.batcher import BatchPolicy
from repro.serve.dispatcher import ServeConfig, ServeReport, simulate
from repro.serve.request import TrafficConfig, poisson_trace

__all__ = ["add_serve_sim_parser", "run_serve_sim"]


def add_serve_sim_parser(subparsers) -> argparse.ArgumentParser:
    p = subparsers.add_parser(
        "serve-sim",
        help="simulate online serving with dynamic batching",
        description=__doc__,
    )
    p.add_argument("--requests", type=int, default=2000,
                   help="number of requests in the trace (default 2000)")
    p.add_argument("--seed", type=int, default=0, help="trace seed")
    p.add_argument("--rate", type=float, default=100.0,
                   help="mean Poisson arrival rate, requests/s")
    p.add_argument("--vit-frac", type=float, default=0.3,
                   help="fraction of ViT classify requests (rest are LLM)")
    p.add_argument("--max-batch", type=int, default=8,
                   help="dynamic batcher size limit")
    p.add_argument("--max-wait-us", type=float, default=200.0,
                   help="batch window: max wait of the oldest queued item")
    p.add_argument("--vit-max-batch", type=int, default=1,
                   help="ViT batch cap (default 1: a 197-token image is "
                        "already stream-efficient, batching only adds latency)")
    p.add_argument("--max-queue", type=int, default=512,
                   help="admission bound; excess arrivals are rejected")
    p.add_argument("--max-sessions", type=int, default=8,
                   help="resident decoder sessions (KV caches) per unit")
    p.add_argument("--compiled", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="model decode batches as compiled-plan replays "
                        "(trace once per group shape); --no-compiled "
                        "models the eager per-step path")
    p.add_argument("--compare-batch1", action="store_true",
                   help="also replay the trace with batching disabled")
    p.add_argument("--json", type=Path, default=None, metavar="FILE",
                   help="deprecated alias for --json-out")
    p.add_argument("--json-out", type=Path, default=None, metavar="FILE",
                   help="write the summary dict as JSON")
    p.add_argument("--trace-out", type=Path, default=None, metavar="FILE",
                   help="write a Chrome-trace/Perfetto JSON of the run "
                        "(per-unit dispatch timeline, request spans, queue "
                        "depth; timestamps are cycles)")
    p.add_argument("--metrics-out", type=Path, default=None, metavar="FILE",
                   help="write the metrics-registry snapshot")
    p.add_argument("--metrics-format", choices=("json", "prom"),
                   default="json",
                   help="--metrics-out format: JSON snapshot or Prometheus "
                        "text exposition")
    p.add_argument("--numerics-out", type=Path, default=None, metavar="FILE",
                   help="write a quantization-health report (JSON) from a "
                        "functional replay of the trace's first LLM requests "
                        "under bfp8-mixed (or the --policy backend)")
    p.add_argument("--numerics-requests", type=int, default=4,
                   help="LLM requests to replay for --numerics-out")
    p.add_argument("--policy", default=None, metavar="NAME_OR_JSON",
                   help="per-layer precision policy: a preset name or a "
                        "policy JSON file; shapes the cost model's compiled "
                        "schedules (default: the all-bfp8 schedule)")
    p.add_argument("--array-mode", default=None, metavar="SPEC",
                   help="unit-mode overrides for the cost model: comma-"
                        "separated format=mode pairs ('fp16=fp16_dot', "
                        "shorthand 'fp16'); routes those formats onto the "
                        "named repro.cost.modes array personality instead "
                        "of their default mapping")
    p.add_argument("--align-predict", type=float, default=None,
                   metavar="FRAC",
                   help="shift-aware alignment-width prediction: fraction "
                        "of PSU accumulate steps charged at the narrow "
                        "single-stage shift rate (0..1; measure it with "
                        "'repro align-predict' or the numerics monitor)")
    obs = p.add_argument_group(
        "SLO / request-path observability",
        "deadline objectives with burn-rate accounting (repro.obs.slo) and "
        "request-path stage decomposition in the trace",
    )
    obs.add_argument("--slo", action="store_true",
                     help="track per-class SLOs (deadline objectives, error "
                          "budgets, burn rates); adds an 'slo' summary "
                          "section")
    obs.add_argument("--slo-objective", type=float, default=0.99,
                     help="target fraction of requests meeting their "
                          "deadline, per class (default 0.99)")
    obs.add_argument("--slo-short-window-ms", type=float, default=250.0,
                     help="short burn-rate window, ms of simulated time")
    obs.add_argument("--slo-long-window-ms", type=float, default=1000.0,
                     help="long burn-rate window, ms of simulated time")
    obs.add_argument("--slo-out", type=Path, default=None, metavar="FILE",
                     help="write the SLO snapshot (budgets, burns, per-class "
                          "misses) as JSON; implies --slo")
    obs.add_argument("--slo-burn-scale-up", type=float, default=None,
                     metavar="BURN",
                     help="cluster+autoscale: scale up when the sustained "
                          "fleet burn rate exceeds BURN (also vetoes "
                          "scale-down while burn >= 1)")
    obs.add_argument("--trace-detail-every", type=int, default=1, metavar="N",
                     help="with --trace-out: sample full request-path stage "
                          "detail for 1-in-N requests (default 1 = all; "
                          "0 disables stage decomposition)")
    obs.add_argument("--trace-max-spans", type=int, default=512,
                     help="per-request child-span budget for sampled "
                          "requests (default 512)")
    rec = p.add_argument_group(
        "flight recorder / incident capture",
        "always-on bounded ring buffers with online anomaly detection "
        "(repro.obs.recorder); a trigger dumps a self-contained incident "
        "bundle that `repro incident-replay` re-simulates deterministically",
    )
    rec.add_argument("--record", action="store_true",
                     help="attach the flight recorder (anomaly triggers, "
                          "incident bundles)")
    rec.add_argument("--incident-dir", type=Path,
                     default=Path("results/incidents"), metavar="DIR",
                     help="bundle output root; bundles land at "
                          "DIR/<run>/<id>.json (default results/incidents)")
    rec.add_argument("--record-run", default=None, metavar="NAME",
                     help="run label for bundle paths (default serve-<seed>)")
    rec.add_argument("--record-cooldown-ms", type=float, default=100.0,
                     help="suppress new incidents for this long after one "
                          "closes (default 100 ms of simulated time)")
    rec.add_argument("--anomaly-warmup", type=int, default=64,
                     help="EWMA samples per signal before scoring starts")
    rec.add_argument("--anomaly-alpha", type=float, default=0.05,
                     help="EWMA smoothing factor")
    rec.add_argument("--anomaly-latency-z", type=float, default=5.0,
                     help="latency z-score trigger threshold (0 disables)")
    rec.add_argument("--anomaly-queue-z", type=float, default=5.0,
                     help="queue-depth z-score trigger threshold (0 disables)")
    rec.add_argument("--anomaly-occupancy-z", type=float, default=0.0,
                     help="batch-occupancy z-score threshold (default 0 = "
                          "disabled: per-dispatch fill is bimodal under "
                          "mixed traffic and pages on a running-mean score)")
    rec.add_argument("--anomaly-burn", type=float, default=8.0,
                     help="SLO sustained-burn trigger threshold (with --slo)")
    rec.add_argument("--inject-spike-at-us", type=float, default=None,
                     metavar="US",
                     help="fault injection: batches whose newest item is "
                          "ready inside the window starting here (simulated "
                          "us) run slower — a deterministic latency spike "
                          "for exercising triggers")
    rec.add_argument("--inject-spike-duration-us", type=float, default=500.0,
                     help="spike window length, us (default 500)")
    rec.add_argument("--inject-spike-extra-us", type=float, default=2000.0,
                     help="extra latency per affected batch, us "
                          "(default 2000)")
    cluster = p.add_argument_group(
        "cluster mode",
        "simulate a fleet of boards behind an affinity router "
        "(repro.cluster); --compare-batch1/--numerics-out do not apply",
    )
    cluster.add_argument("--cluster", action="store_true",
                         help="run the multi-board cluster simulation")
    cluster.add_argument("--boards", type=int, default=4,
                         help="boards in the fleet (default 4)")
    cluster.add_argument("--units-per-board", type=int, default=15,
                         help="processing units per board (default 15)")
    cluster.add_argument("--boards-per-replica", type=int, default=1,
                         help="boards one replica occupies (default 1)")
    cluster.add_argument("--tp", type=int, default=1,
                         help="tensor-parallel degree per lane")
    cluster.add_argument("--pp", type=int, default=1,
                         help="pipeline-parallel stages per lane")
    cluster.add_argument("--replicas", type=int, default=1,
                         help="replicas at cycle 0 (default 1)")
    cluster.add_argument("--users", type=int, default=64,
                         help="distinct user ids for session affinity "
                              "(0 disables user tagging; default 64)")
    cluster.add_argument("--router-seed", type=int, default=0,
                         help="seed for the router's tie-break draws")
    cluster.add_argument("--max-cluster-queue", type=int, default=4096,
                         help="fleet-wide admission bound at the edge")
    cluster.add_argument("--autoscale", action="store_true",
                         help="enable the load-driven autoscaler")
    cluster.add_argument("--min-replicas", type=int, default=1,
                         help="autoscaler floor (default 1)")
    cluster.add_argument("--max-replicas", type=int, default=None,
                         help="autoscaler ceiling (default: fleet capacity)")
    cluster.add_argument("--scale-interval-us", type=float, default=2000.0,
                         help="autoscaler sampling interval, us")
    cluster.add_argument("--scale-cooldown-us", type=float, default=8000.0,
                         help="cool-down after any scale action, us")
    cluster.add_argument("--provision-us", type=float, default=1000.0,
                         help="delay before a new replica serves, us")
    cluster.add_argument("--diurnal", action="store_true",
                         help="modulate the arrival rate sinusoidally")
    cluster.add_argument("--diurnal-period-s", type=float, default=0.6,
                         help="diurnal period in trace seconds")
    cluster.add_argument("--diurnal-amplitude", type=float, default=0.9,
                         help="diurnal swing as a fraction of the mean rate")
    return p


def _slo_tracker(args):
    """The run's SLO tracker (the null object unless --slo/--slo-out)."""
    from repro.obs.slo import NULL_SLO, SLOClass, SLOConfig, SLOTracker

    if not (args.slo or args.slo_out is not None):
        return NULL_SLO
    cfg = SLOConfig(
        classes=(SLOClass("vit", args.slo_objective),
                 SLOClass("llm", args.slo_objective)),
        short_window_ms=args.slo_short_window_ms,
        long_window_ms=args.slo_long_window_ms,
    )
    return SLOTracker(cfg)


def _spike(args, config: ServeConfig):
    """The injected latency fault, or None (cycle window from us flags)."""
    if args.inject_spike_at_us is None:
        return None
    from repro.obs.incident_cli import SpikeInjection

    freq = config.clock.freq_hz
    start = int(args.inject_spike_at_us * 1e-6 * freq)
    return SpikeInjection(
        start_cycle=start,
        end_cycle=start + int(args.inject_spike_duration_us * 1e-6 * freq),
        extra_cycles=int(args.inject_spike_extra_us * 1e-6 * freq),
    )


def _recorder(args, config: ServeConfig, tracer, slo, spike, *,
              cluster: bool = False):
    """The run's flight recorder (NULL_RECORDER unless --record).

    The capture dict embedded in every bundle carries everything a
    replay needs beyond the recorder's own rings: the full serve-config
    snapshot, trace identity (seed/rate/mix), SLO windows, and the
    injected-fault parameters.  Cluster captures are marked
    non-replayable up front (router RNG and autoscaler window state span
    capture epochs).
    """
    from repro.obs.anomaly import AnomalyConfig
    from repro.obs.recorder import NULL_RECORDER, FlightRecorder, RecorderConfig
    from repro.serve.dispatcher import serve_config_to_dict

    if not args.record:
        return NULL_RECORDER
    anomaly = AnomalyConfig(
        warmup=args.anomaly_warmup,
        alpha=args.anomaly_alpha,
        latency_z=args.anomaly_latency_z,
        queue_z=args.anomaly_queue_z,
        occupancy_z=args.anomaly_occupancy_z,
        burn_threshold=args.anomaly_burn,
    )
    capture = {
        "kind": "cluster" if cluster else "serve",
        "seed": args.seed,
        "requests": args.requests,
        "rate_rps": args.rate,
        "vit_fraction": args.vit_frac,
        "serve_config": serve_config_to_dict(config),
    }
    if spike is not None:
        capture["injection"] = spike.as_dict()
    if slo.enabled:
        capture["slo"] = {
            "classes": [{"name": c.name, "objective": c.objective}
                        for c in slo.config.classes],
            "short_window_ms": slo.config.short_window_ms,
            "long_window_ms": slo.config.long_window_ms,
            "count_rejections": slo.config.count_rejections,
            "long_window_cycles": slo._long_cycles,
        }
    run = args.record_run or (f"cluster-{args.seed}" if cluster
                              else f"serve-{args.seed}")
    return FlightRecorder(
        RecorderConfig(
            anomaly=anomaly,
            cooldown_cycles=int(args.record_cooldown_ms * 1e-3
                                * config.clock.freq_hz),
        ),
        run=run,
        out_dir=args.incident_dir,
        capture=capture,
        tracer=tracer,
        replayable=not cluster,
        replayable_reason=("cluster capture: router RNG and autoscaler "
                           "window state span capture epochs"
                           if cluster else None),
    )


def _print_recorder_summary(args, recorder, summary: dict) -> None:
    rs = summary.get("recorder", {})
    line = (f"flight recorder: {rs.get('incidents', 0)} incident(s), "
            f"{rs.get('suppressed', 0)} trigger(s) suppressed by cool-down")
    if recorder.incident_paths:
        line += f"; bundles in {args.incident_dir / recorder.run}"
    print(line)
    for bundle in recorder.incidents:
        trig = bundle["trigger"]
        replay = bundle["replay"]
        status = ("replayable" if replay["supported"]
                  else f"capture-only: {replay['reason']}")
        print(f"  {bundle['id']}: {trig['source']}/{trig['signal']} at "
              f"cycle {trig['cycle']} ({status})")


def _path_config(args):
    """Request-path decomposition config (None when tracing is off)."""
    from repro.obs.tracer import RequestPathConfig

    if args.trace_out is None or args.trace_detail_every <= 0:
        return None
    return RequestPathConfig(detail_every=args.trace_detail_every,
                             max_spans_per_request=args.trace_max_spans)


def _write_slo_out(args, summary: dict) -> None:
    import json

    doc = {
        "seed": args.seed,
        "requests": args.requests,
        "rate_rps": args.rate,
        "deadline_miss_rate": summary.get("deadline_miss_rate"),
        "slo": summary.get("slo", {}),
    }
    args.slo_out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"SLO snapshot written to {args.slo_out}")


def _config(args, max_batch: int) -> ServeConfig:
    return ServeConfig(
        policy=BatchPolicy(max_batch=max_batch, max_wait_us=args.max_wait_us,
                           vit_max_batch=args.vit_max_batch),
        max_queue=args.max_queue,
        max_sessions_per_unit=args.max_sessions,
        precision=policy_from_args(args),
        modes=modes_from_args(args),
        compiled=getattr(args, "compiled", True),
    )


def _tracer(args, **meta):
    """The run's Perfetto tracer (the null object unless --trace-out)."""
    from repro.obs.tracer import NULL_TRACER, Tracer

    if args.trace_out is None:
        return NULL_TRACER
    return Tracer(meta={"seed": args.seed, "requests": args.requests,
                        "rate_rps": args.rate, **meta})


def run_serve_sim(args) -> int:
    from repro.obs.metrics import MetricsRegistry

    if args.cluster:
        return _run_cluster_sim(args)
    traffic = TrafficConfig(rate_rps=args.rate, vit_fraction=args.vit_frac)
    trace = poisson_trace(args.requests, traffic, seed=args.seed)
    config = _config(args, args.max_batch)
    tracer = _tracer(args, max_batch=args.max_batch,
                     clock_freq_hz=config.clock.freq_hz)
    registry = MetricsRegistry() if args.metrics_out is not None else None
    slo = _slo_tracker(args)
    spike = _spike(args, config)
    recorder = _recorder(args, config, tracer, slo, spike)
    report: ServeReport = simulate(trace, config,
                                   tracer=tracer, registry=registry,
                                   slo=slo, path=_path_config(args),
                                   recorder=recorder, spike=spike)
    print(report.render(
        f"serve-sim: {args.requests} requests, rate {args.rate:g}/s, "
        f"seed {args.seed}, max_batch {args.max_batch}"
    ))
    if config.precision is not None:
        _print_precision_split(config)
    if report.plans is not None:
        pl = report.plans
        print(f"compiled decode plans: {pl['decode_group_shapes']} group "
              f"shapes traced once, {pl['replays']} replays "
              f"({pl['dispatches']} decode dispatches)")
    if args.compare_batch1:
        base = simulate(trace, _config(args, 1))
        got, ref = report.summary, base.summary
        print()
        print(base.render("same trace, batching disabled (max_batch=1)"))
        print()
        for key in ("tokens_per_s", "requests_per_s"):
            if ref[key]:
                print(f"dynamic batching {key} speedup: "
                      f"{got[key] / ref[key]:.2f}x")
    _write_outputs(args, report, tracer, registry, recorder)
    if args.numerics_out is not None:
        _write_serving_numerics(trace, args)
    return 0


def _run_cluster_sim(args) -> int:
    """``serve-sim --cluster``: fleet simulation via :mod:`repro.cluster`."""
    from repro.cluster import (
        AutoscalerConfig,
        ClusterConfig,
        ClusterSpec,
        ShardPlan,
        simulate_cluster,
    )
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.request import DiurnalConfig, diurnal_trace

    traffic = TrafficConfig(rate_rps=args.rate, vit_fraction=args.vit_frac)
    n_users = args.users if args.users > 0 else None
    if args.diurnal:
        trace = diurnal_trace(
            args.requests, traffic,
            DiurnalConfig(period_s=args.diurnal_period_s,
                          amplitude=args.diurnal_amplitude),
            seed=args.seed, n_users=n_users,
        )
    else:
        trace = poisson_trace(args.requests, traffic,
                              seed=args.seed, n_users=n_users)

    spec = ClusterSpec(
        boards=args.boards,
        units_per_board=args.units_per_board,
        boards_per_replica=args.boards_per_replica,
        plan=ShardPlan(tp=args.tp, pp=args.pp),
    )
    autoscaler = None
    if args.autoscale:
        autoscaler = AutoscalerConfig(
            min_replicas=args.min_replicas,
            max_replicas=(args.max_replicas if args.max_replicas is not None
                          else spec.max_replicas),
            interval_us=args.scale_interval_us,
            cooldown_us=args.scale_cooldown_us,
            provision_us=args.provision_us,
            scale_up_burn_rate=args.slo_burn_scale_up,
        )
    serve = _config(args, args.max_batch)
    spike = _spike(args, serve)
    config = ClusterConfig(
        serve=serve,
        spec=spec,
        autoscaler=autoscaler,
        initial_replicas=args.replicas,
        max_cluster_queue=args.max_cluster_queue,
        router_seed=args.router_seed,
        spike=spike,
    )

    tracer = _tracer(args, boards=args.boards, plan=spec.plan.describe(),
                     clock_freq_hz=config.serve.clock.freq_hz)
    registry = MetricsRegistry() if args.metrics_out is not None else None
    slo = _slo_tracker(args)
    recorder = _recorder(args, config.serve, tracer, slo, spike, cluster=True)
    report = simulate_cluster(trace, config, tracer=tracer, registry=registry,
                              slo=slo, path=_path_config(args),
                              recorder=recorder)
    shape = (f"{args.boards} boards, {spec.plan.describe()}, "
             f"{args.replicas} initial replica(s)"
             + (", autoscaled" if autoscaler else ""))
    print(report.render(
        f"serve-sim --cluster: {args.requests} requests, rate "
        f"{args.rate:g}/s, seed {args.seed}, {shape}"
    ))
    _write_outputs(args, report, tracer, registry, recorder)
    return 0


def _write_outputs(args, report, tracer, registry, recorder) -> None:
    """The ``--*-out`` artifacts and recorder summary of either mode."""
    json_out = args.json_out if args.json_out is not None else args.json
    if json_out is not None:
        json_out.write_text(report.to_json() + "\n")
    if args.trace_out is not None:
        args.trace_out.write_text(tracer.to_json() + "\n")
        print(f"trace written to {args.trace_out} "
              f"({len(tracer.spans)} spans, {len(tracer.counters)} counter "
              "samples; open in ui.perfetto.dev)")
    if args.metrics_out is not None:
        if args.metrics_format == "prom":
            args.metrics_out.write_text(registry.to_prom_text())
        else:
            args.metrics_out.write_text(registry.to_json() + "\n")
    if args.slo_out is not None:
        _write_slo_out(args, report.summary)
    if recorder.enabled:
        _print_recorder_summary(args, recorder, report.summary)


def _print_precision_split(config: ServeConfig) -> None:
    """Per-format unit-cycle attribution of the policy-compiled batch jobs."""
    from repro.eval.reporting import render_metrics
    from repro.runtime.scheduler import compile_decoder

    p = config.profile
    for phase in ("prefill", "decode"):
        model = compile_decoder(
            vocab=p.vocab, dim=p.dim, depth=p.depth, n_heads=p.n_heads,
            context=p.context, mlp_ratio=p.mlp_ratio, phase=phase,
            clock=config.clock, mem=config.mem, policy=config.precision,
            modes=config.modes,
        )
        total = sum(model.latency_by_mode(1).values())
        split = {
            f"cycles.{mode}": cyc
            for mode, cyc in sorted(model.latency_by_mode(1).items())
        }
        split["cycles.total"] = total
        if config.modes is not None:
            for mode, cyc in sorted(model.latency_by_unit_mode(1).items()):
                split[f"unit_mode.{mode}"] = cyc
        print()
        print(render_metrics(
            f"precision policy {config.precision.name!r}: "
            f"{phase} unit-cycles by format", split))


def _write_serving_numerics(trace, args) -> None:
    """Value-domain health of the serving path: functional shadow replay.

    The dispatcher itself moves no tensors (it is a cycle-accurate cost
    model), so the numerics of the online path are measured by replaying
    the trace's first LLM requests through the functional ``TinyLM``
    decode under the paper's bfp8-mixed backend (or, with ``--policy``, a
    :class:`~repro.models.backend.PolicyBackend` over the same policy the
    cost model compiled) — same shapes (prompt + greedy decode, KV
    cache), same quantization kernels the hardware would run — with the
    numerics monitor attached.
    """
    import json

    import numpy as np

    from repro.models.backend import PolicyBackend
    from repro.models.decoder import TinyLM
    from repro.models.policy import get_policy
    from repro.obs import baseline as bl
    from repro.obs.numerics import NumericsMonitor, set_monitor
    from repro.perf.prepared import PreparedOperandCache, set_cache

    llm = [r for r in trace if r.kind == "llm"][: args.numerics_requests]
    model = TinyLM(seed=args.seed)
    backend = PolicyBackend(policy_from_args(args) or get_policy("bfp8-mixed"))
    rng = np.random.default_rng(args.seed)
    monitor = NumericsMonitor()
    prev_monitor = set_monitor(monitor)
    prev_cache = set_cache(PreparedOperandCache())
    replayed_tokens = 0
    try:
        for r in llm:
            n_prompt = max(1, min(r.prompt_tokens, model.seq_len - 1))
            n_gen = max(1, min(r.gen_tokens, model.seq_len - n_prompt))
            prompt = rng.integers(0, model.vocab, size=n_prompt)
            model.generate_cached(prompt, n_gen, backend)
            replayed_tokens += n_gen
    finally:
        set_monitor(prev_monitor)
        set_cache(prev_cache)
    report = bl.build_report(
        monitor,
        model="tinylm-serve-replay",
        backend=backend.name,
        seed=args.seed,
        gen_tokens=replayed_tokens,
    )
    bl.validate_report(report)
    args.numerics_out.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(f"numerics report written to {args.numerics_out} "
          f"({len(llm)} LLM requests replayed, "
          f"{len(report['entries'])} layer entries)")
