"""Repo benchmark: one workload, end-to-end or traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload decode --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` additionally wraps each layer's entry points
(``ledger.py``) and reports the per-layer ledger, the work counters and
the modelled (simulated-FPGA) metrics.  Either way the outputs are
checked; the last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The process exits 1 when a check fails and 2 when the source tree is
missing.  See README.md for what each workload measures and why.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: One BLAS thread everywhere; set before numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_REPS = 3
TRACED_PASSES = 2

#: (name, unit) of the end-to-end metrics (``--trace 0``).
END_TO_END = (("setup_s", "s"), ("host_rate", "1/s"), ("peak_rss_mib", "MiB"))
#: Layers whose set-up (model build, weight prepare, trace generation)
#: is reported separately from their steady-state pass.
SETUP_LAYERS = ("models", "runtime.plan", "arith.bfp_matmul", "formats",
                "perf.prepared", "serve.request")


def per_layer_names() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every ``--trace 1`` metric."""
    from ledger import LAYERS, MODEL_OPS

    out = []
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    for layer in SETUP_LAYERS:
        out.append((f"{layer}.setup_self_s", "s", "lower"))
    out += [
        ("runtime.plan.step_share", "fraction", "lower"),
        ("arith.bfp_matmul.quantize_self_s", "s", "lower"),
        ("arith.bfp_matmul.kernel_self_s", "s", "lower"),
    ]
    out += [(f"models.{op}_share", "fraction", "lower") for op in MODEL_OPS]
    out += [
        ("perf.prepared.hits", "count", "higher"),
        ("emu_us_per_kcycle", "us/kcycle", "lower"),
        ("serve.dispatcher.calls_per_event", "count", "lower"),
        ("serve.dispatcher.launch_frac", "fraction", "higher"),
        ("serve.batcher.hit_frac", "fraction", "higher"),
        ("serve.batcher.polls_per_event", "count", "lower"),
        ("serve.metrics.bytes_per_request", "B", "lower"),
        ("cost.calls_per_dispatch", "count", "lower"),
        ("cost.distinct_key_frac", "fraction", "lower"),
        ("cluster.affinity_hit_rate", "fraction", "higher"),
        ("obs.spans_per_request", "count", "lower"),
        ("obs.export_bytes", "B", "lower"),
        ("model.tok_s", "tokens/s", "higher"),
        ("model.img_s", "images/s", "higher"),
        ("model.p50_ms", "ms", "lower"),
        ("model.p99_ms", "ms", "lower"),
        ("model.ttft_p99_ms", "ms", "lower"),
        ("model.goodput_rps", "req/s", "higher"),
        ("model.kcycles", "kcycles", "lower"),
        ("trace.untraced_pass_s", "s", "lower"),
        ("trace.traced_pass_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_frac", "fraction", "lower"),
        ("trace.coverage", "fraction", "higher"),
        ("trace.residual_s", "s", "lower"),
    ]
    return out


# -- stamp ---------------------------------------------------------------------


def stamp(args) -> dict:
    """What a result must match to be compared with another."""
    import hashlib
    import platform

    import numpy as np

    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": rev,
        "src_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- measurement ---------------------------------------------------------------


def import_seconds(modules: tuple[str, ...]) -> float:
    """Import time of a workload's modules in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import "
            + ", ".join(modules) + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout.split()[-1])


class SpeedProbe:
    """Samples how fast this machine runs a fixed reference routine.

    Other tenants of a shared host slow every program on it, for seconds
    to minutes at a time: the same simulation took 0.5-0.8 s from one
    15-second window to the next, while its ratio to this probe, sampled
    in the gaps between chunks, moved by 4%.  So every stretch of timed
    work is rescaled by the probes taken right after it, to the time it
    would take at the probe's reference speed ``REF_S``.  The routine
    mixes the interpreter work of the simulators (a heap of small tuples,
    dict updates) with the integer BLAS and f64 array work of the
    emulation kernels; it calls nothing from ``src/``, so a change to the
    program cannot move it.
    """

    #: probe seconds on the reference host (2-vCPU Xeon, quiet)
    REF_S = 0.045
    #: one probe per this many seconds of timed work (about 15% extra)
    EVERY_S = 0.3

    def __init__(self) -> None:
        import numpy as np

        self.samples: list[float] = []
        self.work_s = 0.0  # raw timed seconds
        self.scaled_s = 0.0  # the same, at reference speed
        self._open = 0.0  # timed seconds not yet rescaled
        self._pending = 0.0
        ramp = np.arange(64 * 576, dtype=np.int64).reshape(64, 576)
        self._a = (ramp * 7919) % 255 - 127
        ramp = np.arange(576 * 384, dtype=np.int64).reshape(576, 384)
        self._b = (ramp * 104729) % 255 - 127

    def sample(self) -> float:
        import heapq

        import numpy as np

        t0 = time.perf_counter()
        heap: list = []
        queues: dict[int, list] = {}
        t = seq = 0
        for i in range(12000):
            seq += 1
            heapq.heappush(heap, (t + (i * 7919) % 1009, seq, (t, i % 7, i)))
            if len(heap) > 32:
                t, _, ev = heapq.heappop(heap)
                q = queues.setdefault(ev[1], [])
                q.append(ev)
                if len(q) > 8:
                    q.clear()
        for _ in range(2):
            c = self._a @ self._b
            (c.astype(np.float64) * np.exp2(-3.0)).sum(axis=0)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def scale(self, seconds: float, probes: int = 1) -> float:
        """``seconds`` just measured, at reference speed (probes now)."""
        local = statistics.mean(self.sample() for _ in range(probes))
        return seconds * self.REF_S / local

    def tick(self, seconds: float) -> None:
        """Account ``seconds`` of timed work; rescale when probes are due."""
        self.work_s += seconds
        self._open += seconds
        self._pending += seconds
        due = int(self._pending // self.EVERY_S)
        if due:
            self._pending -= due * self.EVERY_S
            self.scaled_s += self.scale(self._open, due)
            self._open = 0.0

    def close(self) -> None:
        if self._open:
            self.scaled_s += self.scale(self._open)
            self._open = 0.0


def measure(w, seconds: float) -> dict:
    """Set-up (median of several), audit, then the timed passes."""
    from workloads import rss_mib

    probe = SpeedProbe()
    imports, setups, raw_setups = [], [], []
    for _ in range(SETUP_REPS):
        imports.append(probe.scale(import_seconds(w.modules)))
        t0 = time.perf_counter()
        w.setup()
        raw_setups.append(time.perf_counter() - t0)
        setups.append(probe.scale(raw_setups[-1]))
    w.audit()
    chunks: dict[int, list[float]] = {}
    passes = 0
    while probe.work_s < seconds or passes < w.min_passes:
        gc.collect()  # every pass starts from a swept heap (untimed)
        times = w.run_pass(passes, probe.tick)
        for pos, dt in times.items():
            chunks.setdefault(pos, []).append(dt)
        passes += 1
    probe.close()
    w.finalize()
    units = w.pass_units() * passes
    return {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "raw_setup_s": statistics.median(raw_setups),
        "timed_s": probe.work_s,
        "passes": passes,
        "chunk_mean": {pos: statistics.mean(v) for pos, v in chunks.items()},
        "host_rate": units / probe.scaled_s,
        "raw_rate": units / probe.work_s,
        "slowdown": probe.work_s / probe.scaled_s,
        "probes": len(probe.samples),
        "peak_rss_mib": rss_mib(),
    }


def traced(w, chunk_mean: dict[int, float]) -> tuple[dict, list[tuple[str, int, float]]]:
    """The per-layer ledger: one traced set-up, then identical passes.

    ``chunk_mean`` is the untraced mean time per chunk position; the
    tracing overhead compares it with the traced passes over the same
    positions (raw host seconds, both).
    """
    from ledger import MODEL_OPS, LayerTracer, by_layer, diff

    with LayerTracer(observe=w.observers()) as lt:
        before = lt.snapshot()
        w.setup()
        setup_phase = diff(lt.snapshot(), before)
        passes = []
        for _ in range(TRACED_PASSES):
            w.observed.clear()
            before, ops_before = lt.snapshot(), lt.ops_snapshot()
            times = w.run_pass(0, lambda dt: None)
            ops = {k: v - ops_before.get(k, 0.0)
                   for k, v in lt.ops_snapshot().items()}
            passes.append((diff(lt.snapshot(), before), ops,
                           sum(times.values()), dict(w.observed)))

    calls = {k: c for k, (c, _) in passes[0][0].items()}
    w.check("traced passes repeat every work counter exactly",
            all({k: c for k, (c, _) in p[0].items()} == calls
                and p[3] == passes[0][3] for p in passes))
    n = len(passes)
    phase = {k: (calls[k], sum(p[0][k][1] for p in passes) / n)
             for k in calls}
    traced_s = sum(p[2] for p in passes) / n
    self_total = sum(s for _, s in phase.values())
    coverage = self_total / traced_s
    w.check("traced: self times sum to the pass time within 5%",
            0.95 <= coverage <= 1.0, f"coverage {coverage:.4f}")

    m: dict[str, float] = {}
    layers = by_layer(phase)
    for layer, (c, s) in layers.items():
        m[f"{layer}.calls"] = c
        m[f"{layer}.self_s"] = s
    setup_layers = by_layer(setup_phase)
    for layer in SETUP_LAYERS:
        m[f"{layer}.setup_self_s"] = setup_layers[layer][1]
    m["runtime.plan.step_share"] = layers["runtime.plan"][1] / traced_s
    bm = "repro.arith.bfp_matmul:"
    m["arith.bfp_matmul.quantize_self_s"] = (
        phase[bm + "activation_blocks"][1] + phase[bm + "bfp_batched_tiles"][1])
    m["arith.bfp_matmul.kernel_self_s"] = (
        phase[bm + "bfp_matmul_prepared"][1]
        + phase[bm + "bfp_matmul_from_tiles"][1])
    for op in MODEL_OPS:
        m[f"models.{op}_share"] = (
            sum(p[1].get(op, 0.0) for p in passes) / n / traced_s)
    m["perf.prepared.hits"] = passes[0][3].get("prepared_hits", 0)
    untraced_pass_s = sum(chunk_mean[pos] for pos in times)
    kcycles = w.modelled.get("model.kcycles")
    if w.name in ("decode", "vit"):
        m["emu_us_per_kcycle"] = untraced_pass_s * 1e6 / kcycles
    m.update(w.layer_extras(calls))
    m.update(w.modelled)
    m.update({
        "trace.untraced_pass_s": untraced_pass_s,
        "trace.traced_pass_s": traced_s,
        "trace.overhead_s": traced_s - untraced_pass_s,
        "trace.overhead_frac": traced_s / untraced_pass_s - 1.0,
        "trace.coverage": coverage,
        "trace.residual_s": traced_s - self_total,
    })
    metrics = {name: float(m.get(name, 0.0)) for name, _, _ in per_layer_names()}
    unknown = set(m) - set(metrics)
    if unknown:
        raise KeyError(f"metrics missing from per_layer_names: {unknown}")
    rows = sorted(((k, c, s) for k, (c, s) in phase.items() if c),
                  key=lambda r: -r[2])
    return metrics, rows


# -- reporting -----------------------------------------------------------------


def report_text(w, res: dict) -> list[str]:
    lines = [f"workload {w.name}: {res['passes']} passes in "
             f"{res['timed_s']:.3f} s timed; machine slowdown "
             f"{res['slowdown']:.4f} over {res['probes']} probes "
             "(host times below are at reference speed; raw in brackets)",
             f"  {'setup_s':<22} {res['setup_s']:>14.4f} s          host "
             f"[raw in-process set-up {res['raw_setup_s']:.4f}]",
             f"  {w.rate_name:<22} {res['host_rate']:>14.4f} "
             f"{w.rate_unit:<10} host  [raw {res['raw_rate']:.4f}; "
             "JSON host_rate]",
             f"  {'peak_rss_mib':<22} {res['peak_rss_mib']:>14.4f} MiB        host"]
    units = {n: u for n, u, _ in per_layer_names()}
    for name, value in w.modelled.items():
        lines.append(f"  {name.replace('.', '_'):<22} {value:>14.4f} "
                     f"{units[name]:<10} modelled")
    ops = res["passes"] * w.pass_ops()
    lines.append(f"  {'ops':<22} {ops:>14d} {w.op_name}")
    failed = sum(map(w.pass_failed, range(res["passes"])))
    lines.append(f"  {'ops_failed':<22} {failed:>14d}")
    return lines


def run_one(args) -> int:
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed)
    res = measure(w, args.seconds)
    metrics = {"setup_s": res["setup_s"], "host_rate": res["host_rate"],
               "peak_rss_mib": res["peak_rss_mib"]}
    units = dict(END_TO_END)
    lines = report_text(w, res)
    if args.trace:
        layer_metrics, rows = traced(w, res["chunk_mean"])
        units = {n: u for n, u, _ in per_layer_names()}
        metrics = layer_metrics
        lines.append("per-entry ledger, one traced pass "
                     "(calls, self seconds):")
        lines += [f"  {k:<62} {c:>9d} {s:>11.6f}" for k, c, s in rows]
        lines.append("per-layer metrics:")
        lines += [f"  {k:<40} {v:>16.6f} {units[k]}"
                  for k, v in metrics.items()]
    correct = all(ok for _, ok, _ in w.checks)
    lines.append(f"checks: {sum(ok for _, ok, _ in w.checks)}/"
                 f"{len(w.checks)} passed")
    lines += [f"  [{'ok' if ok else 'FAIL'}] {name}"
              + (f" ({detail})" if detail else "")
              for name, ok, detail in w.checks]
    lines.append(f"digest {w.digest}")
    lines.append("stamp " + json.dumps(stamp(args), sort_keys=True))
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": res["passes"] * w.pass_ops(),
        "failed": sum(map(w.pass_failed, range(res["passes"]))),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 1):
            combined["correct"] = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return worst


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["all", "decode", "vit", "serve-steady",
                            "cluster-diurnal"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
