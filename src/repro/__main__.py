"""Command-line entry point: reproduction report + serving simulation.

Usage::

    python -m repro                  # all fast tables/figures to stdout
    python -m repro --full           # include training-based studies
    python -m repro --out results/   # also write one file per artifact
    python -m repro serve-sim --requests 2000 --seed 0
                                     # online serving simulation
    python -m repro profile --model deit-tiny --trace-out deit.perfetto.json
                                     # compiled-schedule cycle profile
    python -m repro numerics-report --check results/NUMERICS_golden_tinylm_bfp8.json
                                     # quantization health vs golden baseline
    python -m repro slo-report --trace run.perfetto.json --summary run.json
                                     # SLO story rebuilt from the trace alone
    python -m repro bench-gate       # history append + headline-metric gate
    python -m repro serve-sim --record --slo --requests 2000 --seed 0
                                     # flight recorder: anomaly-triggered
                                     # incident bundles under results/incidents
    python -m repro incident-replay results/incidents/serve-0/inc-000.json
                                     # deterministic re-simulation of a bundle
    python -m repro incident-report --dir results/incidents
                                     # summarize captured incident bundles
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ConfigurationError, RegistryError


def _run_report(args) -> int:
    from repro.eval import (
        accuracy,
        bitwidth,
        fig6,
        fig7,
        halfprec,
        sensitivity,
        table1,
        table2,
        table3,
        table4,
    )

    artifacts: list[tuple[str, str]] = [
        ("table1_shared_operations", table1.run()),
        ("table2_hardware_utilization", table2.run()),
        ("fig6_design_comparison", fig6.run()),
        ("fig7_throughput", fig7.run()),
        ("table3_related_work", table3.run()),
        ("table4_deit_split", table4.run()),
        ("bitwidth_sqnr", bitwidth.run(include_model_sweep=args.full)),
        ("halfprec_vector_unit", halfprec.run()),
    ]
    if args.full:
        artifacts.append(("accuracy_regimes", accuracy.run()))
        artifacts.append(("component_sensitivity", sensitivity.run()))

    for name, content in artifacts:
        print(content)
        print()
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{name}.txt").write_text(content + "\n")
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="include the training-based accuracy studies "
                        "(minutes)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to write per-artifact text files")
    subparsers = parser.add_subparsers(dest="command")

    from repro.obs.bench_gate import add_bench_gate_parser, run_bench_gate
    from repro.obs.incident_cli import (
        add_incident_replay_parser,
        add_incident_report_parser,
        run_incident_replay,
        run_incident_report,
    )
    from repro.obs.cli import (
        add_align_predict_parser,
        add_numerics_report_parser,
        add_profile_parser,
        add_slo_report_parser,
        run_align_predict,
        run_numerics_report,
        run_profile,
        run_slo_report,
    )
    from repro.serve.cli import add_serve_sim_parser, run_serve_sim

    add_serve_sim_parser(subparsers)
    add_profile_parser(subparsers)
    add_align_predict_parser(subparsers)
    add_numerics_report_parser(subparsers)
    add_slo_report_parser(subparsers)
    add_bench_gate_parser(subparsers)
    add_incident_replay_parser(subparsers)
    add_incident_report_parser(subparsers)

    args = parser.parse_args()
    run = {
        "serve-sim": run_serve_sim,
        "profile": run_profile,
        "align-predict": run_align_predict,
        "numerics-report": run_numerics_report,
        "slo-report": run_slo_report,
        "bench-gate": run_bench_gate,
        "incident-replay": run_incident_replay,
        "incident-report": run_incident_report,
    }.get(args.command, _run_report)
    try:
        code = run(args)
    except (ConfigurationError, RegistryError) as e:
        # Malformed configuration is a usage error: one line, no traceback.
        print(f"repro: error: {e}", file=sys.stderr)
        code = 2
    raise SystemExit(code)


if __name__ == "__main__":
    main()
