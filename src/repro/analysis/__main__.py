"""CLI for the analysis subsystem: ``python -m repro.analysis``.

Subcommands::

    check-protocol   exhaustively model-check MESI for 2..N caches
    lint             run the simulator-aware lint pass over source trees
    audit-programs   statically audit workload op streams for races,
                     false sharing, and DMA / local-store hazards
    monitor          run one workload with runtime invariant monitors on

Exit status is non-zero when a check fails, the lint pass has findings,
or the audit reports hazards, so each subcommand can gate CI directly.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.lint import lint_paths, render_findings, rule_range
from repro.analysis.model_check import BROKEN_TABLE_BUGS, run_full_check


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Static analysis and verification for the repro simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check_p = sub.add_parser(
        "check-protocol",
        help="exhaustive MESI model check (tables + real hierarchy)")
    check_p.add_argument("--caches", type=int, default=4,
                         help="largest cache count to verify (default 4)")
    check_p.add_argument("--broken", choices=BROKEN_TABLE_BUGS,
                         help="seed a protocol bug and demand the checker "
                              "produce a counterexample trace")

    lint_p = sub.add_parser(
        "lint", help=f"simulator-aware lint ({rule_range()})")
    lint_p.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories (default: src/repro)")
    lint_p.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")

    audit_p = sub.add_parser(
        "audit-programs",
        help="static dataflow audit of workload op streams: races, "
             "false sharing, DMA/local-store hazards")
    audit_p.add_argument("workloads", nargs="*",
                         help="workload names (default: all shipped)")
    audit_p.add_argument("--models", nargs="+", default=["cc", "str"],
                         choices=["cc", "str", "icc"],
                         help="memory models to audit (default: cc str)")
    audit_p.add_argument("--cores", nargs="+", type=int, default=[4],
                         help="core counts to audit (default: 4)")
    audit_p.add_argument("--preset", default="tiny",
                         choices=["default", "small", "tiny"])
    audit_p.add_argument("--json", action="store_true",
                         help="machine-readable JSON output")

    mon_p = sub.add_parser(
        "monitor",
        help="run one workload with runtime invariant monitors enabled")
    mon_p.add_argument("workload")
    mon_p.add_argument("--model", choices=["cc", "str", "icc"], default="cc")
    mon_p.add_argument("--cores", type=int, default=8)
    mon_p.add_argument("--preset", default="small",
                       choices=["default", "small", "tiny"])
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)

    if args.command == "check-protocol":
        if not 2 <= args.caches <= 8:
            print("--caches must be between 2 and 8", file=sys.stderr)
            return 2
        ok, report = run_full_check(2, args.caches, broken=args.broken)
        print(report)
        if args.broken is not None:
            # Success means the seeded bug WAS detected.
            print("\nseeded bug detected with counterexample" if ok
                  else "\nseeded bug NOT detected — checker regression")
            return 0 if ok else 1
        print("\nprotocol verified" if ok else "\nprotocol check FAILED")
        return 0 if ok else 1

    if args.command == "lint":
        try:
            findings = lint_paths(args.paths)
        except OSError as exc:
            print(f"repro-lint: cannot read {exc.filename}: {exc.strerror}",
                  file=sys.stderr)
            return 2
        print(render_findings(findings, as_json=args.json))
        return 1 if findings else 0

    if args.command == "audit-programs":
        from repro.analysis.dataflow import audit_workload, render_reports
        from repro.workloads import workload_names

        names = args.workloads or workload_names()
        reports = []
        for name in names:
            for model in args.models:
                for cores in args.cores:
                    try:
                        reports.append(audit_workload(
                            name, model, cores=cores, preset=args.preset))
                    except KeyError as exc:
                        print(exc.args[0], file=sys.stderr)
                        return 2
        print(render_reports(reports, as_json=args.json))
        return 1 if any(r.hazards for r in reports) else 0

    # monitor
    from repro import MachineConfig, get_workload
    from repro.core.system import CmpSystem
    from repro.sim.kernel import InvariantViolation

    config = (MachineConfig(num_cores=args.cores)
              .with_model(args.model).with_debug_invariants())
    try:
        workload = get_workload(args.workload)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    program = workload.build(config.model, config, preset=args.preset)
    system = CmpSystem(config, program)
    try:
        result = system.run()
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION: {exc}")
        if system.monitors is not None:
            print(system.monitors.summary())
        return 1
    print(result.summary())
    if system.monitors is not None:
        print(system.monitors.summary())
    print("no invariant violations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
