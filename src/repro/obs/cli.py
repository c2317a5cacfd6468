"""Command-line surface of the observability layer.

Usage::

    python -m repro obs report fir --model cc --cores 4 --preset tiny
    python -m repro obs series fir --preset tiny --json series.json
    python -m repro obs export fir --preset tiny -o trace.json
    python -m repro obs validate trace.json

``report`` runs one workload and prints the grouped metrics report;
``series`` samples metric time series during the run (the sampler adds
no events, so the result stays bit-identical); ``export`` records the access trace, DMA
commands, kernel dispatch spans, and counter series, and writes one
Chrome ``trace_event`` JSON; ``validate`` schema-checks such a file.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack

from repro.obs.chrometrace import (DmaCommandRecorder, KernelEventRecorder,
                                   export_chrome_trace, save_chrome_trace,
                                   validate_chrome_trace)
from repro.obs.report import render_report
from repro.obs.sampler import MetricsSampler
from repro.units import ns_to_fs


def _workload_flags(parser: argparse.ArgumentParser) -> None:
    from repro import workload_names

    parser.add_argument("workload", choices=workload_names())
    parser.add_argument("--model", choices=["cc", "str", "icc"], default="cc")
    parser.add_argument("--cores", type=int, default=8)
    parser.add_argument("--clock", type=float, default=0.8,
                        help="core clock in GHz")
    parser.add_argument("--preset", default="default",
                        choices=["default", "small", "tiny"])


def _build_system(args):
    from repro import MachineConfig, get_workload
    from repro.core.system import CmpSystem

    config = MachineConfig(num_cores=args.cores) \
        .with_model(args.model).with_clock(args.clock)
    program = get_workload(args.workload).build(
        config.model, config, preset=args.preset)
    return CmpSystem(config, program)


def _interval_fs(args, system) -> int:
    if args.interval_ns:
        return ns_to_fs(args.interval_ns)
    return max(1, system.config.core.cycle_fs * 20_000)


def _cmd_report(args) -> int:
    system = _build_system(args)
    result = system.run()
    print(render_report(system, result))
    return 0


def _cmd_series(args) -> int:
    system = _build_system(args)
    sampler = MetricsSampler(system, _interval_fs(args, system))
    result = sampler.drive()
    print(result.summary())
    print(sampler.render())
    print(f"{len(sampler.samples)} window(s) x {len(sampler.registry)} "
          f"metric(s)")
    if args.json == "-":
        json.dump(sampler.to_dict(), sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
    elif args.json:
        sampler.save(args.json)
        print(f"series -> {args.json}")
    return 0


def _cmd_export(args) -> int:
    from repro.trace import TraceRecorder

    system = _build_system(args)
    sampler = MetricsSampler(system, _interval_fs(args, system))
    with ExitStack() as stack:
        recorder = stack.enter_context(TraceRecorder(system))
        dma = stack.enter_context(DmaCommandRecorder(system.hierarchy))
        kernel = stack.enter_context(KernelEventRecorder(system.sim))
        result = sampler.drive()
    doc = export_chrome_trace(trace=recorder.records, dma_events=dma.events,
                              kernel_spans=kernel.spans(),
                              samples=sampler.samples)
    problems = validate_chrome_trace(doc)
    if problems:
        for problem in problems:
            print(f"export bug: {problem}", file=sys.stderr)
        return 1
    save_chrome_trace(doc, args.out)
    print(result.summary())
    print(f"chrome trace: {len(doc['traceEvents'])} event(s) "
          f"({len(recorder)} accesses, {len(dma)} DMA commands, "
          f"{len(kernel.spans())} kernel spans) -> {args.out}")
    return 0


def _cmd_validate(args) -> int:
    try:
        with open(args.path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"{args.path}: unreadable: {error}", file=sys.stderr)
        return 1
    problems = validate_chrome_trace(doc)
    if problems:
        print(f"{args.path}: {len(problems)} problem(s)", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"{args.path}: valid trace_event JSON "
          f"({len(doc['traceEvents'])} events)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="metrics, time series, and Chrome trace export")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="run once and print all metrics")
    _workload_flags(report)

    series = sub.add_parser("series",
                            help="sample metric time series during a run")
    _workload_flags(series)
    series.add_argument("--interval-ns", type=int, default=0,
                        help="sampling window in simulated ns "
                             "(default: 20k core cycles)")
    series.add_argument("--json", metavar="PATH",
                        help="write the series as JSON ('-' for stdout)")

    export = sub.add_parser("export",
                            help="record a run and export a Chrome trace")
    _workload_flags(export)
    export.add_argument("--interval-ns", type=int, default=0,
                        help="counter sampling window in simulated ns")
    export.add_argument("-o", "--out", required=True, metavar="PATH",
                        help="output trace_event JSON path")

    validate = sub.add_parser("validate",
                              help="schema-check a trace_event JSON file")
    validate.add_argument("path")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro obs`` / ``python -m repro.obs``."""
    args = _build_parser().parse_args(argv)
    handler = {"report": _cmd_report, "series": _cmd_series,
               "export": _cmd_export, "validate": _cmd_validate}
    return handler[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
