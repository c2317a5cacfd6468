"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    python -m repro list
    python -m repro run fir --model str --cores 16 --clock 3.2
    python -m repro figure2 --preset small
    python -m repro table3
    python -m repro all --preset small --jobs 4
    python -m repro analysis check-protocol
    python -m repro grid sweep figure2 table3 --preset tiny --jobs 4
    python -m repro serve start --socket .repro-serve.sock --jobs 4
    python -m repro tune fir merge --preset tiny --budget 24
    python -m repro run fir --model cc --cores 1 --preset tiny --cprofile
    python -m repro run fir --preset tiny --metrics --profile series.json \
        --trace-out trace.json

``figureN`` / ``table3`` commands print the experiment's paper-style
rows; ``run`` executes one workload/configuration and prints the full
measurement record, plus whatever its instruments recorded: the metrics
report (``--metrics``), metric time series (``--profile [PATH]``), the
access trace (``--trace``), and a Chrome trace (``--trace-out``).
Experiment commands persist results in the content-addressed store
(``.repro-cache/`` or ``$REPRO_STORE``; disable with ``--no-store``) and
fan out over worker processes with ``--jobs N``; ``grid`` exposes the
full sweep toolbox (see ``python -m repro grid --help``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import run_workload, workload_names
from repro.harness import EXPERIMENTS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Comparing Memory Systems for Chip "
                    "Multiprocessors' (ISCA 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the available workloads")

    run_p = sub.add_parser("run", help="run one workload/configuration")
    # Optional only so that a workload swallowed by '--profile' or
    # '--cprofile' (each takes an optional PATH) can be recovered; main()
    # still requires one.
    run_p.add_argument("workload", nargs="?", choices=workload_names())
    run_p.add_argument("--model", choices=["cc", "str", "icc"], default="cc",
                       help="cache-coherent, streaming, or incoherent caches")
    run_p.add_argument("--cores", type=int, default=8)
    run_p.add_argument("--clock", type=float, default=0.8,
                       help="core clock in GHz")
    run_p.add_argument("--bandwidth", type=float, default=6.4,
                       help="memory channel bandwidth in GB/s")
    run_p.add_argument("--prefetch", action="store_true",
                       help="enable the hardware stream prefetcher")
    run_p.add_argument("--prefetch-depth", type=int, default=4,
                       metavar="N",
                       help="cache lines the prefetcher runs ahead "
                            "(with --prefetch; default 4)")
    run_p.add_argument("--preset", default="default",
                       choices=["default", "small", "tiny"])
    run_p.add_argument("--profile", metavar="PATH", nargs="?", const="",
                       help="sample metric time series and print "
                            "sparklines; with PATH also write the series "
                            "as JSON ('-' for stdout)")
    run_p.add_argument("--interval-ns", type=int, default=0, metavar="NS",
                       help="sampling window of --profile and --trace-out "
                            "in simulated ns (default: 20k core cycles)")
    run_p.add_argument("--metrics", action="store_true",
                       help="print the per-component metrics report "
                            "(pull-model; results are bit-identical)")
    run_p.add_argument("--trace", metavar="PATH",
                       help="record the demand-access trace as JSON lines")
    run_p.add_argument("--trace-out", metavar="PATH",
                       help="export a Chrome trace_event JSON "
                            "(accesses, DMA commands, kernel spans)")
    run_p.add_argument("--cprofile", metavar="PATH", nargs="?", const="",
                       help="run under cProfile; print the hottest "
                            "functions, or dump binary pstats to PATH")

    def _grid_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the sweep (default 1)")
        p.add_argument("--store", metavar="PATH",
                       help="result-store directory (default: $REPRO_STORE "
                            "or .repro-cache)")
        p.add_argument("--no-store", action="store_true",
                       help="do not persist results on disk")
        p.add_argument("--progress-json", metavar="PATH",
                       help="write sweep metrics as JSON ('-' streams one "
                            "line per event to stdout)")

    for name, fn in EXPERIMENTS.items():
        exp_p = sub.add_parser(name, help=(fn.__doc__ or "").splitlines()[0])
        exp_p.add_argument("--preset", default="default",
                           choices=["default", "small", "tiny"])
        exp_p.add_argument("--chart", action="store_true",
                           help="also render the figure as stacked bars")
        _grid_flags(exp_p)

    cmp_p = sub.add_parser(
        "compare", help="run one workload under every applicable memory model")
    cmp_p.add_argument("workload", choices=workload_names())
    cmp_p.add_argument("--cores", type=int, default=16)
    cmp_p.add_argument("--clock", type=float, default=0.8)
    cmp_p.add_argument("--preset", default="default",
                       choices=["default", "small", "tiny"])

    all_p = sub.add_parser("all", help="regenerate every table and figure")
    all_p.add_argument("--preset", default="default",
                       choices=["default", "small", "tiny"])
    _grid_flags(all_p)

    analysis_p = sub.add_parser(
        "analysis",
        help="verification passes (model checker, monitors, lint); "
             "see 'python -m repro.analysis --help'")
    analysis_p.add_argument("analysis_args", nargs=argparse.REMAINDER,
                            help="arguments forwarded to repro.analysis")

    grid_p = sub.add_parser(
        "grid",
        help="parallel sweeps over the persistent result store; "
             "see 'python -m repro grid --help'")
    grid_p.add_argument("grid_args", nargs=argparse.REMAINDER,
                        help="arguments forwarded to repro.grid")

    obs_p = sub.add_parser(
        "obs",
        help="metrics, time series, and Chrome trace export; "
             "see 'python -m repro obs --help'")
    obs_p.add_argument("obs_args", nargs=argparse.REMAINDER,
                       help="arguments forwarded to repro.obs")

    serve_p = sub.add_parser(
        "serve",
        help="simulation-as-a-service server and clients over the "
             "result store; see 'python -m repro serve --help'")
    serve_p.add_argument("serve_args", nargs=argparse.REMAINDER,
                         help="arguments forwarded to repro.serve")

    tune_p = sub.add_parser(
        "tune",
        help="design-space autotuner: search MachineConfig space for "
             "the perf/energy Pareto frontier; "
             "see 'python -m repro tune --help'")
    tune_p.add_argument("tune_args", nargs=argparse.REMAINDER,
                        help="arguments forwarded to repro.tune")
    return parser


def _run_profiled(cprofile: str | None, thunk):
    """Run ``thunk``, optionally under cProfile (``run --cprofile``).

    ``cprofile`` is None when profiling is off, ``""`` to print the
    hottest functions, or a path to dump binary pstats for snakeviz &co.
    """
    if cprofile is None:
        return thunk()
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(thunk)
    if cprofile:
        profiler.dump_stats(cprofile)
        print(f"cprofile: binary stats -> {cprofile}")
    else:
        pstats.Stats(profiler).sort_stats("tottime").print_stats(15)
    return result


def _print_run(result) -> None:
    print(result.summary())
    fractions = result.breakdown.fractions()
    print("  breakdown : " + "  ".join(
        f"{k}={v * 100:.1f}%" for k, v in fractions.items()))
    print(f"  traffic   : read {result.traffic.read_bytes / 1e6:.2f} MB, "
          f"write {result.traffic.write_bytes / 1e6:.2f} MB "
          f"({result.offchip_mb_per_s:.0f} MB/s)")
    print(f"  L1 miss   : {result.l1_miss_rate * 100:.2f}%  "
          f"L2 miss: {result.l2_miss_rate * 100:.1f}%  "
          f"instr/L1-miss: {result.instructions_per_l1_miss:.0f}")
    energy = result.energy.as_dict()
    print("  energy    : " + "  ".join(
        f"{k}={v * 1e3:.2f}mJ" for k, v in energy.items() if v))


def _run(args) -> int:
    """``run``: build one system, run it under the requested instruments,
    and print the run record and what the instruments recorded."""
    from contextlib import ExitStack

    from repro.grid.spec import RunSpec

    system = RunSpec(
        args.workload, model=args.model, cores=args.cores,
        clock_ghz=args.clock, bandwidth_gbps=args.bandwidth,
        prefetch=args.prefetch, prefetch_depth=args.prefetch_depth,
        preset=args.preset).build_system()
    sampler = None
    if args.profile is not None or args.trace_out:
        from repro.obs import MetricsSampler
        from repro.units import ns_to_fs

        # drive() samples between windows, adding no events.
        sampler = MetricsSampler(system, ns_to_fs(args.interval_ns)
                                 if args.interval_ns > 0 else None)
    # Recorders attach through an ExitStack so a raising run cannot leave
    # one on an observers list, where it would record later runs too.
    with ExitStack() as stack:
        recorder = kernel_rec = dma_rec = None
        if args.trace or args.trace_out:
            from repro.trace import TraceRecorder

            recorder = stack.enter_context(TraceRecorder(system))
        if args.trace_out:
            from repro.obs import DmaCommandRecorder, KernelEventRecorder

            kernel_rec = stack.enter_context(KernelEventRecorder(system.sim))
            dma_rec = stack.enter_context(DmaCommandRecorder(system.hierarchy))
        result = _run_profiled(
            args.cprofile, system.run if sampler is None else sampler.drive)
    _print_run(result)
    if args.profile is not None:
        print()
        print(sampler.render())
        print(f"{len(sampler.samples)} window(s) x {len(sampler.registry)} "
              f"metric(s)")
    if args.metrics:
        from repro.obs import render_report

        print()
        print(render_report(system, result))
    if args.trace:
        recorder.save(args.trace)
        print(f"\ntrace: {len(recorder)} accesses -> {args.trace}")
    if args.trace_out:
        from repro.obs import export_chrome_trace, save_chrome_trace

        doc = export_chrome_trace(
            trace=recorder.records, dma_events=dma_rec.events,
            kernel_spans=kernel_rec.spans(), samples=sampler.samples)
        save_chrome_trace(doc, args.trace_out)
        print(f"\nchrome trace: {len(doc['traceEvents'])} event(s) "
              f"({len(recorder)} accesses, {len(dma_rec)} DMA commands, "
              f"{len(kernel_rec.spans())} kernel spans) -> {args.trace_out}")
    # The series document comes last, so '--profile -' ends stdout with it.
    if args.profile == "-":
        json.dump(sampler.to_dict(), sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
    elif args.profile:
        sampler.save(args.profile)
        print(f"series -> {args.profile}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "analysis":
        from repro.analysis.__main__ import main as analysis_main

        return analysis_main(args.analysis_args)
    if args.command == "grid":
        from repro.grid.cli import main as grid_main

        return grid_main(args.grid_args)
    if args.command == "obs":
        from repro.obs.cli import main as obs_main

        return obs_main(args.obs_args)
    if args.command == "serve":
        from repro.serve.cli import main as serve_main

        return serve_main(args.serve_args)
    if args.command == "tune":
        from repro.tune.cli import main as tune_main

        return tune_main(args.tune_args)
    if args.command == "list":
        for name in workload_names():
            print(name)
        return 0
    if args.command == "run":
        if args.workload is None:
            # 'run --profile fir': the flag's optional PATH took the
            # workload, so the flag goes back to having no PATH.
            flag = next((f for f in ("profile", "cprofile")
                         if getattr(args, f) in workload_names()), None)
            if flag is None:
                parser.error("run: the following arguments are required: "
                             "workload")
            args.workload = getattr(args, flag)
            setattr(args, flag, "")
        return _run(args)
    if args.command == "compare":
        from repro.harness.reports import format_table
        from repro.workloads import get_workload

        models = ["cc", "str"]
        if get_workload(args.workload).incoherent_safe:
            models.append("icc")
        rows = []
        for model in models:
            r = run_workload(args.workload, model=model, cores=args.cores,
                             clock_ghz=args.clock, preset=args.preset)
            f = r.breakdown.fractions()
            rows.append([
                model, f"{r.exec_time_ms:.4f}",
                f"{f['useful']:.2f}", f"{f['sync']:.2f}", f"{f['load']:.2f}",
                f"{r.traffic.total_bytes / 1e6:.2f}",
                f"{r.energy.total * 1e3:.3f}",
            ])
        print(f"{args.workload} on {args.cores} cores @ {args.clock} GHz "
              f"({args.preset} preset)")
        print(format_table(
            ["model", "time_ms", "useful", "sync", "load",
             "traffic_MB", "energy_mJ"], rows))
        return 0

    from repro.grid.cli import resolve_store, run_experiments

    def render(_name, result) -> None:
        print(result.to_text())
        if getattr(args, "chart", False):
            from repro.harness.reports import render_stacked_bars

            stack = [c for c in ("useful", "sync", "load", "store")
                     if c in result.headers]
            if not stack:
                stack = [c for c in ("read", "write") if c in result.headers]
            if stack:
                first = result.rows[0] if result.rows else {}
                labels = [h for h in result.headers
                          if h not in stack
                          and not isinstance(first.get(h), float)]
                print()
                print(render_stacked_bars(result.rows, labels, stack))
        print()

    names = list(EXPERIMENTS) if args.command == "all" else [args.command]
    return run_experiments(
        names, preset=args.preset, jobs=args.jobs,
        store=resolve_store(args.store, args.no_store),
        progress_json=args.progress_json, render=render)


if __name__ == "__main__":
    sys.exit(main())
