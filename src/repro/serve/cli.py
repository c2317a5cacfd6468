"""Command-line surface of the serve subsystem.

Usage::

    python -m repro serve start --socket .repro-serve.sock --jobs 4
    python -m repro serve start --port 7420 --store .repro-cache
    python -m repro serve submit figure3 --preset tiny --socket ...
    python -m repro serve submit --workload fir --cores 2 --preset tiny
    python -m repro serve watch --limit 20
    python -m repro serve stats [--json]
    python -m repro serve stop

``start`` runs the long-lived server; every other command is a short
client invocation against a running server.  The default endpoint is
the ``.repro-serve.sock`` unix socket in the working directory; pass
``--port`` (and optionally ``--host``) for TCP instead.  ``submit``
accepts experiment names (planned exactly like ``grid sweep``, then
rendered from the served outcomes through ``grid sweep``'s own tail, so
it exits 0, 1 on a failed run, or 2 on an out-of-band claim) or a
single ``--workload`` spec (exit 1 when it failed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.grid.cli import _experiment_names, replay_experiments, resolve_store
from repro.grid.scheduler import plan
from repro.grid.spec import RunSpec

#: Default unix-socket endpoint (shared by server and clients).
DEFAULT_SOCKET = ".repro-serve.sock"


def _address_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--socket", metavar="PATH",
                        help=f"unix socket endpoint "
                             f"(default: {DEFAULT_SOCKET})")
    parser.add_argument("--host", default="127.0.0.1",
                        help="TCP host (with --port; default 127.0.0.1)")
    parser.add_argument("--port", type=int, metavar="N",
                        help="TCP port (instead of the unix socket)")


def _connect(args, retry_for_s: float = 5.0):
    """Client connection for one command.

    The default retry window covers the `serve start ... & serve
    submit` shell idiom, where the server may still be importing when
    the first client tries the socket.
    """
    from repro.serve.client import ServeClient

    if args.port is not None:
        return ServeClient.connect(host=args.host, port=args.port,
                                   retry_for_s=retry_for_s)
    return ServeClient.connect(socket_path=args.socket or DEFAULT_SOCKET,
                               retry_for_s=retry_for_s)


def _cmd_start(args) -> int:
    from repro.serve.server import ReproServer
    from repro.units import ns_to_fs

    series_interval_fs = None
    if args.series:
        series_interval_fs = ns_to_fs(args.series_interval_ns) \
            if args.series_interval_ns else 0
    server = ReproServer(
        store=resolve_store(args.store, args.no_store),
        jobs=args.jobs, timeout_s=args.timeout, retries=args.retries,
        series_interval_fs=series_interval_fs,
        backpressure=args.backpressure)
    if args.port is not None:
        server.run(host=args.host, port=args.port)
    else:
        server.run(socket_path=args.socket or DEFAULT_SOCKET)
    return 0


def _specs_from_args(args) -> tuple[list[RunSpec], list[str]]:
    """The run set to submit: one explicit spec, or planned experiments."""
    if args.workload is not None:
        spec = RunSpec(args.workload, model=args.model, cores=args.cores,
                       clock_ghz=args.clock,
                       bandwidth_gbps=args.bandwidth,
                       prefetch=args.prefetch,
                       prefetch_depth=args.prefetch_depth,
                       preset=args.preset)
        return [spec], []
    from repro.harness import EXPERIMENTS

    names = _experiment_names(args.experiments)
    return plan([EXPERIMENTS[name] for name in names],
                preset=args.preset), names


def _cmd_submit(args) -> int:
    specs, names = _specs_from_args(args)
    transcript = open(args.transcript, "w") if args.transcript else None

    def on_frame(frame: dict) -> None:
        if transcript is not None:
            transcript.write(json.dumps(frame, sort_keys=True) + "\n")
            transcript.flush()
        if args.json:
            print(json.dumps(frame, sort_keys=True), flush=True)

    try:
        with _connect(args) as client:
            report = client.submit(specs, on_frame=on_frame)
    finally:
        if transcript is not None:
            transcript.close()

    if not args.json:
        for outcome in report.outcomes:
            wall = f"{outcome.wall_s:.2f}s" if outcome.wall_s else "-"
            print(f"{outcome.key[:12]}  {outcome.status:<6} "
                  f"{outcome.source:<6} {wall:>8}  {outcome.spec.label()}")
        done = report.done or {}
        print(f"submitted {len(specs)} spec(s): {report.ok} ok, "
              f"{report.failed} failed ({done.get('hits', 0)} store hits, "
              f"{done.get('runs', 0)} runs, {done.get('shared', 0)} shared)",
              file=sys.stderr)
    if names and not args.json:
        return replay_experiments(names, report.outcomes, preset=args.preset)
    return 1 if report.failed else 0


def _cmd_watch(args) -> int:
    with _connect(args) as client:
        try:
            for frame in client.watch(limit=args.limit):
                print(json.dumps(frame, sort_keys=True), flush=True)
        except (KeyboardInterrupt, ConnectionError):
            pass
    return 0


def _cmd_stats(args) -> int:
    with _connect(args) as client:
        frame = client.stats()
    if args.json:
        print(json.dumps(frame, indent=2, sort_keys=True))
        return 0
    server = frame["server"]
    store = frame["store"]
    print(f"server     : {server['connections_open']} client(s) connected, "
          f"{server['inflight']} run(s) in flight, "
          f"processes={server['jobs']}")
    print(f"served     : {server['store_hits']} store hit(s) "
          f"({server['memo_hits']} from memory), "
          f"{server['runs_executed']} executed, "
          f"{server['dedup_joins']} dedup join(s), "
          f"{server['failures']} failure(s)")
    print(f"traffic    : {server['connections']} connection(s), "
          f"{server['submissions']} submission(s), "
          f"{server['specs_requested']} spec(s) requested, "
          f"{server['events_dropped']} tick(s) dropped")
    if store is not None:
        print(f"store      : {store['records']} record(s) "
              f"({store['ok']} ok, {store['failed']} failed, "
              f"{store['series']} series) at {store['root']}")
    else:
        print("store      : disabled")
    return 0


def _cmd_stop(args) -> int:
    from repro.serve.client import ServeError

    try:
        # No retry window: stopping a server that is not there should
        # fail immediately, not wait for one to appear.
        with _connect(args, retry_for_s=0.0) as client:
            client.shutdown()
    except (ConnectionError, ServeError, OSError) as exc:
        print(f"serve stop: {exc}", file=sys.stderr)
        return 1
    print("server stopped", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="async simulation-as-a-service over the grid "
                    "result store")
    sub = parser.add_subparsers(dest="command", required=True)

    start = sub.add_parser("start", help="run the server (foreground)")
    _address_flags(start)
    start.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       metavar="N",
                       help="worker processes, one simulation each "
                            "(default: CPU count)")
    start.add_argument("--store", metavar="PATH",
                       help="result-store directory (default: $REPRO_STORE "
                            "or .repro-cache)")
    start.add_argument("--no-store", action="store_true",
                       help="serve without a persistent store (every "
                            "submission misses; dedup still applies)")
    start.add_argument("--timeout", type=float, metavar="S",
                       help="per-run timeout in seconds")
    start.add_argument("--retries", type=int, default=1,
                       help="resubmissions after a worker exception")
    start.add_argument("--backpressure", type=int, default=256, metavar="N",
                       help="outbound frames buffered per client before "
                            "the sender blocks / ticks drop (default 256)")
    start.add_argument("--series", action="store_true",
                       help="sample a metric time series inside every "
                            "executed run (stored beside the result)")
    start.add_argument("--series-interval-ns", type=int, default=0,
                       metavar="NS",
                       help="series sampling window in simulated ns "
                            "(default: 20k core cycles per config)")

    submit = sub.add_parser(
        "submit", help="submit experiments or one spec; stream outcomes")
    _address_flags(submit)
    submit.add_argument("experiments", nargs="*", default=[],
                        help="experiment names (default: all; ignored "
                             "with --workload)")
    submit.add_argument("--preset", default="default",
                        choices=["default", "small", "tiny"])
    from repro import workload_names

    submit.add_argument("--workload", choices=workload_names(),
                        default=None,
                        help="submit a single run of this workload "
                             "instead of planned experiments")
    submit.add_argument("--model", choices=["cc", "str", "icc"],
                        default="cc")
    submit.add_argument("--cores", type=int, default=16)
    submit.add_argument("--clock", type=float, default=0.8)
    submit.add_argument("--bandwidth", type=float, default=6.4)
    submit.add_argument("--prefetch", action="store_true")
    submit.add_argument("--prefetch-depth", type=int, default=4)
    submit.add_argument("--transcript", metavar="PATH",
                        help="record every received frame as JSON lines")
    submit.add_argument("--json", action="store_true",
                        help="print received frames as JSONL instead of "
                             "the rendered summary")

    watch = sub.add_parser(
        "watch", help="stream global progress frames as JSONL")
    _address_flags(watch)
    watch.add_argument("--limit", type=int, default=None, metavar="N",
                       help="stop after N frames (default: forever)")

    stats = sub.add_parser("stats", help="server + store statistics")
    _address_flags(stats)
    stats.add_argument("--json", action="store_true")

    stop = sub.add_parser("stop", help="ask the server to shut down")
    _address_flags(stop)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro serve`` / ``repro.serve``."""
    args = _build_parser().parse_args(argv)
    handler = {"start": _cmd_start, "submit": _cmd_submit,
               "watch": _cmd_watch, "stats": _cmd_stats,
               "stop": _cmd_stop}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
