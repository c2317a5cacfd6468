"""Command-line surface of the grid subsystem.

Usage::

    python -m repro grid sweep figure2 table3 --preset tiny --jobs 4
    python -m repro grid sweep all --jobs 8 --progress-json sweep.json
    python -m repro grid plan figure2 --preset tiny
    python -m repro grid info
    python -m repro grid clear --failed
    python -m repro grid compact [--failed]

``sweep`` regenerates the named experiments (default: every one) by
planning their deduplicated run set, executing the misses on a worker
pool, and replaying the experiments from the settled results.  That is
the one sweep path: ``python -m repro figureN/table3/all`` take it too
(their ``--jobs`` defaults to one worker), and ``python -m repro serve
submit`` replays its served outcomes through the same tail,
:func:`replay_experiments`.

The store location is ``--store PATH`` if given, else the
``REPRO_STORE`` environment variable, else ``.repro-cache/`` in the
working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.grid.progress import Progress
from repro.grid.scheduler import GridScheduler, plan, replay_cache
from repro.grid.store import ResultStore, RunFailedError

#: Default store directory when neither --store nor REPRO_STORE is set.
DEFAULT_STORE = ".repro-cache"


def resolve_store(path: str | None = None,
                  no_store: bool = False) -> ResultStore | None:
    """The store for this invocation (None when storing is disabled)."""
    if no_store:
        return None
    # Sanctioned read: resolved once per CLI invocation, before any run.
    env_root = os.environ.get("REPRO_STORE")  # repro-lint: disable=REPRO007
    root = path or env_root or DEFAULT_STORE
    return ResultStore(root)


def _experiment_names(requested: list[str]) -> list[str]:
    from repro.harness import EXPERIMENTS

    if not requested or requested == ["all"]:
        return list(EXPERIMENTS)
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        raise SystemExit(
            f"unknown experiment(s) {', '.join(unknown)}; "
            f"choose from {', '.join(EXPERIMENTS)} (or 'all')")
    return list(dict.fromkeys(requested))


def run_experiments(names: list[str], preset: str = "default",
                    jobs: int = 1, store: ResultStore | None = None,
                    timeout_s: float | None = None, retries: int = 1,
                    retry_failed: bool = False,
                    progress_json: str | None = None,
                    series_interval_fs: int | None = None,
                    render=None) -> int:
    """Regenerate experiments: plan, schedule on ``jobs`` workers, replay.

    Every sweep takes this one path, whatever ``jobs`` is: the
    experiments' deduplicated run set is planned, store hits settle at
    once, the misses run on a :class:`GridScheduler` pool of ``jobs``
    workers (none is started when nothing misses), and
    :func:`replay_experiments` renders the experiments from the settled
    outcomes.  ``render(name, experiment_result)`` is called for each
    completed experiment (default: print the text table to stdout).
    ``progress_json`` may be a path (one summary document written at the
    end) or ``"-"`` (one JSON line per sweep event streamed to stdout,
    flushed per line).  ``series_interval_fs`` additionally samples a
    metric time series inside every executed run and stores it beside
    the result record (0 means a per-config automatic interval).

    Returns :func:`replay_experiments`' exit code.
    """
    from repro.harness import EXPERIMENTS

    names = _experiment_names(names)
    stream_events = progress_json == "-"
    progress = Progress(jsonl=sys.stdout if stream_events else None)
    specs = plan([EXPERIMENTS[name] for name in names], preset=preset)
    scheduler = GridScheduler(jobs=jobs, store=store,
                              timeout_s=timeout_s, retries=retries,
                              retry_failed=retry_failed,
                              progress=progress,
                              series_interval_fs=series_interval_fs)
    code = replay_experiments(names, list(scheduler.map(specs)),
                              preset=preset, render=render)
    if progress_json:
        payload = progress.as_dict()
        payload["experiments"] = names
        payload["preset"] = preset
        if stream_events:
            progress.emit_jsonl("summary", **payload)
        else:
            payload["store"] = str(store.root) if store is not None else None
            with open(progress_json, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
    return code


def replay_experiments(names: list[str], outcomes: list,
                       preset: str = "default", render=None) -> int:
    """Render experiments from settled outcomes; summarise what went wrong.

    The one tail of every sweep (``grid sweep``, the experiment
    commands, ``serve submit``).  Each named experiment is replayed
    through a :class:`~repro.harness.runner.Runner` over
    :func:`replay_cache` of ``outcomes``; an experiment that needs a
    failed run is reported incomplete on stderr and skipped.  Failed
    runs and scorecard claims outside their acceptance band are then
    listed on stderr.

    Returns the process exit code: 0 when everything settled in band, 1
    when any run degraded to a recorded FailedRun, and 2 when every run
    settled but a scorecard claim left its acceptance band (so CI fails
    on a quietly-broken reproduction, not just on crashes).
    """
    from repro.harness import EXPERIMENTS
    from repro.harness.runner import Runner

    if render is None:
        def render(_name, result):
            print(result.to_text())
            print()

    failures = {outcome.key: outcome.failure for outcome in outcomes
                if outcome.status == "failed"}
    runner = Runner(preset=preset, cache=replay_cache(outcomes))
    rendered = 0
    out_of_band = []
    for name in names:
        try:
            result = EXPERIMENTS[name](runner)
        except RunFailedError as error:
            failures[error.failure.key] = error.failure
            print(f"{name}: incomplete — {error}", file=sys.stderr)
            continue
        render(name, result)
        rendered += 1
        out_of_band += [row for row in result.rows if row.get("ok") is False]

    if failures:
        print(f"\n{len(failures)} run(s) failed "
              f"({len(names) - rendered} experiment(s) incomplete):",
              file=sys.stderr)
        for failure in failures.values():
            print(f"  - {failure.label}: {failure.kind}: {failure.message}",
                  file=sys.stderr)
    if out_of_band:
        print(f"\n{len(out_of_band)} claim(s) out of band:", file=sys.stderr)
        for row in out_of_band:
            print(f"  - {row.get('claim', '?')}: measured "
                  f"{row.get('measured')} outside {row.get('band')}",
                  file=sys.stderr)
    if failures:
        return 1
    return 2 if out_of_band else 0


def _cmd_sweep(args) -> int:
    from repro.units import ns_to_fs

    store = resolve_store(args.store, args.no_store)
    series_interval_fs = None
    if args.series:
        series_interval_fs = ns_to_fs(args.series_interval_ns) \
            if args.series_interval_ns else 0
    return run_experiments(
        args.experiments, preset=args.preset, jobs=args.jobs, store=store,
        timeout_s=args.timeout, retries=args.retries,
        retry_failed=args.retry_failed, progress_json=args.progress_json,
        series_interval_fs=series_interval_fs)


def _cmd_plan(args) -> int:
    from repro.harness import EXPERIMENTS

    names = _experiment_names(args.experiments)
    specs = plan([EXPERIMENTS[name] for name in names], preset=args.preset)
    unique = dict((spec.content_key(), spec) for spec in specs)
    for key, spec in unique.items():
        print(f"{key[:12]}  {spec.label()}")
    print(f"{len(unique)} unique run(s) for {', '.join(names)} "
          f"({args.preset} preset)", file=sys.stderr)
    return 0


def _cmd_info(args) -> int:
    store = resolve_store(args.store)
    stats = store.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"store      : {stats['root']}")
    print(f"records    : {stats['records']} "
          f"({stats['ok']} ok, {stats['failed']} failed)")
    print(f"size       : {stats['size_bytes'] / 1024:.1f} KiB")
    print(f"series     : {stats['series']} sidecar(s), "
          f"{stats['series_bytes'] / 1024:.1f} KiB")
    if stats["corrupt"]:
        print(f"corrupt    : {stats['corrupt']} quarantined file(s), "
              f"{stats['corrupt_bytes'] / 1024:.1f} KiB "
              f"(reclaim with 'grid compact')")
    return 0


def _cmd_clear(args) -> int:
    store = resolve_store(args.store)
    removed = store.clear(failed_only=args.failed)
    what = "failed record(s)" if args.failed else "record(s)"
    print(f"removed {removed} {what} from {store.root}")
    return 0


def _cmd_compact(args) -> int:
    store = resolve_store(args.store)
    summary = store.compact(drop_failed=args.failed)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"compacted {store.root}: removed {summary['removed']} file(s) "
          f"({summary['corrupt']} quarantined, {summary['stale']} "
          f"version-stale, {summary['failed']} failed, "
          f"{summary['orphaned_series']} orphaned series), "
          f"kept {summary['kept']} record(s), reclaimed "
          f"{summary['reclaimed_bytes'] / 1024:.1f} KiB")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro grid",
        description="parallel experiment execution with a persistent "
                    "result store")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="plan, execute in parallel, and render experiments")
    sweep.add_argument("experiments", nargs="*", default=[],
                       help="experiment names (default: all)")
    sweep.add_argument("--preset", default="default",
                       choices=["default", "small", "tiny"])
    sweep.add_argument("--jobs", type=int,
                       default=os.cpu_count() or 1,
                       help="worker processes (default: CPU count)")
    sweep.add_argument("--store", metavar="PATH",
                       help=f"store directory (default: $REPRO_STORE or "
                            f"{DEFAULT_STORE})")
    sweep.add_argument("--no-store", action="store_true",
                       help="run without persisting results")
    sweep.add_argument("--timeout", type=float, metavar="S",
                       help="per-run timeout in seconds")
    sweep.add_argument("--retries", type=int, default=1,
                       help="resubmissions after a worker exception")
    sweep.add_argument("--retry-failed", action="store_true",
                       help="re-run keys whose stored record is a failure")
    sweep.add_argument("--progress-json", metavar="PATH",
                       help="write the sweep metrics as JSON "
                            "('-' streams one line per event to stdout)")
    sweep.add_argument("--series", action="store_true",
                       help="sample a metric time series inside every "
                            "executed run and store it beside the result")
    sweep.add_argument("--series-interval-ns", type=int, default=0,
                       metavar="NS",
                       help="series sampling window in simulated ns "
                            "(default: 20k core cycles per config)")

    plan_p = sub.add_parser(
        "plan", help="print the deduplicated run set of experiments")
    plan_p.add_argument("experiments", nargs="*", default=[])
    plan_p.add_argument("--preset", default="default",
                        choices=["default", "small", "tiny"])

    info = sub.add_parser("info", help="store statistics")
    info.add_argument("--store", metavar="PATH")
    info.add_argument("--json", action="store_true")

    clear = sub.add_parser("clear", help="delete store records")
    clear.add_argument("--store", metavar="PATH")
    clear.add_argument("--failed", action="store_true",
                       help="only delete failure records")

    compact = sub.add_parser(
        "compact", help="garbage-collect quarantined, version-stale, and "
                        "orphaned store files")
    compact.add_argument("--store", metavar="PATH")
    compact.add_argument("--failed", action="store_true",
                         help="also drop recorded failures")
    compact.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro grid`` / ``python -m repro.grid``."""
    args = _build_parser().parse_args(argv)
    handler = {"sweep": _cmd_sweep, "plan": _cmd_plan,
               "info": _cmd_info, "clear": _cmd_clear,
               "compact": _cmd_compact}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
