"""Command-line surface of the observability layer.

Usage::

    python -m repro obs validate trace.json

``validate`` schema-checks a Chrome ``trace_event`` JSON file and runs
nothing.  Instrumented runs are ``python -m repro run`` flags:
``--metrics`` prints the grouped metrics report, ``--profile [PATH]``
samples metric time series (sparklines, or the JSON series to PATH),
and ``--trace-out PATH`` writes the Chrome trace.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.chrometrace import validate_chrome_trace


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
        description="Chrome trace validation (instrumented runs are "
                    "'python -m repro run --metrics/--profile/--trace-out')")
    sub = parser.add_subparsers(dest="command", required=True)
    validate = sub.add_parser("validate",
                              help="schema-check a trace_event JSON file")
    validate.add_argument("path")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro obs`` / ``python -m repro.obs``."""
    args = _build_parser().parse_args(argv)
    return _cmd_validate(args)


if __name__ == "__main__":
    sys.exit(main())
