"""Compare benchmark reports of a parent commit and a change.

Usage::

    python bench/compare.py PARENT.json... -- CHANGE.json...

Each argument is a report written by ``bench/run.py --out``.  Reports are
paired in the order given (the i-th parent run with the i-th change run)
and the runs of a pair should alternate which side went first; a warning
is printed where they do not.

For every workload and end-to-end metric one row gives a verdict:

* ``improved`` -- at least ten pairs, the change wins at least 9/10 of
  them (ties count for neither), and the medians differ by more than
  the parent's interquartile range;
* ``regressed`` -- the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- the spread of either side's runs is wider than the
  bound, unless every change run reads better than every parent run;
* ``unchanged`` -- otherwise.

Reports made with ``--trace 1`` feed a second table: the median delta
of every per-layer metric.  Reports of one side must share their hatch
settings.  Exit code: 0, 1 when a metric regressed, 2 on bad input.
"""

from __future__ import annotations

import json
import sys

from suite import load_declared, median, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], bound: float,
            better: str) -> str:
    """The verdict for one metric from paired per-run values."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (c_med - p_med)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > p_q3 - p_q1):
        return "improved"
    if p_med and -gain / abs(p_med) > bound:
        return "regressed"
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def _load(paths: list[str], side: str) -> list[dict]:
    reports = []
    for path in paths:
        with open(path) as fh:
            reports.append(json.load(fh))
    hatches = {json.dumps(r.get("hatch"), sort_keys=True) for r in reports}
    if len(hatches) > 1:
        raise ValueError(f"{side} reports mix hatch settings: "
                         + " vs ".join(sorted(hatches)))
    return reports


def _series(reports: list[dict], workload: str, table: str,
            name: str) -> list[float]:
    return [r["workloads"][workload][table][name]["value"] for r in reports
            if workload in r["workloads"]
            and name in r["workloads"][workload].get(table, {})]


def compare(parents: list[dict], changes: list[dict], declared: dict) -> int:
    """Print both tables; returns the number of regressed metrics."""
    plain_p = [r for r in parents if not r.get("trace")]
    plain_c = [r for r in changes if not r.get("trace")]
    if parents[0].get("hatch") != changes[0].get("hatch"):
        print(f"note: hatch settings differ: parent {parents[0]['hatch']} "
              f"change {changes[0]['hatch']}")
    order = [p["started"] <= c["started"] for p, c in zip(plain_p, plain_c)]
    if any(a == b for a, b in zip(order, order[1:])):
        print("warning: pairs do not alternate which side ran first")
    workloads = [w for w in dict.fromkeys(
        w for r in plain_p for w in r["workloads"])
        if any(w in r["workloads"] for r in plain_c)]
    regressed = 0
    for workload in workloads:
        pairs = min(sum(workload in r["workloads"] for r in plain_p),
                    sum(workload in r["workloads"] for r in plain_c))
        if pairs < MIN_PAIRS:
            print(f"warning: {workload} has {pairs} pairs; a gain needs "
                  f"at least {MIN_PAIRS}")
        for metric in declared["end_to_end"]:
            a = _series(plain_p, workload, "metrics", metric["name"])
            b = _series(plain_c, workload, "metrics", metric["name"])
            n = min(len(a), len(b))
            if not n:
                continue
            a, b = a[:n], b[:n]
            result = verdict(a, b, metric["bound"], metric["better"])
            regressed += result == "regressed"
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            delta = (b_med / a_med - 1.0) if a_med else 0.0
            print(f"{workload:11} {metric['name']:15} parent {a_med:.6g} "
                  f"[{a_q1:.6g}, {a_q3:.6g}]  change {b_med:.6g} "
                  f"[{b_q1:.6g}, {b_q3:.6g}]  {delta:+.1%}  n={n}  "
                  f"{result}")
    traced_p = [r for r in parents if r.get("trace")]
    traced_c = [r for r in changes if r.get("trace")]
    for workload in dict.fromkeys(w for r in traced_p for w in r["workloads"]):
        for metric in declared["per_layer"]:
            a = _series(traced_p, workload, "per_layer", metric["name"])
            b = _series(traced_c, workload, "per_layer", metric["name"])
            if not a or not b:
                continue
            a_med, b_med = median(a), median(b)
            delta = (f"{b_med / a_med - 1.0:+.1%}" if a_med
                     else f"{b_med - a_med:+.6g}")
            print(f"{workload:11} {metric['name']:32} {a_med:.6g} -> "
                  f"{b_med:.6g} {metric['unit']}  {delta}")
    return regressed


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    try:
        parents = _load(argv[:split], "parent")
        changes = _load(argv[split + 1:], "change")
    except (OSError, ValueError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    if not parents or not changes:
        print("compare: need reports on both sides of --", file=sys.stderr)
        return 2
    return 1 if compare(parents, changes, load_declared()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
