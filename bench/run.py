"""Layered host-time benchmark of the repro simulator.

Usage::

    python bench/run.py                          # every workload, 3 passes each
    python bench/run.py --workload miss-cc --seed 1 --seconds 20
    python bench/run.py --trace                  # per-layer metrics
    python bench/run.py --workload engines-c1 --hatch BLOCKS=0
    python bench/compare.py PARENT.json... -- CHANGE.json...

Each pass of a workload runs in a fresh child process that imports
``repro`` from this checkout's ``src``; passes of several workloads are
interleaved round-robin, and at most one child is busy at a time.  A
workload gets at least ``--repeats`` passes, and more while they fit in
``--seconds``.  Every end-to-end metric is the median over passes of
host time divided by the pass's measured slowdown (see
``suite.SpeedSampler``); the report keeps the raw wall times too.

Every simulated result is checked against ``bench/golden.json``; for a
seed with no golden entry the seeded specs are checked against a
reference run with every acceleration hatch off.  A mismatch, an
exception or a timeout counts as failed and makes the exit code 1.

Output: one ``workload metric value unit`` line per metric, a JSON report
(``--out``), and, as the last line of standard output, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 1`` each workload gets one plain and one profiled pass, the
metrics are the per-layer ones, and the spans are written beside the
report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

from suite import (HATCH_VARS, LAYERS, ROOT, SERVE_ROUNDS, SRC, WORKLOADS,
                   SpeedSampler, child_env, digest, load_declared, median,
                   parse_hatches, peak_rss_mb, percentile, seed_key, slowdown,
                   tail_percentile)

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"
#: Scratch space inside the checkout (sockets, stores, requests).
WORK_DIR = Path(".bench_run")
#: A child still running after this long is killed and its pass failed.
PASS_TIMEOUT_S = 90.0
#: A single spec running longer than this fails inside its child.
SPEC_TIMEOUT_S = 45.0
REPORT_SCHEMA = 1


@dataclass
class Bench:
    """Settings and state of one invocation."""

    seed: int | None
    hatch: dict
    tmp: Path
    trace: bool = False
    record_golden: bool = False
    golden: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)
    serve_expected: dict = field(default_factory=dict)
    checks: dict = field(default_factory=lambda: {
        "golden": 0, "reference": 0, "unchecked": 0})
    unchecked: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    files: int = 0

    @property
    def env(self) -> dict:
        return child_env(self.hatch)

    def path(self, stem: str, suffix: str = ".json") -> Path:
        self.files += 1
        return self.tmp / f"{stem}-{self.files}{suffix}"


class Child:
    """One child process, killed if it outlives :data:`PASS_TIMEOUT_S`.

    :meth:`finish` reaps it with ``os.wait4`` so its CPU time is its own,
    not that of every child so far.
    """

    def __init__(self, cmd: list[str], env: dict, log: Path,
                 stderr=None) -> None:
        self.log = log
        with open(log, "ab") as out:
            self.started = perf_counter()
            self.proc = subprocess.Popen(
                cmd, env=env, stdin=subprocess.DEVNULL, stdout=out,
                stderr=stderr if stderr is not None else out)
        self.timer = threading.Timer(PASS_TIMEOUT_S, self.proc.kill)
        self.timer.daemon = True
        self.timer.start()
        self.usage = None

    def finish(self) -> int:
        """Wait for exit; returns the exit code (negative: killed)."""
        if self.proc.returncode is None:
            try:
                _, status, self.usage = os.wait4(self.proc.pid, 0)
            finally:
                self.timer.cancel()
            self.ended = perf_counter()
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            if self.proc.stderr is not None:
                self.proc.stderr.close()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.finish()

    def failure(self, what: str) -> str:
        code = self.proc.returncode
        reason = ("timed out" if code == -signal.SIGKILL
                  else f"exited with code {code}")
        tail = self.log.read_text(errors="replace").strip().splitlines()[-3:]
        return f"{what} {reason}: " + " | ".join(tail)


# -- simulation passes ------------------------------------------------------

def run_sim_child(bench: Bench, specs: list[dict], profile: bool = False,
                  store: Path | None = None, only_seeded: bool = False,
                  hatch: dict | None = None):
    """Run one child over ``specs``; returns ``(child, result | None)``."""
    request, result = bench.path("request"), bench.path("result")
    request.write_text(json.dumps({
        "specs": specs, "seed": bench.seed, "profile": profile,
        "timeout_s": SPEC_TIMEOUT_S, "only_seeded": only_seeded,
        "store": str(store) if store is not None else None}))
    env = child_env(hatch) if hatch is not None else bench.env
    child = Child([sys.executable, str(BENCH / "child.py"), "sim",
                   str(request), str(result)], env,
                  bench.path("child", ".log"))
    try:
        code = child.finish()
    finally:
        child.kill()
    if code != 0 or not result.is_file():
        return child, None
    return child, json.loads(result.read_text())


def expected_digest(bench: Bench, workload: str, name: str,
                    seeded: bool) -> tuple[str | None, str]:
    """The digest a spec must produce, and where it came from."""
    if not bench.record_golden:
        want = bench.golden.get(workload, {}).get(name, {}).get(
            seed_key(bench.seed, seeded))
        if want is not None:
            return want, "golden"
    want = bench.reference.get(workload, {}).get(name)
    if want is not None:
        return want, "reference"
    return None, "unchecked"


def check_specs(bench: Bench, workload: str, records: list[dict]) -> list[str]:
    """Failures among one child's spec records (errors, digest mismatches)."""
    failures = []
    for record in records:
        name = record["name"]
        if "error" in record:
            failures.append(f"{name}: {record['error']}")
            continue
        want, source = expected_digest(bench, workload, name,
                                       record["seeded"])
        bench.checks[source] += 1
        if source == "unchecked":
            bench.unchecked.setdefault(workload, {})[name] = record["digest"]
        elif record["digest"] != want:
            failures.append(f"{name}: digest {record['digest'][:16]} != "
                            f"{source} {want[:16]}")
    return failures


def sim_pass(bench: Bench, workload: str, index: int,
             profile: bool = False) -> dict:
    """One pass of a simulation workload; returns its pass record."""
    specs = WORKLOADS[workload][1]
    child, result = run_sim_child(bench, specs, profile=profile)
    record = {"attempted": len(specs), "wall_s": child.ended - child.started,
              "cpu_s": child.usage.ru_utime + child.usage.ru_stime,
              "rss_mb": (result or {}).get("peak_rss_mb")
              or child.usage.ru_maxrss / 1024.0}
    if result is None:
        record.update(failed=len(specs),
                      failures=[child.failure(f"{workload} child")])
        return record
    failures = check_specs(bench, workload, result["specs"])
    ok = [spec for spec in result["specs"] if "marks" in spec]
    spans = [spec["marks"] for spec in ok]
    stats: dict = {}
    for spec in ok:
        for key, value in spec["stats"].items():
            stats[key] = stats.get(key, 0) + value
    speed = slowdown(result["speed"]) if "speed" in result else 1.0
    record.update(
        failed=len(failures), failures=failures, speed=speed,
        import_s=result["import_s"],
        config_s=sum(m[1] - m[0] for m in spans),
        build_s=sum(m[2] - m[1] for m in spans),
        construct_s=sum(m[3] - m[2] for m in spans),
        ops=sum(spec["ops"] for spec in ok),
        ops_s=sum(m[4] - m[3] for m in spans),
        latencies=[m[4] - m[0] for m in spans],
        # Each spec's own slowdown: a short spec's time depends on the
        # moment it ran more than on the pass as a whole.
        lat_speed=[slowdown(spec["speed"])
                   if spec.get("speed", {}).get("samples") else speed
                   for spec in ok],
        loop_s=result["loop"][1] - result["loop"][0],
        stats=stats, digests={spec["name"]: spec["digest"] for spec in ok},
        seeded=[spec["name"] for spec in ok if spec["seeded"]])
    record["setup_s"] = (record["import_s"] + record["config_s"]
                         + record["build_s"] + record["construct_s"])
    if profile:
        record["profile"] = result["profile"]
    else:
        trace_id = f"{workload}/{index}"
        base = child.started
        bench.spans.append(_span(trace_id, "pass", trace_id, None, 0.0,
                                 child.ended - base))
        for spec, marks in zip(ok, spans):
            spec_id = f"{trace_id}/{spec['name']}"
            bench.spans.append(_span(trace_id, "spec", spec_id, trace_id,
                                     marks[0] - base, marks[4] - base))
            for name, (lo, hi) in zip(
                    ("setup.config", "setup.build", "setup.construct",
                     "simulate"), zip(marks, marks[1:])):
                bench.spans.append(_span(trace_id, name, f"{spec_id}/{name}",
                                         spec_id, lo - base, hi - base))
    return record


def _span(trace: str, name: str, span_id: str, parent: str | None,
          start: float, end: float) -> dict:
    """One span; times are seconds from the start of its pass."""
    return {"trace": trace, "id": span_id, "parent": parent, "name": name,
            "start": start, "end": end}


# -- the serve workload -----------------------------------------------------

def fill_store(bench: Bench) -> Path:
    """Untimed set-up: run every serve spec once into a fresh store."""
    store = bench.tmp / "store"
    specs = WORKLOADS["serve-warm"][1]
    child, result = run_sim_child(bench, specs, store=store)
    if result is None:
        raise RuntimeError(child.failure("serve-warm store fill"))
    failures = check_specs(bench, "serve-warm", result["specs"])
    if failures:
        raise RuntimeError("serve-warm store fill: " + "; ".join(failures))
    bench.serve_expected = {spec["name"]: spec["digest"]
                            for spec in result["specs"]}
    return store


def serve_pass(bench: Bench, store: Path, index: int,
               profile: bool = False) -> dict:
    """One pass of ``serve-warm``: a fresh server and one closed-loop client."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sock = str(bench.tmp / "serve.sock")
    result = bench.path("server")
    # Client and server take turns, so one vCPU serves both; sharing it
    # lets their speed samples describe the same host speed.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        server = Child([sys.executable, str(BENCH / "child.py"),
                        "serve-profile" if profile else "serve", str(result),
                        "--", "serve", "start", "--socket", sock,
                        "--jobs", "1", "--store", str(store)],
                       bench.env, bench.path("server", ".log"),
                       stderr=subprocess.PIPE)
        return _drive_server(bench, server, sock, result, index, profile)
    finally:
        os.sched_setaffinity(0, cpus)


def _drive_server(bench: Bench, server: Child, sock: str, result: Path,
                  index: int, profile: bool) -> dict:
    """The closed-loop client of one serve pass; returns its pass record."""
    from repro.grid.spec import RunSpec
    from repro.serve.client import ServeClient

    entries = WORKLOADS["serve-warm"][1]
    specs = [RunSpec(**entry["spec"]) for entry in entries]
    attempted = SERVE_ROUNDS * len(specs)
    sent: list[tuple] = []
    sampler = None
    try:
        banner = server.proc.stderr.readline()
        if not banner.startswith(b"repro.serve: listening"):
            raise ConnectionError(f"server did not start: {banner!r}")
        with ServeClient(socket_path=sock, timeout_s=PASS_TIMEOUT_S) as client:
            hello = perf_counter()
            sampler = None if profile else SpeedSampler().start()
            cpu0, loop0 = process_time(), perf_counter()
            for _ in range(SERVE_ROUNDS):
                for i, spec in enumerate(specs):
                    marks: dict = {}
                    start = perf_counter()
                    report = client.submit(
                        [spec], on_frame=lambda f, m=marks: m.setdefault(
                            f["type"], perf_counter()))
                    sent.append((i, start, marks, perf_counter(), report))
            loop_s = perf_counter() - loop0
            client_cpu_s = process_time() - cpu0
            client_speed = sampler.stop() if sampler else None
            rss_mb = peak_rss_mb(server.proc.pid)
            client.shutdown()
        server.finish()
        served = json.loads(result.read_text())
    except Exception as exc:  # the pass fails; the run carries on
        if sampler:
            sampler.stop()
        server.kill()
        return {"attempted": attempted, "failed": attempted,
                "failures": [f"serve-warm pass: {type(exc).__name__}: {exc}"],
                "wall_s": server.ended - server.started, "cpu_s": 0.0,
                "rss_mb": 0.0}
    finally:
        server.kill()

    failures: list[str] = []
    latencies, ops, hits = [], 0, 0
    stage = {"accepted": [], "outcome": [], "done": []}
    trace_id = f"serve-warm/{index}"
    for n, (i, start, marks, end, report) in enumerate(sent):
        problem = _served_problem(bench, entries[i]["name"], report)
        if problem:
            failures.append(problem)
            continue
        hits += report.done["hits"]
        ops += report.outcomes[0].result.instructions \
            + report.outcomes[0].result.word_accesses
        latencies.append(end - start)
        t_acc, t_out, t_done = (marks["accepted"], marks["outcome"],
                                marks["done"])
        stage["accepted"].append(t_acc - start)
        stage["outcome"].append(t_out - t_acc)
        stage["done"].append(t_done - t_out)
        if not profile:
            rid = f"{trace_id}/r{n}"
            base = server.started
            bench.spans.append(_span(rid, "request", rid, None, start - base,
                                     end - base))
            for name, lo, hi in (("accepted", start, t_acc),
                                 ("outcome", t_acc, t_out),
                                 ("done", t_out, t_done)):
                bench.spans.append(_span(rid, name, f"{rid}/{name}", rid,
                                         lo - base, hi - base))
    record = {
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20],
        "wall_s": server.ended - server.started,
        "cpu_s": server.usage.ru_utime + server.usage.ru_stime,
        "rss_mb": rss_mb or server.usage.ru_maxrss / 1024.0,
        "setup_s": hello - server.started, "ops": ops,
        "ops_s": sum(latencies), "latencies": latencies, "loop_s": loop_s,
        "stages": stage, "hits": hits, "client_cpu_s": client_cpu_s,
        "import_s": served["import_s"]}
    if profile:
        record["profile"] = served["profile"]
    else:
        record["speed"] = slowdown(served["speed"], client_speed)
    return record


def _served_problem(bench: Bench, name: str, report) -> str | None:
    """Why one served submit does not count as a correct store hit."""
    done = report.done or {}
    if len(report.outcomes) != 1 or done.get("hits") != 1:
        return f"{name}: not answered as one store hit ({done})"
    outcome = report.outcomes[0]
    if outcome.status != "ok" or outcome.source != "store":
        return f"{name}: outcome {outcome.status}/{outcome.source}"
    if digest(outcome.result.to_dict()) != bench.serve_expected.get(name):
        return f"{name}: served record differs from the stored one"
    return None


# -- metrics ----------------------------------------------------------------

def pass_metrics(record: dict) -> dict[str, float]:
    """The end-to-end metrics of one pass.

    On simulation workloads a "request" is one spec, from ``to_config``
    to the end of ``CmpSystem.run``; on ``serve-warm`` it is one submit,
    from send to its ``done`` frame.  Host times are divided by the
    pass's slowdown, and rates multiplied by it.
    """
    speed = record.get("speed", 1.0)
    lat = latencies(record) or [0.0]
    return {
        "wall_s": record["wall_s"] / speed,
        "cpu_s": record["cpu_s"] / speed,
        "setup_s": record.get("setup_s", 0.0) / speed,
        "peak_rss_mb": record["rss_mb"],
        "sim_mops_per_s": (record.get("ops", 0) / record["ops_s"] / 1e6
                           * speed if record.get("ops_s") else 0.0),
        "req_p50_ms": percentile(lat, 50) * 1e3,
        "req_p90_ms": percentile(lat, 90) * 1e3,
        "req_per_s": (len(record.get("latencies", ())) / record["loop_s"]
                      * speed if record.get("loop_s") else 0.0),
    }


def latencies(record: dict) -> list[float]:
    """A pass's request latencies, each divided by its slowdown."""
    lat = record.get("latencies", [])
    factors = record.get("lat_speed") or [record.get("speed", 1.0)] * len(lat)
    return [x / f for x, f in zip(lat, factors)]


def summarize(passes: list[dict], declared: list[dict]) -> dict:
    """Median over passes of every end-to-end metric, with min, max, n."""
    usable = [p for p in passes if p.get("latencies")] or passes
    per_pass = [pass_metrics(p) for p in usable]
    out = {}
    for metric in declared:
        values = [m[metric["name"]] for m in per_pass]
        out[metric["name"]] = {"value": median(values),
                               "unit": metric["unit"], "min": min(values),
                               "max": max(values), "n": len(values)}
    return out


def latency_tail(passes: list[dict]) -> dict | None:
    """Highest percentile with ten samples beyond it, over every pass."""
    samples = [x for p in passes for x in latencies(p)]
    pct = tail_percentile(len(samples))
    if pct is None:
        return None
    return {"pct": pct, "ms": percentile(samples, pct) * 1e3,
            "n": len(samples)}


def layer_metrics(plain: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics of one workload from a plain and a profiled pass."""
    prof = traced.get("profile") or {
        "self_s": {}, "calls": {}, "entries": {}}
    total = sum(prof["self_s"].values()) or 1.0
    out = {f"{layer}.self_frac": prof["self_s"].get(layer, 0.0) / total
           for layer in LAYERS}

    def entry(name: str) -> tuple[int, float]:
        calls, cum = prof["entries"].get(name, (0, 0.0))
        return calls, (cum / calls * 1e9 if calls else 0.0)

    for prefix, name, suffix in (
            ("mem.hierarchy", "mem.hierarchy.walk", "walk"),
            ("sim.resources", "sim.resources.serve", "serve"),
            ("interconnect.fabric", "interconnect.fabric.transfer",
             "transfer"),
            ("mem.dma", "mem.dma.cmd", "cmd")):
        calls, ns = entry(name)
        out[f"{prefix}.{suffix}_calls"] = calls
        out[f"{prefix}.{suffix}_ns"] = ns
    out["mem.cache.calls"] = prof["calls"].get("mem.cache", 0)
    out["mem.dram.calls"] = prof["calls"].get("mem.dram", 0)

    # Simulator work counts; a serve pass simulates nothing and has none.
    stats = plain.get("stats", {})
    out["mem.dma.commands"] = stats.get("dma.commands", 0)
    out["sim.kernel.events"] = stats.get("sim.events", 0)
    for kind in ("phase", "stream"):
        total_iters = stats.get(f"sim.{kind}_iters_total", 0)
        out[f"core.processor.{kind}_coverage"] = (
            stats.get(f"sim.{kind}_iters", 0) / total_iters
            if total_iters else 0.0)
    # Host times of the plain pass, at the calibration host's speed.
    speed = plain.get("speed", 1.0)
    for part in ("import", "config", "build", "construct"):
        out[f"setup.{part}_s"] = plain.get(f"{part}_s", 0.0) / speed
    stages = plain.get("stages")
    lat = latencies(plain) or [0.0]
    out["serve.req_p99_ms"] = percentile(lat, 99) * 1e3 if stages else 0.0
    for name in ("accepted", "outcome", "done"):
        out[f"serve.{name}_ms"] = (median(stages[name]) * 1e3 / speed
                                   if stages and stages[name] else 0.0)
    out["serve.hits_frac"] = (plain.get("hits", 0) / plain["attempted"]
                              if stages else 0.0)
    out["serve.client_cpu_s"] = plain.get("client_cpu_s", 0.0) / speed
    out["trace.overhead_x"] = (traced["cpu_s"] / plain["cpu_s"]
                               if plain.get("cpu_s") else 0.0)
    return out


# -- the run ----------------------------------------------------------------

def prepare(bench: Bench, workloads: list[str]) -> dict:
    """Untimed set-up: compile bytecode, fill the serve store, references."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   env=bench.env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S,
                   check=False)
    off = {var: "0" for var in HATCH_VARS}
    for workload in workloads:
        golden = bench.golden.get(workload, {})
        covered = bench.seed is None or all(
            str(bench.seed) in entry for entry in golden.values()
            if set(entry) != {"default"})
        if bench.record_golden or not covered:
            child, result = run_sim_child(
                bench, WORKLOADS[workload][1], hatch=off,
                only_seeded=bench.seed is not None)
            if result is None:
                raise RuntimeError(child.failure(f"{workload} reference"))
            bench.reference[workload] = {
                spec["name"]: spec["digest"] for spec in result["specs"]
                if "digest" in spec}
    state = {}
    if "serve-warm" in workloads:
        state["store"] = fill_store(bench)
    return state


def measure(bench: Bench, workloads: list[str], repeats: int,
            seconds: float, state: dict) -> dict[str, list[dict]]:
    """Round-robin passes: at least ``repeats`` each, more while they fit."""
    passes: dict[str, list[dict]] = {w: [] for w in workloads}
    start = perf_counter()
    while True:
        round_start = perf_counter()
        for workload in workloads:
            index = len(passes[workload])
            passes[workload].append(
                serve_pass(bench, state["store"], index)
                if WORKLOADS[workload][0] == "serve"
                else sim_pass(bench, workload, index))
        now = perf_counter()
        if (len(passes[workloads[0]]) >= repeats
                and now - start + (now - round_start) > seconds):
            return passes


def trace(bench: Bench, workloads: list[str], state: dict) -> dict:
    """One plain and one profiled pass per workload."""
    out = {}
    for workload in workloads:
        if WORKLOADS[workload][0] == "serve":
            plain = serve_pass(bench, state["store"], 0)
            traced = serve_pass(bench, state["store"], 1, profile=True)
        else:
            plain = sim_pass(bench, workload, 0)
            traced = sim_pass(bench, workload, 1, profile=True)
        out[workload] = (plain, traced)
    return out


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="layered host-time benchmark of the repro simulator")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed for specs whose workload "
                             "declares one (default: each preset's own)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding passes while they fit in this "
                             "many seconds (default 0: just --repeats)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="minimum passes per workload (default 3)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: one plain and one profiled pass per "
                             "workload; report per-layer metrics")
    parser.add_argument("--hatch", action="append", metavar="NAME=0|1",
                        help="pin one acceleration hatch (FASTPATH, "
                             "BLOCKS, PHASES, STREAMS); default all 1")
    parser.add_argument("--out", default=str(WORK_DIR / "report.json"),
                        help="JSON report path (default %(default)s)")
    parser.add_argument("--record-golden", action="store_true",
                        help="write the digests of this run into "
                             "bench/golden.json after checking them "
                             "against a run with every hatch off")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        hatch = parse_hatches(args.hatch)
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    declared = load_declared()
    workloads = args.workload or list(WORKLOADS)
    out_path = Path(args.out).resolve()
    os.chdir(ROOT)
    WORK_DIR.mkdir(exist_ok=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench(seed=args.seed, hatch=hatch, trace=bool(args.trace),
                  record_golden=args.record_golden,
                  tmp=Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)))
    if GOLDEN.is_file():
        bench.golden = json.loads(GOLDEN.read_text())
    started = time.time()
    try:
        state = prepare(bench, workloads)
        if bench.trace:
            traced = trace(bench, workloads, state)
            passes = {w: list(pair) for w, pair in traced.items()}
        else:
            passes = measure(bench, workloads, args.repeats, args.seconds,
                             state)
    except RuntimeError as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)

    report = {"schema": REPORT_SCHEMA, "started": started,
              "seed": args.seed, "seconds": args.seconds,
              "repeats": args.repeats, "trace": bench.trace,
              "hatch": hatch, "host": {
                  "nproc": os.cpu_count(), "machine": platform.machine(),
                  "python": platform.python_version()},
              "workloads": {}}
    flat: dict = {}
    attempted = failed = 0
    for workload in workloads:
        entry = workload_report(passes[workload], declared, bench.trace)
        report["workloads"][workload] = entry
        attempted += entry["attempted"]
        failed += entry["failed"]
        metrics = entry["per_layer" if bench.trace else "metrics"]
        for name, value in metrics.items():
            print(f"{workload} {name} {value['value']:.6g} {value['unit']}")
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            flat[key] = {"value": value["value"], "unit": value["unit"]}
        tail = entry.get("tail")
        if tail:
            print(f"{workload} req_p{tail['pct']:g}_ms {tail['ms']:.6g} ms "
                  f"(n={tail['n']})")
        for failure in entry["failures"]:
            print(f"bench: FAILED {workload}: {failure}", file=sys.stderr)

    for workload, digests in bench.unchecked.items():
        for name, value in sorted(digests.items()):
            print(f"bench: no golden digest for {workload} {name} "
                  f"seed={args.seed}: {value}", file=sys.stderr)
    checked = not bench.checks["reference"] and not bench.checks["unchecked"]
    correct = failed == 0
    report.update(correct=correct, attempted=attempted, failed=failed,
                  digests_checked=checked, checks=bench.checks)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if bench.trace:
        with open(out_path.with_suffix(".spans.jsonl"), "w") as fh:
            for span in bench.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
    if bench.record_golden and correct:
        record_golden(bench, passes)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": flat}))
    return 0 if correct else 1


def workload_report(runs: list[dict], declared: dict, traced: bool) -> dict:
    """One workload's report entry; with ``traced``, runs = (plain, profiled)."""
    entry = {"attempted": sum(p["attempted"] for p in runs),
             "failed": sum(p["failed"] for p in runs),
             "failures": [f for p in runs for f in p["failures"]][:50],
             "passes": [{"speed": p.get("speed", 1.0), **pass_metrics(p),
                         "raw_wall_s": p["wall_s"]} for p in runs]}
    if traced:
        values = layer_metrics(*runs)
        entry["per_layer"] = {m["name"]: {"value": values[m["name"]],
                                          "unit": m["unit"]}
                              for m in declared["per_layer"]}
        entry["metrics"] = summarize(runs[:1], declared["end_to_end"])
    else:
        entry["metrics"] = summarize(runs, declared["end_to_end"])
        entry["tail"] = latency_tail(runs)
    return entry


def record_golden(bench: Bench, passes: dict[str, list[dict]]) -> None:
    """Merge this run's (reference-checked) digests into golden.json."""
    golden = bench.golden
    for workload, runs in passes.items():
        table = golden.setdefault(workload, {})
        digests = (bench.serve_expected if workload == "serve-warm"
                   else runs[0]["digests"])
        seeded = set(runs[0].get("seeded", ()))
        for name, value in digests.items():
            # Under --seed only the seeded specs were checked against the
            # reference; the others keep their default-seed entry.
            if bench.seed is None or name in seeded:
                key = seed_key(bench.seed, name in seeded)
                table.setdefault(name, {})[key] = value
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
