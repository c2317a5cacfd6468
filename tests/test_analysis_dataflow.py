"""Static dataflow auditor: differential soundness against the runtime
monitors, zero hazards on shipped programs, block footprints, and the
``audit-programs`` CLI arm.

The differential contract (ISSUE 6): every class of bug the monitor
self-tests seed and catch *dynamically* must also be caught *statically*
by :mod:`repro.analysis.dataflow` — and the static pass may be strictly
stronger (it flags CC write-write races that MESI serializes at runtime,
where no dynamic monitor can see them).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.dataflow import (
    HAZARD,
    WARNING,
    AuditReport,
    audit_program,
    audit_workload,
    render_reports,
)
from repro.config import MachineConfig
from repro.core.ops import (
    BlockFootprint,
    barrier_wait,
    block,
    compute,
    dma_get,
    dma_put,
    dma_wait,
    load,
    local_load,
    local_store,
    lock_acquire,
    lock_release,
    merge_intervals,
    store,
)
from repro.core.sync import Barrier, Lock
from repro.core.system import CmpSystem
from repro.mem.local_store import LocalStoreError
from repro.sim.kernel import InvariantViolation
from repro.workloads import workload_names
from repro.workloads.base import Arena, Program

LINE = 32

ALL_WORKLOADS = workload_names()


def cc_config(cores=2):
    return MachineConfig(num_cores=cores)


def str_config(cores=2):
    return MachineConfig(num_cores=cores).with_model("str")


def audit(factories, config, arena=None):
    program = Program("unit", factories, arena=arena)
    return audit_program(program, config, workload="unit", preset="unit")


def run_dynamic(factories, config, arena=None):
    """Run the same program on the real simulator with monitors armed."""
    program = Program("unit", factories, arena=arena)
    system = CmpSystem(config.with_debug_invariants(), program)
    return system.run()


def hazard_kinds(report):
    return {d.kind for d in report.hazards}


def warning_kinds(report):
    return {d.kind for d in report.warnings}


class TestDifferentialDmaRaces:
    """DmaRaceMonitor's seeded bugs, reproduced as programs: each must be
    caught dynamically (InvariantViolation) AND statically (hazard)."""

    def _arena(self):
        arena = Arena()
        base = arena.alloc(4 * LINE, "shared")
        return arena, base

    def test_get_over_dirty_cached_line(self):
        arena, base = self._arena()

        def writer(env):
            yield store(base, LINE)
            yield compute(100)

        def dma_core(env):
            yield compute(10_000)
            yield dma_get(0, base, 2 * LINE)
            yield dma_wait(0)

        report = audit([writer, dma_core], str_config(), arena)
        assert "dma-get-cached" in hazard_kinds(report)
        with pytest.raises(InvariantViolation, match="DMA get"):
            run_dynamic([writer, dma_core], str_config(), arena)

    def test_put_over_any_cached_copy(self):
        arena, base = self._arena()

        def reader(env):
            yield load(base, LINE)
            yield compute(100)

        def dma_core(env):
            yield compute(10_000)
            yield dma_put(0, base, LINE)
            yield dma_wait(0)

        report = audit([reader, dma_core], str_config(), arena)
        assert "dma-put-cached" in hazard_kinds(report)
        with pytest.raises(InvariantViolation, match="DMA put"):
            run_dynamic([reader, dma_core], str_config(), arena)

    def test_strided_get_checks_every_block(self):
        # Mirrors TestDmaRaceMonitor.test_strided_transfer_checks_every
        # _block: only the *second* block of the gather lands on the
        # dirty line, so a bounding-box check would miss it.
        arena, base = self._arena()
        dirty = base + 2 * LINE

        def writer(env):
            yield store(dirty, LINE)
            yield compute(100)

        def dma_core(env):
            yield compute(10_000)
            yield dma_get(0, base, 2 * LINE, stride=2 * LINE, block=LINE)
            yield dma_wait(0)

        report = audit([writer, dma_core], str_config(), arena)
        assert "dma-get-cached" in hazard_kinds(report)
        with pytest.raises(InvariantViolation, match="DMA get"):
            run_dynamic([writer, dma_core], str_config(), arena)

    def test_disjoint_transfer_is_clean_both_ways(self):
        arena = Arena()
        cached = arena.alloc(LINE, "cached")
        far = arena.alloc(8 * LINE, "dma_only")

        def writer(env):
            yield store(cached, LINE)
            yield compute(100)

        def dma_core(env):
            yield compute(10_000)
            yield dma_get(0, far, 2 * LINE)
            yield dma_wait(0)
            yield dma_put(1, far + 4 * LINE, 2 * LINE)
            yield dma_wait(1)

        report = audit([writer, dma_core], str_config(), arena)
        assert not report.hazards
        run_dynamic([writer, dma_core], str_config(), arena)

    def test_wait_on_unissued_tag_is_static_only(self):
        # No dynamic monitor models tag liveness — the static pass is
        # strictly stronger here.
        def lone(env):
            yield compute(10)
            yield dma_wait(7)

        report = audit([lone], str_config(cores=1))
        assert "dma-wait-unissued" in hazard_kinds(report)

    def test_outstanding_dma_at_thread_end(self):
        arena = Arena()
        base = arena.alloc(2 * LINE, "buf")

        def lone(env):
            yield dma_get(0, base, LINE)
            yield compute(10)  # never waits

        report = audit([lone], str_config(cores=1), arena)
        assert "dma-outstanding" in hazard_kinds(report)


class TestDifferentialLocalStore:
    """LocalStoreMonitor's seeded bugs as single-core streaming programs."""

    def test_out_of_bounds_access(self):
        def lone(env):
            ls = env.local_store
            off = ls.alloc(128, "buf")
            yield local_store(off, 128)
            yield local_load(off, 512)  # straddles the allocation

        report = audit([lone], str_config(cores=1))
        assert "ls-out-of-bounds" in hazard_kinds(report)
        with pytest.raises(InvariantViolation, match="allocated region"):
            run_dynamic([lone], str_config(cores=1))

    def test_use_after_reset(self):
        def lone(env):
            ls = env.local_store
            off = ls.alloc(256, "buf")
            yield local_store(off, 64)
            ls.reset()
            yield local_load(off, 64)

        report = audit([lone], str_config(cores=1))
        assert "ls-use-after-reset" in hazard_kinds(report)
        with pytest.raises(InvariantViolation, match="allocated region"):
            run_dynamic([lone], str_config(cores=1))

    def test_over_capacity_allocation(self):
        def lone(env):
            ls = env.local_store
            off = ls.alloc(32 * 1024, "huge")  # > 24 KB budget
            yield local_store(off, 64)

        report = audit([lone], str_config(cores=1))
        assert "ls-over-capacity" in hazard_kinds(report)
        # Dynamically the real LocalStore rejects the allocation itself
        # (capacity == budget on a real hierarchy).
        with pytest.raises((InvariantViolation, LocalStoreError)):
            run_dynamic([lone], str_config(cores=1))

    def test_in_bounds_usage_is_clean(self):
        def lone(env):
            ls = env.local_store
            off = ls.alloc(256, "buf")
            yield local_store(off, 256)
            yield local_load(off, 256)
            yield compute(10)

        report = audit([lone], str_config(cores=1))
        assert not report.hazards
        run_dynamic([lone], str_config(cores=1))


class TestCoherenceStatic:
    """CC conflicts.  MESI serializes racing stores, so the dynamic
    monitors cannot flag them — the static pass is the only line of
    defense, which is the point of this auditor."""

    def _arena(self):
        arena = Arena()
        base = arena.alloc(4 * LINE, "shared")
        return arena, base

    def test_ww_conflict_is_a_hazard(self):
        arena, base = self._arena()

        def t0(env):
            yield store(base, 4)

        def t1(env):
            yield store(base, 4)

        report = audit([t0, t1], cc_config(), arena)
        assert "ww-conflict" in hazard_kinds(report)

    def test_rw_overlap_is_a_warning(self):
        # FEM's chaotic-relaxation sharing ships exactly this shape, so
        # it must stay a warning, not a hazard.
        arena, base = self._arena()

        def t0(env):
            yield store(base, 4)

        def t1(env):
            yield load(base, 4)

        report = audit([t0, t1], cc_config(), arena)
        assert not report.hazards
        assert "rw-overlap" in warning_kinds(report)

    def test_false_sharing_is_a_warning(self):
        arena, base = self._arena()

        def t0(env):
            yield store(base, 4)

        def t1(env):
            yield load(base + 16, 4)  # same line, disjoint bytes

        report = audit([t0, t1], cc_config(), arena)
        assert not report.hazards
        assert "false-sharing" in warning_kinds(report)

    def test_disjoint_lines_are_clean(self):
        arena, base = self._arena()

        def t0(env):
            yield store(base, LINE)

        def t1(env):
            yield store(base + LINE, LINE)

        report = audit([t0, t1], cc_config(), arena)
        assert not report.diagnostics

    def test_lock_suppresses_the_conflict(self):
        arena, base = self._arena()
        lock = Lock("mutex")

        def t0(env):
            yield lock_acquire(lock)
            yield store(base, 4)
            yield lock_release(lock)

        def t1(env):
            yield lock_acquire(lock)
            yield store(base, 4)
            yield lock_release(lock)

        report = audit([t0, t1], cc_config(), arena)
        assert "ww-conflict" not in hazard_kinds(report)

    def test_barrier_separates_epochs(self):
        arena, base = self._arena()
        bar = Barrier(2, "phase")

        def t0(env):
            yield store(base, 4)
            yield barrier_wait(bar)

        def t1(env):
            yield barrier_wait(bar)
            yield store(base, 4)  # next epoch: ordered, not racing

        report = audit([t0, t1], cc_config(), arena)
        assert not report.diagnostics

    def test_single_core_skips_cross_unit_checks(self):
        arena, base = self._arena()

        def lone(env):
            yield store(base, 4)
            yield store(base, 4)

        report = audit([lone], cc_config(cores=1), arena)
        assert not report.diagnostics

    def test_missing_barrier_party_stalls(self):
        arena, base = self._arena()
        bar = Barrier(2, "lonely")

        def t0(env):
            yield barrier_wait(bar)

        def t1(env):
            yield compute(10)  # never arrives

        report = audit([t0, t1], cc_config(), arena)
        assert "barrier-stall" in hazard_kinds(report)

    def test_unlock_not_held(self):
        lock = Lock("mutex")

        def lone(env):
            yield lock_release(lock)

        report = audit([lone], cc_config(cores=1))
        assert "lock-discipline" in hazard_kinds(report)


class TestBlockFootprint:
    def test_merge_intervals(self):
        assert merge_intervals([(0, 4), (4, 8), (16, 20), (2, 6)]) == \
            ((0, 8), (16, 20))
        assert merge_intervals([]) == ()

    def test_footprint_sides(self):
        blk = block(load(0, LINE), store(LINE, LINE), compute(4),
                    name="unit")
        fp = blk.footprint()
        assert fp.reads == ((0, LINE),)
        assert fp.writes == ((LINE, 2 * LINE),)
        assert blk.footprint() is fp  # cached

    def test_local_store_intervals_not_merged(self):
        # Adjacent LS intervals must stay separate: merging them across
        # an allocation boundary would fabricate a straddle violation.
        blk = block(local_load(0, 512), local_load(512, 512), compute(1),
                    name="ls")
        fp = blk.footprint()
        assert fp.ls_reads == ((0, 512), (512, 1024))

    def test_footprint_class_is_exported(self):
        assert BlockFootprint.__name__ == "BlockFootprint"


class TestShippedProgramsSweep:
    @pytest.mark.parametrize("model", ["cc", "str"])
    @pytest.mark.parametrize("cores", [1, 4])
    def test_zero_hazards(self, model, cores):
        for name in ALL_WORKLOADS:
            report = audit_workload(name, model, cores=cores, preset="tiny")
            assert not report.hazards, (
                f"{name}/{model} c{cores}: "
                + "; ".join(d.render() for d in report.hazards))
            assert not report.truncated

    def test_fem_sharing_stays_a_warning(self):
        cc = audit_workload("fem", "cc", cores=4, preset="tiny")
        assert "rw-overlap" in warning_kinds(cc)
        st = audit_workload("fem", "str", cores=4, preset="tiny")
        assert "dma-get-put" in warning_kinds(st)


class TestReportRendering:
    def _report(self):
        return audit_workload("fir", "cc", cores=2, preset="tiny")

    def test_to_dict_schema(self):
        d = self._report().to_dict()
        assert set(d) == {"workload", "model", "cores", "preset", "hazards",
                          "warnings", "ops_walked", "truncated"}

    def test_render_reports_text_and_json(self):
        reports = [self._report()]
        text = render_reports(reports)
        assert "audit-programs: 1 audit(s), 0 hazard(s)" in text
        payload = json.loads(render_reports(reports, as_json=True))
        assert payload["count"] == 1 and payload["hazards"] == 0

    def test_severity_constants(self):
        assert HAZARD == "hazard" and WARNING == "warning"
        report = self._report()
        assert isinstance(report, AuditReport)
        assert all(d.severity == WARNING for d in report.warnings)


class TestIntrospection:
    def test_cc_binding_has_no_local_store(self):
        seen = {}

        def lone(env):
            seen["ls"] = env.local_store
            seen["cores"] = env.config.num_cores
            yield compute(1)

        program = Program("unit", [lone])
        gens = program.introspect_threads(cc_config(cores=1))
        list(gens[0])
        assert seen == {"ls": None, "cores": 1}


class TestCli:
    def _run(self, *argv):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env_src = os.path.join(root, "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *argv],
            capture_output=True, text=True, cwd=root,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"})

    def test_audit_clean_workload_exits_zero(self):
        proc = self._run("audit-programs", "fir", "--cores", "2",
                         "--preset", "tiny")
        assert proc.returncode == 0, proc.stderr
        assert "0 hazard(s)" in proc.stdout

    def test_audit_json_schema(self):
        proc = self._run("audit-programs", "fir", "--models", "cc",
                         "--cores", "2", "--preset", "tiny", "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["count"] == 1
        assert payload["reports"][0]["workload"] == "fir"

    def test_unknown_workload_exits_two(self):
        proc = self._run("audit-programs", "nonesuch")
        assert proc.returncode == 2
