"""CMP system assembly: configuration + workload program -> RunResult.

:class:`CmpSystem` builds the memory hierarchy for the configured model,
binds one workload thread per core, runs the event simulation to
completion, settles outstanding memory state (so off-chip traffic is
accounted identically for both models), and produces a
:class:`~repro.results.RunResult`.
"""

from __future__ import annotations

from repro.config import MachineConfig, MemoryModel
from repro.core.counters import run_counters
from repro.energy.model import EnergyModel, EnergyParams
from repro.mem.hierarchy import (CacheCoherentHierarchy,
                                 IncoherentCacheHierarchy,
                                 StreamingHierarchy)
from repro.results import Breakdown, RunResult, Traffic
from repro.sim.kernel import SimulationError, Simulator
from repro.validate import check_result

#: Every run is audited against the physical invariants of
#: repro.validate; set to False only when deliberately constructing
#: broken configurations (e.g. fault-injection experiments).
SELF_CHECK = True


class CmpSystem:
    """One fully assembled CMP ready to execute a workload program."""

    def __init__(self, config: MachineConfig, program,
                 energy_params: EnergyParams | None = None) -> None:
        self.config = config
        self.program = program
        self.sim = Simulator()
        if config.model is MemoryModel.STREAMING:
            self.hierarchy = StreamingHierarchy(config)
        elif config.model is MemoryModel.INCOHERENT:
            self.hierarchy = IncoherentCacheHierarchy(config)
        else:
            self.hierarchy = CacheCoherentHierarchy(config)
        self._energy_model = EnergyModel(config, energy_params)
        # Import here to keep repro.core free of a workloads dependency.
        from repro.core.processor import Processor

        threads = program.threads(self)
        if len(threads) != config.num_cores:
            raise ValueError(
                f"program {program.name!r} built {len(threads)} threads "
                f"for a {config.num_cores}-core machine"
            )
        self.processors = [
            Processor(core_id, self, thread)
            for core_id, thread in enumerate(threads)
        ]
        self.exec_time_fs = 0
        self.settled_fs = 0
        self.monitors = None
        if config.debug_invariants:
            # Imported lazily: repro.analysis depends on repro.mem and
            # would otherwise create an import cycle.
            from repro.analysis.monitors import attach_monitors

            self.monitors = attach_monitors(self)

    def run(self, loop=None) -> RunResult:
        """Execute the program to completion and return the measurements.

        ``loop`` optionally replaces the default ``self.sim.run()`` event
        loop with a callable taking the simulator; it must drain the
        queue completely.  :meth:`repro.obs.MetricsSampler.drive` uses
        it to step the run boundary by boundary with
        :meth:`~repro.sim.kernel.Simulator.drain_until`.
        """
        for processor in self.processors:
            processor.start()
        if loop is None:
            self.sim.run()
        else:
            loop(self.sim)
        blocked = [p.core_id for p in self.processors if not p.done]
        if blocked:
            raise SimulationError(
                f"deadlock: cores {blocked} never finished "
                f"(workload {self.program.name!r})"
            )
        self.exec_time_fs = max(p.finish_fs for p in self.processors)
        # Settle: flush dirty cached state so both models account the same
        # compulsory write traffic (Section 4 methodology).
        self.settled_fs = self.hierarchy.drain(self.exec_time_fs)
        return self._collect()

    def _collect(self) -> RunResult:
        config = self.config
        hierarchy = self.hierarchy
        uncore = hierarchy.uncore
        num_cores = config.num_cores
        exec_fs = self.exec_time_fs

        # Idle time after a core's own finish is load imbalance: charge it
        # to sync so the stacked components of every core sum to the bar.
        useful = sum(p.useful_fs for p in self.processors) / num_cores
        sync = sum(
            p.sync_fs + (exec_fs - p.finish_fs) for p in self.processors
        ) / num_cores
        load = sum(p.load_stall_fs for p in self.processors) / num_cores
        store = sum(p.store_stall_fs for p in self.processors) / num_cores
        breakdown = Breakdown(useful, sync, load, store)

        traffic = Traffic(
            read_bytes=uncore.dram.read_bytes,
            write_bytes=uncore.dram.write_bytes,
        )
        energy = self._energy_model.compute(self)

        stats = {m.name: m.read() for m in run_counters(self)}

        l2_accesses = uncore.l2_reads + uncore.l2_writes
        l2_misses = (l2_accesses - uncore.l2_read_hits - uncore.l2_write_hits)

        result = RunResult(
            workload=self.program.name,
            model=config.model.value,
            num_cores=num_cores,
            clock_ghz=config.core.clock_ghz,
            exec_time_fs=exec_fs,
            settled_fs=self.settled_fs,
            breakdown=breakdown,
            traffic=traffic,
            energy=energy,
            instructions=sum(p.instructions for p in self.processors),
            word_accesses=sum(p.word_accesses for p in self.processors),
            local_accesses=sum(p.local_accesses for p in self.processors),
            l1_misses=hierarchy.l1_misses,
            l1_load_misses=hierarchy.load_misses,
            l1_store_misses=hierarchy.store_misses,
            l2_accesses=l2_accesses,
            l2_misses=l2_misses,
            stats=stats,
        )
        if SELF_CHECK:
            problems = check_result(result, config)
            if problems:
                raise SimulationError(
                    "run failed self-validation:\n  - "
                    + "\n  - ".join(problems)
                )
        return result


def run_program(config: MachineConfig, program,
                energy_params: EnergyParams | None = None) -> RunResult:
    """Build a :class:`CmpSystem` for ``program`` and run it."""
    return CmpSystem(config, program, energy_params).run()
