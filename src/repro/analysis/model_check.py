"""Murphi-style exhaustive model checking of the MESI protocol.

Explores, breadth-first, every protocol state reachable for *N caches and
one cache line* under demand events (load / store / evict per cache) and
checks a set of safety invariants in every state:

* **SWMR** — at most one M/E holder, and never an M/E holder alongside
  S copies (single-writer / multiple-reader);
* **data-value** — the dirty owner holds the freshest value token, every
  readable copy is fresh, and memory is fresh whenever no cache holds the
  line dirty;
* **L2 inclusion** (hierarchy-backed model) — once filled, the shared L2
  retains a copy whenever any L1 holds the line (no L2 capacity pressure
  exists in the one-line model, so a missing L2 copy means a protocol
  walk forgot a write-back or fill).

Two models are explored and cross-validated against each other:

* :class:`TableModel` runs on the declarative transition tables of
  :mod:`repro.mem.coherence` and carries value-freshness tokens.  Tests
  (and the ``--broken`` CLI flag) pass deliberately mutated tables to
  prove the checker detects protocol bugs.
* :class:`HierarchyModel` drives the *real*
  :class:`~repro.mem.hierarchy.CacheCoherentHierarchy` by replaying event
  prefixes, so the checker verifies the shipped implementation, not a
  parallel re-implementation that could drift.

BFS returns the **shortest counterexample trace** on failure.  State
spaces are tiny (tens of states for N <= 4), so exhaustive exploration
takes milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import CacheConfig, MachineConfig
from repro.mem.coherence import (REQUESTER_TRANSITIONS, SNOOP_TRANSITIONS,
                                 MesiEvent, MesiState, apply_event,
                                 check_global_invariant)
from repro.sim.kernel import InvariantViolation


@dataclass(frozen=True)
class ProtoState:
    """One protocol state: per-cache MESI states plus value-freshness tokens.

    ``fresh[i]`` is True when cache *i* holds the latest written value
    (normalized to False for INVALID copies); ``mem_fresh`` is True when
    the memory-side copy (L2/DRAM) is up to date.
    """

    states: tuple[MesiState, ...]
    fresh: tuple[bool, ...]
    mem_fresh: bool

    def describe(self) -> str:
        caches = " ".join(
            f"C{i}:{s.name[0]}{'*' if f else ''}"
            for i, (s, f) in enumerate(zip(self.states, self.fresh))
        )
        return f"{caches} mem:{'fresh' if self.mem_fresh else 'STALE'}"


@dataclass
class Counterexample:
    """The shortest event sequence reaching an invariant violation."""

    events: list[tuple[int, MesiEvent]]
    trace: list[ProtoState]
    violation: str

    def render(self) -> str:
        lines = ["counterexample (shortest trace):",
                 f"  init: {self.trace[0].describe()}"]
        for (core, event), state in zip(self.events, self.trace[1:]):
            lines.append(f"  core {core} {event.value:<5} -> {state.describe()}")
        lines.append(f"  VIOLATION: {self.violation}")
        return "\n".join(lines)


@dataclass
class CheckResult:
    """Outcome of one exhaustive exploration."""

    model: str
    num_caches: int
    ok: bool
    states_explored: int = 0
    transitions: int = 0
    counterexample: Counterexample | None = None
    mismatches: list[str] = field(default_factory=list)

    def render(self) -> str:
        status = "OK" if self.ok else "FAIL"
        out = (f"[{status}] {self.model}: {self.num_caches} caches, "
               f"{self.states_explored} states, "
               f"{self.transitions} transitions")
        if self.counterexample is not None:
            out += "\n" + self.counterexample.render()
        if self.mismatches:
            out += "\n" + "\n".join("  MISMATCH: " + m for m in self.mismatches)
        return out


def _swmr_violation(states: tuple[MesiState, ...]) -> str | None:
    try:
        check_global_invariant(states)
    except InvariantViolation as exc:
        return str(exc)
    return None


class TableModel:
    """Protocol model over the declarative MESI transition tables.

    ``requester_transitions`` / ``snoop_transitions`` default to the
    shipped tables in :mod:`repro.mem.coherence`; pass mutated copies to
    seed protocol bugs.  ``skip_writeback_on_evict`` seeds a data-value
    bug that the state tables alone cannot express (a dirty line silently
    dropped instead of written back).
    """

    name = "table-model"

    def __init__(self, num_caches: int,
                 requester_transitions: dict | None = None,
                 snoop_transitions: dict | None = None,
                 skip_writeback_on_evict: bool = False) -> None:
        if not 1 <= num_caches <= 8:
            raise ValueError(f"num_caches must be in 1..8, got {num_caches}")
        self.num_caches = num_caches
        self._req = dict(REQUESTER_TRANSITIONS if requester_transitions is None
                         else requester_transitions)
        self._snp = dict(SNOOP_TRANSITIONS if snoop_transitions is None
                         else snoop_transitions)
        self._skip_writeback = skip_writeback_on_evict

    def initial(self) -> ProtoState:
        n = self.num_caches
        return ProtoState((MesiState.INVALID,) * n, (False,) * n, True)

    def events(self, state: ProtoState):
        for core in range(self.num_caches):
            yield core, MesiEvent.LOAD
            yield core, MesiEvent.STORE
            if state.states[core] is not MesiState.INVALID:
                yield core, MesiEvent.EVICT

    def apply(self, state: ProtoState, core: int, event: MesiEvent) -> ProtoState:
        old_states = state.states
        new_states = apply_event(old_states, core, event, self._req, self._snp)
        fresh = list(state.fresh)
        mem_fresh = state.mem_fresh

        if event is MesiEvent.STORE:
            # The writer produces the new latest value; every other copy
            # and the memory image go stale (stale copies are normally
            # invalidated by the snoop table — if a buggy table keeps
            # them valid, the data-value invariant flags them).
            fresh = [False] * len(fresh)
            fresh[core] = True
            mem_fresh = False
        elif event is MesiEvent.LOAD:
            supplier = None
            for i, s in enumerate(old_states):
                if i == core or s is MesiState.INVALID:
                    continue
                if supplier is None or s > old_states[supplier]:
                    supplier = i
            if old_states[core] is not MesiState.INVALID:
                pass  # load hit: keeps its own copy
            elif supplier is not None:
                fresh[core] = state.fresh[supplier]
                if old_states[supplier] is MesiState.MODIFIED:
                    # Dirty supply writes the data back on the downgrade.
                    mem_fresh = state.fresh[supplier]
            else:
                fresh[core] = mem_fresh
        elif event is MesiEvent.EVICT:
            if (old_states[core] is MesiState.MODIFIED
                    and not self._skip_writeback):
                mem_fresh = state.fresh[core]
            fresh[core] = False

        # Normalize: freshness tokens are only meaningful for valid copies.
        fresh = [f and s is not MesiState.INVALID
                 for f, s in zip(fresh, new_states)]
        return ProtoState(new_states, tuple(fresh), mem_fresh)

    def invariant_violation(self, state: ProtoState) -> str | None:
        swmr = _swmr_violation(state.states)
        if swmr is not None:
            return f"SWMR: {swmr}"
        for i, (s, f) in enumerate(zip(state.states, state.fresh)):
            if s is not MesiState.INVALID and not f:
                return (f"data-value: cache {i} holds a readable but stale "
                        f"copy ({s.name})")
        if not state.mem_fresh and not any(
                s is MesiState.MODIFIED for s in state.states):
            return ("data-value: memory is stale but no cache holds the "
                    "line dirty (lost write)")
        return None


class HierarchyModel:
    """Protocol model backed by the real :class:`CacheCoherentHierarchy`.

    Each abstract state is the per-core MESI projection (plus L2
    presence) for one line; events are applied by replaying the shortest
    event prefix on a freshly built hierarchy.  Replay is cheap because
    the one-line state graph has a tiny diameter, and it guarantees the
    checker observes exactly what the shipped implementation does.
    """

    name = "hierarchy-model"

    #: The line number explored; arbitrary (any line behaves identically).
    LINE = 100

    def __init__(self, num_caches: int) -> None:
        if not 1 <= num_caches <= 8:
            raise ValueError(f"num_caches must be in 1..8, got {num_caches}")
        self.num_caches = num_caches
        self._config = MachineConfig(num_cores=num_caches)
        self._l1_config = CacheConfig(capacity_bytes=512, associativity=2)
        self._sequences: dict[ProtoState, tuple] = {}

    def _build(self):
        from repro.mem.hierarchy import CacheCoherentHierarchy

        return CacheCoherentHierarchy(self._config, l1_config=self._l1_config)

    def _replay(self, events):
        hierarchy = self._build()
        now = 0
        line = self.LINE
        for core, event in events:
            now += 1_000_000
            if event is MesiEvent.LOAD:
                hierarchy.load_line(core, line, now)
            elif event is MesiEvent.STORE:
                hierarchy.store_line(core, line, now)
            else:
                hierarchy.invalidate_range(core, line, line, now)
        return hierarchy

    def _project(self, hierarchy) -> ProtoState:
        states = hierarchy.line_states(self.LINE)
        # Freshness is not observable from the hierarchy (it models no
        # data); reuse the slot for the L2-inclusion bit instead: every
        # token True <=> L2 holds the line.
        l2_present = hierarchy.uncore.l2.lookup(self.LINE) is not None
        return ProtoState(states, (l2_present,) * len(states), True)

    def initial(self) -> ProtoState:
        state = self._project(self._build())
        self._sequences[state] = ()
        return state

    events = TableModel.events

    def apply(self, state: ProtoState, core: int, event: MesiEvent) -> ProtoState:
        prefix = self._sequences[state]
        events = prefix + ((core, event),)
        new_state = self._project(self._replay(events))
        self._sequences.setdefault(new_state, events)
        return new_state

    def invariant_violation(self, state: ProtoState) -> str | None:
        swmr = _swmr_violation(state.states)
        if swmr is not None:
            return f"SWMR: {swmr}"
        l2_present = state.fresh[0] if state.fresh else True
        if not l2_present and any(
                s is not MesiState.INVALID for s in state.states):
            return ("L2 inclusion: an L1 holds the line but the shared L2 "
                    "dropped its copy (missing fill or write-back)")
        return None


def check_protocol(model) -> CheckResult:
    """Exhaustive BFS over ``model``'s reachable states.

    Returns a :class:`CheckResult`; on an invariant violation the result
    carries the shortest :class:`Counterexample` (BFS order guarantees
    minimality in event count).
    """
    result = CheckResult(model=model.name, num_caches=model.num_caches, ok=True)
    initial = model.initial()
    # parents: state -> (previous state, event) for trace reconstruction.
    parents: dict[ProtoState, tuple[ProtoState, tuple[int, MesiEvent]] | None]
    parents = {initial: None}
    frontier = [initial]
    result.states_explored = 1

    def trace_to(state: ProtoState, violation: str) -> Counterexample:
        events: list[tuple[int, MesiEvent]] = []
        trace = [state]
        cursor = state
        while parents[cursor] is not None:
            cursor, event = parents[cursor]
            events.append(event)
            trace.append(cursor)
        events.reverse()
        trace.reverse()
        return Counterexample(events, trace, violation)

    violation = model.invariant_violation(initial)
    if violation is not None:
        result.ok = False
        result.counterexample = trace_to(initial, violation)
        return result

    while frontier:
        next_frontier = []
        for state in frontier:
            for core, event in model.events(state):
                successor = model.apply(state, core, event)
                result.transitions += 1
                if successor in parents:
                    continue
                parents[successor] = (state, (core, event))
                result.states_explored += 1
                violation = model.invariant_violation(successor)
                if violation is not None:
                    result.ok = False
                    result.counterexample = trace_to(successor, violation)
                    return result
                next_frontier.append(successor)
        frontier = next_frontier
    return result


def cross_validate(num_caches: int) -> list[str]:
    """Check the declarative tables against the real hierarchy.

    Explores the hierarchy-backed model and verifies that, for every
    reachable state and event, :func:`repro.mem.coherence.apply_event`
    predicts exactly the MESI projection the implementation produces.
    Returns a list of human-readable mismatches (empty when the spec and
    the implementation agree).
    """
    model = HierarchyModel(num_caches)
    mismatches: list[str] = []
    seen = {model.initial()}
    frontier = list(seen)
    while frontier:
        next_frontier = []
        for state in frontier:
            for core, event in model.events(state):
                successor = model.apply(state, core, event)
                predicted = apply_event(state.states, core, event)
                if predicted != successor.states:
                    mismatches.append(
                        f"caches={state.states} core={core} "
                        f"event={event.value}: table predicts {predicted}, "
                        f"hierarchy produced {successor.states}"
                    )
                if successor not in seen:
                    seen.add(successor)
                    next_frontier.append(successor)
        frontier = next_frontier
    return mismatches


#: Named protocol-bug seeds for the CLI's ``--broken`` flag and the tests.
BROKEN_TABLE_BUGS = ("no-invalidate-on-store", "exclusive-with-sharers",
                     "silent-dirty-evict")


def broken_table_model(num_caches: int, bug: str) -> TableModel:
    """A :class:`TableModel` with one deliberately seeded protocol bug."""
    req = dict(REQUESTER_TRANSITIONS)
    snp = dict(SNOOP_TRANSITIONS)
    skip_writeback = False
    if bug == "no-invalidate-on-store":
        # Peers keep their S copy when another core writes: classic
        # missing-invalidation bug; violates SWMR (M coexists with S).
        snp[(MesiState.SHARED, MesiEvent.STORE)] = MesiState.SHARED
    elif bug == "exclusive-with-sharers":
        # A load miss fills EXCLUSIVE even when sharers exist.
        req[(MesiState.INVALID, MesiEvent.LOAD, True)] = MesiState.EXCLUSIVE
    elif bug == "silent-dirty-evict":
        # A dirty eviction drops the data instead of writing it back;
        # only the data-value invariant can see this one.
        skip_writeback = True
    else:
        raise ValueError(
            f"unknown bug {bug!r}; expected one of {BROKEN_TABLE_BUGS}")
    return TableModel(num_caches, requester_transitions=req,
                      snoop_transitions=snp,
                      skip_writeback_on_evict=skip_writeback)


def run_full_check(min_caches: int = 2, max_caches: int = 4,
                   broken: str | None = None) -> tuple[bool, str]:
    """Run every model for every cache count; returns (ok, report text)."""
    lines: list[str] = []
    ok = True
    for n in range(min_caches, max_caches + 1):
        if broken is not None:
            result = check_protocol(broken_table_model(n, broken))
            # A broken table *must* produce a counterexample; the run is
            # "successful" when the checker finds it.
            lines.append(result.render())
            ok = ok and not result.ok
            continue
        for model in (TableModel(n), HierarchyModel(n)):
            result = check_protocol(model)
            ok = ok and result.ok
            lines.append(result.render())
        mismatches = cross_validate(n)
        if mismatches:
            ok = False
            lines.append(f"[FAIL] spec-vs-implementation: {n} caches")
            lines.extend("  MISMATCH: " + m for m in mismatches)
        else:
            lines.append(f"[OK] spec-vs-implementation: {n} caches "
                         f"(tables match the hierarchy)")
    return ok, "\n".join(lines)
