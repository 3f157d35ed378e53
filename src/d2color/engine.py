"""Synchronous round engine: clock, broadcast delivery, clash detection, trace.

One round: the clock ticks, clock-guard handlers may each emit at most one
broadcast (broadcasts happen only at the beginning of a slot), in the start
round the root's on_start runs (the START, the only off-medium event, given to
the simulation when it is built), clashes are detected over the collected
broadcast set, surviving messages are delivered to neighbors within the same
round (or the next one, for simulations built with delivery_delay=1),
reception handlers run, and the states that handlers changed (marked dirty,
see Process) are snapshotted.  State changed during round t can therefore
trigger a broadcast no earlier than round t+1.

The clock ticks only at processes whose may_act holds.  The engine re-reads
may_act after each round for the processes that round touched (polled,
started, or delivered to); state set on a process outside its handlers must
therefore be followed by set_topology, which re-reads it for all.

Each finished round goes to the simulation's sink as one Round: its START,
broadcasts, clash events and state changes, each list in the order the engine
made them.  The sink is called once for every round that ran, in increasing
round order, as the last step of the round; a fail-fast clash round is handed
over before ClashDetected is raised, and a round cut short by a protocol
violation is never handed over.  The default sink, Trace.add_round, keeps
each round that holds a record, frozen into tuples, in the simulation's Trace;
a function of the caller's own set as sim.sink (one that writes each round to
a file, say) keeps none, and the Trace then holds only the meta and end fields.

The end fields are the engine's alone: each finished round sets the trace's
rounds and, once a process claims termination, its claimed_by; run sets its
status on every ending, a fail-fast clash's before ClashDetected propagates.
"""

from __future__ import annotations

import gc
import random
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .messages import Message, Start
from .topology import Topology

FAIL_FAST = "fail_fast"
RECORD_AND_CORRUPT = "record_and_corrupt"
POLICIES = (FAIL_FAST, RECORD_AND_CORRUPT)


class EngineError(Exception):
    pass


class ProtocolViolation(EngineError):
    pass


@dataclass(frozen=True, slots=True)
class ClashEvent:
    round: int
    victim: int
    clash_kind: str  # "collision" | "conflict"
    participants: frozenset[int]


class ClashDetected(EngineError):
    def __init__(self, events: list[ClashEvent]):
        super().__init__(f"{len(events)} clash event(s) at round {events[0].round}")
        self.events = events


@dataclass(frozen=True, slots=True)
class BroadcastRecord:
    round: int
    origin: int
    message: Message
    receivers: tuple[int, ...]  # clean deliveries only


@dataclass(frozen=True, slots=True)
class ExternalRecord:
    round: int
    target: int
    message: Message


@dataclass(frozen=True, slots=True)
class StateChange:
    round: int
    proc: int
    state: dict


class Round(NamedTuple):
    """One round's records, in trace-file tag order: lists as the engine fills them, or tuples."""

    round: int
    externals: Sequence[ExternalRecord]
    broadcasts: Sequence[BroadcastRecord]
    clashes: Sequence[ClashEvent]
    changes: Sequence[StateChange]

    def frozen(self) -> Round:
        """This round with a tuple for each list, as a Trace keeps it."""
        return Round(self.round, *map(tuple, self[1:]))


class RunStatus(str, Enum):
    TERMINATED = "terminated"
    PARTIAL = "partial"
    BUDGET_EXHAUSTED = "budget_exhausted"
    CLASH = "clash"


@dataclass
class Trace:
    """Append-only audit log of one simulation run; kept holds its rounds that have a record."""

    meta: dict = field(default_factory=dict)
    kept: list[Round] = field(default_factory=list)
    status: str = ""
    rounds: int = 0
    claimed_by: int | None = None

    # read-only views: each read gathers the kept rounds' records into a new tuple
    externals = property(lambda self: tuple(rec for rnd in self.kept for rec in rnd.externals))
    broadcasts = property(lambda self: tuple(rec for rnd in self.kept for rec in rnd.broadcasts))
    clashes = property(lambda self: tuple(rec for rnd in self.kept for rec in rnd.clashes))
    changes = property(lambda self: tuple(rec for rnd in self.kept for rec in rnd.changes))

    def add_round(self, rnd: Round) -> None:
        """Keep rnd, the round after the last one kept, if it holds a record."""
        if rnd.externals or rnd.broadcasts or rnd.clashes or rnd.changes:
            self.kept.append(rnd.frozen())

    def by_round(self) -> Iterator[Round]:
        """The kept rounds, in increasing round order."""
        return iter(self.kept)


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector for a run or a pass over many trace records.

    The processes, the records and the states kept from them live long and
    hold no cycles; collecting while they pile up would scan them again and again.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# the one empty container a process holds until it needs a real one; shared, so immutable
EMPTY: frozenset = frozenset()


class Process:
    """Handler contract the engine drives.

    A process knows only its identity and its neighbors' identities, as the
    tuple it was built with; the engine's process indices are its delivery
    addresses, which no process holds.

    A run keeps one process per node alive, so processes are kept small.
    Process and every protocol process class declare __slots__ and have no
    __dict__; a subclass that leaves __slots__ out gets one back.  A
    container field that is empty holds the shared EMPTY instead of an empty
    object of its own, and only where the code replaces that field and never
    changes it in place.

    A handler sets dirty only when snapshot() will differ from the one last
    recorded: the engine records each dirty snapshot, and compares or keeps none.
    """

    __slots__ = ("ident", "neighbor_ids", "degree", "dirty", "claimed_termination")

    def __init__(self, ident: int, neighbor_ids: tuple[int, ...]):
        self.ident = ident
        self.neighbor_ids = neighbor_ids
        self.degree = len(neighbor_ids)
        self.dirty = False
        self.claimed_termination = False

    def on_clock(self, clock: int) -> Message | None:
        return None

    def on_message(self, msg: Message) -> None:
        pass

    def on_start(self, clock: int) -> None:
        raise ProtocolViolation(f"process {self.ident} cannot be started")

    def snapshot(self) -> dict:
        return {}

    @property
    def may_act(self) -> bool:
        """True when a future clock tick alone could make this process broadcast or change state.

        The engine calls on_clock only while this holds and re-reads it after
        the process's handlers run; state set outside them must be followed
        by Simulation.set_topology.
        """
        return False


class Simulation:
    def __init__(
        self,
        topology: Topology,
        processes: dict[int, Process],
        policy: str = FAIL_FAST,
        done_fn=None,
        clash_exempt=None,
        handler_order_seed: int | None = None,
        delivery_delay: int = 0,
        meta: dict | None = None,
        start: tuple[int, int] | None = None,
    ):
        if set(processes) != set(range(1, topology.n + 1)):
            raise EngineError("need exactly one process per topology index")
        if delivery_delay not in (0, 1):
            raise EngineError("delivery_delay must be 0 (same slot) or 1 (next slot)")
        if policy not in POLICIES:
            raise EngineError(f"unknown clash policy {policy!r}; expected one of {POLICIES}")
        if start is not None and (start[0] < 0 or start[1] not in processes):
            raise EngineError(f"START {start} needs a round >= 0 and a process index")
        self.topology = topology
        self.processes = processes
        self.policy = policy
        self.done_fn = done_fn or (lambda sim: sim.trace.claimed_by is not None)
        self.clash_exempt = clash_exempt
        self.delivery_delay = delivery_delay
        self.clock = -1
        self.trace = Trace(meta=dict(meta or {}))
        self.sink = self.trace.add_round
        self._start = start  # (round, root) until the START is handed over
        self._pending_inbox: dict[int, list[Message]] = {}
        self._armed = {i for i, p in processes.items() if p.may_act}
        self._round_was_active = True
        self._order_rng = (
            random.Random(handler_order_seed) if handler_order_seed is not None else None
        )

    def set_topology(self, topology: Topology, new_processes: dict[int, Process]) -> None:
        """Swap in an extended topology mid-run (dynamic join); re-read every may_act."""
        self.topology = topology
        self.processes = dict(self.processes)
        self.processes.update(new_processes)
        self._armed = {i for i, p in self.processes.items() if p.may_act}

    def _ordered(self, indices) -> list[int]:
        order = sorted(indices)
        if self._order_rng is not None:
            self._order_rng.shuffle(order)
        return order

    def step_round(self) -> None:
        self.clock += 1
        t = self.clock
        procs = self.processes

        # broadcasts are committed at the beginning of the slot
        polled = self._ordered(self._armed)
        pending: dict[int, Message] = {}
        for i in polled:
            msg = procs[i].on_clock(t)
            if msg is not None:
                pending[i] = msg

        # the START is handed over off-medium within its slot, after the
        # slot's broadcast opportunities are gone
        rnd = Round(t, [], [], [], [])
        touched = set(polled)
        if self._start is not None and self._start[0] == t:
            root = self._start[1]
            self._start = None
            procs[root].on_start(t)
            rnd.externals.append(ExternalRecord(t, root, Start()))
            touched.add(root)

        events = detect_clashes(self.topology, t, set(pending))
        fatal = events
        if self.clash_exempt is not None:
            fatal = [e for e in events if not self.clash_exempt(e, pending)]
        rnd.clashes.extend(events)

        corrupted_at = {e.victim for e in events}
        inbox: dict[int, list[Message]] = {}
        for origin in sorted(pending):
            msg = pending[origin]
            receivers = []
            for w in self.topology.neighbors(origin):
                if w not in corrupted_at:
                    receivers.append(w)
                    inbox.setdefault(w, []).append(msg)
            rnd.broadcasts.append(BroadcastRecord(t, origin, msg, tuple(receivers)))

        # fail-fast aborts after the physical broadcasts are on record but
        # before any reception handler runs
        if fatal and self.policy == FAIL_FAST:
            self._finish_round(rnd, touched)
            raise ClashDetected(fatal)

        if self.delivery_delay == 0:
            ready = inbox
        else:
            ready = self._pending_inbox
            self._pending_inbox = inbox
        # each inbox was filled in ascending origin order
        for w in self._ordered(ready):
            for msg in ready[w]:
                procs[w].on_message(msg)
        touched.update(ready)

        self._round_was_active = bool(pending or ready or rnd.externals)
        self._finish_round(rnd, touched)

    def _finish_round(self, rnd: Round, touched: set[int]) -> None:
        """Snapshot, re-arm and note a claim for each touched process; count the round; sink it."""
        t, changes = rnd.round, rnd.changes
        trace = self.trace
        armed = self._armed
        procs = self.processes
        for i in sorted(touched):
            p = procs[i]
            if p.dirty:
                changes.append(StateChange(t, i, p.snapshot()))
                p.dirty = False
            if p.may_act:
                armed.add(i)
            else:
                armed.discard(i)
            if trace.claimed_by is None and p.claimed_termination:
                trace.claimed_by = i
        trace.rounds = t + 1
        self.sink(rnd)

    def _quiescent(self) -> bool:
        return not (self._armed or self._start or self._pending_inbox)

    def run(self, max_rounds: int) -> Trace:
        """Step up to max_rounds rounds until the run ends, and record its status in the trace."""
        steps, status = 0, None
        with gc_paused():
            try:
                while status is None:
                    if self.done_fn(self):
                        status = RunStatus.TERMINATED
                    elif steps >= max_rounds:
                        status = RunStatus.BUDGET_EXHAUSTED
                    else:
                        self.step_round()
                        steps += 1
                        # a partial run ends with one traffic-free round, which its trace counts
                        if (not self._round_was_active and not self.done_fn(self)
                                and self._quiescent()):
                            status = RunStatus.PARTIAL
            except ClashDetected:
                status = RunStatus.CLASH
                raise
            finally:
                if status is not None:  # a protocol violation ends a run with no status
                    self.trace.status = status.value
        return self.trace


def start_simulation(
    topology: Topology,
    root: int,
    make_process,
    meta: dict,
    start_round: int,
    policy: str,
    **options,
) -> Simulation:
    """A simulation with one process per index and its START at root in start_round.

    make_process(identity, neighbor_identities) builds the process at each index.
    The trace meta records root, start_round and policy, then meta on top.
    Remaining options (done_fn among them) go to Simulation.
    """
    processes = {
        i: make_process(topology.identity(i), topology.neighbor_identities(i))
        for i in range(1, topology.n + 1)
    }
    meta = {"root": root, "start_round": start_round, "policy": policy, **meta}
    return Simulation(topology, processes, policy=policy, meta=meta, start=(start_round, root),
                      **options)


def detect_clashes(topology: Topology, t: int, origins: set[int]) -> list[ClashEvent]:
    """Clash events implied by one round's broadcast set.

    A collision hits any process with two or more broadcasting neighbors; a
    conflict hits any broadcaster with at least one broadcasting neighbor.
    """
    if len(origins) < 2:
        return []
    events = []
    affected = set()
    for o in origins:
        affected.add(o)
        affected.update(topology.neighbors(o))
    for v in sorted(affected):
        incoming = origins.intersection(topology.neighbors(v))
        if len(incoming) >= 2:
            events.append(ClashEvent(t, v, "collision", frozenset(incoming)))
        if v in origins and incoming:
            events.append(ClashEvent(t, v, "conflict", frozenset(incoming | {v})))
    return events
