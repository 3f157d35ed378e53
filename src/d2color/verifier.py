"""Independent verification oracle for runs and colorings.

Every check here works from the topology, the final colors, and the raw trace
records alone; it never consults a protocol's internal knowledge sets, so a
protocol bug cannot hide itself.  fold_rounds is the one place that derives a
run's facts from its records (final states and colors, broadcast counts, the
claim round); it reads them in one pass, a round at a time, and keeps only
per-process state between rounds.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from .engine import Round, Trace, detect_clashes, gc_paused
from .messages import color_seq_bits, color_seq_bits_bound, first_free_color
from .topology import GraphMetrics, Topology, bfs, metrics, repeats_within_two_hops, two_hop

ROUND_BOUND_FACTOR = 4  # frozen headroom multiplier for the d*delta round bound


@dataclass(frozen=True)
class Coloring:
    colors: dict[int, int]
    palette_size: int

    @staticmethod
    def from_colors(colors: dict[int, int]) -> "Coloring":
        return Coloring(colors=dict(colors), palette_size=len(set(colors.values())))


@dataclass(frozen=True)
class BoundCheck:
    name: str
    limit: float
    observed: float
    ok: bool
    note: str = ""


@dataclass
class VerificationReport:
    protocol: str
    n: int
    delta: int
    depth: int
    validity_ok: bool
    validity_offenders: tuple
    consistency_ok: bool
    consistency_offenders: tuple
    termination_status: str
    claimed_by: int | None
    all_colored: bool
    palette_size: int
    message_counts: dict[str, int]
    completion_round: int | None
    bound_checks: list[BoundCheck] = field(default_factory=list)
    tdma_clashes: int = 0
    clash_events: int = 0
    clash_recheck_ok: bool = True

    def ok(self) -> bool:
        return (
            self.validity_ok
            and self.consistency_ok
            and self.all_colored
            and self.termination_status == "terminated"
            and self.clash_events == 0
            and self.clash_recheck_ok
            and self.tdma_clashes == 0
            and all(b.ok for b in self.bound_checks)
        )

    def to_text(self) -> str:
        lines = [
            "format=d2report/1",
            f"protocol={self.protocol}",
            f"n={self.n}",
            f"delta={self.delta}",
            f"depth={self.depth}",
            f"validity={'pass' if self.validity_ok else 'fail'}"
            + (f" offenders={self.validity_offenders}" if self.validity_offenders else ""),
            f"consistency={'pass' if self.consistency_ok else 'fail'}"
            + (f" offenders={self.consistency_offenders}" if self.consistency_offenders else ""),
            f"termination={self.termination_status} claimed_by={self.claimed_by}",
            f"all_colored={'yes' if self.all_colored else 'no'}",
            f"palette_size={self.palette_size}",
            "message_counts="
            + ",".join(f"{k}:{v}" for k, v in sorted(self.message_counts.items())),
            f"completion_round={self.completion_round}",
            f"clash_events={self.clash_events}",
            f"clash_recheck={'pass' if self.clash_recheck_ok else 'fail'}",
            f"tdma_replay_clashes={self.tdma_clashes}",
        ]
        for b in self.bound_checks:
            note = f" note={b.note}" if b.note else ""
            lines.append(
                f"bound name={b.name} limit={b.limit} observed={b.observed} "
                f"{'pass' if b.ok else 'fail'}{note}"
            )
        lines.append(f"overall={'pass' if self.ok() else 'fail'}")
        return "\n".join(lines) + "\n"


def d2_conflicts(topology: Topology, colors: dict[int, int]) -> list[tuple[int, int, int]]:
    """Pairs (a, b, distance) at distance <= 2 that share a color (protocol-free)."""
    return repeats_within_two_hops(topology, [colors.get(i) for i in range(topology.n + 1)])


def check_coloring(
    topology: Topology,
    colors: dict[int, int],
    delta: int,
    enforce_validity: bool = True,
):
    """Validity and consistency fragments of a report."""
    validity_offenders = tuple(
        sorted(i for i, c in colors.items() if c < 0 or (enforce_validity and c > delta))
    )
    consistency_offenders = tuple(d2_conflicts(topology, colors))
    return (
        not validity_offenders,
        validity_offenders,
        not consistency_offenders,
        consistency_offenders,
    )


def greedy_reference_coloring(topology: Topology) -> Coloring:
    """Centralized BFS-greedy distance-2 coloring; a baseline, not an optimum."""
    colors: dict[int, int] = {}
    for v in bfs(topology.adjacency, 1):
        colors[v] = first_free_color({colors[u] for u in two_hop(topology, v) if u in colors})
    return Coloring.from_colors(colors)


def tdma_replay(topology: Topology, colors: dict[int, int], delta: int) -> int:
    """Clash count over delta+1 rounds of slotted all-broadcast.

    Every process broadcasts exactly in the rounds where clock mod (delta+1)
    equals its color; a distance-2 consistent coloring must produce zero
    clash events.
    """
    total = 0
    for t in range(delta + 1):
        origins = {i for i, c in colors.items() if c is not None and c % (delta + 1) == t}
        total += len(detect_clashes(topology, t, origins))
    return total


def recheck_clashes(topology: Topology, rnd: Round) -> bool:
    """Independently re-derive one round's clash events from its broadcast records.

    Returns True when the recorded events are exactly the ones implied by the
    recorded broadcasts (soundness and completeness of the detector).
    """
    origins = {rec.origin for rec in rnd.broadcasts}
    return set(detect_clashes(topology, rnd.round, origins)) == set(rnd.clashes)


def seq_knowledge_violations(
    trace: Trace, topology: Topology, delta: int
) -> list[tuple[int, int, int]]:
    """Breaches of the sequential protocol's knowledge-set bound.

    The bound holds where the protocol relies on it: a color set is only ever
    broadcast while its holder still has a neighbor to color, and a process
    knows at most one color per neighbor. Returns sorted (round, proc, size)
    offenders for:
      - every COLOR_SEQ broadcast carrying delta or more colors,
      - every snapshot with a non-empty to_color and delta or more d1colors,
      - every snapshot whose d1colors outnumber the process's degree.
    """
    out = []
    for rec in trace.broadcasts:
        if rec.message.kind == "COLOR_SEQ":
            size = len(rec.message.d1colors)
            if size >= delta:
                out.append((rec.round, rec.origin, size))
    for ch in trace.changes:
        d1 = ch.state.get("d1colors")
        if d1 is None:
            continue
        size = len(d1)
        if (ch.state.get("to_color") and size >= delta) or size > topology.degree(ch.proc):
            out.append((ch.round, ch.proc, size))
    return sorted(out)


def par_edge_color_violations(topology: Topology,
                              finals: dict[int, dict]) -> list[tuple[int, int]]:
    """Parent/child edges whose child color exceeds the parent's degree, given the final states."""
    out = []
    for i, st in finals.items():
        parent_id = st.get("parent")
        color = st.get("color")
        if color is None or parent_id is None:
            continue
        if parent_id == topology.identity(i):
            continue  # root
        parent_idx = next(
            (j for j in topology.neighbors(i) if topology.identity(j) == parent_id), None
        )
        if parent_idx is None:
            continue
        if not (0 <= color <= topology.degree(parent_idx)):
            out.append((parent_idx, i))
    return out


def end_wave_violations(finals: dict[int, dict], delta: int) -> list[int]:
    """Processes whose final state is not state 6 knowing delta+1 colors."""
    return sorted(
        i
        for i, st in finals.items()
        if st.get("state") != 6 or st.get("max_nb_cl") != delta + 1
    )


@dataclass
class RunFacts:
    """What verification reads of a run's records, gathered in one pass over its rounds."""

    meta: dict
    finals: dict[int, dict]  # the last recorded state of each process
    counts: dict[str, int]  # broadcasts per message kind
    claim_round: int | None  # the round of the first state that claims termination
    most_broadcasts: int  # in any one round
    color_seq_bits: int  # of the largest COLOR_SEQ broadcast
    clash_events: int  # those not exempt under sibling_end_parallel
    clash_recheck_ok: bool
    status: str
    rounds: int
    claimed_by: int | None

    @property
    def colors(self) -> dict[int, int]:
        """The color of each process whose final state has one."""
        return {proc: state["color"] for proc, state in self.finals.items()
                if state.get("color") is not None}


def fold_rounds(topology: Topology, trace) -> RunFacts:
    """The RunFacts of trace, a Trace or a traceio.TraceReader, read one round at a time."""
    n, delta = topology.n, topology.delta
    end_exempt = trace.meta.get("sibling_end_parallel")
    finals: dict[int, dict] = {}
    counts: dict[str, int] = {}
    claim_round = None
    most = bits = clash_count = 0
    recheck_ok = True
    with gc_paused():
        for rnd in trace.by_round():
            _, _, broadcasts, clashes, changes = rnd
            if len(broadcasts) > most:
                most = len(broadcasts)
            for rec in broadcasts:
                kind = rec.message.kind
                counts[kind] = counts.get(kind, 0) + 1
                if kind == "COLOR_SEQ":
                    bits = max(bits, color_seq_bits(rec.message, n, delta))
            # a round with fewer than two broadcasts and no clash events rechecks trivially
            if recheck_ok and (clashes or len(broadcasts) > 1):
                recheck_ok = recheck_clashes(topology, rnd)
            if end_exempt and clashes:
                # relaxed mode: END messages may collide at parents, which discard them
                kind_of = {rec.origin: rec.message.kind for rec in broadcasts}
                clash_count += sum(1 for e in clashes
                                   if not all(kind_of.get(p) == "END" for p in e.participants))
            else:
                clash_count += len(clashes)
            for ch in changes:
                finals[ch.proc] = ch.state
                if claim_round is None and ch.state.get("claimed"):
                    claim_round = ch.round
    return RunFacts(trace.meta, finals, counts, claim_round, most, bits, clash_count,
                    recheck_ok, trace.status, trace.rounds, trace.claimed_by)


def _sequential_flow(facts: RunFacts) -> BoundCheck:
    worst = facts.most_broadcasts
    return BoundCheck("sequential_flow", 1, worst, worst <= 1)


def _seq_bounds(facts: RunFacts, topology: Topology, mets: GraphMetrics) -> list[BoundCheck]:
    delta = mets.delta
    n = topology.n
    counts = facts.counts
    checks = []
    term = counts.get("TERM_SEQ", 0)
    checks.append(BoundCheck("seq_term_count", n - 1, term, term == n - 1))
    color = counts.get("COLOR_SEQ", 0)
    if n >= 2:
        limit = delta + (n - delta) * (delta - 1)
        checks.append(BoundCheck("seq_color_count", limit, color, color <= limit))
        bound = color_seq_bits_bound(n, delta)
        worst = facts.color_seq_bits
        checks.append(BoundCheck("seq_color_message_bits", bound, worst, worst <= bound))
    else:
        checks.append(BoundCheck("seq_color_count", 0, color, color == 0, note="singleton"))
    checks.append(_sequential_flow(facts))
    max_d = facts.finals.get(facts.claimed_by, {}).get("max_d")
    checks.append(BoundCheck("root_learned_delta", delta, -1 if max_d is None else max_d,
                             max_d == delta))
    return checks


def _par_bounds(facts: RunFacts, topology: Topology, mets: GraphMetrics) -> list[BoundCheck]:
    delta, depth = mets.delta, mets.depth
    n = topology.n
    checks = []
    coloring_phase = facts.counts.get("COLOR_PAR", 0) + facts.counts.get("TERM_PAR", 0)
    limit = 2 * n - delta
    checks.append(
        BoundCheck("par_broadcast_count", limit, coloring_phase, coloring_phase <= limit)
    )
    claim = facts.claim_round
    start = int(facts.meta.get("start_round", 0))
    elapsed = claim - start if claim is not None else None
    observed = -1 if elapsed is None else elapsed
    if depth >= 1:
        bound = ROUND_BOUND_FACTOR * depth * delta
        ok = elapsed is not None and elapsed <= bound
        note = f"ratio={elapsed / (depth * delta):.3f}" if elapsed is not None else ""
        checks.append(BoundCheck("par_completion_round", bound, observed, ok, note))
    else:
        checks.append(BoundCheck("par_completion_round", 0, observed, claim is not None,
                                 note="singleton, bound vacuous"))
    edge_bad = par_edge_color_violations(topology, facts.finals)
    checks.append(BoundCheck("par_child_color_range", 0, len(edge_bad), not edge_bad))
    if facts.meta.get("end_phase"):
        stuck = end_wave_violations(facts.finals, delta)
        checks.append(BoundCheck("par_end_wave", 0, len(stuck), not stuck))
    return checks


class Promise(NamedTuple):
    bounds: Callable[[RunFacts, Topology, GraphMetrics], list[BoundCheck]]
    colors_within_delta: bool  # validity: every color lies in 0..delta


# What each protocol, named by the trace meta, promises. This table is the
# verifier's own: it never imports protocol code.
PROMISES = {
    "seq_tree": Promise(_seq_bounds, True),
    "par_tree": Promise(_par_bounds, True),
    "arbitrary": Promise(lambda facts, *_: [_sequential_flow(facts)], False),
}


def check_bounds(facts: RunFacts, topology: Topology, mets: GraphMetrics) -> list[BoundCheck]:
    """Per-protocol bound checks, given the run's facts and the topology's metrics."""
    promise = PROMISES.get(facts.meta.get("protocol"))
    return [] if promise is None else promise.bounds(facts, topology, mets)


def verify_run(topology: Topology, trace) -> VerificationReport:
    """Full report for a finished run: section checks, bounds, TDMA replay.

    trace is a Trace or a traceio.TraceReader; either is read once, one round
    at a time, through fold_rounds.
    """
    protocol = trace.meta.get("protocol", "unknown")
    mets = metrics(topology, int(trace.meta.get("root", 1)))
    delta = mets.delta
    facts = fold_rounds(topology, trace)
    colors = facts.colors
    all_colored = len(colors) == topology.n
    promise = PROMISES.get(protocol)
    validity_ok, validity_off, consistency_ok, consistency_off = check_coloring(
        topology, colors, delta, promise is not None and promise.colors_within_delta
    )
    checks = check_bounds(facts, topology, mets)
    tdma = 0
    if all_colored and consistency_ok:
        tdma = tdma_replay(topology, colors, delta)
    return VerificationReport(
        protocol=protocol,
        n=topology.n,
        delta=delta,
        depth=mets.depth,
        validity_ok=validity_ok,
        validity_offenders=validity_off,
        consistency_ok=consistency_ok,
        consistency_offenders=consistency_off,
        termination_status=facts.status,
        claimed_by=facts.claimed_by,
        all_colored=all_colored,
        palette_size=len(set(colors.values())),
        message_counts=facts.counts,
        completion_round=facts.claim_round,
        bound_checks=checks,
        tdma_clashes=tdma,
        clash_events=facts.clash_events,
        clash_recheck_ok=facts.clash_recheck_ok,
    )
