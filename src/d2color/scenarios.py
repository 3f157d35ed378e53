"""Built-in topologies and the pinned reference execution for conformance.

The `table1` scenario replays a published step-by-step execution of the
arbitrary-graph protocol on a fixed 5-process network.  The reference cells
below transcribe that execution: per clock value, the state and color values
each process reaches and the broadcast each process emits.  The source
rendering records receptions one round after the matching broadcast up to
clock 12 but slips an extra round behind from clock 13 on (its clock-11
broadcast is shown reaching one neighbor at 12 and the others at 13, which no
single delivery discipline can produce), so expected_clock() folds the tail
back onto the uniform next-round schedule that the earlier rows establish.
"""

from __future__ import annotations

from .topology import Topology, build_topology
from .verifier import fold_rounds

# (edges, kind, n) of each built-in topology, by name, in the order the CLI lists them
BUILTINS = {
    "singleton": ((), "tree", 1),
    "path3": (((1, 2), (2, 3)), "tree", 3),
    "star4": (((1, 2), (1, 3), (1, 4), (1, 5)), "tree", 5),
    "table1": (((1, 2), (1, 4), (2, 3), (2, 5), (3, 4)), "general", 5),
    "binary15": (tuple((i, c) for i in range(1, 8) for c in (2 * i, 2 * i + 1)), "tree", 15),
}


def builtin_topology(name: str) -> Topology:
    if name not in BUILTINS:
        raise ValueError(f"unknown builtin topology {name!r}")
    edges, kind, n = BUILTINS[name]
    return build_topology(list(edges), kind=kind, n=n)


# traversal choices the reference execution makes at "pick any uncolored
# neighbor" points, keyed by chooser identity
TABLE1_NEXT_SCHEDULE: dict[int, list[int]] = {1: [2], 2: [3, 5], 3: [4]}

TABLE1_ROOT = 1
TABLE1_FINAL_COLORS = {1: 0, 2: 1, 3: 3, 4: 2, 5: 2}
TABLE1_END_CLOCK = 25  # the root declares completion (published clock)

# (published clock, process, value)
TABLE1_STATE_CELLS = [
    (0, 1, 2),
    (1, 1, 0),
    (2, 2, 2),
    (3, 2, 0),
    (4, 3, 2),
    (5, 3, 0),
    (6, 4, 1),
    (7, 4, 0),
    (8, 3, 4),
    (9, 3, 0),
    (10, 2, 6),
    (11, 2, 0),
    (13, 3, 5),
    (14, 3, 0),
    (15, 4, 3),
    (16, 4, 0),
    (17, 3, 3),
    (18, 3, 0),
    (19, 2, 2),
    (20, 2, 0),
    (21, 5, 3),
    (22, 5, 0),
    (23, 2, 3),
    (24, 2, 0),
]

TABLE1_COLOR_CELLS = [
    (0, 1, 0),
    (2, 2, 1),
    (4, 3, 2),
    (7, 4, 2),
    (8, 3, 3),
]

# (published clock, origin, message kind, asserted payload fields)
TABLE1_BROADCAST_CELLS = [
    (1, 1, "COLOR_ARB", {"dest": 2, "sender": 1, "sender_cl": 0, "proposed_color": 1, "d1colors": (-1,)}),
    (3, 2, "COLOR_ARB", {"dest": 3, "sender": 2, "sender_cl": 1, "proposed_color": 2, "d1colors": (0,)}),
    (5, 3, "COLOR_ARB", {"dest": 4, "sender": 3, "sender_cl": 2, "proposed_color": 0, "d1colors": (1,)}),
    (7, 4, "CORRECT", {"dest": 3, "sender": 4, "color": 2, "d1colors": (0,)}),
    (9, 3, "CORRECTED_COLOR", {"dest1": 4, "dest2": 2, "sender": 3, "color": 3}),
    (11, 2, "CORRECTED_COLOR", {"dest1": -1, "dest2": -1, "sender": 2, "color": 3}),
    (14, 3, "RESUME_COLORING", {"dest": 4, "sender": 3}),
    (16, 4, "TERM_ARB", {"dest": 3, "sender": 4}),
    (18, 3, "TERM_ARB", {"dest": 2, "sender": 3}),
    (20, 2, "COLOR_ARB", {"dest": 5, "sender": 2, "sender_cl": 1, "proposed_color": 2, "d1colors": (0, 3)}),
    (22, 5, "TERM_ARB", {"dest": 2, "sender": 5}),
    (24, 2, "TERM_ARB", {"dest": 1, "sender": 2}),
]


def expected_clock(published: int) -> int:
    """Fold the published trace's post-clock-12 slip back onto the
    next-round delivery schedule the earlier rows follow."""
    return published - 1 if published >= 13 else published


def table1_mismatches(trace) -> list[str]:
    """Compare a run of the table1 scenario against the reference cells.

    Returns human-readable mismatch descriptions; empty means conformant.
    """
    problems = []
    changes = {}
    for ch in trace.changes:
        changes.setdefault((ch.round, ch.proc), []).append(ch.state)
    for published, proc, state in TABLE1_STATE_CELLS:
        t = expected_clock(published)
        snaps = changes.get((t, proc), [])
        if not any(s.get("state") == state for s in snaps):
            problems.append(
                f"clock {t} (published {published}): p{proc} never showed state {state}; "
                f"saw {[s.get('state') for s in snaps]}"
            )
    for published, proc, color in TABLE1_COLOR_CELLS:
        t = expected_clock(published)
        snaps = changes.get((t, proc), [])
        if not any(s.get("color") == color for s in snaps):
            problems.append(
                f"clock {t} (published {published}): p{proc} never showed color {color}"
            )
    recs = {(rec.round, rec.origin): rec for rec in trace.broadcasts}
    if len(trace.broadcasts) != len(TABLE1_BROADCAST_CELLS):
        problems.append(
            f"broadcast count {len(trace.broadcasts)} != {len(TABLE1_BROADCAST_CELLS)}"
        )
    for published, origin, kind, fields in TABLE1_BROADCAST_CELLS:
        t = expected_clock(published)
        rec = recs.get((t, origin))
        if rec is None:
            problems.append(f"clock {t} (published {published}): p{origin} did not broadcast")
            continue
        if rec.message.kind != kind:
            problems.append(
                f"clock {t}: p{origin} broadcast {rec.message.kind}, expected {kind}"
            )
            continue
        for name, want in fields.items():
            got = getattr(rec.message, name)
            if got != want:
                problems.append(
                    f"clock {t}: p{origin} {kind}.{name} = {got!r}, expected {want!r}"
                )
    facts = fold_rounds(builtin_topology("table1"), trace)
    if facts.colors != TABLE1_FINAL_COLORS:
        problems.append(f"final colors {facts.colors} != {TABLE1_FINAL_COLORS}")
    if trace.claimed_by != TABLE1_ROOT:
        problems.append(f"claimed_by {trace.claimed_by} != {TABLE1_ROOT}")
    want_end = expected_clock(TABLE1_END_CLOCK)
    if facts.claim_round != want_end:
        problems.append(f"completion at clock {facts.claim_round}, expected {want_end}")
    return problems
