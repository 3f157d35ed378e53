"""Sequential distance-2 coloring for arbitrary connected graphs.

The control flow walks the graph like the sequential tree protocol but colors
are proposed by the visiting parent and may be refused: a receiver that spots
a clash between the proposal (or the sender's own advertised color) and the
colors it already knows triggers a correction exchange that recolors the
sender, relays the fixed color two hops out, and then resumes the traversal.

Knowledge sets d1colors/d2colors are insertion-ordered without duplicates
because the relay step retracts exactly the most recently recorded color.  Each
is a dict used as a set: setdefault records a color, a repeat keeps its place,
and popitem retracts the last one.

States: 0 idle, 1 refusing (will send a correction request), 2 will propose a
color to an uncolored neighbor, 3 will report completion upward, 4 corrected
(will relay its new color), 5 will resume the traversal, 6 will rebroadcast a
relayed correction.  Every broadcast returns the process to state 0.
"""

from __future__ import annotations

from .engine import FAIL_FAST, Process, ProtocolViolation, Simulation, start_simulation
from .messages import (ColorArb, Correct, CorrectedColor, ResumeColoring, TermArb,
                       first_free_color)
from .topology import Topology


def replace_last(colors: dict[int, None], color: int) -> bool:
    """Retract the color recorded last in an insertion-ordered set, then record color.

    Returns whether the set changed, which it did unless color was the one retracted.
    """
    if not colors:
        raise ProtocolViolation("rollback of an empty color sequence")
    retracted, _ = colors.popitem()
    colors.setdefault(color)
    return retracted != color


class ArbProcess(Process):
    __slots__ = ("state", "d1", "d2", "sender", "parent", "to_color", "color", "corrected_cl",
                 "_schedule")

    def __init__(
        self,
        ident: int,
        neighbor_ids: tuple[int, ...],
        next_schedule: dict[int, list[int]] | None = None,
    ):
        super().__init__(ident, neighbor_ids)
        self.state = 0
        self.d1: dict[int, None] = {}
        self.d2: dict[int, None] = {}
        self.sender = 0
        self.parent: int | None = None
        # every ColorArb and TermArb discards from it, so it is always a set of its own
        self.to_color: set[int] = set(neighbor_ids)
        self.color: int | None = None
        self.corrected_cl: int | None = None
        pinned = (next_schedule or {}).get(ident)
        self._schedule: list[int] | tuple[()] = list(pinned) if pinned else ()

    def _pick_next(self) -> int:
        if self._schedule:
            choice = self._schedule.pop(0)
            if choice not in self.to_color:
                raise ProtocolViolation(
                    f"pinned next-child {choice} is not an uncolored neighbor"
                )
            return choice
        return min(self.to_color)

    def on_start(self, clock):
        self._on_color(ColorArb(self.ident, self.ident, -1, 0, ()))

    def on_message(self, msg):
        if isinstance(msg, ColorArb):
            self._on_color(msg)
        elif isinstance(msg, TermArb):
            self._on_term(msg)
        elif isinstance(msg, Correct):
            self._on_correct(msg)
        elif isinstance(msg, CorrectedColor):
            self._on_corrected(msg)
        elif isinstance(msg, ResumeColoring):
            self._on_resume(msg)

    def _on_color(self, msg: ColorArb) -> None:
        # these containers only grow or shrink here, so a change shows in their sizes
        sizes = len(self.to_color), len(self.d1), len(self.d2)
        # every receiver learns the sender is colored and absorbs its d1 set
        self.to_color.discard(msg.sender)
        self.d2.update(dict.fromkeys(msg.d1colors))
        if msg.dest != self.ident:
            self.d2.setdefault(msg.proposed_color)
            self.d1.setdefault(msg.sender_cl)
            self.dirty |= sizes != (len(self.to_color), len(self.d1), len(self.d2))
            return
        self.dirty = True
        if (msg.sender_cl in msg.d1colors or msg.proposed_color in self.d1
                or msg.proposed_color in self.d2):
            # refusal: the sender advertises a clash of its own color, or the
            # proposal collides with colors already known here
            self.state = 1
            self.sender = msg.sender
            return
        self.parent = msg.sender
        self.color = msg.proposed_color
        if self.to_color:
            self.state = 2
            self.d1.setdefault(msg.sender_cl)
        else:
            self.state = 3

    def _on_term(self, msg: TermArb) -> None:
        # overhearing a report still reveals the reporter needs no color
        self.dirty |= msg.dest == self.ident or msg.sender in self.to_color
        self.to_color.discard(msg.sender)
        if msg.dest != self.ident:
            return
        if not self.to_color:
            if self.parent == self.ident:
                self.claimed_termination = True
            else:
                self.state = 3
        else:
            self.d1.setdefault(msg.color)
            self.state = 2

    def _on_correct(self, msg: Correct) -> None:
        if msg.dest != self.ident:
            return
        self.d2.update(dict.fromkeys(msg.d1colors))
        self.d1.setdefault(msg.color)
        self.color = first_free_color([*self.d1, *self.d2])
        self.sender = msg.sender
        self.state = 4
        self.dirty = True

    def _on_corrected(self, msg: CorrectedColor) -> None:
        if msg.dest1 != self.ident:  # a neighbor's relay, or a relay two hops out (dest1 -1)
            self.dirty |= replace_last(self.d2 if msg.dest1 == -1 else self.d1, msg.color)
        if msg.dest2 == self.ident:
            self.state = 6
            self.corrected_cl = msg.color
            self.dirty = True
        if msg.dest1 == -1 and msg.dest2 == -1 and self.color == msg.color:
            self.state = 5
            self.dirty = True

    def _on_resume(self, msg: ResumeColoring) -> None:
        if msg.dest != self.ident:
            return
        self.parent = msg.sender
        self.state = 2 if self.to_color else 3
        self.dirty = True

    def on_clock(self, clock):
        if self.state == 0:
            return None
        state = self.state
        self.state = 0
        self.dirty = True
        if state == 1:
            self.color = first_free_color([*self.d1, *self.d2])
            return Correct(self.sender, self.ident, self.color, tuple(self.d1))
        if state == 2:
            proposal = first_free_color([*self.d1, self.color])
            nxt = self._pick_next()
            return ColorArb(nxt, self.ident, self.color, proposal, tuple(self.d1))
        if state == 3:
            return TermArb(self.parent, self.color, self.ident)
        if state == 4:
            return CorrectedColor(self.sender, self.parent, self.ident, self.color)
        if state == 5:
            return ResumeColoring(self.sender, self.ident)
        if state == 6:
            return CorrectedColor(-1, -1, self.ident, self.corrected_cl)
        raise ProtocolViolation(f"process {self.ident} woke in state {state}")

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "color": self.color,
            "parent": self.parent,
            "sender": self.sender,
            "corrected_cl": self.corrected_cl,
            "d1colors": tuple(self.d1),
            "d2colors": tuple(self.d2),
            "to_color": tuple(sorted(self.to_color)),
            "claimed": self.claimed_termination,
        }

    @property
    def may_act(self) -> bool:
        return self.state != 0


def make_simulation(
    topology: Topology,
    root: int,
    start_round: int = 0,
    policy: str = FAIL_FAST,
    next_schedule: dict[int, list[int]] | None = None,
    handler_order_seed: int | None = None,
) -> Simulation:
    # this protocol's reference execution receives each broadcast in the slot
    # after it was sent, unlike the tree protocols' same-slot model
    return start_simulation(
        topology, root, lambda *ids: ArbProcess(*ids, next_schedule),
        {"protocol": "arbitrary"},
        start_round, policy, handler_order_seed=handler_order_seed, delivery_delay=1,
    )
