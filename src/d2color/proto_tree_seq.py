"""Depth-first sequential distance-2 tree coloring.

A single externally started root walks the tree depth-first.  Visiting a
process colors it; a finished subtree reports back to its parent, which also
piggybacks the largest degree seen so far, so the root ends up knowing the
tree's maximal degree.

States: 0 waiting for a color, 1 about to color a child, 2 waiting for a
subtree report, 3 about to report upward (or claim, at the root), 4 done.
"""

from __future__ import annotations

import random

from .engine import EMPTY, FAIL_FAST, Process, ProtocolViolation, Simulation, start_simulation
from .messages import ColorSeq, TermSeq, first_free_color
from .topology import Topology


class SeqProcess(Process):
    __slots__ = ("state", "parent", "sender_cl", "d1colors", "to_color", "color", "max_d",
                 "next_child_order", "rng")

    def __init__(
        self,
        ident: int,
        neighbor_ids: tuple[int, ...],
        next_child_order: str = "min",
        rng: random.Random | None = None,
    ):
        super().__init__(ident, neighbor_ids)
        self.state = 0
        self.parent: int | None = None
        self.sender_cl: int | None = None
        # coloring replaces both
        self.d1colors: set[int] | frozenset[int] = EMPTY
        self.to_color: set[int] | frozenset[int] = EMPTY
        self.color: int | None = None
        self.max_d = self.degree
        self.next_child_order = next_child_order
        self.rng = rng

    def on_start(self, clock):
        self._accept_color(ColorSeq(self.ident, self.ident, -1, ()))

    def on_message(self, msg):
        if isinstance(msg, ColorSeq):
            if msg.dest != self.ident:
                return
            if self.color is not None:
                raise ProtocolViolation(f"process {self.ident} colored twice")
            self._accept_color(msg)
        elif isinstance(msg, TermSeq):
            if msg.dest != self.ident:
                return
            if self.state != 2:
                raise ProtocolViolation(
                    f"report reached {self.ident} in state {self.state}"
                )
            if msg.sender not in self.to_color:
                raise ProtocolViolation(f"report from unexpected child {msg.sender}")
            self.to_color.discard(msg.sender)
            self.to_color = self.to_color or EMPTY
            self.d1colors.add(msg.sender_cl)
            self.max_d = max(self.max_d, msg.max_d)
            self.state = 1 if self.to_color else 3
            self.dirty = True

    def _accept_color(self, msg: ColorSeq) -> None:
        self.parent = msg.sender
        self.sender_cl = msg.sender_cl
        # the root's parent color -1 is fictitious, so the root starts knowing no color
        self.d1colors = set() if msg.sender == self.ident else {msg.sender_cl}
        self.color = first_free_color(self.d1colors | set(msg.d1colors))
        self.to_color = set(self.neighbor_ids) - {self.parent} or EMPTY
        self.state = 1 if self.to_color else 3
        self.dirty = True

    def on_clock(self, clock):
        if self.state == 1:
            if self.next_child_order == "random" and self.rng is not None:
                nxt = self.rng.choice(sorted(self.to_color))
            else:
                nxt = min(self.to_color)
            self.state = 2
            self.dirty = True
            return ColorSeq(nxt, self.ident, self.color, tuple(sorted(self.d1colors)))
        if self.state == 3:
            self.state = 4
            self.dirty = True
            if self.parent == self.ident:
                self.claimed_termination = True
                return None
            return TermSeq(self.parent, self.ident, self.color, self.max_d)
        return None

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "color": self.color,
            "parent": self.parent,
            "sender_cl": self.sender_cl,
            "d1colors": tuple(sorted(self.d1colors)),
            "to_color": tuple(sorted(self.to_color)),
            "max_d": self.max_d,
            "claimed": self.claimed_termination,
        }

    @property
    def may_act(self) -> bool:
        return self.state in (1, 3)


def make_simulation(
    topology: Topology,
    root: int,
    start_round: int = 0,
    policy: str = FAIL_FAST,
    next_child_order: str = "min",
    seed: int = 0,
    handler_order_seed: int | None = None,
) -> Simulation:
    rng = random.Random(seed) if next_child_order == "random" else None
    return start_simulation(
        topology, root, lambda *ids: SeqProcess(*ids, next_child_order, rng),
        {"protocol": "seq_tree", "next_child_order": next_child_order, "seed": seed},
        start_round, policy, handler_order_seed=handler_order_seed,
    )
