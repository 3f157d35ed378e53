"""Parallel distance-2 tree coloring with slot-gated broadcasts.

Parents compute their children's colors in one shot; every broadcast is gated
to the time slots matching the broadcaster's color, taken modulo the color
budget learned from the parent during coloring and modulo the learned global
budget during the termination wave.  The END wave propagates the global color
count (max degree + 1) from the root to everyone, after which steady-state
TDMA slots are well defined everywhere.

States: 0 uncolored, 1 about to color children, 2 collecting subtree reports,
3 about to report upward, 4 locally done (awaiting END), 5 knows global
termination and will forward END, 6 fully done.  The root goes 2 -> 5
directly when its last report arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .engine import EMPTY, FAIL_FAST, Process, ProtocolViolation, Simulation, start_simulation
from .messages import ColorPar, End, New, TermPar, first_free_color, free_colors
from .topology import Topology, build_topology
from .verifier import d2_conflicts


class MissingPairForUncoloredChild(ProtocolViolation):
    pass


class JoinError(Exception):
    pass


class ParentSaturated(JoinError):
    pass


class MergeError(Exception):
    pass


class DegreeMismatch(MergeError):
    pass


class SaturatedEndpoint(MergeError):
    pass


class IdentityPreconditionViolated(MergeError):
    pass


class ConsistencyBroken(MergeError):
    def __init__(self, offenders):
        super().__init__(f"merged coloring violates distance-2 consistency: {offenders}")
        self.offenders = offenders


class ParProcess(Process):
    __slots__ = ("state", "nb_cl", "nb_cl_parent", "max_nb_cl", "parent", "sender_cl",
                 "to_color", "color", "end_phase", "root_always_ends", "sibling_end_parallel",
                 "pending_new")

    def __init__(
        self,
        ident: int,
        neighbor_ids: tuple[int, ...],
        end_phase: bool = True,
        root_always_ends: bool = False,
        sibling_end_parallel: bool = False,
    ):
        super().__init__(ident, neighbor_ids)
        self.state = 0
        self.nb_cl = self.degree + 1
        self.nb_cl_parent = 0
        self.max_nb_cl = self.nb_cl
        self.parent: int | None = None
        self.sender_cl: int | None = None
        self.to_color: set[int] | frozenset[int] = EMPTY  # coloring replaces it
        self.color: int | None = None
        self.end_phase = end_phase
        self.root_always_ends = root_always_ends
        self.sibling_end_parallel = sibling_end_parallel
        self.pending_new: tuple[int, int, int] | None = None

    def on_start(self, clock):
        cl = (clock + 1) % self.nb_cl
        self._accept_color(ColorPar(((self.ident, cl),), self.ident, -1, self.nb_cl))

    def on_message(self, msg):
        if isinstance(msg, ColorPar):
            if self.color is None:
                self._accept_color(msg)
        elif isinstance(msg, TermPar):
            if msg.dest != self.ident:
                return
            if self.state != 2:
                raise ProtocolViolation(
                    f"report reached {self.ident} in state {self.state}"
                )
            if msg.sender not in self.to_color:
                raise ProtocolViolation(f"report from unexpected child {msg.sender}")
            self.to_color.discard(msg.sender)
            self.max_nb_cl = max(self.max_nb_cl, msg.max_nb_cl)
            if not self.to_color:
                self.to_color = EMPTY
                if self.parent == self.ident:
                    self.claimed_termination = True
                    if self.end_phase:
                        self.state = 5
                else:
                    self.state = 3
            self.dirty = True
        elif isinstance(msg, End):
            if msg.parent == self.parent and self.state == 4:
                self.max_nb_cl = max(self.max_nb_cl, msg.max_cl)
                self.state = 5
                self.dirty = True
        # NEW announcements are for a joining process; colored neighbors ignore them

    def _accept_color(self, msg: ColorPar) -> None:
        self.color = dict(msg.pairs).get(self.ident)
        if self.color is None:
            raise MissingPairForUncoloredChild(
                f"uncolored process {self.ident} missing from color assignment")
        self.parent = msg.sender
        self.to_color = set(self.neighbor_ids) - {msg.sender} or EMPTY
        self.sender_cl = msg.sender_cl
        self.nb_cl_parent = msg.nb_cl_parent
        self.state = 1 if self.to_color else 3
        self.dirty = True

    def on_clock(self, clock):
        if self.state in (1, 3) and clock % self.nb_cl_parent == self.color:
            if self.state == 1:
                pairs = zip(sorted(self.to_color), free_colors({self.color, self.sender_cl}))
                self.state = 2
                self.dirty = True
                return ColorPar(tuple(pairs), self.ident, self.color, self.nb_cl)
            # state 3: report upward; a rootless-parent singleton claims instead
            if self.parent == self.ident:
                self.claimed_termination = True
                self.state = 5 if self.end_phase else 4
                self.dirty = True
                return None
            self.state = 4
            self.dirty = True
            return TermPar(self.parent, self.ident, self.max_nb_cl)
        if self.end_phase and self.state == 5:
            gated = self.sibling_end_parallel or clock % self.max_nb_cl == self.color
            if gated:
                self.state = 6
                self.dirty = True
                if self.degree != 1 or (self.parent == self.ident and self.root_always_ends):
                    return End(self.ident, self.max_nb_cl)
                return None
        if self.pending_new is not None and self.state == 6:
            if clock % self.max_nb_cl == self.color:
                new, self.pending_new = self.pending_new, None  # not in the snapshot: not dirty
                return New(*new)
        return None

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "color": self.color,
            "parent": self.parent,
            "sender_cl": self.sender_cl,
            "to_color": tuple(sorted(self.to_color)),
            "nb_cl": self.nb_cl,
            "nb_cl_parent": self.nb_cl_parent,
            "max_nb_cl": self.max_nb_cl,
            "claimed": self.claimed_termination,
        }

    @property
    def may_act(self) -> bool:
        if self.state in (1, 3):
            return True
        if self.end_phase and self.state == 5:
            return True
        return self.pending_new is not None


class JoinerProcess(Process):
    """A process outside the colored tree, waiting for its NEW announcement."""

    __slots__ = ("state", "color", "max_nb_cl", "parent", "joined")

    def __init__(self, ident: int, neighbor_ids: tuple[int, ...]):
        super().__init__(ident, neighbor_ids)
        self.state = 0
        self.color: int | None = None
        self.max_nb_cl = 0
        self.parent: int | None = None
        self.joined = False

    def on_message(self, msg):
        if isinstance(msg, New) and not self.joined:
            if msg.new_id != self.ident:
                raise ProtocolViolation("join announcement carries a different identity")
            self.color = msg.cl
            self.max_nb_cl = msg.delta + 1
            (self.parent,) = self.neighbor_ids
            self.state = 6
            self.joined = True
            self.dirty = True

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "color": self.color,
            "parent": self.parent,
            "max_nb_cl": self.max_nb_cl,
            "joined": self.joined,
        }


def make_simulation(
    topology: Topology,
    root: int,
    start_round: int = 0,
    policy: str = FAIL_FAST,
    end_phase: bool = True,
    root_always_ends: bool = False,
    sibling_end_parallel: bool = False,
    handler_order_seed: int | None = None,
) -> Simulation:
    return start_simulation(
        topology, root,
        lambda *ids: ParProcess(*ids, end_phase, root_always_ends, sibling_end_parallel),
        {"protocol": "par_tree", "end_phase": end_phase, "root_always_ends": root_always_ends,
         "sibling_end_parallel": sibling_end_parallel},
        start_round, policy,
        done_fn=_all_terminal if end_phase else None,
        clash_exempt=_end_only_clash if sibling_end_parallel else None,
        handler_order_seed=handler_order_seed,
    )


def _all_terminal(sim) -> bool:
    # state 6: a ParProcess past the END wave, or a JoinerProcess that joined
    return all(p.state == 6 for p in sim.processes.values())


def _end_only_clash(event, pending) -> bool:
    return all(isinstance(pending[p], End) for p in event.participants if p in pending)


# rounds a join waits for its announcement to reach the new process
JOIN_WAIT = 64


@dataclass
class JoinOutcome:
    topology: Topology
    joiner_index: int
    joiner_identity: int
    color: int
    round: int


def execute_join(sim: Simulation, parent_index: int) -> JoinOutcome:
    """Attach one new process under parent_index after a finished END wave.

    The parent picks the joiner's color and identity from its local knowledge
    only, announces them in its own steady-state slot, and the joiner adopts
    them on reception.  set_topology re-arms the parent, whose pending
    announcement is set here, outside its handlers.
    """
    parent = sim.processes[parent_index]
    if not isinstance(parent, ParProcess) or parent.state != 6:
        raise JoinError("join requires a parent that completed the END wave")
    delta = parent.max_nb_cl - 1
    if parent.degree >= delta:
        raise ParentSaturated(
            f"process {parent_index} already has degree {parent.degree} = max degree"
        )

    # the parent gave its children, then its earlier joiners, the colors free of {color,
    # sender_cl} in turn: one to each neighbor but its own parent.  So the next one is at
    # most degree + 1 <= delta (the root's sender_cl is -1, which is never free).
    given = parent.degree - (parent.parent != parent.ident)
    color = next(islice(free_colors({parent.color, parent.sender_cl}), given, None))
    # identities start at 1
    new_id = first_free_color({0, parent.ident, *parent.neighbor_ids})

    old = sim.topology
    joiner_index = old.n + 1
    extended = build_topology(
        old.edges() + [(parent_index, joiner_index)],
        identities=list(old.identities[1:]) + [new_id],
        kind=old.kind,
        n=old.n + 1,
    )
    joiner = JoinerProcess(new_id, (parent.ident,))
    parent.neighbor_ids += (new_id,)
    parent.degree += 1
    parent.pending_new = (color, delta, new_id)
    sim.set_topology(extended, {joiner_index: joiner})

    for _ in range(JOIN_WAIT):
        sim.step_round()
        if joiner.joined:
            return JoinOutcome(extended, joiner_index, new_id, joiner.color, sim.clock)
    raise JoinError("join announcement never reached the new process")


def merge_trees(
    t1: Topology,
    coloring1: dict[int, int],
    t2: Topology,
    coloring2: dict[int, int],
    x: int,
    y: int,
) -> tuple[Topology, dict[int, int]]:
    """Connect two independently colored trees by the edge (x, y).

    Colors are preserved verbatim; the combined coloring is then re-checked
    for distance-2 consistency and the merge is rejected when the seam breaks
    it, instead of silently producing an inconsistent network.
    """
    d1, d2 = t1.delta, t2.delta
    if d1 != d2:
        raise DegreeMismatch(f"max degrees differ: {d1} vs {d2}")
    if t1.degree(x) >= d1:
        raise SaturatedEndpoint(f"process {x} already has maximal degree")
    if t2.degree(y) >= d1:
        raise SaturatedEndpoint(f"process {y} already has maximal degree")
    idx, idy = t1.identity(x), t2.identity(y)
    if idx == idy or idx in t2.neighbor_identities(y) or idy in t1.neighbor_identities(x):
        raise IdentityPreconditionViolated(
            f"identities {idx}/{idy} collide across the new edge"
        )

    shift = t1.n
    edges = t1.edges()
    edges += [(a + shift, b + shift) for a, b in t2.edges()]
    edges.append((x, y + shift))
    identities = list(t1.identities[1:]) + list(t2.identities[1:])
    merged = build_topology(edges, identities=identities, kind="tree", n=t1.n + t2.n)

    coloring = dict(coloring1)
    coloring.update({i + shift: c for i, c in coloring2.items()})
    offenders = d2_conflicts(merged, coloring)
    if offenders:
        raise ConsistencyBroken(offenders)
    return merged, coloring
