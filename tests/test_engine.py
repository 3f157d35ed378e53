import contextlib
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import state_breaches
from d2color import proto_arbitrary, proto_tree_par, proto_tree_seq
from d2color.cli import auto_budget
from d2color.engine import (
    EMPTY,
    ClashDetected,
    EngineError,
    Process,
    ProtocolViolation,
    RECORD_AND_CORRUPT,
    Simulation,
    detect_clashes,
)
from d2color.messages import TermSeq
from d2color.proto_arbitrary import ArbProcess
from d2color.proto_tree_par import JoinerProcess, ParProcess
from d2color.proto_tree_par import make_simulation as make_par
from d2color.proto_tree_seq import SeqProcess
from d2color.proto_tree_seq import make_simulation as make_seq
from d2color.scenarios import builtin_topology
from d2color.topology import build_topology, generate_random_connected, generate_random_tree
from d2color.traceio import trace_to_text
from d2color.verifier import recheck_clashes


class Beacon(Process):
    """Test process that broadcasts in a fixed set of rounds."""

    def __init__(self, ident, neighbor_ids, rounds=()):
        super().__init__(ident, neighbor_ids)
        self.rounds = set(rounds)
        self.received = []

    def on_clock(self, clock):
        if clock in self.rounds:
            self.rounds.discard(clock)
            return TermSeq(0, self.ident, 0, 0)
        return None

    def on_message(self, msg):
        self.received.append(msg)

    @property
    def may_act(self):
        return bool(self.rounds)


def beacon_sim(topology, schedule, policy="fail_fast"):
    procs = {
        i: Beacon(topology.identity(i), topology.neighbor_identities(i), schedule.get(i, ()))
        for i in range(1, topology.n + 1)
    }
    return Simulation(topology, procs, policy=policy, done_fn=lambda s: False)


def line4():
    return build_topology([(1, 2), (2, 3), (3, 4)], kind="tree")


class TestClock:
    def test_starts_at_minus_one_and_ticks(self):
        sim = beacon_sim(line4(), {})
        assert sim.clock == -1
        sim.step_round()
        assert sim.clock == 0
        sim.step_round()
        assert sim.clock == 1

    def test_empty_rounds_advance_without_events(self):
        sim = beacon_sim(line4(), {})
        for _ in range(5):
            sim.step_round()
        assert sim.trace.broadcasts == ()
        assert sim.trace.clashes == ()


class TestConstruction:
    def test_requires_one_process_per_index(self):
        topo = line4()
        procs = {i: Beacon(i, ()) for i in (1, 2, 3)}
        with pytest.raises(EngineError):
            Simulation(topo, procs)

    def test_rejects_unknown_delay(self):
        topo = line4()
        procs = {i: Beacon(i, ()) for i in range(1, 5)}
        with pytest.raises(EngineError):
            Simulation(topo, procs, delivery_delay=2)

    def test_rejects_unknown_policy(self):
        with pytest.raises(EngineError, match="fail_fsat"):
            beacon_sim(line4(), {}, policy="fail_fsat")


class TestExternals:
    def test_negative_round_rejected(self):
        with pytest.raises(EngineError, match="START"):
            make_seq(line4(), 1, start_round=-1)

    def test_root_outside_the_topology_rejected(self):
        with pytest.raises(EngineError, match="START"):
            make_seq(line4(), 5)


class TestClashDetection:
    def test_two_neighbors_conflict_and_common_collision(self):
        # 1-2, 2-3, 1-3 triangle: 1 and 3 broadcast; conflicts at both, plus
        # a collision at 2 (two broadcasting neighbors) and at each other
        topo = build_topology([(1, 2), (2, 3), (1, 3)], kind="general")
        events = detect_clashes(topo, 0, {1, 3})
        kinds = {(e.victim, e.clash_kind) for e in events}
        assert (2, "collision") in kinds
        assert (1, "conflict") in kinds
        assert (3, "conflict") in kinds

    def test_distance2_broadcasters_collide_at_middle_only(self):
        topo = line4()
        events = detect_clashes(topo, 3, {1, 3})
        assert [(e.victim, e.clash_kind) for e in events] == [(2, "collision")]
        assert events[0].participants == frozenset({1, 3})

    def test_single_broadcaster_never_clashes(self):
        assert detect_clashes(line4(), 0, {2}) == []

    def test_fail_fast_raises(self):
        sim = beacon_sim(line4(), {1: [0], 2: [0]})
        with pytest.raises(ClashDetected) as exc:
            sim.step_round()
        assert any(e.clash_kind == "conflict" for e in exc.value.events)

    def test_all_broadcast_corrupt_mode_delivers_nothing(self):
        topo = line4()
        sim = beacon_sim(topo, {i: [0] for i in range(1, 5)}, policy=RECORD_AND_CORRUPT)
        sim.step_round()
        assert all(not sim.processes[i].received for i in range(1, 5))
        assert all(rec.receivers == () for rec in sim.trace.broadcasts)
        assert sim.trace.clashes

    def test_per_receiver_corruption(self):
        # 1 and 3 broadcast: 2 sits between them (collision, receives
        # nothing); 4 hears only 3 and receives cleanly
        topo = line4()
        sim = beacon_sim(topo, {1: [0], 3: [0]}, policy=RECORD_AND_CORRUPT)
        sim.step_round()
        assert sim.processes[2].received == []
        assert len(sim.processes[4].received) == 1
        rec3 = next(r for r in sim.trace.broadcasts if r.origin == 3)
        assert rec3.receivers == (4,)

    def test_delivery_synchrony_no_clash(self):
        topo = line4()
        sim = beacon_sim(topo, {2: [0]})
        sim.step_round()
        rec = sim.trace.broadcasts[0]
        assert rec.receivers == (1, 3)
        assert len(sim.processes[1].received) == 1
        assert len(sim.processes[3].received) == 1

    def test_recheck_accepts_honest_trace(self):
        topo = line4()
        sim = beacon_sim(topo, {1: [0], 3: [0], 2: [2]}, policy=RECORD_AND_CORRUPT)
        for _ in range(4):
            sim.step_round()
        assert all(recheck_clashes(topo, rnd) for rnd in sim.trace.by_round())

    def test_recheck_rejects_doctored_trace(self):
        topo = line4()
        sim = beacon_sim(topo, {1: [0], 3: [0]}, policy=RECORD_AND_CORRUPT)
        sim.step_round()
        rnd = sim.trace.kept[-1]
        sim.trace.kept[-1] = rnd._replace(clashes=rnd.clashes[:-1])
        assert not all(recheck_clashes(topo, rnd) for rnd in sim.trace.by_round())


class TestDeliveryDelay:
    def test_next_slot_delivery(self):
        topo = line4()
        procs = {
            i: Beacon(topo.identity(i), topo.neighbor_identities(i), [0] if i == 2 else [])
            for i in range(1, 5)
        }
        sim = Simulation(topo, procs, done_fn=lambda s: False, delivery_delay=1)
        sim.step_round()
        assert procs[1].received == []
        sim.step_round()
        assert len(procs[1].received) == 1


class TestRunLoop:
    def test_budget_zero(self):
        sim = make_seq(builtin_topology("path3"), 1)
        trace = sim.run(0)
        assert trace.status == "budget_exhausted"
        assert trace.rounds == 0

    def test_partial_on_quiescence(self):
        # round 0 carries the broadcast; round 1 is the first quiet one
        sim = beacon_sim(line4(), {2: [0]})
        trace = sim.run(1000)
        assert trace.status == "partial"
        assert trace.rounds == 2

    def test_clock_ticks_only_where_a_process_may_act(self, monkeypatch):
        calls = []
        on_clock = SeqProcess.on_clock

        def counted(self, clock):
            calls.append(self.ident)
            return on_clock(self, clock)

        monkeypatch.setattr(SeqProcess, "on_clock", counted)
        trace = make_seq(builtin_topology("binary15"), 1).run(1000)
        # one call per broadcast, plus the root's call that claims termination
        assert len(trace.broadcasts) == 28
        assert len(calls) == len(trace.broadcasts) + 1

    def test_terminated(self):
        sim = make_seq(builtin_topology("path3"), 1)
        trace = sim.run(100)
        assert trace.status == "terminated"
        assert trace.claimed_by == 1

    @pytest.mark.parametrize("schedule", [{2: [0]}, {1: [0], 3: [0]}], ids=["partial", "clash"])
    def test_collector_paused_during_the_run_only(self, schedule, monkeypatch):
        seen = []
        on_clock = Beacon.on_clock

        def watched(self, clock):
            seen.append(gc.isenabled())
            return on_clock(self, clock)

        monkeypatch.setattr(Beacon, "on_clock", watched)
        assert gc.isenabled()
        sim = beacon_sim(line4(), schedule)
        try:
            sim.run(10)
        except ClashDetected:
            pass
        assert seen and not any(seen)
        assert gc.isenabled()


class TestDetectorAgainstBruteForce:
    def test_random_broadcast_sets(self):
        # independent O(n^2) derivation of the same definitions
        import random

        from d2color.topology import generate_random_connected

        rng = random.Random(31)
        for k in range(25):
            n = rng.randint(2, 25)
            topo = generate_random_connected(n, rng.randint(0, n), seed=k)
            origins = {i for i in range(1, n + 1) if rng.random() < 0.3}
            got = {
                (e.victim, e.clash_kind, e.participants)
                for e in detect_clashes(topo, 0, origins)
            }
            want = set()
            for v in range(1, n + 1):
                sending_neighbors = frozenset(
                    u for u in origins if v in topo.neighbors(u)
                )
                if len(sending_neighbors) >= 2:
                    want.add((v, "collision", sending_neighbors))
                if v in origins and sending_neighbors:
                    want.add((v, "conflict", sending_neighbors | {v}))
            assert got == want, (k, origins)


class TestMessageBits:
    def test_payload_accounting(self):
        from d2color.messages import ColorSeq, color_seq_bits, color_seq_bits_bound

        msg = ColorSeq(dest=2, sender=1, sender_cl=0, d1colors=(1, 3))
        # two identity fields plus one slot for the sender color and one per
        # carried color
        assert color_seq_bits(msg, n=8, delta=4) == 2 * 3 + 3 * 3
        assert color_seq_bits_bound(n=8, delta=4) == 2 * 3 + 4 * 3

    def test_degenerate_sizes_stay_positive(self):
        from d2color.messages import ColorSeq, color_seq_bits, color_seq_bits_bound

        msg = ColorSeq(dest=2, sender=1, sender_cl=0, d1colors=())
        assert color_seq_bits(msg, n=2, delta=1) <= color_seq_bits_bound(n=2, delta=1)


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        topo = builtin_topology("binary15")
        t1 = make_seq(topo, 1).run(1000)
        t2 = make_seq(topo, 1).run(1000)
        assert trace_to_text(t1) == trace_to_text(t2)

    def test_shuffled_handler_order_is_observationally_irrelevant(self):
        topo = builtin_topology("binary15")
        base = make_seq(topo, 1).run(1000)
        for seed in (1, 2, 3):
            shuffled = make_seq(topo, 1, handler_order_seed=seed).run(1000)
            assert trace_to_text(shuffled) == trace_to_text(base)


class TestProcessFootprint:
    @pytest.mark.parametrize("make", [
        lambda: SeqProcess(20, (10, 30)),
        lambda: ParProcess(20, (10, 30)),
        lambda: JoinerProcess(20, (10,)),
        lambda: ArbProcess(20, (10, 30)),
    ], ids=["seq", "par", "joiner", "arbitrary"])
    def test_protocol_processes_have_no_dict(self, make):
        p = make()
        assert not hasattr(p, "__dict__")
        with pytest.raises(AttributeError):
            p.stray = 1

    def test_a_subclass_without_slots_keeps_a_dict(self):
        p = Beacon(1, (2,))
        p.stray = 1
        assert vars(p)["stray"] == 1

    def test_neighbor_identities_kept_as_given(self):
        ids = (30, 10)
        assert SeqProcess(20, ids).neighbor_ids is ids

    def test_uncolored_processes_share_one_immutable_placeholder(self):
        seqs = [SeqProcess(20, (10, 30)), SeqProcess(21, (11,))]
        pars = [ParProcess(20, (10, 30)), ParProcess(21, (11,))]
        held = [p.d1colors for p in seqs] + [p.to_color for p in seqs + pars]
        assert all(c is EMPTY for c in held)
        with pytest.raises(AttributeError):
            seqs[0].to_color.add(99)
        assert not EMPTY

    @pytest.mark.parametrize("make", [make_seq, make_par], ids=["seq", "par"])
    def test_emptied_children_sets_give_way_to_the_placeholder(self, make):
        sim = make(builtin_topology("binary15"), 1)
        assert sim.run(1000).status == "terminated"
        assert all(p.to_color is EMPTY for p in sim.processes.values())

    def test_arbitrary_keeps_sets_of_its_own(self):
        a, b = ArbProcess(20, (10,)), ArbProcess(21, (11,))
        assert a.to_color is not b.to_color
        assert a._schedule == ()
        assert ArbProcess(20, (10, 30), {20: [30]})._schedule == [30]


class TestStateContract:
    """A handler sets dirty only on a change, so the engine records no unchanged state."""

    @staticmethod
    def _draw_simulation(data):
        """A random simulation of any protocol, on a random tree or, for arbitrary, a graph."""
        protocol = data.draw(st.sampled_from(["seq_tree", "par_tree", "arbitrary"]))
        n = data.draw(st.integers(1, 30), label="n")
        seed = data.draw(st.integers(0, 10**6), label="seed")
        kwargs = {"handler_order_seed": data.draw(st.none() | st.integers(0, 99), label="order")}
        if protocol == "arbitrary" and data.draw(st.booleans(), label="general graph"):
            topo = generate_random_connected(n, data.draw(st.integers(0, 2 * n), label="extra"),
                                             seed)
            kwargs["policy"] = RECORD_AND_CORRUPT
        else:
            topo = generate_random_tree(n, data.draw(st.integers(2, 6), label="cap"), seed)
        if protocol == "seq_tree" and data.draw(st.booleans(), label="random child"):
            kwargs.update(next_child_order="random", seed=seed)
        if protocol == "par_tree":
            kwargs["root_always_ends"] = data.draw(st.booleans(), label="root_always_ends")
            if data.draw(st.booleans(), label="sibling_end_parallel"):
                kwargs.update(sibling_end_parallel=True, policy=RECORD_AND_CORRUPT)
        module = {"seq_tree": proto_tree_seq, "par_tree": proto_tree_par,
                  "arbitrary": proto_arbitrary}[protocol]
        root = data.draw(st.integers(1, topo.n), label="root")
        return topo, module.make_simulation(topo, root, **kwargs)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_runs_record_each_state_once_and_only_on_a_change(self, data):
        topo, sim = self._draw_simulation(data)
        received = []
        sim.sink = received.append
        with contextlib.suppress(ClashDetected, ProtocolViolation):
            sim.run(auto_budget(topo.n, topo.delta))
        joins = data.draw(st.integers(0, 2), label="joins")
        unsaturated = [i for i, p in sim.processes.items()
                       if isinstance(p, ParProcess) and p.state == 6 and p.degree < topo.delta]
        for _ in range(joins if sim.trace.status == "terminated" and unsaturated else 0):
            parent = data.draw(st.sampled_from(unsaturated), label="join parent")
            if sim.processes[parent].degree < topo.delta:
                proto_tree_par.execute_join(sim, parent)
        assert received
        assert state_breaches(received) == []
