import random

import pytest

from d2color.engine import ClashDetected, ProtocolViolation
from d2color.messages import ColorArb, Correct, CorrectedColor, ResumeColoring, TermArb
from d2color.proto_arbitrary import ArbProcess, make_simulation, replace_last
from d2color.scenarios import (
    TABLE1_FINAL_COLORS,
    TABLE1_NEXT_SCHEDULE,
    builtin_topology,
    table1_mismatches,
)
from d2color.topology import generate_random_connected, generate_random_tree
from d2color.traceio import trace_to_text
from d2color.verifier import d2_conflicts, fold_rounds, tdma_replay


def run_table1(pinned=True, budget=200):
    topo = builtin_topology("table1")
    schedule = TABLE1_NEXT_SCHEDULE if pinned else None
    sim = make_simulation(topo, 1, next_schedule=schedule)
    return sim.run(budget)


class TestTable1Replay:
    def test_every_reference_cell_matches(self):
        trace = run_table1()
        assert table1_mismatches(trace) == []

    def test_final_colors(self):
        topo = builtin_topology("table1")
        assert fold_rounds(topo, run_table1()).colors == TABLE1_FINAL_COLORS

    def test_far_apart_pair_may_share_a_color(self):
        topo = builtin_topology("table1")
        colors = fold_rounds(topo, run_table1()).colors
        assert colors[4] == colors[5] == 2
        assert d2_conflicts(topo, colors) == []

    def test_sequential_flow(self):
        trace = run_table1()
        assert fold_rounds(builtin_topology("table1"), trace).most_broadcasts <= 1
        assert trace.clashes == ()

    def test_default_choice_rule_reproduces_the_pinned_run(self):
        # the reference always picks the smallest uncolored identity, so the
        # explicit schedule and the default rule coincide here
        assert trace_to_text(run_table1(pinned=True)) == trace_to_text(run_table1(pinned=False))

    def test_budget_exhaustion_reported(self):
        trace = run_table1(budget=5)
        assert trace.status == "budget_exhausted"


class TestKnowledgeRollback:
    def test_ordered_set_rolls_back_last_insertion(self):
        s = dict.fromkeys([0, 2, 5])
        s.setdefault(2)  # a duplicate keeps its place
        s.update(dict.fromkeys((0, 7)))  # so does one absorbed from a payload
        assert tuple(s) == (0, 2, 5, 7)
        replace_last(s, 3)  # the last color recorded, 7, goes
        assert tuple(s) == (0, 2, 5, 3)
        replace_last(s, 0)  # a replacement already known keeps its place
        assert tuple(s) == (0, 2, 5)

    def test_rollback_of_empty_sequence_is_a_violation(self):
        p = ArbProcess(ident=10, neighbor_ids=(20,))
        with pytest.raises(ProtocolViolation):
            p.on_message(CorrectedColor(dest1=99, dest2=98, sender=20, color=1))

    def test_relay_swaps_last_d1_entry(self):
        p = ArbProcess(ident=10, neighbor_ids=(20, 30))
        p.on_message(ColorArb(dest=99, sender=20, sender_cl=4, proposed_color=5, d1colors=()))
        assert tuple(p.d1) == (4,)
        p.on_message(CorrectedColor(dest1=77, dest2=78, sender=20, color=6))
        assert tuple(p.d1) == (6,)

    def test_wildcard_relay_swaps_last_d2_entry(self):
        p = ArbProcess(ident=10, neighbor_ids=(20, 30))
        p.on_message(ColorArb(dest=99, sender=20, sender_cl=4, proposed_color=5, d1colors=(1,)))
        assert tuple(p.d2) == (1, 5)
        p.on_message(CorrectedColor(dest1=-1, dest2=-1, sender=20, color=7))
        assert tuple(p.d2) == (1, 7)

    def test_wildcard_matching_own_color_resumes(self):
        p = ArbProcess(ident=10, neighbor_ids=(20,))
        p.on_message(ColorArb(dest=10, sender=20, sender_cl=0, proposed_color=3, d1colors=(1,)))
        p.on_message(CorrectedColor(dest1=-1, dest2=-1, sender=20, color=3))
        assert p.state == 5

    def test_refusal_on_advertised_self_clash(self):
        # the sender's own color appearing in its advertised set signals a
        # clash on the sender side; the receiver must bounce the proposal
        p = ArbProcess(ident=10, neighbor_ids=(20, 30))
        p.on_message(ColorArb(dest=10, sender=20, sender_cl=2, proposed_color=1, d1colors=(2,)))
        assert p.state == 1 and p.sender == 20

    def test_refusal_on_known_proposal(self):
        p = ArbProcess(ident=10, neighbor_ids=(20, 30))
        p.on_message(ColorArb(dest=99, sender=30, sender_cl=1, proposed_color=5, d1colors=()))
        assert 1 in p.d1
        p.on_message(ColorArb(dest=10, sender=20, sender_cl=0, proposed_color=1, d1colors=()))
        assert p.state == 1

    def test_resume_restarts_traversal(self):
        p = ArbProcess(ident=10, neighbor_ids=(20, 30))
        p.color = 2
        p.on_message(ResumeColoring(dest=10, sender=20))
        assert p.state == 2  # 30 still uncolored
        p.to_color.clear()
        p.on_message(ResumeColoring(dest=10, sender=20))
        assert p.state == 3

    def test_overheard_report_marks_the_reporter_colored(self):
        p = ArbProcess(ident=10, neighbor_ids=(20, 30))
        p.on_message(TermArb(dest=99, color=4, sender=30))
        assert 30 not in p.to_color


class TestTreesAreClean:
    def test_random_trees_terminate_consistently(self):
        rng = random.Random(17)
        for k in range(25):
            n = rng.randint(2, 60)
            topo = generate_random_tree(n, rng.randint(2, 6), seed=400 + k)
            root = rng.randint(1, n)
            trace = make_simulation(topo, root).run(20000)
            assert trace.status == "terminated"
            assert trace.clashes == ()
            facts = fold_rounds(topo, trace)
            assert facts.most_broadcasts <= 1
            colors = facts.colors
            assert len(colors) == n
            assert d2_conflicts(topo, colors) == []
            assert facts.counts.get("CORRECT") is None

    def test_singleton_never_claims(self):
        # with no neighbors the completion report goes nowhere, so the lone
        # process finishes its own work but nobody declares completion
        topo = builtin_topology("singleton")
        trace = make_simulation(topo, 1).run(100)
        assert trace.status == "partial"
        assert fold_rounds(topo, trace).finals[1]["state"] == 0


class TestCyclicGraphDefect:
    """Frozen minimal counterexample: one cycle defeats the repair scheme.

    On 1-2, 1-3, 2-3, 3-4 started at 3, process 2 is colored as a leaf case
    and only ever reports; overheard reports do not carry color knowledge to
    non-addressees, so process 3 re-proposes 2's color across the cycle to
    process 4.  The run finishes cleanly yet the coloring is broken, which is
    exactly what the independent oracle is for.
    """

    def setup_run(self):
        from d2color.topology import build_topology

        topo = build_topology([(1, 2), (1, 3), (2, 3), (3, 4)], kind="general")
        return topo, make_simulation(topo, 3).run(5000)

    def test_run_terminates_without_clash(self):
        topo, trace = self.setup_run()
        assert trace.status == "terminated"
        assert trace.clashes == ()
        assert fold_rounds(topo, trace).most_broadcasts <= 1

    def test_oracle_catches_the_distance2_violation(self):
        topo, trace = self.setup_run()
        colors = fold_rounds(topo, trace).colors
        assert colors == {1: 1, 2: 2, 3: 0, 4: 2}
        assert d2_conflicts(topo, colors) == [(2, 4, 2)]
        assert tdma_replay(topo, colors, delta=3) > 0


class TestRandomConnectedGraphs:
    def test_every_run_reaches_a_definite_verdict(self):
        rng = random.Random(23)
        tally = {"consistent": 0, "inconsistent": 0, "clash": 0}
        for k in range(40):
            n = rng.randint(3, 40)
            topo = generate_random_connected(n, rng.randint(0, n // 4), seed=600 + k)
            root = rng.randint(1, n)
            sim = make_simulation(topo, root)
            try:
                trace = sim.run(20000)
            except ClashDetected:
                tally["clash"] += 1
                continue
            assert trace.status == "terminated"
            colors = fold_rounds(topo, trace).colors
            conflicts = d2_conflicts(topo, colors)
            delta = topo.delta
            if len(colors) == n:
                replay = tdma_replay(topo, colors, delta)
                if conflicts:
                    # equal colors within two hops always share a slot
                    assert replay > 0
                elif max(colors.values()) <= delta:
                    # a consistent coloring that fits the slot cycle is clash
                    # free; wider palettes cannot fit delta+1 slots at all
                    assert replay == 0
            tally["consistent" if not conflicts and len(colors) == n else "inconsistent"] += 1
        # cycles genuinely defeat the correction scheme on some seeds; what
        # matters is that the harness classifies every outcome
        assert sum(tally.values()) == 40
        assert tally["consistent"] > 0

    def test_correct_message_path_on_a_cycle(self):
        # 4-cycle from a fixed root: the correction round-trip repairs the
        # one refusal and the result verifies
        from d2color.topology import build_topology

        topo = build_topology([(1, 2), (2, 3), (3, 4), (4, 1)], kind="general")
        trace = make_simulation(topo, 1).run(5000)
        assert trace.status == "terminated"
        colors = fold_rounds(topo, trace).colors
        assert len(colors) == 4
        assert d2_conflicts(topo, colors) == []
