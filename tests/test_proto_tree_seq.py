import random
from dataclasses import replace

import pytest

from conftest import run_seq, tree_corpus
from d2color.cli import auto_budget
from d2color.engine import ProtocolViolation, Round
from d2color.messages import ColorSeq, TermSeq
from d2color.proto_tree_seq import SeqProcess, make_simulation
from d2color.scenarios import builtin_topology
from d2color.topology import generate_random_tree, metrics
from d2color.verifier import (
    check_coloring,
    fold_rounds,
    seq_knowledge_violations,
    verify_run,
)


class TestPath3HandTrace:
    """Frozen depth-first walk over 1-2-3 started at process 1."""

    def setup_method(self):
        self.topo = builtin_topology("path3")
        self.trace = run_seq(self.topo, 1)
        self.facts = fold_rounds(self.topo, self.trace)

    def test_colors(self):
        assert self.facts.colors == {1: 0, 2: 1, 3: 2}

    def test_termination(self):
        assert self.trace.status == "terminated"
        assert self.trace.claimed_by == 1

    def test_claim_round(self):
        claimed = [c for c in self.trace.changes if c.state.get("claimed")]
        assert claimed and claimed[0].round == 5

    def test_message_counts(self):
        assert self.facts.counts == {"COLOR_SEQ": 2, "TERM_SEQ": 2}

    def test_no_clashes(self):
        assert self.trace.clashes == ()

    def test_middle_got_color_1_from_parent_payload(self):
        first = self.trace.broadcasts[0].message
        assert first == ColorSeq(dest=2, sender=1, sender_cl=0, d1colors=())

    def test_root_learned_max_degree(self):
        final = self.facts.finals[1]
        assert final["max_d"] == 2


class TestSmallCases:
    def test_root_takes_color_0_and_self_parent(self):
        topo = builtin_topology("star4")
        root = fold_rounds(topo, run_seq(topo, 1)).finals[1]
        assert root["color"] == 0
        assert root["parent"] == 1

    def test_singleton_claims_without_broadcasting(self):
        topo = builtin_topology("singleton")
        trace = run_seq(topo, 1)
        assert trace.status == "terminated"
        assert trace.broadcasts == ()
        assert fold_rounds(topo, trace).colors == {1: 0}

    def test_root_with_children_enters_active_state(self):
        trace = run_seq(builtin_topology("star4"), 1)
        first = next(c for c in trace.changes if c.proc == 1)
        assert first.state["state"] == 1

    def test_leaf_enters_report_state_directly(self):
        trace = run_seq(builtin_topology("path3"), 1)
        leaf_states = [c.state["state"] for c in trace.changes if c.proc == 3]
        assert leaf_states[0] == 3


class TestHandlers:
    def make_proc(self, **kw):
        return SeqProcess(ident=20, neighbor_ids=(10, 30), **kw)

    def test_color_for_other_destination_ignored(self):
        p = self.make_proc()
        p.on_message(ColorSeq(dest=99, sender=10, sender_cl=0, d1colors=()))
        assert p.state == 0 and p.color is None

    def test_second_addressed_color_rejected(self):
        p = self.make_proc()
        p.on_message(ColorSeq(dest=20, sender=10, sender_cl=0, d1colors=()))
        with pytest.raises(ProtocolViolation):
            p.on_message(ColorSeq(dest=20, sender=30, sender_cl=1, d1colors=()))

    def test_palette_skips_parent_and_carried_colors(self):
        p = self.make_proc()
        p.on_message(ColorSeq(dest=20, sender=10, sender_cl=1, d1colors=(0,)))
        assert p.color == 2

    def test_report_in_wrong_state_rejected(self):
        p = self.make_proc()
        with pytest.raises(ProtocolViolation):
            p.on_message(TermSeq(dest=20, sender=30, sender_cl=1, max_d=1))

    def test_report_from_unexpected_child_rejected(self):
        p = self.make_proc()
        p.on_message(ColorSeq(dest=20, sender=10, sender_cl=0, d1colors=()))
        p.on_clock(1)  # sends to child 30, state moves to waiting
        with pytest.raises(ProtocolViolation):
            p.on_message(TermSeq(dest=20, sender=77, sender_cl=2, max_d=1))


class TestCorpusProperties:
    CORPUS = list(tree_corpus(25, 200, 10, seed=77))

    @pytest.mark.parametrize("idx", range(0, 25, 4))
    def test_run_verifies(self, idx):
        topo, root = self.CORPUS[idx]
        trace = run_seq(topo, root)
        report = verify_run(topo, trace)
        assert report.ok(), report.to_text()

    def test_sequential_flow_and_max_degree_learning(self):
        for topo, root in self.CORPUS[:10]:
            trace = run_seq(topo, root)
            facts = fold_rounds(topo, trace)
            assert facts.most_broadcasts <= 1
            assert trace.clashes == ()
            delta = metrics(topo, root).delta
            assert facts.finals[root]["max_d"] == delta

    def test_carried_color_sets_stay_below_max_degree(self):
        # every color broadcast carries fewer than delta colors: the sender
        # always has at least one uncolored neighbor left at that point. No
        # set holds a negative color: the root's fictitious parent color -1
        # stays its sender_cl and never enters d1colors
        for topo, root in self.CORPUS[:10]:
            delta = metrics(topo, root).delta
            trace = run_seq(topo, root)
            for rec in trace.broadcasts:
                if rec.message.kind == "COLOR_SEQ":
                    assert len(rec.message.d1colors) < delta
                    assert min(rec.message.d1colors, default=0) >= 0
            for ch in trace.changes:
                assert min(ch.state["d1colors"], default=0) >= 0
            assert fold_rounds(topo, trace).finals[root]["sender_cl"] == -1

    def test_knowledge_sets_reach_delta_after_last_report(self):
        # the strict snapshot bound does not survive a subtree's final
        # report: the parent then holds all of its neighbors' colors. The
        # root (one neighbor, so one color) is not listed. The set is never
        # broadcast then, so the protocol's knowledge-set bound still holds
        topo = builtin_topology("path3")
        trace = run_seq(topo, 1)
        full = []
        for ch in trace.changes:
            size = len(ch.state["d1colors"])
            if size >= 2:
                full.append((ch.round, ch.proc, size))
        assert full == [(3, 2, 2), (4, 2, 2)]
        assert seq_knowledge_violations(trace, topo, 2) == []


class TestKnowledgeBoundCheck:
    """seq_knowledge_violations flags each breach injected into a real trace."""

    def run(self, name):
        topo = builtin_topology(name)
        return topo, run_seq(topo, 1)

    @pytest.mark.parametrize("name", ["path3", "star4"])
    def test_clean_runs_pass(self, name):
        topo, trace = self.run(name)
        assert seq_knowledge_violations(trace, topo, topo.delta) == []

    @staticmethod
    def forge(trace, old, new):
        """A copy of trace whose round holding the record old holds new in its place."""
        k = next(k for k, rnd in enumerate(trace.kept) if rnd.round == old.round)
        rnd = trace.kept[k]
        forged = Round(rnd.round, *(tuple(new if rec is old else rec for rec in recs)
                                    for recs in rnd[1:]))
        return replace(trace, kept=trace.kept[:k] + [forged] + trace.kept[k + 1:])

    def test_broadcast_carrying_delta_colors_reported(self):
        topo, trace = self.run("star4")
        rec = trace.broadcasts[6]  # root's last COLOR_SEQ, to process 5
        assert (rec.round, rec.message.kind) == (7, "COLOR_SEQ")
        bad = replace(rec, message=replace(rec.message, d1colors=(1, 2, 3, 4)))
        forged = self.forge(trace, rec, bad)
        assert seq_knowledge_violations(forged, topo, 4) == [(7, 1, 4)]

    def forge_snapshot(self, trace, round_, proc, d1colors):
        ch = next(c for c in trace.changes if (c.round, c.proc) == (round_, proc))
        bad = replace(ch, state={**ch.state, "d1colors": d1colors})
        return ch.state, self.forge(trace, ch, bad)

    def test_snapshot_with_delta_colors_while_coloring_reported(self):
        topo, trace = self.run("star4")
        state, forged = self.forge_snapshot(trace, 6, 1, (1, 2, 3, 4))
        assert state["state"] == 1 and state["to_color"] == (5,)
        assert seq_knowledge_violations(forged, topo, 4) == [(6, 1, 4)]

    def test_snapshot_above_degree_reported(self):
        topo, trace = self.run("path3")
        state, forged = self.forge_snapshot(trace, 2, 3, (0, 1))
        assert state["state"] == 3 and state["to_color"] == ()
        assert seq_knowledge_violations(forged, topo, 2) == [(2, 3, 2)]


class TestRandomNextChild:
    def test_random_order_still_colors_correctly(self):
        topo = generate_random_tree(60, 5, seed=9)
        delta = metrics(topo, 1).delta
        for seed in (0, 1, 2):
            sim = make_simulation(topo, 1, next_child_order="random", seed=seed)
            trace = sim.run(auto_budget(60, delta))
            ok_v, _, ok_c, _ = check_coloring(topo, fold_rounds(topo, trace).colors, delta)
            assert trace.status == "terminated" and ok_v and ok_c

    def test_orders_can_differ_but_counts_match(self):
        topo = generate_random_tree(60, 5, seed=9)
        delta = metrics(topo, 1).delta
        base = make_simulation(topo, 1).run(auto_budget(60, delta))
        rand = make_simulation(topo, 1, next_child_order="random", seed=4).run(
            auto_budget(60, delta)
        )
        assert fold_rounds(topo, base).counts == fold_rounds(topo, rand).counts


class TestReusedIdentities:
    def test_long_path_with_reused_identities(self):
        from d2color.topology import assign_identities, build_topology

        edges = [(i, i + 1) for i in range(1, 20)]
        topo = assign_identities(
            build_topology(edges, kind="tree"), "distance2_unique_with_reuse", seed=2
        )
        assert len(set(topo.identities[1:])) < 19
        trace = run_seq(topo, 10)
        report = verify_run(topo, trace)
        assert report.ok(), report.to_text()
