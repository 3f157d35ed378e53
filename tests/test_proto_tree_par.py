import pytest

from conftest import run_par, tree_corpus
from d2color.cli import auto_budget
from d2color.engine import ProtocolViolation
from d2color.messages import ColorPar, End, TermPar
from d2color.proto_tree_par import (
    MissingPairForUncoloredChild,
    ParProcess,
    make_simulation,
)
from d2color.scenarios import builtin_topology
from d2color.topology import metrics
from d2color.traceio import trace_to_text
from d2color.verifier import (
    end_wave_violations,
    fold_rounds,
    par_edge_color_violations,
    verify_run,
)


class TestPath3FromMiddle:
    """Frozen parallel run over 1-2-3 started at the middle process."""

    def setup_method(self):
        self.topo = builtin_topology("path3")
        self.trace = run_par(self.topo, 2)
        self.facts = fold_rounds(self.topo, self.trace)

    def test_colors(self):
        assert self.facts.colors == {1: 0, 2: 1, 3: 2}

    def test_root_color_is_1(self):
        first = next(c for c in self.trace.changes if c.proc == 2)
        assert first.state["color"] == 1

    def test_single_color_broadcast_covers_both_children(self):
        rec = next(r for r in self.trace.broadcasts if r.message.kind == "COLOR_PAR")
        assert rec.message.pairs == ((1, 0), (3, 2))
        assert rec.round == 1

    def test_claim_round(self):
        assert self.facts.claim_round == 3

    def test_all_end_at_state_6_knowing_palette_size(self):
        assert end_wave_violations(self.facts.finals, delta=2) == []

    def test_counts(self):
        assert self.facts.counts == {"COLOR_PAR": 1, "TERM_PAR": 2, "END": 1}

    def test_no_clashes(self):
        assert self.trace.clashes == ()


class TestStar4:
    def test_three_children_get_0_2_3(self):
        from d2color.topology import build_topology

        topo = build_topology([(1, 2), (1, 3), (1, 4)], kind="tree")
        assert fold_rounds(topo, run_par(topo, 1)).colors == {1: 1, 2: 0, 3: 2, 4: 3}

    def test_children_colors_skip_root_color(self):
        topo = builtin_topology("star4")
        assert fold_rounds(topo, run_par(topo, 1)).colors == {1: 1, 2: 0, 3: 2, 4: 3, 5: 4}

    def test_palette_is_delta_plus_1(self):
        topo = builtin_topology("star4")
        assert len(set(fold_rounds(topo, run_par(topo, 1)).colors.values())) == 5

    def test_coloring_phase_broadcast_bound(self):
        topo = builtin_topology("star4")
        counts = fold_rounds(topo, run_par(topo, 1)).counts
        assert counts["COLOR_PAR"] + counts["TERM_PAR"] <= 2 * 5 - 4


class TestSlotFormula:
    def make_proc(self, degree):
        ids = tuple(range(100, 100 + degree))
        return ParProcess(ident=50, neighbor_ids=ids)

    def test_start_at_clock_0(self):
        p = self.make_proc(3)
        p.on_start(clock=0)
        assert p.color == 1

    def test_start_at_clock_5_budget_4(self):
        p = self.make_proc(3)  # nb_cl = 4
        p.on_start(clock=5)
        assert p.color == (5 + 1) % 4 == 2

    def test_singleton_budget_1(self):
        p = self.make_proc(0)
        p.on_start(clock=0)
        assert p.color == 0
        assert p.state == 3


class TestHandlers:
    def make_colored(self):
        p = ParProcess(ident=20, neighbor_ids=(10, 30, 40))
        p.on_message(ColorPar(pairs=((20, 2),), sender=10, sender_cl=0, nb_cl_parent=4))
        return p

    def test_second_color_discarded(self):
        p = self.make_colored()
        p.on_message(ColorPar(pairs=((20, 3),), sender=30, sender_cl=1, nb_cl_parent=9))
        assert p.color == 2 and p.parent == 10

    def test_uncolored_process_missing_from_pairs(self):
        p = ParProcess(ident=20, neighbor_ids=(10,))
        with pytest.raises(MissingPairForUncoloredChild):
            p.on_message(ColorPar(pairs=((77, 0),), sender=10, sender_cl=0, nb_cl_parent=2))

    def test_report_from_unexpected_sender(self):
        p = self.make_colored()
        p.state = 2
        with pytest.raises(ProtocolViolation):
            p.on_message(TermPar(dest=20, sender=99, max_nb_cl=4))

    def test_report_for_other_destination_ignored(self):
        p = self.make_colored()
        p.state = 2
        p.on_message(TermPar(dest=77, sender=30, max_nb_cl=9))
        assert p.to_color == {30, 40}

    def test_end_only_from_parent_in_waiting_state(self):
        p = self.make_colored()
        p.state = 4
        p.on_message(End(parent=99, max_cl=9))
        assert p.state == 4
        p.on_message(End(parent=10, max_cl=9))
        assert p.state == 5 and p.max_nb_cl == 9


class TestEndWaveEdgeCases:
    def test_singleton_reaches_state_6(self):
        topo = builtin_topology("singleton")
        trace = run_par(topo, 1)
        assert trace.status == "terminated"
        finals = fold_rounds(topo, trace).finals
        assert finals[1]["state"] == 6
        assert finals[1]["max_nb_cl"] == 1

    def test_two_processes_literal_guard_stalls_the_wave(self):
        from d2color.topology import build_topology

        topo = build_topology([(1, 2)], kind="tree")
        trace = run_par(topo, 1)
        assert trace.status == "partial"
        states = {p: s["state"] for p, s in fold_rounds(topo, trace).finals.items()}
        assert states == {1: 6, 2: 4}

    def test_two_processes_with_root_override(self):
        from d2color.topology import build_topology

        topo = build_topology([(1, 2)], kind="tree")
        trace = run_par(topo, 1, root_always_ends=True)
        assert trace.status == "terminated"
        assert end_wave_violations(fold_rounds(topo, trace).finals, delta=1) == []

    def test_leaf_root_stalls_without_override(self):
        trace = run_par(builtin_topology("path3"), 1)
        assert trace.status == "partial"

    def test_leaf_root_completes_with_override(self):
        topo = builtin_topology("path3")
        trace = run_par(topo, 1, root_always_ends=True)
        assert trace.status == "terminated"
        assert fold_rounds(topo, trace).colors == {1: 1, 2: 0, 3: 2}

    def test_no_end_phase_stops_at_root_claim(self):
        topo = builtin_topology("path3")
        trace = run_par(topo, 2, end_phase=False)
        assert trace.status == "terminated"
        facts = fold_rounds(topo, trace)
        assert facts.counts.get("END") is None
        states = {p: s["state"] for p, s in facts.finals.items()}
        assert states[1] == 4 and states[3] == 4

    def test_late_start_round(self):
        topo = builtin_topology("star4")
        trace = run_par(topo, 1, start_round=3)
        assert trace.status == "terminated"
        root_color = next(c.state["color"] for c in trace.changes if c.proc == 1)
        assert root_color == (3 + 1) % 5
        assert end_wave_violations(fold_rounds(topo, trace).finals, delta=4) == []

    def test_round_bound_counts_from_the_start_signal(self):
        topo = builtin_topology("path3")
        report = verify_run(topo, run_par(topo, 2, start_round=6))
        check = next(b for b in report.bound_checks if b.name == "par_completion_round")
        assert check.ok
        assert check.observed == 3  # same wave length as a round-0 start


class TestSiblingEndParallel:
    def test_relaxed_mode_still_terminates_with_end_only_collisions(self):
        topo = builtin_topology("binary15")
        trace = run_par(topo, 1, sibling_end_parallel=True)
        assert trace.status == "terminated"
        assert end_wave_violations(fold_rounds(topo, trace).finals, delta=3) == []
        assert trace.clashes  # siblings really did collide at their parents
        kinds = {
            rec.message.kind
            for rec in trace.broadcasts
            if any(e.round == rec.round for e in trace.clashes)
        }
        assert kinds == {"END"}

    def test_report_whitelists_end_collisions(self):
        topo = builtin_topology("binary15")
        trace = run_par(topo, 1, sibling_end_parallel=True)
        report = verify_run(topo, trace)
        assert report.clash_events == 0
        assert report.ok(), report.to_text()


class TestCorpusProperties:
    CORPUS = list(tree_corpus(20, 250, 10, seed=55))

    @pytest.mark.parametrize("idx", range(0, 20, 3))
    def test_run_verifies(self, idx):
        topo, root = self.CORPUS[idx]
        trace = run_par(topo, root)
        report = verify_run(topo, trace)
        assert report.ok(), report.to_text()

    def test_zero_clashes_and_edge_color_range(self):
        for topo, root in self.CORPUS[:8]:
            trace = run_par(topo, root)
            assert trace.clashes == ()
            finals = fold_rounds(topo, trace).finals
            assert par_edge_color_violations(topo, finals) == []
            delta = metrics(topo, root).delta
            assert end_wave_violations(finals, delta) == []

    def test_mixed_moduli_slot_gating_is_clash_free(self):
        # coloring gates on the parent's budget, the end wave on the learned
        # global budget; the transition must not overlap broadcasts
        for topo, root in self.CORPUS[8:16]:
            trace = run_par(topo, root)
            assert trace.clashes == ()

    def test_determinism(self):
        topo, root = self.CORPUS[0]
        a = run_par(topo, root)
        b = run_par(topo, root)
        assert trace_to_text(a) == trace_to_text(b)

    def test_shuffled_handler_order_equivalent(self):
        topo, root = self.CORPUS[1]
        base = trace_to_text(run_par(topo, root))
        delta = metrics(topo, root).delta
        for seed in (11, 12):
            sim = make_simulation(topo, root, handler_order_seed=seed)
            assert trace_to_text(sim.run(auto_budget(topo.n, delta))) == base
