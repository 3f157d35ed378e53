import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_par, run_seq, tree_corpus
from d2color.engine import BroadcastRecord, Round
from d2color.messages import ColorSeq
from d2color.scenarios import builtin_topology
from d2color.topology import (build_topology, generate_random_connected, generate_random_tree,
                              two_hop)
from d2color.verifier import (
    Coloring,
    check_coloring,
    d2_conflicts,
    fold_rounds,
    greedy_reference_coloring,
    tdma_replay,
    verify_run,
)


class TestCheckColoring:
    def test_path3_valid(self):
        topo = builtin_topology("path3")
        v_ok, v_off, c_ok, c_off = check_coloring(topo, {1: 0, 2: 1, 3: 2}, delta=2)
        assert v_ok and c_ok and not v_off and not c_off

    def test_path3_ends_share_color(self):
        topo = builtin_topology("path3")
        _, _, c_ok, c_off = check_coloring(topo, {1: 0, 2: 1, 3: 0}, delta=2)
        assert not c_ok
        assert (1, 3, 2) in c_off

    def test_table1_coloring_consistent(self):
        topo = builtin_topology("table1")
        v_ok, _, c_ok, c_off = check_coloring(
            topo, {1: 0, 2: 1, 3: 3, 4: 2, 5: 2}, delta=3
        )
        assert v_ok and c_ok, c_off

    def test_validity_enforced_for_trees_only(self):
        topo = builtin_topology("path3")
        v_ok, v_off, _, _ = check_coloring(topo, {1: 0, 2: 1, 3: 9}, delta=2)
        assert not v_ok and v_off == (3,)
        v_ok, _, _, _ = check_coloring(
            topo, {1: 0, 2: 1, 3: 9}, delta=2, enforce_validity=False
        )
        assert v_ok

    def test_negative_color_always_invalid(self):
        topo = builtin_topology("path3")
        v_ok, _, _, _ = check_coloring(
            topo, {1: 0, 2: 1, 3: -1}, delta=2, enforce_validity=False
        )
        assert not v_ok


class TestGreedyReference:
    def test_star_needs_delta_plus_1(self):
        topo = builtin_topology("star4")
        assert greedy_reference_coloring(topo).palette_size == 5

    def test_paths_need_3(self):
        for n in (3, 7, 20):
            edges = [(i, i + 1) for i in range(1, n)]
            from d2color.topology import build_topology

            topo = build_topology(edges, kind="tree")
            assert greedy_reference_coloring(topo).palette_size == 3

    def test_singleton(self):
        assert greedy_reference_coloring(builtin_topology("singleton")).palette_size == 1

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 80), seed=st.integers(0, 10**6))
    def test_always_consistent_on_trees(self, n, seed):
        topo = generate_random_tree(n, 6, seed)
        coloring = greedy_reference_coloring(topo)
        assert d2_conflicts(topo, coloring.colors) == []

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(3, 40), extra=st.integers(0, 10), seed=st.integers(0, 10**6))
    def test_always_consistent_on_general_graphs(self, n, extra, seed):
        topo = generate_random_connected(n, extra, seed)
        coloring = greedy_reference_coloring(topo)
        assert d2_conflicts(topo, coloring.colors) == []


class TestTdmaReplay:
    def test_valid_tree_coloring_is_silent(self):
        topo = builtin_topology("star4")
        assert tdma_replay(topo, fold_rounds(topo, run_par(topo, 1)).colors, delta=4) == 0

    def test_sibling_corruption_collides_at_parent(self):
        topo = builtin_topology("star4")
        colors = {1: 1, 2: 0, 3: 0, 4: 2, 5: 3}  # two leaves share a slot
        assert tdma_replay(topo, colors, delta=4) >= 1

    def test_singleton_silent(self):
        assert tdma_replay(builtin_topology("singleton"), {1: 0}, delta=0) == 0

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(3, 200), seed=st.integers(0, 10**6))
    def test_equivalence_with_consistency_on_trees(self, n, seed):
        topo = generate_random_tree(n, 6, seed)
        colors = greedy_reference_coloring(topo).colors
        delta = max(topo.degree(i) for i in range(1, n + 1))
        width = max(colors.values())
        assert tdma_replay(topo, colors, max(delta, width)) == 0
        # corrupt one pair within two hops: both oracles must now object
        rng = random.Random(seed)
        pairs = [(a, b) for a in range(1, n + 1) for b in sorted(two_hop(topo, a)) if a < b]
        a, b = pairs[rng.randrange(len(pairs))]
        colors[a] = colors[b]
        assert d2_conflicts(topo, colors)
        assert tdma_replay(topo, colors, max(delta, width)) >= 1


class TestReports:
    def test_seq_star_bounds(self):
        topo = builtin_topology("star4")
        report = verify_run(topo, run_seq(topo, 1))
        by_name = {b.name: b for b in report.bound_checks}
        assert by_name["seq_term_count"].observed == 4
        assert by_name["seq_color_count"].limit == 4 + (5 - 4) * 3
        assert by_name["seq_color_count"].observed == 4
        assert report.ok()

    def test_par_star_bounds(self):
        topo = builtin_topology("star4")
        report = verify_run(topo, run_par(topo, 1))
        by_name = {b.name: b for b in report.bound_checks}
        assert by_name["par_broadcast_count"].limit == 6
        assert by_name["par_broadcast_count"].observed == 5
        assert report.ok()

    def test_report_text_is_stable(self):
        topo = builtin_topology("path3")
        a = verify_run(topo, run_seq(topo, 1)).to_text()
        b = verify_run(topo, run_seq(topo, 1)).to_text()
        assert a == b
        assert "overall=pass" in a

    def test_report_flags_corrupted_colors(self):
        topo = builtin_topology("path3")
        trace = run_seq(topo, 1)
        for ch in trace.changes:
            if ch.proc == 3 and ch.state.get("color") == 2:
                ch.state["color"] = 0  # end now matches the other end
        report = verify_run(topo, trace)
        assert not report.consistency_ok
        assert not report.ok()
        assert "overall=fail" in report.to_text()

    def test_completion_round_reported(self):
        topo = builtin_topology("path3")
        report = verify_run(topo, run_par(topo, 2))
        assert report.completion_round == 3

    def test_corpus_reports_pass(self):
        for topo, root in list(tree_corpus(6, 120, 8, seed=13)):
            assert verify_run(topo, run_seq(topo, root)).ok()
            assert verify_run(topo, run_par(topo, root)).ok()

    def test_singleton_round_bound_is_vacuous(self):
        topo = builtin_topology("singleton")
        report = verify_run(topo, run_par(topo, 1))
        by_name = {b.name: b for b in report.bound_checks}
        assert by_name["par_completion_round"].ok
        assert "vacuous" in by_name["par_completion_round"].note
        assert report.ok()

    @pytest.mark.parametrize("topo, line", [
        (builtin_topology("singleton"),
         "bound name=seq_color_count limit=0 observed=0 pass note=singleton"),
        (build_topology([(1, 2)], kind="tree"),
         "bound name=seq_color_count limit=1 observed=1 pass"),
    ], ids=["one", "two"])
    def test_seq_color_count_on_the_smallest_trees(self, topo, line):
        trace = run_seq(topo, 1)
        text = verify_run(topo, trace).to_text()
        assert line in text.splitlines() and "overall=pass" in text
        # one COLOR_SEQ above the limit, forged into a round of its own after the run
        last = trace.kept[-1].round
        forged = BroadcastRecord(last + 1, 1, ColorSeq(topo.n, 1, 0, ()), tuple(topo.neighbors(1)))
        trace.kept.append(Round(last + 1, (), (forged,), (), ()))
        report = verify_run(topo, trace)
        check = next(b for b in report.bound_checks if b.name == "seq_color_count")
        assert (check.observed, check.ok) == (check.limit + 1, False)
        assert not report.ok()

    def test_coloring_dataclass(self):
        c = Coloring.from_colors({1: 0, 2: 1, 3: 0})
        assert c.palette_size == 2
