import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import tree_corpus
from d2color.cli import auto_budget
from d2color.proto_tree_par import (
    ConsistencyBroken,
    DegreeMismatch,
    IdentityPreconditionViolated,
    JoinError,
    ParentSaturated,
    SaturatedEndpoint,
    execute_join,
    make_simulation,
    merge_trees,
)
from d2color.scenarios import builtin_topology
from d2color.topology import build_topology, generate_random_tree, metrics, validate_identities
from d2color.verifier import d2_conflicts, fold_rounds, tdma_replay, verify_run


def completed_sim(topology, root, **kw):
    sim = make_simulation(topology, root, **kw)
    delta = metrics(topology, root).delta
    trace = sim.run(auto_budget(topology.n, delta))
    assert trace.status == "terminated"
    return sim


class TestJoin:
    def test_join_under_path_end(self):
        sim = completed_sim(builtin_topology("path3"), 2)
        out = execute_join(sim, 3)
        # the path's palette is {0,1,2}; the end knows its own 2 and the
        # middle's 1, leaving exactly 0
        assert out.color == 0
        colors = fold_rounds(sim.topology, sim.trace).colors
        assert colors[out.joiner_index] == 0
        assert d2_conflicts(out.topology, colors) == []
        validate_identities(out.topology)

    def test_join_announcement_rides_the_parent_slot(self):
        sim = completed_sim(builtin_topology("path3"), 2)
        out = execute_join(sim, 3)
        rec = next(r for r in sim.trace.broadcasts if r.message.kind == "NEW")
        parent_color = fold_rounds(sim.topology, sim.trace).finals[3]["color"]
        assert rec.round % 3 == parent_color
        assert rec.origin == 3
        assert out.joiner_index in rec.receivers

    def test_join_identity_avoids_the_new_neighborhood(self):
        sim = completed_sim(builtin_topology("path3"), 2)
        out = execute_join(sim, 3)
        taken = {out.topology.identity(3)} | {
            out.topology.identity(j) for j in out.topology.neighbors(3)
        }
        assert out.joiner_identity in taken  # it is now part of that set
        assert len(taken) == len(out.topology.neighbors(3)) + 1

    def test_saturated_parent_rejected(self):
        sim = completed_sim(builtin_topology("path3"), 2)
        with pytest.raises(ParentSaturated):
            execute_join(sim, 2)

    def test_join_requires_finished_end_wave(self):
        sim = completed_sim(builtin_topology("path3"), 2, end_phase=False)
        with pytest.raises(JoinError):
            execute_join(sim, 3)

    def test_second_join_under_one_parent_gets_a_fresh_color(self):
        # each join sets the parent's announcement outside its handlers;
        # set_topology must re-arm it, or the announcement is never sent
        topo = build_topology([(1, 2), (1, 3), (1, 4), (4, 5), (4, 6), (4, 7), (2, 8)],
                              kind="tree")
        sim = completed_sim(topo, 1)
        first = execute_join(sim, 3)
        second = execute_join(sim, 3)
        assert first.color != second.color
        colors = fold_rounds(sim.topology, sim.trace).colors
        assert len(colors) == second.topology.n == 10
        assert d2_conflicts(second.topology, colors) == []

    def test_two_joins_under_one_leaf_extend_its_neighbourhood(self):
        topo = build_topology([(1, 2), (1, 3), (1, 4), (4, 5), (4, 6), (4, 7), (2, 8)],
                              kind="tree")
        sim = completed_sim(topo, 1)
        leaf = sim.processes[3]
        first = execute_join(sim, 3)
        second = execute_join(sim, 3)
        assert first.color != second.color
        assert first.joiner_identity != second.joiner_identity
        assert leaf.neighbor_ids == (topo.identity(1), first.joiner_identity,
                                     second.joiner_identity)
        assert leaf.degree == 3 == second.topology.degree(3)
        validate_identities(second.topology)
        # another leaf's colors are its own: a join under it is untouched by these joins
        third = execute_join(sim, 5)
        fresh = execute_join(completed_sim(topo, 1), 5)
        assert third.color == fresh.color

    def test_seeded_joins_reverify(self):
        rng = random.Random(99)
        done = 0
        for topo, root in tree_corpus(25, 60, 6, seed=31):
            sim = completed_sim(topo, root)
            delta = metrics(topo, root).delta
            parents = [i for i in range(1, topo.n + 1) if topo.degree(i) < delta]
            if not parents:
                continue
            out = execute_join(sim, parents[rng.randrange(len(parents))])
            colors = fold_rounds(sim.topology, sim.trace).colors
            assert len(colors) == out.topology.n
            assert d2_conflicts(out.topology, colors) == []
            assert tdma_replay(out.topology, colors, delta) == 0
            validate_identities(out.topology)
            done += 1
        assert done >= 20


class TestJoinColors:
    """A parent gives a joiner the first color its own knowledge leaves free."""

    @staticmethod
    def _check_joiner_color(sim, parent, out):
        # everything read from the trace: the parent's last state and its neighbours' colors
        facts = fold_rounds(sim.topology, sim.trace)
        state = facts.finals[parent]
        colors = facts.colors
        others = [j for j in out.topology.neighbors(parent) if j != out.joiner_index]
        known = {state["color"], state["sender_cl"], *(colors[j] for j in others)}
        assert out.color == colors[out.joiner_index] == min(set(range(len(known) + 1)) - known)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(6, 40), cap=st.integers(3, 6), seed=st.integers(0, 10**6),
           data=st.data())
    def test_joins_under_the_root_an_inner_process_and_twice_under_one_parent(self, n, cap,
                                                                                 seed, data):
        topo = generate_random_tree(n, cap, seed)
        delta = topo.delta
        # a root of degree >= 2 sends END, so the run ends with the wave done
        roots = [i for i in range(1, n + 1) if 2 <= topo.degree(i) < delta]
        assume(roots)
        root = data.draw(st.sampled_from(roots), label="root")
        sim = completed_sim(topo, root)

        def room(i):
            return delta - sim.processes[i].degree

        def join(parent):
            out = execute_join(sim, parent)
            self._check_joiner_color(sim, parent, out)
            return out

        out = join(root)
        inner = [i for i in range(1, n + 1) if i != root and topo.degree(i) >= 2 and room(i)]
        if inner:
            out = join(data.draw(st.sampled_from(inner), label="inner parent"))
        twice = [i for i in range(1, n + 1) if room(i) >= 2]
        if twice:
            parent = data.draw(st.sampled_from(twice), label="parent of two joiners")
            join(parent)
            out = join(parent)
        assert verify_run(out.topology, sim.trace).ok()


def colored_path3(ident_base=0):
    ids = [ident_base + 1, ident_base + 2, ident_base + 3]
    topo = build_topology([(1, 2), (2, 3)], identities=ids, kind="tree")
    sim = make_simulation(topo, 2)
    return topo, fold_rounds(topo, sim.run(100)).colors


class TestMerge:
    def test_compatible_end_to_end_merge(self):
        t1, c1 = colored_path3(0)
        t2, c2 = colored_path3(10)
        merged, coloring = merge_trees(t1, c1, t2, c2, 3, 1)
        assert merged.n == 6
        assert d2_conflicts(merged, coloring) == []
        # colors preserved verbatim on both sides
        assert all(coloring[i] == c1[i] for i in c1)
        assert all(coloring[i + 3] == c2[i] for i in c2)

    def test_equal_endpoint_colors_rejected(self):
        t1, c1 = colored_path3(0)
        t2, c2 = colored_path3(10)
        # both ends carry color 2; gluing them puts equal colors at distance 1
        with pytest.raises(ConsistencyBroken) as exc:
            merge_trees(t1, c1, t2, c2, 3, 3)
        assert exc.value.offenders

    def test_distance2_seam_clash_rejected(self):
        t1, c1 = colored_path3(0)
        t2, c2 = colored_path3(10)
        # ends 3 (color 2) and 1' (color 0) pass at distance 1, but if the
        # neighbor color matches the far endpoint it still breaks
        bad_c2 = dict(c2)
        bad_c2[2] = 2  # force t2's middle to collide with t1's end
        with pytest.raises(ConsistencyBroken):
            merge_trees(t1, c1, t2, bad_c2, 3, 1)

    def test_degree_mismatch(self):
        t1, c1 = colored_path3(0)
        star = builtin_topology("star4")
        sim = make_simulation(star, 1)
        c3 = fold_rounds(star, sim.run(100)).colors
        with pytest.raises(DegreeMismatch):
            merge_trees(t1, c1, star, c3, 3, 2)

    def test_saturated_endpoint(self):
        t1, c1 = colored_path3(0)
        t2, c2 = colored_path3(10)
        with pytest.raises(SaturatedEndpoint):
            merge_trees(t1, c1, t2, c2, 2, 1)

    def test_identity_precondition(self):
        t1, c1 = colored_path3(0)
        t2, c2 = colored_path3(0)  # same identities on both sides
        with pytest.raises(IdentityPreconditionViolated):
            merge_trees(t1, c1, t2, c2, 3, 3)

    def test_merged_identities_validate(self):
        t1, c1 = colored_path3(0)
        t2, c2 = colored_path3(10)
        merged, _ = merge_trees(t1, c1, t2, c2, 3, 1)
        validate_identities(merged)
