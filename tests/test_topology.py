import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2color.topology import (
    DisconnectedGraph,
    DuplicateEdge,
    IdentityClashWithin2Hops,
    InfeasibleDegreeCap,
    NotATree,
    TopologyError,
    assign_identities,
    bfs,
    build_topology,
    generate_random_connected,
    generate_random_tree,
    load_topology,
    metrics,
    repeats_within_two_hops,
    save_topology,
    two_hop,
    validate_identities,
)


class TestBuildTopology:
    def test_path3(self):
        topo = build_topology([(1, 2), (2, 3)], kind="tree")
        assert topo.n == 3
        assert topo.neighbors(2) == (1, 3)
        m = metrics(topo, 1)
        assert m.delta == 2
        assert m.depth == 2

    def test_table1_graph(self):
        topo = build_topology([(1, 2), (1, 4), (2, 3), (2, 5), (3, 4)], kind="general")
        assert topo.neighbors(1) == (2, 4)
        assert topo.neighbors(2) == (1, 3, 5)
        assert topo.neighbors(3) == (2, 4)
        assert topo.delta == 3

    def test_default_identities_are_1_to_n(self):
        topo = build_topology([(1, 2), (2, 3)], kind="tree")
        assert topo.identities[1:] == (1, 2, 3)

    def test_identity_clash_at_distance_2(self):
        with pytest.raises(IdentityClashWithin2Hops):
            build_topology([(1, 2), (1, 3)], identities=[9, 7, 7], kind="tree")

    def test_identity_clash_at_distance_1(self):
        with pytest.raises(IdentityClashWithin2Hops):
            build_topology([(1, 2), (1, 3)], identities=[7, 7, 9], kind="tree")

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            build_topology([(1, 2), (2, 1)], kind="tree", n=2)

    def test_self_loop(self):
        with pytest.raises(TopologyError):
            build_topology([(1, 1)], kind="general", n=1)

    def test_not_a_tree_wrong_edge_count(self):
        with pytest.raises(NotATree):
            build_topology([(1, 2), (2, 3), (3, 1)], kind="tree", n=3)

    def test_not_a_tree_cycle_with_isolated(self):
        # 3 edges on 4 processes: right count for a tree, but it is a
        # triangle plus an unreachable process
        with pytest.raises(NotATree):
            build_topology([(1, 2), (2, 3), (3, 1)], kind="tree", n=4)

    def test_disconnected_general(self):
        with pytest.raises(DisconnectedGraph):
            build_topology([(1, 2), (3, 4)], kind="general", n=4)

    def test_singleton(self):
        topo = build_topology([], kind="tree", n=1)
        assert topo.n == 1
        assert metrics(topo, 1).depth == 0
        assert topo.delta == 0

    def test_out_of_range_index(self):
        with pytest.raises(TopologyError):
            build_topology([(1, 5)], kind="tree", n=2)

    @pytest.mark.parametrize("kind, error", [("tree", NotATree), ("general", DisconnectedGraph)])
    def test_a_mistyped_n_is_refused_before_any_per_process_allocation(self, kind, error):
        tracemalloc.start()
        try:
            with pytest.raises(error, match="edges, got 2$"):
                build_topology([(1, 2), (2, 3)], kind=kind, n=200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestGenerateRandomTree:
    def test_deterministic_for_seed(self):
        a = generate_random_tree(100, 4, seed=7)
        b = generate_random_tree(100, 4, seed=7)
        assert a.edges() == b.edges()
        assert a.identities == b.identities

    def test_different_seed_differs(self):
        a = generate_random_tree(100, 4, seed=7)
        b = generate_random_tree(100, 4, seed=8)
        assert a.edges() != b.edges()

    def test_degree_cap_and_shape(self):
        topo = generate_random_tree(50, 3, seed=5)
        assert len(topo.edges()) == 49
        assert all(topo.degree(i) <= 3 for i in range(1, 51))
        # build_topology already enforced connectivity and tree shape

    def test_singleton(self):
        assert generate_random_tree(1, 2, seed=0).n == 1

    def test_infeasible_cap(self):
        with pytest.raises(InfeasibleDegreeCap):
            generate_random_tree(3, 1, seed=0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 120), md=st.integers(2, 8), seed=st.integers(0, 10**6))
    def test_generated_trees_validate(self, n, md, seed):
        topo = generate_random_tree(n, md, seed)
        assert len(topo.edges()) == n - 1
        assert max(topo.degree(i) for i in range(1, n + 1)) <= md
        validate_identities(topo)


class TestAssignIdentities:
    def test_reuse_on_path5(self):
        topo = build_topology([(1, 2), (2, 3), (3, 4), (4, 5)], kind="tree")
        r = assign_identities(topo, "distance2_unique_with_reuse", seed=0)
        assert len(set(r.identities[1:])) <= 3
        for a in range(1, 6):
            for b in range(a + 1, 6):
                if r.identity(a) == r.identity(b):
                    assert bfs(r.adjacency, a)[b] >= 3

    def test_star_forces_all_distinct(self):
        topo = build_topology([(1, 2), (1, 3), (1, 4)], kind="tree")
        r = assign_identities(topo, "distance2_unique_with_reuse", seed=3)
        assert len(set(r.identities[1:])) == 4

    def test_global_unique(self):
        topo = generate_random_tree(40, 4, seed=1)
        r = assign_identities(topo, "global_unique", seed=9)
        assert len(set(r.identities[1:])) == 40

    def test_reuse_deterministic_per_seed(self):
        topo = generate_random_tree(60, 4, seed=2)
        a = assign_identities(topo, "distance2_unique_with_reuse", seed=5)
        b = assign_identities(topo, "distance2_unique_with_reuse", seed=5)
        assert a.identities == b.identities

    def test_reuse_actually_reuses_on_long_paths(self):
        edges = [(i, i + 1) for i in range(1, 30)]
        topo = build_topology(edges, kind="tree")
        r = assign_identities(topo, "distance2_unique_with_reuse", seed=0)
        assert len(set(r.identities[1:])) < 30


class TestDistanceAndMetrics:
    def test_path_distances(self):
        topo = build_topology([(1, 2), (2, 3)], kind="tree")
        assert bfs(topo.adjacency, 1)[3] == 2
        assert bfs(topo.adjacency, 2)[2] == 0

    def test_table1_distance_4_5(self):
        topo = build_topology([(1, 2), (1, 4), (2, 3), (2, 5), (3, 4)], kind="general")
        assert bfs(topo.adjacency, 4)[5] == 3

    def test_star_metrics(self):
        topo = build_topology([(1, 2), (1, 3), (1, 4), (1, 5)], kind="tree")
        m = metrics(topo, 1)
        assert m.delta == 4
        assert m.depth == 1

    def test_path4_from_end(self):
        topo = build_topology([(1, 2), (2, 3), (3, 4)], kind="tree")
        assert metrics(topo, 1).depth == 3
        assert metrics(topo, 1).delta == 2

    def test_balanced_binary_15(self):
        edges = []
        for i in range(1, 8):
            edges += [(i, 2 * i), (i, 2 * i + 1)]
        topo = build_topology(edges, kind="tree")
        m = metrics(topo, 1)
        assert m.delta == 3
        assert m.depth == 3

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_distance_symmetric_and_triangle(self, seed):
        topo = generate_random_tree(30, 4, seed)
        rng = random.Random(seed)
        for _ in range(10):
            a, b, c = (rng.randint(1, 30) for _ in range(3))
            dist_a, dist_c = bfs(topo.adjacency, a), bfs(topo.adjacency, c)
            assert dist_a[b] == bfs(topo.adjacency, b)[a]
            assert dist_a[b] <= dist_a[c] + dist_c[b]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 14), extra=st.integers(0, 20), seed=st.integers(0, 10**6))
    def test_walks_match_floyd_warshall_on_general_graphs(self, n, extra, seed):
        topo = generate_random_connected(n, extra, seed)
        procs = range(1, n + 1)
        d = {(a, b): 0 if a == b else 1 if b in topo.neighbors(a) else n for a in procs
             for b in procs}
        for k in procs:
            for a in procs:
                for b in procs:
                    d[a, b] = min(d[a, b], d[a, k] + d[k, b])
        for a in procs:
            dist = bfs(topo.adjacency, a)
            assert dist == {b: d[a, b] for b in procs}
            assert list(dist.values()) == sorted(dist.values())  # visiting order
            assert two_hop(topo, a) == {b for b in procs if 1 <= d[a, b] <= 2}
            mets = metrics(topo, a)
            assert mets.depth == max(d[a, b] for b in procs)
            assert mets.delta == max(topo.degree(b) for b in procs)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 14), extra=st.none() | st.integers(0, 20),
           seed=st.integers(0, 10**6), data=st.data())
    def test_repeats_within_two_hops_match_bfs_oracle(self, n, extra, seed, data):
        if extra is None:
            topo = generate_random_tree(n, 3, seed)
        else:
            topo = generate_random_connected(n, extra, seed)
        procs = range(1, n + 1)
        dist = {a: bfs(topo.adjacency, a) for a in procs}

        def repeats(labels):
            return [(a, b, dist[a][b]) for a in procs for b in procs
                    if a < b and dist[a][b] <= 2 and labels[a] is not None
                    and labels[a] == labels[b]]

        def order(pair):
            a, b, d = pair
            centre = a if d == 1 else min(set(topo.neighbors(a)) & set(topo.neighbors(b)))
            return centre, d, a, b

        labels = [None] + data.draw(st.lists(st.none() | st.integers(0, 3), min_size=n,
                                             max_size=n), label="labels")
        assert repeats_within_two_hops(topo, labels) == sorted(repeats(labels), key=order)
        ids = data.draw(st.lists(st.integers(0, 2 * n), min_size=n, max_size=n),
                        label="identities")
        clash = bool(repeats([None] + ids))
        try:
            build_topology(topo.edges(), identities=ids, kind=topo.kind, n=n)
            assert not clash
        except IdentityClashWithin2Hops:
            assert clash

    def test_identity_invariant_large_instance(self):
        topo = generate_random_tree(2000, 6, seed=11)
        reused = assign_identities(topo, "distance2_unique_with_reuse", seed=11)
        validate_identities(reused)  # exhaustive closed-neighborhood sweep


class TestTopologyFile:
    def test_round_trip(self, tmp_path):
        topo = assign_identities(
            generate_random_tree(25, 4, seed=3), "distance2_unique_with_reuse", seed=1
        )
        path = tmp_path / "t.topo"
        save_topology(topo, str(path))
        loaded = load_topology(str(path))
        assert loaded.n == topo.n
        assert loaded.edges() == topo.edges()
        assert loaded.identities == topo.identities
        assert loaded.kind == topo.kind

    def test_round_trip_bytes_stable(self, tmp_path):
        topo = generate_random_tree(10, 3, seed=4)
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_topology(topo, str(p1))
        save_topology(load_topology(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_unknown_field(self, tmp_path):
        p = tmp_path / "bad.topo"
        p.write_text("format=d2topology/1\nn=1\nbogus=1\n")
        with pytest.raises(TopologyError):
            load_topology(str(p))

    @pytest.mark.parametrize("bad", ["n=x", "n=", "edge=1", "edge=1 2 3", "edge=1 b",
                                     "identities=1 x 3"])
    def test_malformed_value_names_its_line(self, tmp_path, bad):
        p = tmp_path / "bad.topo"
        p.write_text(f"format=d2topology/1\nkind=tree\n# comment\n{bad}\nn=3\n")
        key, _, value = bad.partition("=")
        with pytest.raises(TopologyError) as info:
            load_topology(str(p))
        assert str(info.value) == f"line 4: malformed {key}= value {value!r}"

    def test_bytes_that_are_not_utf8_are_a_topology_error(self, tmp_path):
        p = tmp_path / "bad.topo"
        p.write_bytes(b"format=d2topology/1\nn=2\nedge=1 2\xff\n")
        with pytest.raises(TopologyError, match="^not UTF-8 text: "):
            load_topology(str(p))
